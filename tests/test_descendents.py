import random
from collections import Counter
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations
from math import factorial

import pytest

from tautrel import descendents as dsc
from tautrel.named_series import series_A, series_calA
from tautrel.named_series import double_factorial
from tautrel.series import BiPoly, Grading, MultiSeries, PowerSeries, divide_exact


@lru_cache(maxsize=None)
def ref_bracket(ks):
    """The Fraction recursion: string, dilaton and DVV on <tau_ks> itself,
    dividing by (2 k_max + 1)!! at every DVV step."""
    ks = tuple(sorted(ks))
    if not ks or dsc._genus_of(ks) is None:
        return Q(0)
    if ks[0] == 0:
        if ks == (0, 0, 0):
            return Q(1)
        rest = ks[1:]
        total = Q(0)
        for k, m in Counter(rest).items():
            if k >= 1:
                j = rest.index(k)
                total += m * ref_bracket(rest[:j] + (k - 1,) + rest[j + 1 :])
        return total
    if ks[-1] == 1:
        if ks == (1,):
            return Q(2, 3) * Q(1, 16)
        rest = ks[:-1]
        return Q(2, 3) * (sum(rest) + Q(len(rest), 2)) * ref_bracket(rest)
    n = ks[-1] - 1
    rest = ks[:-1]
    total = Q(0)
    for k, m in Counter(rest).items():
        c = Q(double_factorial(2 * k + 2 * n + 1), double_factorial(2 * k - 1))
        j = rest.index(k)
        total += m * c * ref_bracket(rest[:j] + rest[j + 1 :] + (k + n,))
    splits = dsc._multiset_splits(rest)
    for i in range(n):
        c = Q(double_factorial(2 * i + 1) * double_factorial(2 * n - 2 * i - 1), 2)
        acc = ref_bracket(dsc._insert(dsc._insert(rest, i), n - 1 - i))
        for weight, inside, outside in splits:
            left = ref_bracket(dsc._insert(inside, i))
            if left:
                acc += weight * left * ref_bracket(dsc._insert(outside, n - 1 - i))
        total += c * acc
    return total / double_factorial(2 * n + 3)


def multisets_up_to(degree_max):
    """Every nonempty multiset of exponents, as a sorted tuple, of weighted
    degree sum (2k + 1) <= degree_max."""
    out = []

    def extend(ks, least, room):
        if ks:
            out.append(tuple(ks))
        for k in range(least, (room - 1) // 2 + 1):
            extend(ks + [k], k, room - 2 * k - 1)

    extend([], 0, degree_max)
    return out


def ref_build_Fc(degree_max):
    """F^c from every monomial of weighted degree <= degree_max, each
    coefficient ref_bracket(ks) / prod m_a!."""
    g = dsc.t_grading(degree_max)
    terms = {}
    for ks in multisets_up_to(degree_max):
        val = ref_bracket(ks)
        if val:
            exps = [0] * len(g)
            for k in ks:
                exps[k] += 1
            for m in exps:
                val /= factorial(m)
            terms[tuple(exps)] = val
    return MultiSeries(g, terms, degree_max)


def ref_dvv(ks):
    """One DVV step summed over every index subset, as before grouping by
    multiset; the sub-brackets come from dsc.bracket."""
    n = ks[-1] - 1
    rest = list(ks[:-1])
    m = len(rest)
    total = Q(0)
    for j, k in enumerate(rest):
        c = Q(double_factorial(2 * k + 2 * n + 1), double_factorial(2 * k - 1))
        total += c * dsc.bracket(tuple(rest[:j] + [k + n] + rest[j + 1 :]))
    for i in range(n):
        c = Q(double_factorial(2 * i + 1) * double_factorial(2 * n - 2 * i - 1), 2)
        total += c * dsc.bracket(tuple(rest + [i, n - 1 - i]))
        for r in range(m + 1):
            for subset in combinations(range(m), r):
                inside = [rest[j] for j in subset]
                outside = [rest[j] for j in range(m) if j not in subset]
                total += c * dsc.bracket(tuple([i] + inside)) * dsc.bracket(
                    tuple([n - 1 - i] + outside)
                )
    return total / double_factorial(2 * n + 3)


def ref_pair_mul(a, b, order):
    """Every pair of terms of two {(i, j): c} maps, kept through total
    degree ``order``."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 <= order:
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, Q(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_bipoly_exp(f, order):
    """sum_k f^k / k! of a {(i, j): c} map through total degree ``order``,
    one full pairwise product per power."""
    term = {(0, 0): Q(1)}
    acc = dict(term)
    for k in range(1, order + 1):
        term = {e: c / k for e, c in ref_pair_mul(term, f, order).items()}
        if not term:
            break
        for e, c in term.items():
            acc[e] = acc.get(e, Q(0)) + c
    return {e: c for e, c in acc.items() if c}


def ref_determinant_N2(Fc, order):
    """Both sides of the two-variable determinantal formula as {(i, j): c}
    maps through total degree ``order``, kept as an oracle: the shift
    t_i -> -(2i-1)!!(x1^{2i+1} + x2^{2i+1}) of each F^c monomial expanded
    by pairwise products, exp by the power loop, and the right side
    [x1 A(x1) E(x2) - x2 A(x2) E(x1)] / (x1 - x2) by exact division."""
    deg = Fc.grading.degree
    f = {}
    for exps, c in Fc.terms.items():
        if deg(exps) > order:
            continue
        poly = {(0, 0): c}
        for i, e in enumerate(exps):
            k = -double_factorial(2 * i - 1)
            w = 2 * i + 1
            for _ in range(e):
                poly = ref_pair_mul(poly, {(w, 0): k, (0, w): k}, order)
        for e, c in poly.items():
            f[e] = f.get(e, Q(0)) + c
    A = series_calA(order + 2)
    # psi_2 = x^4 A' + A + x^3 A / 2, through the order of A'.
    E = A.derivative().times_x_power(4) + A + A.times_x_power(3) * Q(1, 2)
    xA = PowerSeries([0, 1], order + 2) * A
    num = {(i, j): ca * cb - E[i] * xA[j] for i, ca in enumerate(xA.coeffs)
           for j, cb in enumerate(E.coeffs) if i + j <= order + 1}
    return ref_bipoly_exp(f, order), divide_exact(BiPoly(num, order + 1), (1, -1)).terms


class TestBracket:
    def test_string_base(self):
        assert dsc.bracket((0, 0, 0)) == 1

    def test_dilaton_base(self):
        assert dsc.bracket((1,)) == Q(1, 24)

    def test_dimension_vanishing(self):
        # (0, 1) admits no genus at all: sum k - n + 3 = 2 is not 3g.
        assert dsc.bracket((0, 1)) == 0
        assert dsc.bracket((0, 0, 1)) == 0
        assert dsc.descendent(0, (0, 1, 2)) == 0
        assert dsc.descendent(1, (0, 2)) == Q(1, 24)
        with pytest.raises(ValueError):
            dsc.descendent(0, (0, 2))

    def test_genus0_closed_form(self):
        # <tau_{k_1}...tau_{k_n}>_0 = (n-3)! / prod k_i!
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(3, 7)
            # random composition of n-3 into n parts
            ks = [0] * n
            for _ in range(n - 3):
                ks[rng.randrange(n)] += 1
            expected = Q(factorial(n - 3))
            for k in ks:
                expected /= factorial(k)
            assert dsc.bracket(tuple(sorted(ks))) == expected

    def test_genus2_known_values(self):
        assert dsc.bracket((4,)) == Q(1, 1152)
        assert dsc.bracket((0, 5)) == Q(1, 1152)
        assert dsc.bracket((1, 4)) == Q(1, 384)
        assert dsc.bracket((2, 3)) == Q(29, 5760)

    def test_genus1_known_values(self):
        assert dsc.bracket((0, 2)) == Q(1, 24)
        assert dsc.bracket((1, 1)) == Q(1, 24)

    @pytest.mark.parametrize(
        "ks", [(2, 3), (1, 1, 2, 2, 5), (2, 2, 3, 3, 4), (2, 4, 4, 6), (8, 8, 8)]
    )
    def test_dvv_grouping_matches_subset_loop(self, ks):
        assert dsc._genus_of(ks) is not None
        assert dsc.bracket(ks) == ref_dvv(ks) != 0

    def test_dvv_deep_value(self):
        assert dsc.bracket((8, 8, 8)) == Q(104256173, 343068062515200)

    def test_scaled_integers_match_fraction_recursion(self):
        kss = multisets_up_to(30)
        assert len(kss) > 1000
        for ks in kss:
            assert dsc.bracket(ks) == ref_bracket(ks), ks
            assert dsc.bracket(ks[::-1]) == ref_bracket(ks), ks

    @pytest.mark.parametrize("g", range(1, 11))
    def test_one_point(self, g):
        # <tau_{3g-2}>_g = 1 / (24^g g!).
        assert dsc.bracket((3 * g - 2,)) == Q(1, 24**g * factorial(g))

    def test_dijkgraaf_two_point(self):
        # (x + y) sum <tau_k tau_l>_g x^k y^l is the degree-3g part of
        # exp((x^3 + y^3)/24) sum_n n!/(2n+1)! (xy(x + y)/2)^n.
        top = 24
        cube = BiPoly({(3, 0): Q(1, 24), (0, 3): Q(1, 24)}, top)
        half = BiPoly({(2, 1): Q(1, 2), (1, 2): Q(1, 2)}, top)
        one = BiPoly({(0, 0): Q(1)}, top)
        e, s, p, q = one, one, one, one
        for n in range(1, top // 3 + 1):
            p = p * cube * Q(1, n)
            q = q * half
            e = e + p
            s = s + q * Q(factorial(n), factorial(2 * n + 1))
        rhs = e * s
        x_plus_y = BiPoly({(1, 0): Q(1), (0, 1): Q(1)}, top)
        for g in range(1, top // 3 + 1):
            F2 = BiPoly(
                {(k, 3 * g - 1 - k): dsc.bracket((k, 3 * g - 1 - k))
                 for k in range(3 * g)},
                top,
            )
            lhs = x_plus_y * F2
            want = {m: c for m, c in rhs.terms.items() if sum(m) == 3 * g}
            assert lhs.terms == want, g


class TestBuildFc:
    def test_low_coefficients(self):
        Fc = dsc.build_Fc(8)
        g = Fc.grading
        assert Fc.coefficient((3,) + (0,) * (len(g) - 1)) == Q(1, 6)
        e = [0] * len(g)
        e[1] = 1
        assert Fc.coefficient(tuple(e)) == Q(1, 24)

    def test_matches_every_monomial(self):
        got = dsc.build_Fc(30)
        want = ref_build_Fc(30)
        assert got.grading == want.grading
        assert got.terms == want.terms

    def test_degree_structure(self):
        Fc = dsc.build_Fc(9)
        deg = Fc.grading.degree
        for exps in Fc.terms:
            assert deg(exps) % 3 == 0


@pytest.fixture(scope="module")
def Fc14():
    return dsc.build_Fc(14)


@pytest.fixture(scope="module")
def Fc21():
    return dsc.build_Fc(21)


class TestVirasoro:
    def test_L_minus1_on_one(self):
        g = dsc.t_grading(6)
        one = MultiSeries.constant(g, 1, 6)
        out = dsc.apply_L(-1, one)
        assert out.coefficient((2,) + (0,) * (len(g) - 1)) == Q(1, 2)
        assert len(out.terms) == 1

    def test_L0_on_one(self):
        g = dsc.t_grading(6)
        one = MultiSeries.constant(g, 1, 6)
        out = dsc.apply_L(0, one)
        assert out.constant_term() == Q(1, 16)
        assert len(out.terms) == 1

    def test_commutator(self):
        # (L_1 L_2 - L_2 L_1 - (1-2) L_3) f = 0 on a random polynomial.  The
        # polynomial is exact (degree <= 8 in a degree-30 window), so no
        # truncation loss enters the comparison.
        g = dsc.t_grading(30)
        rng = random.Random(9)
        nv = len(g)
        terms = {}
        for _ in range(25):
            e = [0] * nv
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(4)] += 1
            if g.degree(e) <= 8:
                terms[tuple(e)] = Q(rng.randint(-5, 5))
        f = MultiSeries(g, terms, 30)
        lhs = dsc.apply_L(1, dsc.apply_L(2, f)) - dsc.apply_L(2, dsc.apply_L(1, f))
        rhs = dsc.apply_L(3, f) * (1 - 2)
        assert (lhs - rhs).truncate(8).is_zero()

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 4])
    def test_virasoro_annihilates_partition_function(self, n, Fc21):
        E = Fc21.exp()
        res = dsc.apply_L(n, E)
        # out_deg is 21 - (2n+3) >= 10 for n <= 4.
        assert res.truncate(10).is_zero(), (n, sorted(res.terms)[:3])


class TestKdV:
    def test_first_equation(self, Fc14):
        assert dsc.kdv_residual(Fc14, 1).truncate(9).is_zero()

    def test_second_equation(self, Fc14):
        assert dsc.kdv_residual(Fc14, 2).truncate(7).is_zero()

    def test_bad_which(self, Fc14):
        with pytest.raises(ValueError):
            dsc.kdv_residual(Fc14, 3)


class TestAirySpecialization:
    def test_matches_calA(self, Fc14):
        E = dsc.determinant_formula_check(Fc14, 1, 12)["series"]
        got = PowerSeries([E.coefficient(E.grading.monomial("x1", k))
                           for k in range(13)], 12)
        assert got == series_calA(12)
        assert got[0] == 1
        assert got[3] == Q(-5, 24)
        assert got[6] == Q(385, 1152)
        assert got[9] == -series_A(3)[3]
        assert got[12] == series_A(4)[4]

    def test_out_of_range(self, Fc14):
        with pytest.raises(IndexError):
            dsc.determinant_formula_check(Fc14, 1, 15)


# F^c's six monomials of weighted degree 9, as exponents of t_0 .. t_4,
# and the combination v of them that the two-variable specialization
# sends to 0.
_DEGREE9 = [(0, 0, 0, 0, 1), (0, 3, 0, 0, 0), (1, 1, 1, 0, 0),
            (2, 0, 0, 1, 0), (3, 2, 0, 0, 0), (4, 0, 1, 0, 0)]
_BLIND_AT_N2 = dict(zip(_DEGREE9, [0, -6, 5, Q(-3, 5), -3, 1]))


def _rank(rows):
    """Rank of a list of rational rows, by exact elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[a - r[col] / pivot[col] * b for a, b in zip(r, pivot)]
                for r in rows]
        rows.insert(rank, pivot)
        rank += 1
    return rank


class TestDeterminantFormula:
    def test_N1(self, Fc14):
        rep = dsc.determinant_formula_check(Fc14, 1, 12)
        assert rep["ok"], rep
        # The specialized series is returned for the caller to read
        # (TestAirySpecialization reads it).
        assert rep["series"].max_degree == 12

    def test_N2(self, Fc14):
        rep = dsc.determinant_formula_check(Fc14, 2, 8)
        assert rep["ok"], rep

    @pytest.mark.parametrize("N,order", [(3, 14), (4, 16)])
    def test_more_variables(self, N, order):
        rep = dsc.determinant_formula_check(dsc.build_Fc(16), N, order)
        assert rep["ok"], rep["residual_terms"]

    @pytest.mark.parametrize("order", [8, 12])
    def test_N2_agrees_with_bipoly_division(self, Fc14, order):
        lhs, rhs = ref_determinant_N2(Fc14, order)
        assert lhs == rhs and lhs
        rep = dsc.determinant_formula_check(Fc14, 2, order)
        assert rep["ok"], rep["residual_terms"]
        nt = len(Fc14.grading)
        assert {e[nt:]: c for e, c in rep["series"].terms.items()} == lhs

    def test_N2_catches_one_extra_term(self, Fc14, monkeypatch):
        shift = dsc._airy_shift

        def perturbed(Fc, order, xs):
            lhs = shift(Fc, order, xs)
            e = (0,) * (len(lhs.grading) - 2) + (3, 2)
            return lhs + MultiSeries(lhs.grading, {e: Q(1, 7)}, lhs.max_degree)

        monkeypatch.setattr(dsc, "_airy_shift", perturbed)
        rep = dsc.determinant_formula_check(Fc14, 2, 8)
        # x1^3 x2^2 / 7 is x^{lambda + delta} at lambda = (3, 2) only.
        assert not rep["ok"]
        assert rep["residual_terms"] == {"(3, 2)": "1/7"}

    def test_degree9_specialization_kernel(self):
        # The N-variable specialization of the six degree-9 monomials:
        # 6 - rank directions are blind, 5 at N = 1, 1 at N = 2, none at
        # N = 3, and v spans them at N = 2.
        G = dsc.t_grading(9)
        for N, blind in [(1, 5), (2, 1), (3, 0)]:
            xs = Grading([f"x{a}" for a in range(1, N + 1)], [1] * N)
            images = []
            for m in _DEGREE9:
                E = dsc._airy_shift(MultiSeries(G, {m: 1}, 9), 9, xs)
                images.append({e: c for e, c in E.terms.items() if any(e)})
            keys = sorted(set().union(*images))
            assert 6 - _rank([[f.get(k, 0) for k in keys] for f in images]) == blind
            v = {k: sum(_BLIND_AT_N2[m] * f.get(k, 0) for m, f in zip(_DEGREE9, images))
                 for k in keys}
            assert (not any(v.values())) == (N <= 2)

    def test_three_variables_see_what_two_cannot(self, Fc14):
        pad = (0,) * (len(Fc14.grading) - 5)
        v = MultiSeries(Fc14.grading, {m + pad: c for m, c in _BLIND_AT_N2.items()},
                        Fc14.max_degree)
        for N, failed in [(1, 0), (2, 0), (3, 17), (4, 36)]:
            rep = dsc.determinant_formula_check(Fc14 + v, N, 14)
            assert rep["ok"] == (not failed)
            assert len(rep["residual_terms"]) == failed

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_order_beyond_Fc_rejected(self, N):
        with pytest.raises(IndexError, match="order exceeds the truncation of F"):
            dsc.determinant_formula_check(dsc.build_Fc(10), N, 14)

    def test_no_variables_rejected(self, Fc14):
        with pytest.raises(ValueError, match="N must be at least 1"):
            dsc.determinant_formula_check(Fc14, 0, 8)

    def test_bipoly_exp_matches_power_loop(self):
        rng = random.Random(13)
        f = {(i, j): Q(rng.randint(-6, 6), rng.randint(1, 4))
             for i in range(5) for j in range(5) if 0 < i + j}
        got = MultiSeries(Grading(["x1", "x2"], [1, 1]), f, 9).exp()
        assert got.terms == ref_bipoly_exp(f, 9)
