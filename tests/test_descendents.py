import random
from fractions import Fraction as Q
from itertools import combinations
from math import factorial

import pytest

from tautrel import descendents as dsc
from tautrel.named_series import a_j, series_calA
from tautrel.named_series import double_factorial
from tautrel.series import BiPoly, Grading, MultiSeries


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


def ref_bipoly_exp(f):
    """sum_k f^k / k!, one full BiPoly product per power."""
    acc = BiPoly({(0, 0): Q(1)}, f.max_degree)
    term = acc
    for k in range(1, f.max_degree + 1):
        term = term * f * Q(1, k)
        if term.is_zero():
            break
        acc = acc + term
    return acc


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


class TestBuildFc:
    def test_low_coefficients(self):
        g = dsc.t_grading(8)
        Fc = dsc.build_Fc(8, g)
        assert Fc.coefficient((3,) + (0,) * (len(g) - 1)) == Q(1, 6)
        e = [0] * len(g)
        e[1] = 1
        assert Fc.coefficient(tuple(e)) == Q(1, 24)

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
        got = dsc.specialize_airy(Fc14, 12)
        assert got == series_calA(12)
        assert got[0] == 1
        assert got[3] == Q(-5, 24)
        assert got[6] == Q(385, 1152)
        assert got[9] == a_j(3)
        assert got[12] == a_j(4)

    def test_out_of_range(self, Fc14):
        with pytest.raises(IndexError):
            dsc.specialize_airy(Fc14, 15)


class TestDeterminantFormula:
    def test_N1(self, Fc14):
        rep = dsc.determinant_formula_check(Fc14, 1, 12)
        assert rep["ok"], rep

    def test_N2(self, Fc14):
        rep = dsc.determinant_formula_check(Fc14, 2, 8)
        assert rep["ok"], rep

    def test_bipoly_exp_matches_power_loop(self):
        rng = random.Random(13)
        f = BiPoly(
            {(i, j): Q(rng.randint(-6, 6), rng.randint(1, 4))
             for i in range(5) for j in range(5) if 0 < i + j},
            9,
        )
        assert dsc._bipoly_exp(f) == ref_bipoly_exp(f)
        assert dsc._bipoly_exp(f).terms == ref_bipoly_exp(f).terms
