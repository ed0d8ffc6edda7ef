import hashlib
from fractions import Fraction as Q
from itertools import product
from math import comb, factorial, prod

import pytest

from tautrel import open_potential as op
from tautrel.descendents import build_Fc
from tautrel.series import Grading, MultiSeries, _lowest


@pytest.fixture(scope="module")
def Fc17():
    return build_Fc(17)


@pytest.fixture(scope="module")
def Fo_kdv(Fc17):
    return op.solve_open_kdv(Fc17, 17)


@pytest.fixture(scope="module")
def Fo_buryak(Fc17):
    return op.buryak_formula(Fc17, 14)


def ref_open_kdv_residual(Fo, Fc, n):
    """Residual of open KdV equation n for a candidate Fo, by derivatives
    of whole series; valid to weighted degree max_degree - (2n+1)."""
    g = Fo.grading
    Fc_o = Fc.truncate(Fo.max_degree).substitute(g, {})
    res = (
        Fo.derivative(f"t{n}") * Q(2 * n + 1, 2)
        - Fo.derivative("s") * Fo.derivative(f"t{n - 1}")
        - Fo.derivative("s").derivative(f"t{n - 1}")
        - Fo.derivative("t0") * Fc_o.derivative("t0").derivative(f"t{n - 1}") * Q(1, 2)
        + Fc_o.derivative("t0").derivative("t0").derivative(f"t{n - 1}") * Q(1, 4)
    )
    return res.truncate(Fo.max_degree - (2 * n + 1))


def splits_walk(Fc, D_max):
    """The open KdV solve as a walk over monomials, kept as an oracle.

    Each monomial M (largest t-index n, Mp = M / t_n) sums every product
    term of equation n at Mp over all ways to split the exponent vector
    of Mp as A + B, looking up each factor coefficient by coefficient.
    """
    g = op.open_grading(D_max)
    nt = len(g) - 1
    s_i = nt
    fc = {}
    for e, c in Fc.terms.items():
        if not any(e[nt:]):
            fc[tuple(e[:nt]) + (0,) * (nt - len(e))] = c
    F = {(0,) * nt + (3,): Q(1, 6), (1,) + (0,) * (nt - 1) + (1,): Q(1)}

    def d(store, e, *vars_):
        """Coefficient of x^e in the derivative of store in vars_."""
        e = list(e)
        mult = 1
        for v in vars_:
            e[v] += 1
            mult *= e[v]
        return store.get(tuple(e), 0) * mult

    def fc_d(e, *vars_):
        return d(fc, e[:nt], *vars_) if e[s_i] == 0 else 0

    monos = []

    def rec(degree, i, left, e):
        """Monomials of the degree in the variables 0..i, times e."""
        if i < 0:
            if left == 0 and any(e[1:nt]):
                idx = sorted((j for j in range(nt) for _ in range(e[j])),
                             reverse=True)
                monos.append(((degree, idx), tuple(e)))
            return
        for k in range(left // g.weights[i] + 1):
            e[i] = k
            rec(degree, i - 1, left - k * g.weights[i], e)
        e[i] = 0

    for degree in range(1, D_max + 1):
        rec(degree, len(g) - 1, degree, [0] * len(g))
    monos.sort()
    for _, M in monos:
        n = max(i for i in range(1, nt) if M[i])
        Mp = M[:n] + (M[n] - 1,) + M[n + 1:]
        rhs = d(F, Mp, s_i, n - 1) - Q(1, 4) * fc_d(Mp, 0, 0, n - 1)
        for A in product(*(range(x + 1) for x in Mp)):
            B = tuple(x - a for x, a in zip(Mp, A))
            rhs += d(F, A, s_i) * d(F, B, n - 1)
            rhs += Q(1, 2) * d(F, A, 0) * fc_d(B, 0, n - 1)
        if rhs:
            F[M] = rhs * Q(2, 2 * n + 1) / M[n]
    return MultiSeries(g, F, D_max)


def ref_gz_shift_t_ratio(F, D_max):
    """G_z(exp F)/exp F as {j: MultiSeries coefficient of z^{-j}}, each of
    truncation degree D_max - j, kept as an oracle: the shift of each
    monomial expanded binomially on its own, then exp(G_z F - F) grade by
    grade in j, a term kept only while its weighted degree plus j is at
    most D_max."""
    g = F.grading
    P = {}  # {j: {exps: coeff}}
    for exps_, c in F.terms.items():
        choices = []
        for name, w, e in zip(g.names, g.weights, exps_):
            k = op.double_factorial(w - 2) if name.startswith("t") else 0
            choices.append([(r, comb(e, r) * (-k) ** r, w * r) for r in range(e + 1)])
        for combo in product(*choices):
            j = sum(t[2] for t in combo)
            if j:
                key = tuple(e - t[0] for t, e in zip(combo, exps_))
                coeff = c * prod(t[1] for t in combo)
                P.setdefault(j, {})[key] = P.get(j, {}).get(key, 0) + coeff
    # d E_d = sum_k k P_k E_{d-k}.
    E = {0: {(0,) * len(g): Q(1)}}
    for d in range(1, D_max + 1):
        acc = {}
        for k, pk in P.items():
            for e1, c1 in pk.items():
                for e2, c2 in E.get(d - k, {}).items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    if g.degree(e) + d <= D_max:
                        acc[e] = acc.get(e, 0) + k * c1 * c2 / d
        E[d] = acc
    return {j: MultiSeries(g, t, D_max - j) for j, t in E.items()
            if any(t.values())}


def ref_lift_to_open(Fc, grading):
    """The former re-keying of a t-series into the t+s grading, kept as an
    oracle: monomials using t-variables beyond the target alphabet are
    dropped, the others padded with s-exponent 0."""
    nt = len(grading) - 1
    pad = (0,) * (nt - len(Fc.grading)) + (0,)
    out = {}
    for d, (m, t) in Fc._buckets.items():
        part = _lowest(m, {e[:nt] + pad: c for e, c in t.items() if not any(e[nt:])})
        if part:
            out[d] = part
    return MultiSeries.from_buckets(grading, out, Fc.max_degree)


def exps(grading, **kwargs):
    e = [0] * len(grading)
    for name, v in kwargs.items():
        e[grading.index[name]] = v
    return tuple(e)


def named_terms(ms, max_degree):
    """Terms keyed by variable name, comparable across alphabet widths."""
    out = {}
    for e, c in ms.terms.items():
        if ms.grading.degree(e) <= max_degree:
            key = tuple(
                (ms.grading.names[i], x) for i, x in enumerate(e) if x
            )
            out[key] = c
    return out


@pytest.fixture(scope="module")
def Fc24():
    return build_Fc(24)


@pytest.fixture(scope="module")
def Fo_kdv24(Fc24):
    return op.solve_open_kdv(Fc24, 24)


class TestSolveOpenKdv:
    def test_equals_splits_walk(self, Fc24, Fo_kdv24):
        # Below degree 24 each solve is compared through the degree-24
        # walk: lower degrees never depend on higher ones.
        walk = splits_walk(Fc24, 24)
        assert Fo_kdv24.terms == walk.terms
        assert len(walk.terms) == 494
        for D in range(1, 24):
            Fo = op.solve_open_kdv(Fc24, D)
            assert named_terms(Fo, D) == named_terms(walk, D), D

    @pytest.mark.parametrize("D", [3, 6, 9])
    def test_small_degrees_equal_splits_walk(self, D):
        Fc = build_Fc(D)
        assert op.solve_open_kdv(Fc, D).terms == splits_walk(Fc, D).terms

    def test_initial_coefficients(self, Fo_kdv):
        g = Fo_kdv.grading
        assert Fo_kdv.coefficient(exps(g, s=3)) == Q(1, 6)
        assert Fo_kdv.coefficient(exps(g, t0=1, s=1)) == 1

    def test_restriction(self, Fo_kdv):
        assert op.restriction_check(Fo_kdv)

    @pytest.mark.parametrize("edit", ["drop_t0_s", "add_t0^2_s^2"])
    def test_restriction_rejects_a_wrong_slice(self, edit):
        Fo = op.solve_open_kdv(build_Fc(12), 12)
        g = Fo.grading
        assert op.restriction_check(Fo)
        if edit == "drop_t0_s":
            t0s = exps(g, t0=1, s=1)
            Fo = MultiSeries(g, {e: c for e, c in Fo.terms.items() if e != t0s}, 12)
        else:
            Fo = Fo + MultiSeries(g, {exps(g, t0=2, s=2): Q(1)}, 12)
        assert not op.restriction_check(Fo)

    def test_under_truncated_Fc_rejected(self, Fc17):
        with pytest.raises(IndexError):
            op.solve_open_kdv(Fc17, 30)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_open_kdv_equations_hold(self, n, Fo_kdv, Fc17):
        # Equations hold for every reachable n, not just those used to solve.
        res = ref_open_kdv_residual(Fo_kdv, Fc17, n)
        assert res.is_zero(), sorted(res.terms)[:3]

    @pytest.mark.parametrize("n", range(1, 12))
    def test_open_kdv_equations_hold_at_24(self, n, Fo_kdv24, Fc24):
        res = ref_open_kdv_residual(Fo_kdv24, Fc24, n)
        assert res.max_degree == 24 - (2 * n + 1)
        assert res.is_zero(), sorted(res.terms)[:3]


class TestOpenReKeying:
    @pytest.mark.parametrize("D", [8, 14, 20])
    def test_substitute_equals_lift_to_open(self, D):
        g = op.open_grading(D)
        Fc = build_Fc(D + 3).truncate(D)
        got, want = Fc.substitute(g, {}), ref_lift_to_open(Fc, g)
        assert got.grading == g and got.max_degree == want.max_degree == D
        assert got._buckets == want._buckets and not got.is_zero()

    def test_missing_t_within_truncation_rejected(self):
        # open_grading(8) stops at t3; t4 weighs 9.
        Fc = build_Fc(11)
        assert Fc.truncate(8).substitute(op.open_grading(8), {}).max_degree == 8
        for D in (9, 11):
            with pytest.raises(ValueError, match="lacks a variable"):
                Fc.truncate(D).substitute(op.open_grading(8), {})


class TestBuryak:
    def test_restriction(self, Fo_buryak):
        assert op.restriction_check(Fo_buryak)

    def test_agrees_with_kdv(self, Fo_kdv, Fo_buryak):
        # The two constructions live on different alphabet widths, so
        # compare name-keyed coefficient maps up to the common degree.
        a = named_terms(Fo_kdv, 14)
        b = named_terms(Fo_buryak, 14)
        assert a == b, sorted(set(a) ^ set(b))[:5]

    def test_t0_t1_s_cross_oracle(self, Fo_kdv, Fo_buryak):
        a = Fo_kdv.coefficient(exps(Fo_kdv.grading, t0=1, t1=1, s=1))
        b = Fo_buryak.coefficient(exps(Fo_buryak.grading, t0=1, t1=1, s=1))
        assert a == b and a != 0

    @pytest.mark.parametrize("D, digest", [
        (8, "40f2a00c44e7c9e42265048e788101dfdbf0e81c12bae3fdf4395815b3c2cee3"),
        (14, "9635f7a8ef7b21a900fcf39db95e7882e2583a30fda5c2dde4dcb272d2412537"),
        (20, "9774aadc5d6ce1e57c29c3cd0ee177018646a8c40865c51bfb4a8931ee5eca54"),
    ])
    def test_buckets_equal_kdv_and_pinned(self, D, digest):
        # Same grading and integer buckets as the KdV solve, and the same
        # buckets as the binomial-expansion route computed before.
        Fc = build_Fc(D + 3)
        Fb = op.buryak_formula(Fc, D)
        Fo = op.solve_open_kdv(Fc, D)
        assert Fb.grading == Fo.grading and Fb._buckets == Fo._buckets
        text = repr(sorted((d, m, sorted(t.items()))
                           for d, (m, t) in Fb._buckets.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_negative_powers_only(self, Fc17):
        # the G_z-ratio lives in u = 1/z alone: its u^0 part is 1, as
        # G_z F - F has a factor u in every term
        g = op.open_grading(8)
        ratio = op.gz_shift_t_ratio(Fc17.truncate(8).substitute(g, {}))
        G = ratio.grading
        assert G.names == g.names + ("u",) and G.weights == g.weights + (1,)
        assert {e: c for e, c in ratio.terms.items() if not e[-1]} == {(0,) * len(G): 1}
        # the u^j part keeps weighted degree <= 8 - j only
        assert ratio.max_degree == 8
        assert all(g.degree(e[:-1]) + e[-1] <= 8 for e in ratio.terms)

    @pytest.mark.parametrize("D", [8, 14, 20])
    def test_ratio_matches_binomial_expansion(self, D):
        g = op.open_grading(D)
        F = build_Fc(D + 3).truncate(D).substitute(g, {})
        want = ref_gz_shift_t_ratio(F, D)
        got = {}
        for e, c in op.gz_shift_t_ratio(F).terms.items():
            got.setdefault(e[-1], {})[e[:-1]] = c
        assert sorted(got) == sorted(want)
        for j, m in want.items():
            assert MultiSeries(g, got[j], D - j)._buckets == m._buckets, j

    def test_exp_xi_grading(self):
        g = op.open_grading(10)
        x = op.exp_xi(g, 10)
        # The bucket of weighted degree j is the z^j coefficient.
        assert sorted(x._buckets) == list(range(11))
        assert x.coefficient((0,) * len(g)) == 1
        # xi is a sum of single variables x_v with coefficients c_v, so the
        # coefficient of prod x_v^a_v in exp(xi) is prod c_v^a_v / a_v!.
        cv = [Q(1, 2) if name == "s" else Q(1, op.double_factorial(w))
              for name, w in zip(g.names, g.weights)]
        for e, c in x.terms.items():
            want = Q(1)
            for ci, a in zip(cv, e):
                want *= ci**a / factorial(a)
            assert c == want, e
        assert x.coefficient(exps(g, s=1)) == Q(1, 2)
        assert x.coefficient(exps(g, t0=1)) == 1
        assert x.coefficient(exps(g, t1=1)) == Q(1, 3)


class TestOpenVirasoro:
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_annihilation_kdv_solution(self, n, Fo_kdv, Fc17):
        E = op.open_exp(Fo_kdv, Fc17)
        res = op.open_virasoro_residual(n, E)
        bound = min(8, res.max_degree)
        assert res.truncate(bound).is_zero(), (n, sorted(res.terms)[:3])

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_annihilation_buryak_solution(self, n, Fo_buryak, Fc17):
        E = op.open_exp(Fo_buryak, Fc17)
        res = op.open_virasoro_residual(n, E)
        bound = min(8, res.max_degree)
        assert res.truncate(bound).is_zero(), (n, sorted(res.terms)[:3])

