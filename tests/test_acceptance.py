"""End-to-end acceptance checks.

Each test class exercises one headline identity of the package at its full
stated range, with independent oracles where the value is not forced by
construction.  These are deliberately redundant with the per-module suites:
they pin the public contracts at the exact orders and tolerances promised.
"""

import itertools
import time
from fractions import Fraction as Q

import pytest

from tautrel import descendents as dsc
from tautrel import frobenius as fr
from tautrel import open_potential as op
from tautrel import pixton, strata
from tautrel.airy import airy_ode, airy_prime_quadrature, airy_quadrature, asymptotic_report
from tautrel.named_series import (
    series_A,
    series_B,
    series_calA,
    series_D,
    series_D_ode,
    series_H0,
    series_H1,
)
from tautrel.series import PowerSeries


@pytest.fixture(scope="module")
def Fc14():
    return dsc.build_Fc(14)


@pytest.fixture(scope="module")
def Fc17():
    return dsc.build_Fc(17)


@pytest.fixture(scope="module")
def Fc21():
    return dsc.build_Fc(21)


class TestCriterion1OdeIdentities:
    """3z^2 A' + (z/2 - 1)A - B = 0 and 3z^2 A'' + (6z - 2)A' + (5/12)A = 0,
    every coefficient exactly zero through z^30."""

    ORDER = 30

    def test_first_order_ode(self):
        n = self.ORDER
        A = series_A(n + 1)
        B = series_B(n)
        z = PowerSeries([0, 1], n)
        res = (
            z * z * A.truncate(n).derivative() * 3
            + (z * Q(1, 2) - PowerSeries.one(n)) * A.truncate(n)
            - B
        )
        assert res.is_zero()

    def test_second_order_ode(self):
        n = self.ORDER
        A = series_A(n + 2)
        z = PowerSeries([0, 1], n)
        Ap = A.truncate(n + 1).derivative()
        res = (
            z * z * Ap.truncate(n).derivative() * 3
            + (z * 6 - PowerSeries.one(n) * 2) * Ap.truncate(n)
            + A.truncate(n) * Q(5, 12)
        )
        assert res.is_zero()


class TestCriterion2Reflection:
    """H0(T)H1(-T) + H0(-T)H1(T) = 2 exactly through T^30."""

    def test_reflection_identity(self):
        n = 30
        H0, H1 = series_H0(n), series_H1(n)
        lhs = H0 * H1.scale_argument(-1) + H0.scale_argument(-1) * H1
        assert lhs == PowerSeries.one(n) * 2

    def test_printed_coefficients(self):
        H0, H1 = series_H0(2), series_H1(2)
        assert [H0[0], H0[1], H0[2]] == [1, -60, 27720]
        assert [H1[0], H1[1], H1[2]] == [1, 84, -32760]


class TestCriterion3AiryAsymptotics:
    """For x in {5, 10, 20} and k = 1..5, the truncation error is inside
    twice the first omitted term, and the two numeric oracles agree to 10
    significant digits.  Wall time under 30 s."""

    XS = (5, 10, 20)

    def test_envelope_and_oracles(self):
        started = time.monotonic()
        for x in self.XS:
            q, o = airy_quadrature(x), airy_ode(x)
            assert abs(q - o) <= 1e-10 * abs(o)
            for k in range(1, 6):
                for prime in (False, True):
                    rep = asymptotic_report(x, k, prime=prime)
                    assert rep.envelope_ok, (x, k, prime)
        assert time.monotonic() - started < 30

    def test_prime_oracles_agree(self):
        from tautrel.airy import airy_prime_ode

        for x in self.XS:
            q, o = airy_prime_quadrature(x), airy_prime_ode(x)
            assert abs(q - o) <= 1e-10 * abs(o)


class TestCriterion4VirasoroKdv:
    """L_n exp(F^c) = 0 for n <= 4 and both KdV residuals vanish at genus
    <= 3, weighted degree <= 10; the anchor values emerge from the
    constraints rather than being inserted."""

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 4])
    def test_virasoro(self, n, Fc21):
        res = dsc.apply_L(n, Fc21.exp())
        assert res.truncate(10).is_zero(), n

    def test_kdv_residuals(self, Fc14):
        assert dsc.kdv_residual(Fc14, 1).truncate(9).is_zero()
        assert dsc.kdv_residual(Fc14, 2).truncate(7).is_zero()

    def test_genus_coverage(self, Fc21):
        # Weighted degree <= 10 includes genus-3 terms (e.g. <tau_7>_3).
        assert dsc.descendent(3, (7,)) != 0

    def test_anchors(self):
        assert dsc.descendent(0, (0, 0, 0)) == 1
        assert dsc.descendent(1, (1,)) == Q(1, 24)


class TestCriterion5AirySpecialization:
    """The descendent potential specialized at t_i = -(2i-1)!! lam^{-2i-1}
    reproduces the alternating planar series through lam^{-12}."""

    def test_specialization(self, Fc14):
        E = dsc.determinant_formula_check(Fc14, 1, 12)["series"]
        got = PowerSeries([E.coefficient(E.grading.monomial("x1", k))
                           for k in range(13)], 12)
        assert got == series_calA(12)
        assert got[0] == 1
        assert got[3] == Q(-5, 24)
        assert got[6] == Q(385, 1152)
        assert got[9] == -series_A(3)[3]
        assert got[12] == series_A(4)[4]


class TestCriterion6Determinantal:
    """Exact determinantal formula: N = 1 through order 12, N = 2 through
    total negative degree 8, compared at every x^{lambda+delta}."""

    def test_N1(self, Fc14):
        rep = dsc.determinant_formula_check(Fc14, 1, 12)
        assert rep["ok"], rep

    def test_N2(self, Fc14):
        rep = dsc.determinant_formula_check(Fc14, 2, 8)
        assert rep["ok"], rep


@pytest.fixture(scope="module")
def Fo_kdv(Fc17):
    return op.solve_open_kdv(Fc17, 17)


@pytest.fixture(scope="module")
def Fo_buryak(Fc17):
    return op.buryak_formula(Fc17, 14)


class TestCriterion7OpenPotential:
    """The open-KdV solution and the wave-function formula agree through
    weighted degree 8, both are annihilated by the open Virasoro operators
    for n <= 3, and both restrict to s^3/6 + t0 s."""

    @staticmethod
    def _named(ms, max_degree):
        # The two constructions live on different alphabet widths, so
        # compare name-keyed coefficient maps up to the common degree.
        out = {}
        for e, c in ms.terms.items():
            if c != 0 and ms.grading.degree(e) <= max_degree:
                key = tuple(
                    (ms.grading.names[i], x) for i, x in enumerate(e) if x
                )
                out[key] = c
        return out

    def test_three_way_agreement(self, Fo_kdv, Fo_buryak):
        assert self._named(Fo_kdv, 8) == self._named(Fo_buryak, 8)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_open_virasoro_kdv_solution(self, n, Fo_kdv, Fc17):
        res = op.open_virasoro_residual(Fo_kdv, Fc17, n)
        assert res.truncate(min(8, res.max_degree)).is_zero(), n

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_open_virasoro_buryak_solution(self, n, Fo_buryak, Fc17):
        res = op.open_virasoro_residual(Fo_buryak, Fc17, n)
        assert res.truncate(min(8, res.max_degree)).is_zero(), n

    def test_restriction(self, Fo_kdv, Fo_buryak):
        assert op.restriction_check(Fo_kdv)
        assert op.restriction_check(Fo_buryak)


class TestCriterion8DSeries:
    """The closed-form D coefficients equal the unique power-series solution
    of (-x^4 d/dx - (3/2)x^3 + 1) D = A(-x) through x^21.  The first
    nontrivial coefficient forced by the recursion is 41/24
    (= 5/24 + (3/2)*1); this is also what the closed-form product gives."""

    def test_closed_form_equals_ode_solution(self):
        assert series_D(21) == series_D_ode(21)

    def test_first_checkpoint(self):
        assert series_D(3)[3] == Q(41, 24)


def _brute_census(g, n):
    """Count isomorphism classes of stable graphs of type (g, n) by raw
    enumeration over labeled structures, independent of the library.

    Only feasible for tiny (g, n): vertices <= 3, edge multiplicities <= 3.
    """
    classes = set()
    max_v = 3 * g + n  # generous
    for nv in range(1, min(max_v, 3) + 1):
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        for genera in itertools.product(range(g + 1), repeat=nv):
            for legs in itertools.product(range(nv), repeat=n):
                budget = g - sum(genera) + nv - 1  # edges needed for h1
                if budget < 0:
                    continue
                for mults in itertools.product(range(4), repeat=len(pairs)):
                    edges = []
                    for (i, j), m in zip(pairs, mults):
                        edges += [(i, j)] * m
                    ne = len(edges)
                    if sum(genera) + ne - nv + 1 != g:
                        continue
                    # connectivity
                    seen = {0}
                    frontier = [0]
                    adj = {v: set() for v in range(nv)}
                    for i, j in edges:
                        adj[i].add(j)
                        adj[j].add(i)
                    while frontier:
                        v = frontier.pop()
                        for w in adj[v]:
                            if w not in seen:
                                seen.add(w)
                                frontier.append(w)
                    if len(seen) != nv:
                        continue
                    # stability: 2h - 2 + valence > 0 at each vertex
                    val = [0] * nv
                    for i, j in edges:
                        val[i] += 1
                        val[j] += 1
                    for l in legs:
                        val[l] += 1
                    if any(2 * h - 2 + v <= 0 for h, v in zip(genera, val)):
                        continue
                    # canonical form under vertex relabeling
                    best = None
                    for p in itertools.permutations(range(nv)):
                        key = (
                            tuple(genera[q] for q in
                                  sorted(range(nv), key=lambda v: p[v])),
                            tuple(p[l] for l in legs),
                            tuple(sorted(
                                tuple(sorted((p[i], p[j]))) for i, j in edges
                            )),
                        )
                        if best is None or key < best:
                            best = key
                    classes.add(best)
    return len(classes)


class TestCriterion9Census:
    """Stable-graph counts 1/2/7 for (0,3)/(1,1)/(2,0), cross-checked
    against a brute-force enumerator, and automorphism orders 1/2/12."""

    @pytest.mark.parametrize(
        "g, n, want", [(0, 3, 1), (1, 1, 2), (2, 0, 7)]
    )
    def test_counts(self, g, n, want):
        started = time.monotonic()
        assert len(strata.enumerate_stable_graphs(g, n)) == want
        assert _brute_census(g, n) == want
        assert time.monotonic() - started < 10

    def test_automorphism_orders(self):
        smooth = strata.StableGraph((1,), (0,), [])
        loop = strata.StableGraph((1,), (), [(0, 0)])
        theta = strata.StableGraph((0, 0), (), [(0, 1)] * 3)
        assert strata.automorphism_order(smooth) == 1
        assert strata.automorphism_order(loop) == 2
        assert strata.automorphism_order(theta) == 12


def _kappa_monomials(deg):
    out = []

    def rec(prefix, rem, idx):
        if rem == 0:
            out.append(tuple(prefix))
            return
        if idx > rem:
            return
        for e in range(rem // idx + 1):
            rec(prefix + [e], rem - idx * e, idx + 1)

    rec([], deg, 1)
    return out


class TestCriterion10PixtonZeroPairings:
    """The relation classes pair to exactly zero against EVERY complementary
    kappa/psi monomial, and the edge factor's printed coefficients match."""

    CASES = [(1, 1, (1,), 1), (2, 0, (), 1), (2, 1, (1,), 1), (2, 0, (), 2)]

    @pytest.mark.parametrize("g, n, A, d", CASES)
    def test_all_pairings_vanish(self, g, n, A, d):
        started = time.monotonic()
        el = pixton.pixton_class(g, n, A, d)
        extra = 3 * g - 3 + n - d
        for psis in itertools.product(range(extra + 1), repeat=n):
            rem = extra - sum(psis)
            if rem < 0:
                continue
            for ke in _kappa_monomials(rem):
                val = strata.integrate(el, psi_exps=psis, kappa_exps=ke)
                assert val == 0, (psis, ke, val)
        assert time.monotonic() - started < 300

    def test_edge_factor_coefficients(self):
        sec = pixton.edge_factor(1)
        # degree 0: 60 z'z'' - 84
        assert sec[(1, 1)].coefficient((0, 0)) == 60
        assert sec[(0, 0)].coefficient((0, 0)) == -84
        # degree 1: 32760 on matched zeta/psi slots, -27720 crossed
        assert sec[(1, 0)].coefficient((1, 0)) == 32760
        assert sec[(0, 1)].coefficient((0, 1)) == 32760
        assert sec[(1, 0)].coefficient((0, 1)) == -27720
        assert sec[(0, 1)].coefficient((1, 0)) == -27720


class TestCriterion11SpinR:
    """The flatness-recursion R-matrix equals the even/odd hypergeometric
    matrix through z^6, and the full frame S = Psi R e^{u/z} satisfies all
    four flatness equations (both branches)."""

    def test_recursion_matches_closed_form(self):
        assert fr.solve_R(6) == fr.hypergeometric_r_matrix(6)

    @pytest.mark.parametrize("branch", [1, -1])
    def test_flatness_equations(self, branch):
        res = fr.airy_flatness_check(6, branch=branch)
        assert set(res) == {"t0_0", "t0_1", "t1_0", "t1_1", "second_order"}
        for name in ("t0_0", "t0_1", "t1_0", "t1_1"):
            assert res[name].is_zero(), name
        assert res["second_order"].is_zero()


class TestCriterion12Cp1:
    """The equivariant two-point series satisfies its second-order ODE at
    randomly sampled rational (lam, z) through q^15; the Gamma functional
    equation limit identity holds; and the leading degeneration reproduces
    the planar series' first coefficients."""

    def test_phi_ode_random_samples(self):
        rep = fr.cp1_phi_ode_check(order=15, trials=5, seed=0)
        assert rep["ok"], rep
        assert len(rep["samples"]) == 5

    def test_gamma_limit(self):
        assert fr.cp1_gamma_limit_check() is True

    def test_leading_limit_coefficients(self):
        lead = fr.cp1_leading_limit(2)
        assert lead[1] == Q(5, 24)
        assert lead[2] == Q(385, 1152)
