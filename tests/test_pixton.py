import itertools
import math
import random
import types
from fractions import Fraction as Q

import pytest

from tautrel import cli, fz, pixton, strata
from tautrel.named_series import series_H0, series_H1
from tautrel.series import BiPoly, PowerSeries, divide_exact


def kappa_monomials(deg):
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


def all_pairings(element):
    g, n = element.g, element.n
    extra = 3 * g - 3 + n - element.d
    for psis in itertools.product(range(extra + 1), repeat=n):
        rem = extra - sum(psis)
        if rem < 0:
            continue
        for ke in kappa_monomials(rem):
            yield psis, ke, strata.integrate(element, psi_exps=psis, kappa_exps=ke)


def ref_kappa_mul(p, q, degree_max):
    """Product of two {kappa-exponent tuple: coeff} maps, truncated."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            m = max(len(e1), len(e2))
            a = e1 + (0,) * (m - len(e1))
            b = e2 + (0,) * (m - len(e2))
            e = tuple(x + y for x, y in zip(a, b))
            if strata.kappa_degree(e) <= degree_max:
                out[e] = out.get(e, Q(0)) + c1 * c2
    return out


def ref_kappa_add(p, q, c=1):
    out = dict(p)
    for e, x in q.items():
        out[e] = out.get(e, Q(0)) + c * x
    return out


def ref_normal(terms):
    """The old kappa-polynomial normal form: trailing zero exponents
    trimmed, coefficients of equal keys summed, zeros dropped."""
    out = {}
    for e, c in terms.items():
        e = tuple(e)
        while e and e[-1] == 0:
            e = e[:-1]
        out[e] = out.get(e, Q(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_cycle_body(coeffs, degree_max):
    """The former cycle-formula loop, split by the parity of the kappa
    index: sum over l and b_1..b_l of (1/l) prod coeffs[b_j] kappa_{sum b}."""
    body = [{}, {}]
    for length in range(1, degree_max + 1):
        for bs in itertools.product(sorted(coeffs), repeat=length):
            a = sum(bs)
            if a > degree_max:
                continue
            c = Q(1, length)
            for b in bs:
                c *= coeffs[b]
            e = (0,) * (a - 1) + (1,)
            body[a % 2][e] = body[a % 2].get(e, Q(0)) + c
    return body


def ref_kappa_of_f(f, degree_max):
    """The kappa class of f (f_0 = f_1 = 0) by the cycle-formula loop and
    the power-series exp of the former kappa-polynomial class."""
    coeffs = {
        b: f[b + 1] for b in range(1, min(f.order, degree_max + 1)) if f[b + 1]
    }
    even, odd = ref_cycle_body(coeffs, degree_max)
    body = ref_kappa_add(even, odd)
    acc, power, fact = {(): Q(1)}, {(): Q(1)}, 1
    for m in range(1, degree_max + 1):
        power = ref_kappa_mul(power, body, degree_max)
        fact *= m
        acc = ref_kappa_add(acc, power, Q(1, fact))
    return ref_normal(acc)


def ref_vertex_factor(truncation):
    """The former pixton.vertex_factor: the cycle-formula loop on the
    T^{b+1} coefficients -h0_b zeta^b, then exp(even + zeta odd) in the
    two-slot parity algebra.  Returns (even part, odd part)."""
    h0 = series_H0(truncation + 1)
    coeffs = {b: -h0[b] for b in range(1, truncation + 1) if h0[b]}
    even, odd = ref_cycle_body(coeffs, truncation)
    acc = [{(): Q(1)}, {}]
    power = [{(): Q(1)}, {}]
    fact = 1
    for m in range(1, truncation + 1):
        power = [
            ref_kappa_add(
                ref_kappa_mul(power[0], even, truncation),
                ref_kappa_mul(power[1], odd, truncation),
            ),
            ref_kappa_add(
                ref_kappa_mul(power[0], odd, truncation),
                ref_kappa_mul(power[1], even, truncation),
            ),
        ]
        fact *= m
        acc = [ref_kappa_add(acc[p], power[p], Q(1, fact)) for p in (0, 1)]
    return ref_normal(acc[0]), ref_normal(acc[1])


def vertex_series(truncation):
    """f = T - T H0(T), truncated at T^{truncation + 1}."""
    T = PowerSeries([0, 1], truncation + 1)
    return T - T * series_H0(truncation + 1)


class TestKappaOracles:
    @pytest.mark.parametrize("t", range(7))
    def test_kappa_of_f_vertex_series(self, t):
        # The cycle formula on f = T - T H0(T) against exp(-kappa(log H0)).
        assert pixton.vertex_factor(t) == ref_kappa_of_f(vertex_series(t), t)

    @pytest.mark.parametrize("t", range(7))
    def test_vertex_factor(self, t):
        even, odd = ref_vertex_factor(t)
        assert pixton.vertex_factor(t) == {**even, **odd}
        # The parity algebra gives each kappa-monomial zeta to its degree.
        assert all(strata.kappa_degree(e) % 2 == 0 for e in even)
        assert all(strata.kappa_degree(e) % 2 == 1 for e in odd)

    @pytest.mark.parametrize("t", range(7))
    def test_parity_halves_sum_to_kappa_of_f(self, t):
        # Split by the parity of the degree, the halves of the factor at
        # zeta = 1 give the factor at zeta = +1 and -1 as even +- odd.
        halves = ({}, {})
        for e, c in pixton.vertex_factor(t).items():
            halves[strata.kappa_degree(e) % 2][e] = c
        T = PowerSeries([0, 1], t + 1)
        for zeta in (1, -1):
            f = T - T * series_H0(t + 1).scale_argument(zeta)
            assert ref_kappa_add(*halves, zeta) == ref_kappa_of_f(f, t)


class TestVertexFactor:
    def test_degree0(self):
        assert pixton.vertex_factor(0) == {(): Q(1)}

    def test_degree1(self):
        assert pixton.vertex_factor(1) == {(): Q(1), (1,): Q(60)}

    def test_degree2_even_part(self):
        # even-parity degree-2 terms come from the T^3 coefficient
        # -27720 (kappa_2) and the two-point term (60 zeta)^2/2 ->
        # (1800)(k1^2 + k2) with parity 0.
        vf = pixton.vertex_factor(2)
        assert vf[(0, 1)] == Q(-27720 + 1800)
        assert vf[(2,)] == Q(1800)


class TestLegFactor:
    """The leg factor zeta^{a_l} H_{a_l}(zeta psi), read through the
    summand of the smooth genus-1 graph with one leg at d = 1.  Its
    target bits are 0, so a term is kept when the kappa degree plus the
    psi degree plus a_l is even."""

    def smooth_summand(self, A):
        graph, = [gr for gr in strata.enumerate_stable_graphs(1, 1) if not gr.edges]
        return pixton._graph_summand(graph, A, 1)

    def test_a0(self):
        # kappa_1 (60 zeta) and psi (-60 zeta) are both odd.
        assert self.smooth_summand((0,)) == {}

    def test_a1(self):
        # zeta H1(zeta psi) = zeta + 84 psi + ...: kappa_1 pairs with the
        # leg's zeta, and 84 psi is even.
        assert self.smooth_summand((1,)) == {
            strata.Decoration(((1,),), (0,), ()): Q(60),
            strata.Decoration(((),), (1,), ()): Q(84),
        }

    def test_bad_marking(self):
        with pytest.raises(ValueError):
            pixton.pixton_class(1, 1, (2,), 1)


def ref_edge_factor(truncation):
    """The former pixton.edge_factor: the H0/H1 coefficient products of
    the numerator in a double loop, sorted into (zeta', zeta'') parity
    sectors and divided by psi' + psi''."""
    t = truncation + 1
    h0 = series_H0(t).coeffs
    h1 = series_H1(t).coeffs
    num = {
        (0, 0): {},
        (0, 1): {(0, 0): Q(1)},  # zeta''
        (1, 0): {(0, 0): Q(1)},  # zeta'
        (1, 1): {},
    }
    for i in range(t + 1):
        for j in range(t + 1 - i):
            # -H0(z'psi') z'' H1(z''psi''):  parity (i, j+1)
            p = (i % 2, (j + 1) % 2)
            num[p][(i, j)] = num[p].get((i, j), Q(0)) - h0[i] * h1[j]
            # -z' H1(z'psi') H0(z''psi''):  parity (i+1, j)
            p = ((i + 1) % 2, j % 2)
            num[p][(i, j)] = num[p].get((i, j), Q(0)) - h1[i] * h0[j]
    return {p: divide_exact(BiPoly(terms, t)) for p, terms in num.items()}


class TestEdgeFactor:
    @pytest.mark.parametrize("t", range(7))
    def test_matches_former_double_loop(self, t):
        assert pixton.edge_factor(t) == ref_edge_factor(t)

    def test_degree0(self):
        sec = pixton.edge_factor(0)
        assert sec[(1, 1)].coefficient((0, 0)) == Q(60)
        assert sec[(0, 0)].coefficient((0, 0)) == Q(-84)
        assert sec[(1, 0)].is_zero() and sec[(0, 1)].is_zero()

    def test_degree1(self):
        sec = pixton.edge_factor(1)
        # 32760 (z'psi' + z''psi'') - 27720 (z'psi'' + z''psi')
        assert sec[(1, 0)].coefficient((1, 0)) == Q(32760)
        assert sec[(0, 1)].coefficient((0, 1)) == Q(32760)
        assert sec[(1, 0)].coefficient((0, 1)) == Q(-27720)
        assert sec[(0, 1)].coefficient((1, 0)) == Q(-27720)

    @pytest.mark.parametrize("trunc", [0, 1, 2, 4, 8, 12])
    def test_divisibility_exact(self, trunc):
        # divide_exact raises DivisibilityError on any remainder, so
        # construction succeeding is the assertion.  __wrapped__
        # bypasses the cache, so the quotient is formed here.
        pixton.edge_factor.__wrapped__(trunc)

    @pytest.mark.parametrize("trunc", [0, 1, 3, 6])
    def test_half_edge_symmetry(self, trunc):
        sec = pixton.edge_factor(trunc)
        for (p1, p2), bp in sec.items():
            assert {(j, i): c for (i, j), c in bp.terms.items()} == sec[(p2, p1)].terms


class TestPixtonClass:
    def test_admissibility(self):
        with pytest.raises(pixton.NotInPixtonSetError):
            pixton.pixton_class(2, 0, (), 0)
        with pytest.raises(pixton.NotInPixtonSetError):
            pixton.pixton_class(0, 2, (0, 0), 1)
        with pytest.raises(ValueError):
            pixton.pixton_class(1, 1, (2,), 1)
        # Above dim = 3g - 3 + n every class is zero in cohomology.
        assert pixton.pixton_class(2, 0, (), 3).terms
        with pytest.raises(pixton.NotInPixtonSetError, match="dim = 3g-3\\+n = 3"):
            pixton.pixton_class(2, 0, (), 4)

    def test_smallest_class_terms(self):
        # (g,n,A,d) = (1,1,(1),1): smooth graph carries 60 k1 + 84 psi1,
        # the loop graph carries -24 * (1/2^{h1}) = -12.
        el = pixton.pixton_class(1, 1, (1,), 1)
        assert el.d == 1 and len(el.terms) == 3
        by_key = {
            (gr.edges, dec.vertex_kappas, dec.leg_psis): c
            for (gr, dec), c in el.terms.items()
        }
        assert by_key[((), ((1,),), (0,))] == Q(60)
        assert by_key[((), ((),), (1,))] == Q(84)
        assert by_key[(((0, 0),), ((),), (0,))] == Q(-12)

    def test_pure_codimension(self):
        el = pixton.pixton_class(2, 0, (), 3)
        for (graph, dec), _ in el.terms.items():
            assert len(graph.edges) + dec.degree() == 3

    def test_parity_zero_classes(self):
        # Wrong-parity data give the identically-zero class, mirroring
        # the parity condition of the kappa-relation extraction.
        assert not pixton.pixton_class(2, 1, (1,), 1).terms
        assert not pixton.pixton_class(2, 0, (), 2).terms

    @pytest.mark.parametrize(
        "g,n,A,d", [(3, 0, (), 4), (2, 2, (1, 0), 4), (1, 1, (1,), 1)]
    )
    def test_edge_cap_keeps_terms(self, monkeypatch, g, n, A, d):
        # Graphs with more than d edges contribute nothing, so the class
        # built from the full census has the same terms.
        capped = pixton.pixton_class(g, n, A, d)
        full = strata.enumerate_stable_graphs
        monkeypatch.setattr(
            pixton, "enumerate_stable_graphs", lambda g, n, max_edges: full(g, n)
        )
        assert capped.terms and pixton.pixton_class(g, n, A, d).terms == capped.terms

    @pytest.mark.parametrize(
        "g,n,A,d",
        [(1, 1, (1,), 1), (2, 0, (), 1), (2, 1, (1,), 1), (2, 0, (), 2)],
    )
    def test_zero_pairings_spec_cases(self, g, n, A, d):
        el = pixton.pixton_class(g, n, A, d)
        for psis, ke, value in all_pairings(el):
            assert value == 0, (psis, ke, value)

    @pytest.mark.parametrize("g,n,A,d", [(2, 0, (), 3), (2, 1, (1,), 2)])
    def test_zero_pairings_nonzero_classes(self, g, n, A, d):
        # These classes have many nonzero terms (24 and 17), so the
        # vanishing of every pairing is a genuine cancellation.
        el = pixton.pixton_class(g, n, A, d)
        assert el.terms
        for psis, ke, value in all_pairings(el):
            assert value == 0, (psis, ke, value)


class TestCodimensionFourAndUp:
    # Every pairing of these classes was nonzero while _canonical_pair
    # attached psi pairs to the wrong edges.
    @pytest.mark.parametrize(
        "g,n,A,d",
        [
            (3, 0, (), 4),
            (3, 0, (), 6),
            (1, 4, (0, 0, 0, 0), 4),
            (2, 2, (1, 0), 4),
            (3, 1, (0,), 4),
        ],
    )
    def test_all_pairings_vanish(self, g, n, A, d):
        terms, count, bad = cli._pixton_pairings(g, n, A, d)
        assert terms > 0 and count > 0
        assert bad == []


def zeta_edge(z1, z2, budget):
    """Delta_e at zeta' = z1, zeta'' = z2, as a BiPoly in (psi', psi'')."""
    t = budget + 1
    h0, h1 = series_H0(t), series_H1(t)
    num = {(0, 0): Q(z1 + z2)}
    for i in range(t + 1):
        for j in range(t + 1 - i):
            c = -z2 * h0[i] * h1[j] - z1 * h1[i] * h0[j]
            num[(i, j)] = num.get((i, j), Q(0)) + c * z1**i * z2**j
    return divide_exact(BiPoly(num, t))


def expand(factors, budget):
    """Products of one term per factor, of total degree ``budget``.

    Each factor is a list of (degree, pick, coeff); returns
    {tuple of picks: coeff}."""
    states = {((), 0): Q(1)}
    for options in factors:
        new = {}
        for (picks, deg), c in states.items():
            for d2, pick, c2 in options:
                if deg + d2 <= budget:
                    key = (picks + (pick,), deg + d2)
                    new[key] = new.get(key, Q(0)) + c * c2
        states = new
    return {picks: c for (picks, deg), c in states.items() if deg == budget}


def zeta_average_summand(graph, A, d):
    """One graph's decorated terms, with the parity coefficient taken as
    [prod zeta_v^{e_v}] F = 2^{-|V|} sum_zeta prod zeta_v^{e_v} F(zeta)
    over zeta in {+1, -1}^V, where e_v = g_v - 1 mod 2 and F(zeta) is the
    product of the vertex, leg and edge factors evaluated at zeta."""
    nv, nl = len(graph.genera), len(graph.legs)
    budget = d - len(graph.edges)
    if budget < 0:
        return {}
    T = PowerSeries([0, 1], budget + 1)
    H = (series_H0(budget), series_H1(budget))
    out = {}
    for zeta in itertools.product((1, -1), repeat=nv):
        sign = 1
        for z, gv in zip(zeta, graph.genera):
            sign *= z ** ((gv - 1) % 2)
        factors = []
        for z in zeta:
            f = T - T * series_H0(budget + 1).scale_argument(z)
            kappa = ref_kappa_of_f(f, budget)
            factors.append(
                [(strata.kappa_degree(e), e, c)
                 for e, c in kappa.items()]
            )
        for v, a in zip(graph.legs, A):
            h = H[a].scale_argument(zeta[v]) * zeta[v] ** a
            factors.append([(k, k, h[k]) for k in range(budget + 1) if h[k]])
        for v, w in graph.edges:
            edge = zeta_edge(zeta[v], zeta[w], budget)
            factors.append([(i + j, (i, j), c)
                            for (i, j), c in edge.terms.items()])
        for picks, c in expand(factors, budget).items():
            dec = strata.Decoration(
                picks[:nv], picks[nv:nv + nl], picks[nv + nl:]
            )
            out[dec] = out.get(dec, Q(0)) + sign * c / 2**nv
    return {dec: c for dec, c in out.items() if c}


class TestZetaAveragingOracle:
    """A second assembly of the relation classes: parity coefficients by
    averaging over zeta, paired without StrataElement or _canonical_pair."""

    @pytest.mark.parametrize(
        "g,n,A,d",
        [(1, 1, (1,), 1), (2, 0, (), 1), (3, 0, (), 4), (2, 2, (1, 0), 4),
         (3, 1, (0,), 4), (3, 1, (1,), 3)],
    )
    def test_matches_assembly_and_pairings_vanish(self, g, n, A, d):
        graphs = strata.enumerate_stable_graphs(g, n)
        summands = [zeta_average_summand(gr, A, d) for gr in graphs]
        for graph, terms in zip(graphs, summands):
            assert terms == pixton._graph_summand(graph, A, d), graph
        assert any(summands)
        element = pixton.pixton_class(g, n, A, d)
        # The summands as an element that never went through add_term.
        assembled = types.SimpleNamespace(g=g, n=n, d=d, terms={
            (graph, dec): c / 2**graph.h1
            for graph, terms in zip(graphs, summands)
            for dec, c in terms.items()
        })
        extra = 3 * g - 3 + n - d
        count = 0
        for psis in cli._compositions(extra, n):
            values = strata.pairings(assembled, psis)
            assert values == strata.pairings(element, psis)
            assert list(values) == kappa_monomials(extra - sum(psis))
            assert all(v == 0 for v in values.values()), (psis, values)
            count += len(values)
        assert count > 0


def ref_graph_summand(graph, A, d):
    """The former pixton._graph_summand: the same option lists with
    Fraction coefficients, folded by Fraction products."""
    nv, n = len(graph.genera), len(graph.legs)
    budget = d - len(graph.edges)
    if budget < 0:
        return {}
    kappas = [(strata.kappa_degree(e), e, c)
              for e, c in pixton.vertex_factor(budget).items()]
    factors = [[((k & 1) << v, k, e, c) for k, e, c in kappas] for v in range(nv)]
    legs = {a: (series_H0, series_H1)[a](budget).coeffs for a in set(A)}
    for v, a_l in zip(graph.legs, A):
        factors.append(
            [(((k + a_l) & 1) << v, k, k, c) for k, c in enumerate(legs[a_l]) if c]
        )
    sectors = pixton.edge_factor(budget)
    for v, w in graph.edges:
        factors.append([
            ((p1 << v) ^ (p2 << w), i + j, (i, j), c)
            for (p1, p2), bp in sectors.items()
            for (i, j), c in bp.terms.items()
        ])
    terms = {(0, 0, ()): Q(1)}
    for options in factors:
        folded = {}
        for (bits, deg, picks), c in terms.items():
            for bits2, deg2, pick, c2 in options:
                if deg + deg2 <= budget:
                    key = (bits ^ bits2, deg + deg2, picks + (pick,))
                    folded[key] = folded.get(key, 0) + c * c2
        terms = folded
    target = sum(((h - 1) % 2) << v for v, h in enumerate(graph.genera))
    out = {}
    for (bits, deg, picks), c in terms.items():
        if bits == target and deg == budget:
            dec = strata.Decoration(picks[:nv], picks[nv:nv + n], picks[nv + n:])
            out[dec] = out.get(dec, 0) + c
    return {dec: c for dec, c in out.items() if c}


HIGHER_GENUS_CASES = [
    (4, 0, (), 5, 5), (5, 0, (), 4, 22), (6, 0, (), 3, 77), (4, 1, (1,), 4, 30),
]


class TestIntegerFold:
    """_graph_summand folds each factor's options as integer numerators
    over the lcm of their denominators; the Fraction fold is the
    reference."""

    @pytest.mark.parametrize("genera,d", [((4, 3), 8), ((4, 4), 9)])
    def test_vertex_denominator_7(self, genera, d):
        # Budgets 7 and 8 are the first whose vertex tables have a
        # denominator.  The graph (4, 4) at d = 8 has no terms.
        graph = strata.StableGraph(genera, (), [(0, 1)])
        vertex = pixton.vertex_factor(d - 1)
        assert math.lcm(*(c.denominator for c in vertex.values())) == 7
        terms = pixton._graph_summand(graph, (), d)
        assert terms and terms == ref_graph_summand(graph, (), d)
        assert any(c.denominator % 7 == 0 for c in terms.values())

    @pytest.mark.parametrize("g,n,A,d", [case[:4] for case in HIGHER_GENUS_CASES])
    def test_matches_fraction_fold(self, g, n, A, d):
        graphs = strata.enumerate_stable_graphs(g, n, max_edges=d)
        nonzero = 0
        for graph in graphs:
            terms = pixton._graph_summand(graph, A, d)
            assert terms == ref_graph_summand(graph, A, d), graph
            nonzero += bool(terms)
        assert nonzero


class TestCanonicalSearches:
    """Every graph of the class is searched for its canonical form once,
    however many terms its summand adds."""

    @pytest.mark.parametrize("g,n,A,d", [(4, 0, (), 5), (3, 0, (), 4)])
    def test_one_search_per_graph(self, monkeypatch, g, n, A, d):
        count = [0]
        slots = strata._leg_first_slots

        def counting(*args):
            count[0] += 1
            return slots(*args)

        monkeypatch.setattr(strata, "_leg_first_slots", counting)
        graphs = strata.enumerate_stable_graphs(g, n, max_edges=d)
        enumeration = count[0]
        count[0] = 0
        element = pixton.pixton_class(g, n, A, d)
        assert len(element.terms) > len(graphs)
        assert enumeration < count[0] <= enumeration + len(graphs)


class TestHigherGenusPairings:
    """Relation classes of genus 4 to 6 with terms pair to 0 against every
    psi/kappa monomial, while the same terms with random coefficients
    pair to nonzero values."""

    @pytest.mark.parametrize("g,n,A,d,count", HIGHER_GENUS_CASES)
    def test_all_pairings_vanish_non_vacuously(self, g, n, A, d, count):
        element = pixton.pixton_class(g, n, A, d)
        assert element.terms
        rng = random.Random(g * 10 + d)
        shuffled = strata.StrataElement(g, n, d, {
            key: Q(rng.randint(1, 50), rng.randint(1, 9))
            for key in element.terms
        })
        extra = 3 * g - 3 + n - d
        values = [
            (strata.pairings(element, psis), strata.pairings(shuffled, psis))
            for psis in cli._compositions(extra, n)
        ]
        assert sum(len(zero) for zero, _ in values) == count
        assert all(v == 0 for zero, _ in values for v in zero.values())
        assert all(v != 0 for _, rand in values for v in rand.values())


FZ_MATCH_CASES = [(2, 1), (2, 3), (3, 2), (4, 3), (6, 3)]


class TestFZRestriction:
    def test_report_matches_up_to_sign(self):
        # The smooth part is exactly (-1)^d fz_relation(g, d, ()).
        for g, d in FZ_MATCH_CASES:
            rep = pixton.fz_restriction_report(g, d)
            assert rep["comparable"] and rep["match"] and rep["smooth"]
            assert rep["smooth"] == {
                e: str((-1) ** d * Q(c)) for e, c in rep["fz"].items()
            }

    @pytest.mark.parametrize("g,d", FZ_MATCH_CASES)
    def test_doubled_constants_fail(self, monkeypatch, g, d):
        # A proportionality search accepted doubled constants at (2, 1)
        # with scale -1/2; the exact check must not.  For sigma = () every
        # constant is a coefficient of the cached log A, so double that.
        log_a = fz._log_a
        monkeypatch.setattr(fz, "_log_a", lambda order: log_a(order) * 2)
        rep = pixton.fz_restriction_report(g, d)
        assert rep["comparable"] and rep["match"] is False
        assert rep["smooth"] and rep["fz"]

    def test_smooth_graph_at_genus_8(self):
        # The budget-7 vertex table has denominator 7.  Only the smooth
        # graph is assembled; the class would need every genus-8 graph
        # with at most 7 edges.
        rep = pixton.fz_restriction_report(8, 7)
        assert rep["comparable"] and rep["match"]
        assert rep["smooth"] == {
            e: str(-c) for e, c in fz.fz_relation(8, 7, ()).items()
        }
        assert any("/" in c for c in rep["smooth"].values())

    def test_report_not_comparable(self):
        # (3, 1) and (4, 2) are admissible for the graph sum but fail
        # the parity condition of the kappa-relation extraction; the
        # zeta-parity kills their smooth part identically.
        for g, d in [(3, 1), (4, 2)]:
            rep = pixton.fz_restriction_report(g, d)
            assert rep["comparable"] is False
            assert "validity" in rep["reason"] and rep["smooth"] == {}


class TestFactorCache:
    def test_one_table_per_budget(self):
        d = 4
        pixton.vertex_factor.cache_clear()
        pixton.edge_factor.cache_clear()
        assert pixton.pixton_class(3, 1, (0,), d).terms
        assert pixton.vertex_factor.cache_info().misses <= d + 1
        assert pixton.edge_factor.cache_info().misses <= d + 1
