import random
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrel import cli, pixton, strata
from tautrel.descendents import bracket
from tautrel.named_series import series_H0
from tautrel.series import PowerSeries
from tautrel.strata import Decoration, StableGraph, StrataElement


def ref_relabel(graph, perm):
    """The graph with vertex v renamed perm[v], built and validated by the
    public constructor."""
    genera = [0] * len(perm)
    for v, pv in enumerate(perm):
        genera[pv] = graph.genera[v]
    return StableGraph(genera, [perm[v] for v in graph.legs],
                       [(perm[v], perm[w]) for v, w in graph.edges])


def ref_canonical(graph):
    """Least key() over all nv! relabellings."""
    nv = len(graph.genera)
    return min((ref_relabel(graph, p) for p in permutations(range(nv))),
               key=StableGraph.key)


def undecorated(graph):
    """The decoration with no kappa and no psi anywhere."""
    return Decoration(((),) * len(graph.genera), (0,) * len(graph.legs),
                      ((0, 0),) * len(graph.edges))


# Graphs with legs on some vertices only, and leg-less ones whose
# genus classes hold up to four vertices.
CANONICAL_CASES = [
    gr for g, n in [(1, 3), (2, 2), (3, 0)]
    for gr in strata.enumerate_stable_graphs(g, n)
]


def ref_enumerate(g, n):
    """The former enumeration: every labelled (genera, edges, legs)
    tuple, validated, then canonicalised over all relabellings."""
    found = {}
    max_v = max(1, 2 * g - 2 + n)
    for nv in range(1, max_v + 1):
        pairs = [(v, w) for v in range(nv) for w in range(v, nv)]
        for genera in product(range(g + 1), repeat=nv):
            ne = g - sum(genera) + nv - 1
            if ne < 0 or (nv > 1 and ne < nv - 1):
                continue
            for edges in combinations_with_replacement(pairs, ne):
                for legs in product(range(nv), repeat=n):
                    try:
                        graph = StableGraph(genera, legs, edges)
                    except ValueError:
                        continue
                    canon = ref_canonical(graph)
                    found[canon.key()] = canon
    return sorted(found.values(), key=StableGraph.key)


def ref_canonical_pair(graph, dec):
    """The former strata._canonical_pair: all nv! permutations, each
    candidate graph validated.  Edges and their psi pairs are sorted
    together, by vertices first, so each psi pair stays on its edge."""
    nv = len(graph.genera)
    best = None
    for p in permutations(range(nv)):
        rg = ref_relabel(graph, p)
        inv = [0] * nv
        for v, pv in enumerate(p):
            inv[pv] = v
        vk = tuple(dec.vertex_kappas[inv[v]] for v in range(nv))
        items = []
        for (v, w), (kv, kw) in zip(graph.edges, dec.edge_psis):
            a, b = (p[v], kv), (p[w], kw)
            items.append(tuple(sorted((a, b))))
        items.sort(key=lambda ab: (ab[0][0], ab[1][0], ab[0][1], ab[1][1]))
        edges = [(a[0], b[0]) for a, b in items]
        psis = [(a[1], b[1]) for a, b in items]
        cand_graph = StableGraph(rg.genera, rg.legs, edges)
        cand = (cand_graph.key(), vk, dec.leg_psis, tuple(psis))
        if best is None or cand < best:
            best = cand
            best_pair = (cand_graph, Decoration(vk, dec.leg_psis, tuple(psis)))
    return best_pair


def aut_brute(graph):
    """Half-edge-level automorphism count, independent of the library.

    Counts pairs (vertex permutation, edge bijection with orientations)
    preserving genera, legs, and attachment.
    """
    nv = len(graph.genera)
    edges = list(graph.edges)
    total = 0
    for p in permutations(range(nv)):
        if ref_relabel(graph, p).key() != graph.key():
            continue
        ne = len(edges)
        for sigma in permutations(range(ne)):
            for orient in product((0, 1), repeat=ne):
                ok = True
                for i, (v, w) in enumerate(edges):
                    img = (p[v], p[w]) if orient[i] == 0 else (p[w], p[v])
                    if img != edges[sigma[i]]:
                        ok = False
                        break
                if ok:
                    total += 1
    return total


class TestEnumeration:
    def test_census(self):
        # Hand enumerations:
        # (0,3): smooth only.
        # (0,4): smooth + three one-edge splittings {12|34},{13|24},{14|23}.
        # (1,1): smooth; genus-0 vertex with a loop.
        # (1,2): smooth; loop with both legs; g1--g0 edge with both legs
        #        on the g0 vertex; loop vertex joined to a leg-less...
        #        (loop+edge with two legs on the far vertex); two vertices
        #        with a double edge and one leg each.
        # (2,0): the seven classical genus-2 strata.
        assert len(strata.enumerate_stable_graphs(0, 3)) == 1
        assert len(strata.enumerate_stable_graphs(0, 4)) == 4
        assert len(strata.enumerate_stable_graphs(1, 1)) == 2
        assert len(strata.enumerate_stable_graphs(1, 2)) == 5
        assert len(strata.enumerate_stable_graphs(2, 0)) == 7

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            strata.enumerate_stable_graphs(0, 2)
        with pytest.raises(ValueError):
            strata.enumerate_stable_graphs(1, 0)

    @pytest.mark.parametrize("g,n", [(-1, 5), (-2, 9), (1, -1)])
    def test_negative_rejected(self, g, n):
        # (-1, 5) passes the stability test 2g - 2 + n > 0.
        with pytest.raises(ValueError, match="negative"):
            strata.enumerate_stable_graphs(g, n)

    @pytest.mark.parametrize(
        "g,n",
        [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
         (3, 0), (2, 2)],
    )
    def test_matches_product_loop(self, g, n):
        got = [gr.key() for gr in strata.enumerate_stable_graphs(g, n)]
        assert got == [gr.key() for gr in ref_enumerate(g, n)]

    @pytest.mark.parametrize("g,want", [(3, 42), (4, 379)])
    def test_closed_counts(self, g, want):
        assert len(strata.enumerate_stable_graphs(g, 0)) == want

    @pytest.mark.parametrize(
        "g,n",
        [(0, 4), (1, 1), (1, 2), (2, 0), (2, 1), (1, 4), (2, 2), (3, 0),
         (3, 1)],
    )
    def test_emitted_invariants(self, g, n):
        graphs = strata.enumerate_stable_graphs(g, n)
        assert len(set(gr.key() for gr in graphs)) == len(graphs)
        for gr in graphs:
            assert StableGraph(gr.genera, gr.legs, gr.edges) == gr  # valid
            assert gr.genus == g and gr.n_legs == n
            assert sum(gr.genera) + gr.h1 == g
            for v in range(len(gr.genera)):
                assert 2 * gr.genera[v] - 2 + gr.valence(v) > 0
            assert gr.canonical() == gr  # canonical idempotence

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_canonical_of_relabelling(self, data):
        gr = data.draw(st.sampled_from(CANONICAL_CASES))
        p = data.draw(st.permutations(range(len(gr.genera))))
        assert ref_relabel(gr, p).canonical() == ref_canonical(gr)

    def test_candidate_count(self, monkeypatch):
        # Each split is built once, and only when both sides are stable;
        # without the two filters this enumeration builds 5093 graphs.
        built = []
        init = StableGraph.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(StableGraph, "__init__", counting_init)
        strata.enumerate_stable_graphs(1, 4)
        assert len(built) == 495

    @pytest.mark.parametrize(
        "g,n,cap", [(2, 2, 0), (2, 2, 2), (1, 4, 1), (3, 0, 3), (2, 0, 9)]
    )
    def test_edge_cap(self, g, n, cap):
        full = strata.enumerate_stable_graphs(g, n)
        assert strata.enumerate_stable_graphs(g, n, max_edges=cap) == [
            gr for gr in full if len(gr.edges) <= cap
        ]

    def test_negative_edge_cap_rejected(self):
        with pytest.raises(ValueError, match="max_edges"):
            strata.enumerate_stable_graphs(1, 1, max_edges=-1)

    def test_invalid_graphs_rejected(self):
        with pytest.raises(ValueError):
            StableGraph((0,), (), [])  # unstable vertex
        with pytest.raises(ValueError):
            StableGraph((1, 1), (), [])  # disconnected


class TestAutomorphisms:
    def test_known_orders(self):
        assert strata.automorphism_order(StableGraph((1,), (0,), [])) == 1
        assert strata.automorphism_order(StableGraph((1,), (), [(0, 0)])) == 2
        assert (
            strata.automorphism_order(StableGraph((0, 0), (), [(0, 1)] * 3)) == 12
        )
        # dumbbell: two loops joined by a bridge
        dumbbell = StableGraph((0, 0), (), [(0, 0), (1, 1), (0, 1)])
        assert strata.automorphism_order(dumbbell) == 8

    def test_legs_break_symmetry(self):
        # double edge between two genus-0 vertices, one leg each:
        # the vertex swap moves leg 1 to leg 2's vertex, so only the
        # parallel-edge swap survives.
        gr = StableGraph((0, 0), (0, 1), [(0, 1), (0, 1)])
        assert strata.automorphism_order(gr) == 2

    @pytest.mark.parametrize(
        "g,n", [(1, 1), (1, 2), (2, 0), (2, 1), (1, 3), (0, 5), (2, 2), (3, 0)]
    )
    def test_against_half_edge_brute_force(self, g, n):
        for gr in strata.enumerate_stable_graphs(g, n):
            assert strata.automorphism_order(gr) == aut_brute(gr), gr


def relabel_pair(graph, dec, p, rng):
    """The decorated graph with vertex v renamed p[v].  Parallel edges
    are shuffled along with their psi pairs, and each loop's two halves
    are swapped at random."""
    nv = len(p)
    inv = [0] * nv
    for v, pv in enumerate(p):
        inv[pv] = v
    items = []
    for (v, w), (a, b) in zip(graph.edges, dec.edge_psis):
        pv, pw = p[v], p[w]
        if pv > pw or (pv == pw and rng.random() < 0.5):
            pv, pw, a, b = pw, pv, b, a
        items.append(((pv, pw), (a, b)))
    rng.shuffle(items)
    items.sort(key=lambda item: item[0])
    relabelled = StableGraph(
        [graph.genera[inv[v]] for v in range(nv)],
        [p[v] for v in graph.legs],
        [e for e, _ in items],
    )
    vk = tuple(dec.vertex_kappas[inv[v]] for v in range(nv))
    return relabelled, Decoration(vk, dec.leg_psis, tuple(ab for _, ab in items))


class TestCanonicalForm:
    """strata._canonical_form is the one walk over relabellings behind
    canonical(), automorphism_order() and _canonical_pair()."""

    @pytest.mark.parametrize("seed", range(3))
    def test_perms_reach_reference_key(self, seed):
        rng = random.Random(seed)
        for gr in CANONICAL_CASES:
            nv = len(gr.genera)
            p = list(range(nv))
            rng.shuffle(p)
            moved = ref_relabel(gr, p)
            want = ref_canonical(gr).key()
            canon, perms = strata._canonical_form(moved)
            assert canon.key() == want
            for q in perms:
                assert ref_relabel(moved, q).key() == want
            assert len(perms) == sum(
                1 for q in permutations(range(nv))
                if ref_relabel(moved, q).key() == moved.key()
            )

    @pytest.mark.parametrize("g,n,A,d", [(3, 0, (), 4), (2, 2, (1, 0), 4)])
    def test_canonical_pair_of_relabelled_terms(self, g, n, A, d):
        rng = random.Random(g * 10 + n)
        element = pixton.pixton_class(g, n, A, d)
        moved_some = False
        for graph, dec in element.terms:
            p = list(range(len(graph.genera)))
            rng.shuffle(p)
            moved = relabel_pair(graph, dec, p, rng)
            moved_some |= moved != (graph, dec)
            got = strata._canonical_pair(*moved)
            assert got == ref_canonical_pair(*moved) == (graph, dec), moved
        assert moved_some


class TestKappaOfF:
    def test_zero(self):
        f = PowerSeries([0, 0, 0], 2)
        assert strata.kappa_of_f(f, 3) == {(): Q(1)}

    def test_cT2(self):
        c = Q(5, 7)
        f = PowerSeries([0, 0, c], 2)
        out = strata.kappa_of_f(f, 2)
        # m=1 gives c kappa_1; m=2 gives (c^2/2)(kappa_1^2 + kappa_2).
        assert out == {(): 1, (1,): c, (2,): c * c / 2, (0, 1): c * c / 2}

    def test_bad_low_order(self):
        with pytest.raises(ValueError):
            strata.kappa_of_f(PowerSeries([0, Q(1), 0], 2), 2)

    def test_nonzero_constant_rejected_at_every_order(self):
        for order in (0, 1, 3):
            with pytest.raises(ValueError):
                strata.kappa_of_f(PowerSeries([5], order), 2)
        assert strata.kappa_of_f(PowerSeries([0], 0), 2) == {(): Q(1)}

    def test_vertex_series(self):
        # f = T - T*H0(T) = 60 T^2 - 27720 T^3 + ...; its kappa class
        # to codimension 2 is 1 + 60 k1 + 1800 k1^2 - 25920 k2, the
        # exponential of the empty-partition relation constants.
        H0 = series_H0(3)
        T = PowerSeries([0, Q(1)], 3)
        f = T - T * H0
        out = strata.kappa_of_f(f, 2)
        assert out == {
            (): Q(1),
            (1,): Q(60),
            (2,): Q(1800),
            (0, 1): Q(-25920),
        }


@lru_cache(maxsize=None)
def ref_vertex_integral(h, kappas, psis):
    """The former strata.vertex_integral: the integral of prod kappa_a
    * prod psi^k over the genus-h space, for a sorted tuple of kappa
    indices.  Kappa classes are removed one at a time: adding an extra
    marked point trades kappa_a for psi^{a+1} at the cost of correction
    terms merging it into the remaining kappa indices."""
    if not kappas:
        if sum(psis) != 3 * h - 3 + len(psis):
            return Q(0)
        return bracket(psis)
    a, rest = kappas[0], kappas[1:]
    total = Q(0)
    for picks in product((0, 1), repeat=len(rest)):
        kept = tuple(sorted(b for b, used in zip(rest, picks) if not used))
        merged = a + sum(b for b, used in zip(rest, picks) if used)
        total += (-1) ** sum(picks) * ref_vertex_integral(
            h, kept, tuple(sorted(psis + (merged + 1,)))
        )
    return total


def ref_multinomial_distributions(total, buckets):
    """(composition, multinomial coefficient) over the compositions of
    ``total`` into ``buckets`` parts."""
    if buckets <= 1:
        if buckets == 1 or total == 0:
            yield (total,) * buckets, 1
        return
    for first in range(total + 1):
        for rest, mult in ref_multinomial_distributions(total - first, buckets - 1):
            yield (first,) + rest, comb(total, first) * mult


def ref_integrate(element, psi_exps, kappa_exps):
    """The former strata.integrate: one monomial at a time, each ambient
    kappa power split multinomially over the vertices of every term."""
    psi_exps = tuple(psi_exps) + (0,) * (element.n - len(psi_exps))
    total = Q(0)
    for (graph, dec), coeff in element.terms.items():
        nv = len(graph.genera)
        base_psis = [[] for _ in range(nv)]
        for i, v in enumerate(graph.legs):
            base_psis[v].append(dec.leg_psis[i] + psi_exps[i])
        for (v, w), (kv, kw) in zip(graph.edges, dec.edge_psis):
            base_psis[v].append(kv)
            base_psis[w].append(kw)
        choices = [
            (a, list(ref_multinomial_distributions(e, nv)))
            for a, e in enumerate(kappa_exps, start=1) if e
        ]
        term = Q(0)
        for combo in product(*(opts for _, opts in choices)):
            weight = 1
            ks = [[] for _ in range(nv)]
            for (a, _), (comp, mult) in zip(choices, combo):
                weight *= mult
                for v, cnt in enumerate(comp):
                    ks[v].extend([a] * cnt)
            for v in range(nv):
                for a, e in enumerate(dec.vertex_kappas[v], start=1):
                    ks[v].extend([a] * e)
                weight *= ref_vertex_integral(
                    graph.genera[v], tuple(sorted(ks[v])),
                    tuple(sorted(base_psis[v])),
                )
            term += weight
        total += coeff * term / strata.automorphism_order(graph)
    return total


def kmz_integral(h, e, psis):
    """int kappa^e prod psi^k over the genus-h space, read two ways off
    strata.vertex_integral: as prod e_a! times the s^e coefficient of the
    undecorated series, and as the decorated series, a constant."""
    top = 3 * h - 3 + len(psis)
    series = strata.vertex_integral(h, (), psis, top)
    exps = e + (0,) * (top - len(e))
    by_coefficient = series.coefficient(exps) * prod(map(factorial, e))
    by_derivative = strata.vertex_integral(h, e, psis, top).coefficient(
        (0,) * len(series.grading))
    assert by_coefficient == by_derivative
    return by_coefficient


class TestVertexIntegral:
    def test_pure_psi(self):
        assert kmz_integral(0, (), (0, 0, 0)) == 1
        assert kmz_integral(1, (), (1,)) == Q(1, 24)
        # degree mismatch: the series has no constant term
        assert strata.vertex_integral(1, (), (0,), 1).coefficient((0,)) == 0

    def test_single_kappa(self):
        assert kmz_integral(1, (1,), (0,)) == Q(1, 24)
        assert kmz_integral(0, (1,), (0, 0, 0, 0)) == 1
        assert kmz_integral(2, (0, 0, 1), ()) == bracket((4,))

    def test_two_kappas_against_pushforward_oracle(self):
        # p_2*(psi^2 psi^2) = k1 k1 + k2 on the two-extra-points space,
        # so int k1^2 = <tau2 tau2 tau0 tau0> - int k2 on Mbar_{1,2}.
        k2 = bracket((0, 0, 3))
        expected = bracket((0, 0, 2, 2)) - k2
        assert kmz_integral(1, (2,), (0, 0)) == expected

    def test_three_kappas_against_pushforward_oracle(self):
        # On Mbar_2: p_3*(psi^2 psi^2 psi^2) = k1^3 + 3 k1 k2 + 2 k3.
        k3 = bracket((4,))
        k1k2 = bracket((2, 3)) - k3
        k1cubed = bracket((2, 2, 2)) - 3 * k1k2 - 2 * k3
        assert kmz_integral(2, (0, 0, 1), ()) == k3
        assert kmz_integral(2, (1, 1), ()) == k1k2
        assert kmz_integral(2, (3,), ()) == k1cubed

    @pytest.mark.parametrize("h,n", [(0, 5), (1, 2), (2, 0), (2, 2), (3, 0)])
    def test_matches_kappa_removal_recursion(self, h, n):
        dim = 3 * h - 3 + n
        for k in range(dim + 1):
            for e in strata.kappa_monomials(k):
                for psis in combinations_with_replacement(range(dim - k + 1), n):
                    if sum(psis) != dim - k:
                        continue
                    kappas = tuple(a for a, x in enumerate(e, 1) for _ in range(x))
                    assert kmz_integral(h, e, psis) == ref_vertex_integral(
                        h, kappas, psis
                    ), (h, e, psis)


def smooth_element(g, n):
    gr = StableGraph((g,), (0,) * n, [])
    return StrataElement(g, n, 0, {(gr, undecorated(gr)): Q(1)})


class TestIntegrate:
    def test_fundamental_psi(self):
        assert strata.integrate(smooth_element(1, 1), psi_exps=(1,)) == Q(1, 24)

    def test_fundamental_kappa(self):
        assert strata.integrate(smooth_element(1, 1), kappa_exps=(1,)) == Q(1, 24)
        assert strata.integrate(smooth_element(0, 4), kappa_exps=(1,)) == 1

    def test_loop_graph_pairing(self):
        gr = StableGraph((0,), (0,), [(0, 0)])
        el = StrataElement(1, 1, 1, {(gr, undecorated(gr)): Q(1)})
        # 1/|Aut| * <tau0 tau0 tau0>_0 = 1/2
        assert strata.integrate(el) == Q(1, 2)

    def test_edge_graph_pairing(self):
        # g1--g0 edge, both legs on the g0 vertex.  Ambient psi_1 pulls
        # back to the 0-dimensional genus-0 factor, so it pairs to 0;
        # a psi on the genus-1 half-edge instead gives
        # <tau1>_1 * <tau0 tau0 tau0>_0 = 1/24.
        gr = StableGraph((1, 0), (1, 1), [(0, 1)])
        el = StrataElement(1, 2, 1, {(gr, undecorated(gr)): Q(1)})
        assert strata.integrate(el, psi_exps=(1, 0)) == 0
        dec = Decoration(((), ()), (0, 0), ((1, 0),))
        el2 = StrataElement(1, 2, 2, {(gr, dec): Q(1)})
        assert strata.integrate(el2) == Q(1, 24)

    def test_leg_symmetry(self):
        el = smooth_element(1, 2)
        assert strata.integrate(el, psi_exps=(2, 0)) == strata.integrate(
            el, psi_exps=(0, 2)
        )

    def test_linearity(self):
        gr = StableGraph((0,), (0,), [(0, 0)])
        el = StrataElement(1, 1, 1, {(gr, undecorated(gr)): Q(3)})
        assert strata.integrate(el) == 3 * Q(1, 2)

    def test_decorated_half_edge(self):
        # genus-1 vertex with a loop carrying psi' on one half-edge,
        # paired with ambient kappa_1 on Mbar_2.
        gr = StableGraph((1,), (), [(0, 0)])
        dec = Decoration(((),), (), ((1, 0),))
        el = StrataElement(2, 0, 2, {(gr, dec): Q(1)})
        expected = ref_vertex_integral(1, (1,), (0, 1)) / 2
        assert strata.integrate(el, kappa_exps=(1,)) == expected

    def test_kappa_distribution_across_vertices(self):
        # two-vertex graph: ambient kappa_1 pulls back to the sum of
        # the per-vertex kappa_1's.
        gr = StableGraph((1, 0), (1, 1), [(0, 1)])
        el = StrataElement(1, 2, 1, {(gr, undecorated(gr)): Q(1)})
        expected = ref_vertex_integral(1, (1,), (0,)) * ref_vertex_integral(
            0, (), (0, 0, 0)
        ) + ref_vertex_integral(1, (), (0,)) * ref_vertex_integral(
            0, (1,), (0, 0, 0)
        )
        assert strata.integrate(el, kappa_exps=(1,)) == expected

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            strata.integrate(smooth_element(1, 1))

    def test_term_validation(self):
        gr = StableGraph((0,), (0,), [(0, 0)])
        with pytest.raises(ValueError):
            StrataElement(1, 1, 2, {(gr, undecorated(gr)): Q(1)})
        with pytest.raises(ValueError):
            StrataElement(2, 1, 1, {(gr, undecorated(gr)): Q(1)})

    def test_canonical_merge(self):
        # The same decorated graph presented with permuted vertices
        # merges into one canonical term.
        a = StableGraph((1, 0), (1, 1), [(0, 1)])
        b = StableGraph((0, 1), (0, 0), [(0, 1)])
        el = StrataElement(1, 2, 1)
        el.add_term(a, undecorated(a), Q(1))
        el.add_term(b, undecorated(b), Q(-1))
        assert not el.terms

    def test_canonical_pair_matches_reference(self, monkeypatch):
        # Codimension 4 in genus 3: loops and parallel edges carrying
        # psi classes on both halves, on graphs of up to four vertices.
        got = pixton.pixton_class(3, 0, (), 4).to_json()
        monkeypatch.setattr(strata, "_canonical_pair", ref_canonical_pair)
        assert got == pixton.pixton_class(3, 0, (), 4).to_json()

    def test_canonical_pair_with_legs_matches_reference(self, monkeypatch):
        # The leg carriers take fixed slots; the other vertices permute.
        got = pixton.pixton_class(2, 2, (1, 0), 4).to_json()
        monkeypatch.setattr(strata, "_canonical_pair", ref_canonical_pair)
        assert got == pixton.pixton_class(2, 2, (1, 0), 4).to_json()

    def test_json_round_structure(self):
        gr = StableGraph((0,), (0,), [(0, 0)])
        el = StrataElement(1, 1, 1, {(gr, undecorated(gr)): Q(1, 2)})
        data = el.to_json()
        assert data["g"] == 1 and data["terms"][0]["coeff"] == "1/2"


def random_copy(element, seed):
    """The element's terms with random nonzero rational coefficients."""
    rng = random.Random(seed)
    return StrataElement(element.g, element.n, element.d, {
        key: Q(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 9))
        for key in element.terms
    })


class TestPairings:
    @pytest.mark.parametrize(
        "g,n,A,d",
        [(3, 0, (), 4), (5, 0, (), 2), (3, 1, (0,), 4), (2, 2, (1, 0), 4),
         (2, 2, (1, 0), 2)],
    )
    def test_matches_reference_integrate(self, g, n, A, d):
        # Pixton classes pair to 0 by both routes; their copies with
        # random coefficients make every pairing nonzero, so the two
        # routes agree on values that say something.
        element = pixton.pixton_class(g, n, A, d)
        shuffled = random_copy(element, g * 100 + n * 10 + d)
        extra = 3 * g - 3 + n - d
        count = 0
        for psis in cli._compositions(extra, n):
            monomials = strata.kappa_monomials(extra - sum(psis))
            zero = strata.pairings(element, psis)
            rand = strata.pairings(shuffled, psis)
            assert list(zero) == list(rand) == monomials
            for e in monomials:
                assert zero[e] == ref_integrate(element, psis, e) == 0, (psis, e)
                assert rand[e] == ref_integrate(shuffled, psis, e) != 0, (psis, e)
            count += len(monomials)
        assert count > 0

    def test_integrate_is_one_coefficient(self):
        element = random_copy(pixton.pixton_class(2, 2, (1, 0), 2), 7)
        for psis in cli._compositions(3, 2):
            values = strata.pairings(element, psis)
            for e, value in values.items():
                padded = e + (0,) * 2
                assert strata.integrate(element, psis, padded) == value

    def test_rejects_bad_ambient_degree(self):
        el = smooth_element(1, 1)
        with pytest.raises(ValueError, match="too many psi"):
            strata.pairings(el, (1, 0))
        with pytest.raises(ValueError, match="degree mismatch"):
            strata.pairings(el, (2,))
        assert strata.pairings(el, (1,)) == {(): Q(1, 24)}
