"""Stable graphs, their automorphisms, and integration of strata classes.

A stable graph of genus g with n legs records vertex genera, leg
placement, and a multiset of edges (unordered vertex pairs; loops
allowed), subject to connectivity, the genus condition
sum h(v) + h1 = g with h1 = #edges - #vertices + 1, and stability
2 h(v) - 2 + valence(v) > 0 at every vertex.

A decorated graph additionally carries a kappa-monomial at each vertex
and a psi-exponent at each leg and half-edge.  Linear combinations of
decorated graphs of a common codimension are integrated against an
ambient kappa/psi monomial by pulling the ambient classes back to each
stratum, splitting into per-vertex integrals, converting kappa classes
to psi classes via an extra-marked-point recursion, and evaluating with
closed descendent brackets.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .descendents import bracket
from .fz import KappaPolynomial
from .series import Grading, MultiSeries, PowerSeries

__all__ = [
    "StableGraph",
    "Decoration",
    "StrataElement",
    "enumerate_stable_graphs",
    "automorphism_order",
    "kappa_of_f",
    "vertex_integral",
    "integrate",
]


class StableGraph:
    """A stable graph: vertex genera, leg placement, edge multiset.

    ``edges`` is a sorted tuple of pairs (v, w) with v <= w; a loop has
    v == w.  ``legs[i]`` is the vertex carrying leg i+1.
    """

    def __init__(self, genera, legs, edges):
        self.genera = tuple(genera)
        self.legs = tuple(legs)
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        self._validate()

    def _validate(self):
        nv = len(self.genera)
        if nv == 0:
            raise ValueError("graph needs at least one vertex")
        if any(h < 0 for h in self.genera):
            raise ValueError("negative genus")
        for v in self.legs:
            if not 0 <= v < nv:
                raise ValueError("leg attached to missing vertex")
        for v, w in self.edges:
            if not (0 <= v < nv and 0 <= w < nv):
                raise ValueError("edge attached to missing vertex")
        if not self._connected():
            raise ValueError("graph is not connected")
        for v in range(nv):
            if 2 * self.genera[v] - 2 + self.valence(v) <= 0:
                raise ValueError("unstable vertex %d" % v)

    def _connected(self):
        nv = len(self.genera)
        seen = {0}
        frontier = [0]
        adj = {v: set() for v in range(nv)}
        for v, w in self.edges:
            adj[v].add(w)
            adj[w].add(v)
        while frontier:
            v = frontier.pop()
            for w in adj[v] - seen:
                seen.add(w)
                frontier.append(w)
        return len(seen) == nv

    def valence(self, v):
        val = sum(1 for x in self.legs if x == v)
        for a, b in self.edges:
            val += (a == v) + (b == v)
        return val

    @property
    def h1(self):
        return len(self.edges) - len(self.genera) + 1

    @property
    def genus(self):
        return sum(self.genera) + self.h1

    @property
    def n_legs(self):
        return len(self.legs)

    @classmethod
    def _unchecked(cls, genera, legs, edges):
        """A graph known to be valid, such as a relabelling of a valid
        one, without _validate.  ``edges`` must be sorted as __init__
        sorts them."""
        graph = cls.__new__(cls)
        graph.genera, graph.legs, graph.edges = tuple(genera), legs, edges
        return graph

    def relabel(self, perm):
        """Apply a vertex permutation: vertex v becomes perm[v]."""
        inv = [0] * len(perm)
        for v, pv in enumerate(perm):
            inv[pv] = v
        genera = tuple(self.genera[inv[v]] for v in range(len(perm)))
        return StableGraph._unchecked(genera, *self._moved(perm))

    def _moved(self, perm):
        """Legs and sorted edges of the relabelling by ``perm``."""
        legs = tuple([perm[v] for v in self.legs])
        edges = []
        for v, w in self.edges:
            pv, pw = perm[v], perm[w]
            edges.append((pv, pw) if pv <= pw else (pw, pv))
        edges.sort()
        return legs, tuple(edges)

    def key(self):
        return (self.genera, self.legs, self.edges)

    def canonical(self):
        """The relabelling with the lexicographically least key()."""
        legs, edges = min(
            self._moved(p) for p in _genus_sorting_perms(self.genera)
        )
        return StableGraph._unchecked(sorted(self.genera), legs, edges)

    def __eq__(self, other):
        return isinstance(other, StableGraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "StableGraph(%r, %r, %r)" % (self.genera, self.legs, self.edges)

    def to_json(self):
        return {
            "vertices": [{"genus": h} for h in self.genera],
            "legs": list(self.legs),
            "edges": [[[v, 0], [w, 0]] for v, w in self.edges],
        }


def _genus_perms(genera, target):
    """Vertex permutations p with target[p[v]] == genera[v] for every v.

    ``target`` is a rearrangement of ``genera``.  Only these can carry
    a graph to one with genera ``target``: with target = genera they
    hold every automorphism, and with target = sorted(genera) every
    relabelling that can reach the least key, whose genera are sorted.

    >>> list(_genus_perms((1, 0, 0), (0, 0, 1)))
    [[2, 0, 1], [2, 1, 0]]
    """
    nv = len(genera)
    blocks = [
        (
            [v for v in range(nv) if genera[v] == h],
            [s for s in range(nv) if target[s] == h],
        )
        for h in sorted(set(genera))
    ]
    for images in itertools.product(
        *(itertools.permutations(slots) for _, slots in blocks)
    ):
        p = [0] * nv
        for (verts, _), img in zip(blocks, images):
            for v, pv in zip(verts, img):
                p[v] = pv
        yield p


def _genus_sorting_perms(genera):
    return _genus_perms(genera, tuple(sorted(genera)))


def _subsets(items):
    for picks in itertools.product((False, True), repeat=len(items)):
        yield list(itertools.compress(items, picks))


def _degenerations(graph):
    """(genera, legs, edges) of the graphs with one more edge that
    contract back to ``graph``; they are not validated.

    Either a loop is added at a vertex v of positive genus, lowering
    its genus by one, or v is split into v and a new vertex u joined
    to it by an edge: u takes part of v's genus, a subset of its legs
    and a subset of its half-edges (both halves of a loop counted
    separately).
    """
    genera, legs, edges = graph.genera, graph.legs, graph.edges
    u = len(genera)
    for v, h in enumerate(genera):
        if h:
            yield (
                genera[:v] + (h - 1,) + genera[v + 1:],
                legs,
                edges + ((v, v),),
            )
        leg_slots = [i for i, x in enumerate(legs) if x == v]
        half_slots = [
            (i, j) for i, e in enumerate(edges) for j in (0, 1) if e[j] == v
        ]
        for hu in range(h + 1):
            split_genera = genera[:v] + (h - hu,) + genera[v + 1:] + (hu,)
            for moved_legs in _subsets(leg_slots):
                split_legs = list(legs)
                for i in moved_legs:
                    split_legs[i] = u
                for moved_halves in _subsets(half_slots):
                    split_edges = [list(e) for e in edges]
                    for i, j in moved_halves:
                        split_edges[i][j] = u
                    split_edges.append((v, u))
                    yield split_genera, split_legs, split_edges


def enumerate_stable_graphs(g, n):
    """One representative per isomorphism class of stable graphs.

    Graphs are generated by degeneration, one edge count at a time,
    from the smooth graph.  Contracting any edge of a stable graph
    gives a stable graph with one edge fewer, so every class is
    reached.  The representative is the least relabelling
    (StableGraph.canonical), and the list is sorted by key().

    >>> len(enumerate_stable_graphs(0, 3))
    1
    >>> len(enumerate_stable_graphs(1, 1))
    2
    """
    if g < 0 or n < 0:
        raise ValueError("negative (g, n) = (%d, %d)" % (g, n))
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n) = (%d, %d)" % (g, n))
    smooth = StableGraph((g,), (0,) * n, ())
    found = {smooth.key(): smooth}
    level = [smooth]
    while level:
        next_level = {}
        for graph in level:
            for genera, legs, edges in _degenerations(graph):
                try:
                    candidate = StableGraph(genera, legs, edges)
                except ValueError:
                    continue
                canon = candidate.canonical()
                next_level.setdefault(canon.key(), canon)
        found.update(next_level)
        level = list(next_level.values())
    return sorted(found.values(), key=StableGraph.key)


def automorphism_order(graph):
    """Order of the automorphism group on (vertices, half-edges).

    Legs are fixed pointwise.  Beyond vertex permutations, parallel
    edges between a fixed pair may be permuted and the two half-edges
    of each loop may be swapped.

    >>> automorphism_order(StableGraph((0, 0), (), [(0, 1)] * 3))
    12
    """
    fixed = (graph.legs, graph.edges)
    order = sum(
        1
        for p in _genus_perms(graph.genera, graph.genera)
        if graph._moved(p) == fixed
    )
    mult = {}
    for e in graph.edges:
        mult[e] = mult.get(e, 0) + 1
    for e, m in mult.items():
        order *= factorial(m)
        if e[0] == e[1]:
            order *= 2**m
    return order


def kappa_of_f(f, degree_max):
    """The kappa-class series of a power series f with f0 = f1 = 0.

    Implements sum_m (1/m!) p_m*(f(psi) ... f(psi)) using the cycle
    formula for the multi-point forgetful push-forward: the result is
    exp( sum_l (1/l) sum_{b_1..b_l >= 1} prod f_{b_j + 1} kappa_{b_1+..+b_l} ).
    With C(T) = sum_{b >= 1} f_{b+1} T^b the inner sum is
    sum_l C(T)^l / l = -log(1 - C(T)), so kappa_a has coefficient
    [T^a] -log(1 - C(T)); the exponential is taken in kappa_1..kappa_D
    with kappa_a of weight a.

    >>> f = PowerSeries([0, 0, Fraction(1)], 2)  # T^2
    >>> sorted(kappa_of_f(f, 2).terms.items())
    [((), Fraction(1, 1)), ((0, 1), Fraction(1, 2)), ((1,), Fraction(1, 1)), ((2,), Fraction(1, 2))]
    """
    if f.order >= 1 and (f[0] != 0 or f[1] != 0):
        raise ValueError("f must have vanishing constant and linear terms")
    D = degree_max
    C = PowerSeries(
        [0] + [f[b + 1] if b < f.order else 0 for b in range(1, D + 1)], D
    )
    cycles = -(1 - C).log()
    kappas = range(1, D + 1)
    grading = Grading(["k%d" % a for a in kappas], list(kappas))
    body = {
        (0,) * (a - 1) + (1,) + (0,) * (D - a): cycles[a]
        for a in kappas
    }
    return KappaPolynomial(MultiSeries(grading, body, D).exp().terms)


@lru_cache(maxsize=None)
def vertex_integral(h, kappas, psis):
    """Integral of prod kappa_a * prod psi^k over the genus-h space.

    ``kappas`` is a sorted tuple of kappa indices (with multiplicity),
    ``psis`` a sorted tuple of psi exponents, one per marked point.
    Kappa classes are removed one at a time: adding an extra marked
    point trades kappa_a for psi^{a+1} at the cost of correction terms
    merging it into the remaining kappa indices.

    >>> vertex_integral(1, (1,), (0,))
    Fraction(1, 24)
    >>> vertex_integral(0, (1,), (0, 0, 0, 0))
    Fraction(1, 1)
    """
    if not kappas:
        dim = 3 * h - 3 + len(psis)
        if dim < 0 or 2 * h - 2 + len(psis) <= 0:
            raise ValueError("unstable vertex (h=%d, n=%d)" % (h, len(psis)))
        if sum(psis) != dim:
            return Fraction(0)
        # bracket infers the genus from the dimension constraint, which
        # sum(psis) == 3h - 3 + n pins to exactly h.
        return bracket(tuple(sorted(psis)))
    a = kappas[0]
    rest = kappas[1:]
    total = Fraction(0)
    for picks in itertools.product((0, 1), repeat=len(rest)):
        kept = tuple(sorted(b for b, used in zip(rest, picks) if not used))
        merged = a + sum(b for b, used in zip(rest, picks) if used)
        sign = (-1) ** sum(picks)
        total += sign * vertex_integral(
            h, kept, tuple(sorted(psis + (merged + 1,)))
        )
    return total


class Decoration:
    """Kappa/psi decoration of a stable graph.

    ``vertex_kappas`` holds one kappa-exponent tuple per vertex,
    ``leg_psis`` one psi exponent per leg, and ``edge_psis`` one pair
    of psi exponents per edge (aligned with the edge's vertex pair).
    """

    def __init__(self, vertex_kappas, leg_psis, edge_psis):
        self.vertex_kappas = tuple(tuple(k) for k in vertex_kappas)
        self.leg_psis = tuple(leg_psis)
        self.edge_psis = tuple(tuple(p) for p in edge_psis)

    @staticmethod
    def trivial(graph):
        return Decoration(
            [()] * len(graph.genera),
            [0] * len(graph.legs),
            [(0, 0)] * len(graph.edges),
        )

    def degree(self):
        d = sum(KappaPolynomial.term_degree(k) for k in self.vertex_kappas)
        return d + sum(self.leg_psis) + sum(a + b for a, b in self.edge_psis)

    def key(self):
        return (self.vertex_kappas, self.leg_psis, self.edge_psis)

    def __eq__(self, other):
        return isinstance(other, Decoration) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Decoration(%r, %r, %r)" % self.key()


def _canonical_pair(graph, dec):
    """Minimal representative of a decorated graph under vertex perms.

    The least candidate has sorted genera, so only genus-sorting
    permutations are tried.
    """
    nv = len(graph.genera)
    genera = tuple(sorted(graph.genera))
    best = None
    for p in _genus_sorting_perms(graph.genera):
        inv = [0] * nv
        for v, pv in enumerate(p):
            inv[pv] = v
        vk = tuple(dec.vertex_kappas[inv[v]] for v in range(nv))
        # Re-sort the edges together with their psi pairs, by vertices
        # first, so that each psi pair stays on its own edge.
        items = []
        for (v, w), (kv, kw) in zip(graph.edges, dec.edge_psis):
            (pv, a), (pw, b) = sorted(((p[v], kv), (p[w], kw)))
            items.append((pv, pw, a, b))
        items.sort()
        edges = tuple(item[:2] for item in items)
        psis = tuple(item[2:] for item in items)
        legs = tuple([p[v] for v in graph.legs])
        cand = ((genera, legs, edges), vk, dec.leg_psis, psis)
        if best is None or cand < best:
            best = cand
    key, vk, leg_psis, psis = best
    return StableGraph._unchecked(*key), Decoration(vk, leg_psis, psis)


class StrataElement:
    """A rational linear combination of decorated stable graphs."""

    def __init__(self, g, n, d, terms=None):
        self.g = g
        self.n = n
        self.d = d
        self.terms = {}
        for (graph, dec), c in (terms or {}).items():
            self.add_term(graph, dec, c)

    def add_term(self, graph, dec, coeff):
        coeff = Fraction(coeff)
        if coeff == 0:
            return
        if graph.genus != self.g or graph.n_legs != self.n:
            raise ValueError("term has wrong ambient (g, n)")
        if len(graph.edges) + dec.degree() != self.d:
            raise ValueError("term has wrong codimension")
        graph, dec = _canonical_pair(graph, dec)
        key = (graph, dec)
        c = self.terms.get(key, Fraction(0)) + coeff
        if c == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other):
        if (self.g, self.n, self.d) != (other.g, other.n, other.d):
            raise ValueError("mismatched ambient data")
        out = StrataElement(self.g, self.n, self.d)
        for (graph, dec), c in self.terms.items():
            out.add_term(graph, dec, c)
        for (graph, dec), c in other.terms.items():
            out.add_term(graph, dec, c)
        return out

    def __mul__(self, c):
        out = StrataElement(self.g, self.n, self.d)
        for (graph, dec), x in self.terms.items():
            out.add_term(graph, dec, x * Fraction(c))
        return out

    def is_zero(self):
        return not self.terms

    def to_json(self):
        out = []
        for (graph, dec), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0].key(), kv[0][1].key())
        ):
            out.append(
                {
                    "graph": graph.to_json(),
                    "vertex_kappas": [list(k) for k in dec.vertex_kappas],
                    "leg_psis": list(dec.leg_psis),
                    "edge_psis": [list(p) for p in dec.edge_psis],
                    "coeff": str(c),
                }
            )
        return {"g": self.g, "n": self.n, "d": self.d, "terms": out}


def _prod_fact(xs):
    p = 1
    for x in xs:
        p *= factorial(x)
    return p


def _multinomial_distributions(total, buckets):
    """(composition, multinomial coefficient) pairs."""
    for comp in itertools.product(range(total + 1), repeat=buckets):
        if sum(comp) == total:
            yield comp, factorial(total) // _prod_fact(comp)


def integrate(element, psi_exps=(), kappa_exps=()):
    """Pair a strata element with an ambient kappa/psi monomial.

    ``psi_exps`` gives the ambient psi exponent per leg, ``kappa_exps``
    the ambient kappa exponents (kappa_1, kappa_2, ...).  Requires
    element codimension plus monomial degree to equal 3g - 3 + n.
    """
    g, n = element.g, element.n
    psi_exps = tuple(psi_exps) + (0,) * (n - len(psi_exps))
    if len(psi_exps) != n:
        raise ValueError("too many psi exponents")
    extra_deg = sum(psi_exps) + KappaPolynomial.term_degree(tuple(kappa_exps))
    if element.d + extra_deg != 3 * g - 3 + n:
        raise ValueError(
            "degree mismatch: codim %d + extra %d != %d"
            % (element.d, extra_deg, 3 * g - 3 + n)
        )
    total = Fraction(0)
    for (graph, dec), coeff in element.terms.items():
        total += coeff * _integrate_term(graph, dec, psi_exps, kappa_exps)
    return total


def _integrate_term(graph, dec, psi_exps, kappa_exps):
    nv = len(graph.genera)
    # Per-vertex psi lists: legs first, then half-edges.
    base_psis = [[] for _ in range(nv)]
    for i, v in enumerate(graph.legs):
        base_psis[v].append(dec.leg_psis[i] + psi_exps[i])
    for (v, w), (kv, kw) in zip(graph.edges, dec.edge_psis):
        base_psis[v].append(kv)
        base_psis[w].append(kw)
    # Ambient kappa_a pulls back to the sum of the vertex kappa_a's:
    # distribute each power multinomially over vertices.
    choices = []
    for a, e in enumerate(kappa_exps, start=1):
        if e:
            choices.append((a, list(_multinomial_distributions(e, nv))))
    total = Fraction(0)
    for combo in itertools.product(*(opts for _, opts in choices)):
        weight = 1
        extra_kappas = [[] for _ in range(nv)]
        for (a, _), (comp, mult) in zip(choices, combo):
            weight *= mult
            for v, cnt in enumerate(comp):
                extra_kappas[v].extend([a] * cnt)
        prod = Fraction(weight)
        for v in range(nv):
            ks = list(extra_kappas[v])
            for a, e in enumerate(dec.vertex_kappas[v], start=1):
                ks.extend([a] * e)
            prod *= vertex_integral(
                graph.genera[v], tuple(sorted(ks)), tuple(sorted(base_psis[v]))
            )
            if prod == 0:
                break
        total += prod
    return total / automorphism_order(graph)
