"""Stable graphs, their automorphisms, and integration of strata classes.

A stable graph of genus g with n legs records vertex genera, leg
placement, and a multiset of edges (unordered vertex pairs; loops
allowed), subject to connectivity, the genus condition
sum h(v) + h1 = g with h1 = #edges - #vertices + 1, and stability
2 h(v) - 2 + valence(v) > 0 at every vertex.

A decorated graph additionally carries a kappa-monomial at each vertex
and a psi-exponent at each leg and half-edge.  A linear combination of
decorated graphs of a common codimension is paired with every ambient
kappa-monomial at once (pairings), through the formula of Kaufmann,
Manin and Zagier (alg-geom/9505012) on each vertex:

    int exp(sum_a s_a kappa_a) prod_i psi_i^{d_i}
        = <prod_i tau_{d_i} exp(sum_j p_j tau_{j+1})>,
    where sum_j p_j z^j = 1 - exp(-sum_a s_a z^a).
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import NamedTuple

from .descendents import bracket
from .series import Grading, MultiSeries, PowerSeries

__all__ = [
    "StableGraph",
    "Decoration",
    "StrataElement",
    "enumerate_stable_graphs",
    "automorphism_order",
    "kappa_degree",
    "kappa_monomial",
    "kappa_of_f",
    "kappa_monomials",
    "vertex_integral",
    "pairings",
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

    def _moved_edges(self, perm):
        """Sorted edges of the relabelling by ``perm``."""
        edges = []
        for v, w in self.edges:
            pv, pw = perm[v], perm[w]
            edges.append((pv, pw) if pv <= pw else (pw, pv))
        edges.sort()
        return tuple(edges)

    def key(self):
        return (self.genera, self.legs, self.edges)

    def canonical(self):
        """The relabelling with the lexicographically least key()."""
        return _canonical_form(self)[0]

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


def _canonical_form(graph):
    """The least relabelling of ``graph`` and every permutation reaching it.

    key() compares sorted genera, then legs, then edges.  The least
    legs tuple gives each leg-carrying vertex, in order of its first
    leg, the lowest free slot of its genus; only the vertices without
    legs are left to permute.  The permutations returned form one coset
    of the vertex automorphisms that fix the legs.

    >>> _canonical_form(StableGraph((1, 0), (), [(0, 1), (1, 1)]))
    (StableGraph((0, 1), (), ((0, 0), (0, 1))), [[1, 0]])
    """
    slots = _leg_first_slots(graph.genera, graph.legs)
    best, perms = None, []
    for p in _genus_perms(graph.genera, slots):
        edges = graph._moved_edges(p)
        if best is None or edges < best:
            best, perms = edges, [p]
        elif edges == best:
            perms.append(p)
    legs = tuple([slots[v] for v in graph.legs])
    canon = StableGraph._unchecked(sorted(graph.genera), legs, best)
    return canon, perms


def _genus_perms(genera, fixed):
    """Vertex permutations p with sorted(genera)[p[v]] == genera[v] for
    every v, and p[v] == fixed[v] for every vertex in the dict ``fixed``.

    ``fixed`` pins vertices whose slot is already known (leg carriers);
    the rest are permuted within their genus over the free slots.

    >>> list(_genus_perms((1, 0, 0), {}))
    [[2, 0, 1], [2, 1, 0]]
    >>> list(_genus_perms((1, 0, 0), {2: 0}))
    [[2, 1, 0]]
    """
    nv = len(genera)
    target = sorted(genera)
    taken = set(fixed.values())
    blocks = [
        (
            [v for v in range(nv) if genera[v] == h and v not in fixed],
            [s for s in range(nv) if target[s] == h and s not in taken],
        )
        for h in sorted(set(genera))
    ]
    base = [fixed.get(v, 0) for v in range(nv)]
    for images in itertools.product(
        *(itertools.permutations(slots) for _, slots in blocks)
    ):
        p = list(base)
        for (verts, _), img in zip(blocks, images):
            for v, pv in zip(verts, img):
                p[v] = pv
        yield p


def _leg_first_slots(genera, legs):
    """Slot of each leg carrier in the least key(): in order of first
    leg, the lowest slot of its genus in sorted(genera) not yet taken.

    >>> _leg_first_slots((1, 0, 0), (2, 0, 2))
    {2: 0, 0: 2}
    """
    target = sorted(genera)
    free = {h: target.index(h) for h in set(genera)}
    slots = {}
    for v in legs:
        if v not in slots:
            slots[v] = free[genera[v]]
            free[genera[v]] += 1
    return slots


def _degenerations(graph):
    """(genera, legs, edges) of graphs with one more edge that contract
    back to ``graph``: every isomorphism class among them at least once.

    Either a loop is added at a vertex v of positive genus, lowering
    its genus by one, or v is split into v and a new vertex u joined
    to it by an edge: u takes genus hu of v's genus h, a subset of its
    legs and a subset of its half-edges (both halves of a loop counted
    separately).  A split is yielded only when both sides are stable,
    2 hu + #legs + #halves >= 2 for u and likewise for v, and only when
    (hu, leg picks, half picks) is at most its mirror, the complement
    that exchanges u and v and gives an isomorphic graph.
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
        leg_picks = _picks(len(leg_slots))
        half_picks = _picks(len(half_slots))
        m, k = len(leg_slots), len(half_slots)
        for hu in range(h + 1):
            split_genera = genera[:v] + (h - hu,) + genera[v + 1:] + (hu,)
            for lp, lp_mirror, mu in leg_picks:
                for hp, hp_mirror, ku in half_picks:
                    if (
                        2 * hu + mu + ku < 2
                        or 2 * (h - hu) + (m - mu) + (k - ku) < 2
                        or (hu, lp, hp) > (h - hu, lp_mirror, hp_mirror)
                    ):
                        continue
                    split_legs = list(legs)
                    for i in itertools.compress(leg_slots, lp):
                        split_legs[i] = u
                    split_edges = [list(e) for e in edges]
                    for i, j in itertools.compress(half_slots, hp):
                        split_edges[i][j] = u
                    split_edges.append((v, u))
                    yield split_genera, split_legs, split_edges


def _picks(size):
    """(picks, complement, count picked) for every subset of range(size)."""
    return [
        (picks, tuple(not x for x in picks), sum(picks))
        for picks in itertools.product((False, True), repeat=size)
    ]


def enumerate_stable_graphs(g, n, max_edges=None):
    """One representative per isomorphism class of stable graphs, with
    at most ``max_edges`` edges when that is given.

    Graphs are generated by stable, mirror-free degeneration
    (_degenerations), one edge count at a time, from the smooth graph.
    Contracting any edge of a stable graph gives a stable graph with
    one edge fewer, so every class is reached.  Each candidate is
    validated by the StableGraph constructor.  The representative is
    the least relabelling (StableGraph.canonical), and the list is
    sorted by key().

    >>> len(enumerate_stable_graphs(0, 3))
    1
    >>> len(enumerate_stable_graphs(1, 1))
    2
    >>> len(enumerate_stable_graphs(2, 0, max_edges=1))
    3
    """
    if g < 0 or n < 0:
        raise ValueError("negative (g, n) = (%d, %d)" % (g, n))
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n) = (%d, %d)" % (g, n))
    if max_edges is not None and max_edges < 0:
        raise ValueError("negative max_edges = %d" % max_edges)
    smooth = StableGraph((g,), (0,) * n, ())
    found = {smooth.key(): smooth}
    level = [smooth]
    n_edges = 0
    while level and (max_edges is None or n_edges < max_edges):
        next_level = {}
        for graph in level:
            for genera, legs, edges in _degenerations(graph):
                canon = StableGraph(genera, legs, edges).canonical()
                next_level.setdefault(canon.key(), canon)
        found.update(next_level)
        level = list(next_level.values())
        n_edges += 1
    return sorted(found.values(), key=StableGraph.key)


def automorphism_order(graph):
    """Order of the automorphism group on (vertices, half-edges).

    Legs are fixed pointwise.  The vertex automorphisms are counted as
    the permutations reaching the canonical form, one coset of them.
    Beyond vertex permutations, parallel edges between a fixed pair may
    be permuted and the two half-edges of each loop may be swapped.

    >>> automorphism_order(StableGraph((0, 0), (), [(0, 1)] * 3))
    12
    """
    order = len(_canonical_form(graph)[1])
    mult = {}
    for e in graph.edges:
        mult[e] = mult.get(e, 0) + 1
    for e, m in mult.items():
        order *= factorial(m)
        if e[0] == e[1]:
            order *= 2**m
    return order


def kappa_degree(e):
    """Weighted degree sum a * e_a of a kappa-exponent tuple (e_1, e_2, ...).

    >>> kappa_degree((2, 0, 1))
    5
    """
    return sum(a * x for a, x in enumerate(e, start=1))


def kappa_monomial(e):
    """The tuple e without trailing zeros: the key of kappa_1^e_1
    kappa_2^e_2 ... in a kappa polynomial, a {exponent tuple: coeff}
    map with no zero coefficient.

    >>> kappa_monomial((1, 0, 0))
    (1,)
    """
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def kappa_of_f(f, degree_max):
    """The kappa-class series of a power series f with f0 = f1 = 0.

    Implements sum_m (1/m!) p_m*(f(psi) ... f(psi)) using the cycle
    formula for the multi-point forgetful push-forward: the result is
    exp( sum_l (1/l) sum_{b_1..b_l >= 1} prod_i f_{b_i + 1} kappa_{b_1+..+b_l} ).
    With C(T) = sum_{b >= 1} f_{b+1} T^b the inner sum is
    sum_l C(T)^l / l = -log(1 - C(T)), so kappa_a has coefficient
    [T^a] -log(1 - C(T)); the exponential is taken in kappa_1..kappa_D
    with kappa_a of weight a.  The result is a kappa polynomial.

    >>> f = PowerSeries([0, 0, Fraction(1)], 2)  # T^2
    >>> sorted(kappa_of_f(f, 2).items())
    [((), Fraction(1, 1)), ((0, 1), Fraction(1, 2)), ((1,), Fraction(1, 1)), ((2,), Fraction(1, 2))]
    """
    if f[0] != 0 or (f.order >= 1 and f[1] != 0):
        raise ValueError("f must have vanishing constant and linear terms")
    D = degree_max
    C = PowerSeries(
        [0] + [f[b + 1] if b < f.order else 0 for b in range(1, D + 1)], D
    )
    cycles = -(1 - C).log()
    kappa = _weighted_linear(cycles, D).exp()
    return {kappa_monomial(e): c for e, c in kappa.terms.items()}


def _kappa_grading(top):
    """x_1..x_top, with x_a of weight a: the slots of kappa_1..kappa_top."""
    return Grading(["x%d" % a for a in range(1, top + 1)], range(1, top + 1))


def _weighted_linear(coeffs, top):
    """sum_a coeffs[a] x_a over :func:`_kappa_grading`."""
    return MultiSeries(_kappa_grading(top), {
        (0,) * (a - 1) + (1,) + (0,) * (top - a): coeffs[a]
        for a in range(1, top + 1)
    }, top)


def kappa_monomials(degree):
    """Every kappa-monomial of weighted degree ``degree`` in kappa_monomial
    form; read as multiplicities, the partitions of ``degree``.

    >>> kappa_monomials(3)
    [(0, 0, 1), (1, 1), (3,)]
    """
    return [kappa_monomial(e) for e in _kappa_grading(degree).monomials(degree)]


@lru_cache(maxsize=None)
def _kmz_shift(top):
    """1 - exp(-(s_1 + ... + s_top)); its weight-j part is p_j."""
    return 1 - (-_weighted_linear((1,) * (top + 1), top)).exp()


@lru_cache(maxsize=None)
def vertex_integral(h, kappa, psis, top):
    """The integral of kappa^kappa exp(sum_a s_a kappa_a) prod psi^psis
    over the genus-h space, a series in s_1..s_top (s_a of weight a), for
    a kappa-exponent tuple ``kappa`` and a sorted tuple ``psis``.  By KMZ,
    the undecorated series is the sum over the partitions lambda of
    f = 3h - 3 + n - sum(psis) of bracket(psis + (lambda + 1))
    * prod p_{lambda_i} / aut(lambda); kappa^kappa is a derivative in s.

    >>> vertex_integral(1, (), (0,), 1).terms
    {(1,): Fraction(1, 24)}
    >>> vertex_integral(0, (1,), (0, 0, 0, 0), 1).terms
    {(0,): Fraction(1, 1)}
    """
    grading = _kmz_shift(top).grading
    if kappa:
        series = vertex_integral(h, (), psis, top)
        for a in [a for a, e in enumerate(kappa) for _ in range(e)]:
            series = series.derivative(grading.names[a])
        return series
    if 2 * h - 2 + len(psis) <= 0:
        raise ValueError("unstable vertex (h=%d, n=%d)" % (h, len(psis)))
    total = MultiSeries.zero(grading, top)
    for mult in kappa_monomials(3 * h - 3 + len(psis) - sum(psis)):
        parts = tuple(j + 1 for j, m in enumerate(mult, start=1) for _ in range(m))
        total = total + _kmz_monomial(mult, top) * bracket(psis + parts)
    return total


@lru_cache(maxsize=None)
def _kmz_monomial(mult, top):
    """prod_j p_j^{m_j} / m_j! for the partition with multiplicities
    ``mult``, in kappa_monomial form."""
    shift = _kmz_shift(top)
    if not mult:
        return MultiSeries.constant(shift.grading, 1, top)
    j, lower = len(mult), kappa_monomial(mult[:-1] + (mult[-1] - 1,))
    return _kmz_monomial(lower, top) * shift.part(j) * Fraction(1, mult[-1])


class Decoration(NamedTuple):
    """Kappa/psi decoration of a stable graph.

    ``vertex_kappas`` holds one kappa-exponent tuple per vertex,
    ``leg_psis`` one psi exponent per leg, and ``edge_psis`` one pair
    of psi exponents per edge (aligned with the edge's vertex pair),
    all tuples.
    """

    vertex_kappas: tuple
    leg_psis: tuple
    edge_psis: tuple

    def degree(self):
        d = sum(kappa_degree(k) for k in self.vertex_kappas)
        return d + sum(self.leg_psis) + sum(a + b for a, b in self.edge_psis)


def _canonical_pair(graph, dec):
    """Minimal representative of a decorated graph under vertex perms.

    Only the permutations reaching the canonical graph are tried, so
    every candidate carries that graph and candidates compare by their
    vertex kappas, then their edge psis.
    """
    canon, perms = _canonical_form(graph)
    nv = len(graph.genera)
    best = None
    for p in perms:
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
        cand = (vk, tuple(item[2:] for item in items))
        if best is None or cand < best:
            best = cand
    return canon, Decoration(best[0], dec.leg_psis, best[1])


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

    def to_json(self):
        out = []
        for (graph, dec), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0].key(), kv[0][1])
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


def pairings(element, psi_exps=()):
    """The pairings of a strata element with psi^psi_exps kappa^e for every
    kappa^e of the complementary degree r, as ``{kappa_monomial(e):
    value}`` in the order of kappa_monomials(r), zeros included.

    By Kaufmann-Manin-Zagier (alg-geom/9505012), a vertex gives
    int exp(sum_a s_a kappa_a) prod psi_i^{d_i} =
    <prod tau_{d_i} exp(sum_j p_j tau_{j+1})> with sum_j p_j z^j =
    1 - exp(-sum_a s_a z^a) (vertex_integral).  A term adds coeff / |Aut|
    times the product of its vertex series, and the pairing with kappa^e
    is prod e_a! times the coefficient of s^e in the sum.

    >>> gr = StableGraph((1, 0), (1, 1), [(0, 1)])
    >>> dec = Decoration(((), ()), (0, 0), ((0, 0),))
    >>> pairings(StrataElement(1, 2, 1, {(gr, dec): 1}))
    {(1,): Fraction(1, 24)}
    """
    g, n = element.g, element.n
    if len(psi_exps) > n:
        raise ValueError("too many psi exponents")
    psi_exps = tuple(psi_exps) + (0,) * (n - len(psi_exps))
    top = 3 * g - 3 + n
    r = top - element.d - sum(psi_exps)
    if r < 0:
        raise ValueError("degree mismatch: codim %d + psi degree %d > %d"
                         % (element.d, sum(psi_exps), top))
    total = MultiSeries.zero(_kmz_shift(top).grading, top)
    auts = {}
    for (graph, dec), coeff in element.terms.items():
        if graph not in auts:
            auts[graph] = automorphism_order(graph)
        # Per-vertex psi lists: legs first, then half-edges.
        psis = [[] for _ in graph.genera]
        for i, v in enumerate(graph.legs):
            psis[v].append(dec.leg_psis[i] + psi_exps[i])
        for (v, w), (kv, kw) in zip(graph.edges, dec.edge_psis):
            psis[v].append(kv)
            psis[w].append(kw)
        vertices = zip(graph.genera, dec.vertex_kappas, psis)
        term = prod(vertex_integral(h, kappa, tuple(sorted(ks)), top)
                    for h, kappa, ks in vertices)
        total = total + term * (coeff / auts[graph])
    return {
        e: total.coefficient(e + (0,) * (top - len(e))) * prod(map(factorial, e))
        for e in kappa_monomials(r)
    }

def integrate(element, psi_exps=(), kappa_exps=()):
    """Pair a strata element with an ambient kappa/psi monomial: one value
    of pairings(element, psi_exps).

    ``psi_exps`` gives the ambient psi exponent per leg, ``kappa_exps``
    the ambient kappa exponents (kappa_1, kappa_2, ...).  Requires
    element codimension plus monomial degree to equal 3g - 3 + n.
    """
    extra_deg = sum(psi_exps) + kappa_degree(kappa_exps)
    dim = 3 * element.g - 3 + element.n
    if element.d + extra_deg != dim:
        raise ValueError("degree mismatch: codim %d + extra %d != %d"
                         % (element.d, extra_deg, dim))
    return pairings(element, psi_exps)[kappa_monomial(tuple(kappa_exps))]
