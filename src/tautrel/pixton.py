"""Tautological relations assembled from vertex, leg, and edge factors.

For data (g, n, A, d) with A a vector of 0/1 leg markings and
d > (g - 1 + sum A)/3, a strata-algebra class R^d_{g,A} is built as a
sum over stable graphs.  Each vertex carries an auxiliary parity
variable zeta_v with zeta_v^2 = 1; the graph summand is the coefficient
of prod_v zeta_v^{h(v)-1} in the product of

- vertex factors kappa(T - T H0(zeta_v T)),
- leg factors zeta^{a_l} H_{a_l}(zeta psi_l),
- edge factors Delta_e, the exact quotient of
  zeta' + zeta'' - H0(zeta' psi') zeta'' H1(zeta'' psi'')
  - zeta' H1(zeta' psi') H0(zeta'' psi'') by psi' + psi'',

weighted by 1/2^{h1(Gamma)}.  The parity algebra is the group algebra
of (Z/2)^V: a zeta-monomial is a bit set over the vertices, and
monomials multiply by exclusive or.

Each factor is a label-free table of its even and odd zeta-parity
parts, computed once per decoration budget; vertex labels enter only
when _graph_summand turns the parities into bits.
"""

from fractions import Fraction
from functools import lru_cache

from .fz import NotARelationError, fz_relation
from .named_series import series_H0, series_H1
from .series import BiPoly, divide_exact
from .strata import (
    Decoration,
    StrataElement,
    enumerate_stable_graphs,
    kappa_degree,
    kappa_of_f,
)

__all__ = [
    "NotInPixtonSetError",
    "vertex_factor",
    "leg_factor",
    "edge_factor",
    "pixton_class",
    "fz_restriction_report",
]


class NotInPixtonSetError(ValueError):
    """Raised when (g, n, A, d) violates an admissibility condition."""


@lru_cache(maxsize=None)
def vertex_factor(truncation):
    """kappa(T - T H0(zeta T)) as its (even, odd) zeta-parity parts.

    The T^{b+1} coefficient of f = T - T H0(zeta T) carries zeta^b, so
    kappa_a carries zeta^a and each kappa-monomial carries zeta to its
    weighted degree: the factor is strata.kappa_of_f(T - T H0(T)) split
    into its even- and odd-degree kappa polynomials.  Cached per
    truncation; callers must not mutate the returned maps.

    >>> vertex_factor(1)
    ({(): Fraction(1, 1)}, {(1,): Fraction(60, 1)})
    """
    f = (1 - series_H0(truncation)).times_monomial("x")
    kappa = kappa_of_f(f, truncation)
    parts = ({}, {})
    for e, c in kappa.items():
        parts[kappa_degree(e) % 2][e] = c
    return parts


@lru_cache(maxsize=None)
def leg_factor(a_l, truncation):
    """zeta^{a_l} H_{a_l}(zeta psi) as its (even, odd) zeta-parity parts,
    each a map {psi_exp: coeff}.  Cached per (a_l, truncation); callers
    must not mutate the returned maps.

    >>> leg_factor(1, 1)
    ({1: Fraction(84, 1)}, {0: Fraction(1, 1)})
    """
    if a_l not in (0, 1):
        raise ValueError("leg marking must be 0 or 1")
    h = (series_H0 if a_l == 0 else series_H1)(truncation).coeffs
    parts = ({}, {})
    for k in range(truncation + 1):
        if h[k]:
            parts[(k + a_l) % 2][k] = h[k]
    return parts


@lru_cache(maxsize=None)
def edge_factor(truncation):
    """Delta_e by sector of (zeta', zeta'') parity, as exact quotients.

    Returns a dict {(p', p''): BiPoly}, each sector's numerator divided
    by psi' + psi'' with series.divide_exact; the BiPoly's x and y are
    psi' and psi''.  For a loop the two parities fall on one vertex and
    cancel when both are odd.  Cached per truncation; callers must not
    mutate the returned dict.

    >>> sec = edge_factor(0)
    >>> sec[(1, 1)].coefficient((0, 0)), sec[(0, 0)].coefficient((0, 0))
    (Fraction(60, 1), Fraction(-84, 1))
    """
    t = truncation + 1
    h0 = series_H0(t).coeffs
    h1 = series_H1(t).coeffs
    num = {
        (0, 0): {},
        (0, 1): {(0, 0): Fraction(1)},  # zeta''
        (1, 0): {(0, 0): Fraction(1)},  # zeta'
        (1, 1): {},
    }
    for i in range(t + 1):
        for j in range(t + 1 - i):
            # -H0(z'psi') z'' H1(z''psi''):  parity (i, j+1)
            c = -h0[i] * h1[j]
            if c:
                p = (i % 2, (j + 1) % 2)
                num[p][(i, j)] = num[p].get((i, j), Fraction(0)) + c
            # -z' H1(z'psi') H0(z''psi''):  parity (i+1, j)
            c = -h1[i] * h0[j]
            if c:
                p = ((i + 1) % 2, j % 2)
                num[p][(i, j)] = num[p].get((i, j), Fraction(0)) + c
    return {
        p: divide_exact(BiPoly(terms, t)) for p, terms in num.items()
    }


def _graph_summand(graph, A, d):
    """Decorated terms (Decoration -> coeff) for one graph at codim d.

    Every vertex, leg and edge offers a list of options (parity bits,
    degree, pick, coeff), where bit v of the parity bits is the
    exponent of zeta_v.  The products of one option per factor are
    folded left to right, dropping any whose degree passes the budget;
    a product is kept when its bits are the target prod_v
    zeta_v^{h(v)-1} and its degree is the budget.
    """
    nv, n = len(graph.genera), len(graph.legs)
    budget = d - len(graph.edges)
    if budget < 0:
        return {}
    factors = [
        [
            (p << v, kappa_degree(e), e, c)
            for p, part in enumerate(vertex_factor(budget))
            for e, c in part.items()
        ]
        for v in range(nv)
    ]
    for v, a_l in zip(graph.legs, A):
        factors.append(
            [
                (p << v, k, k, c)
                for p, part in enumerate(leg_factor(a_l, budget))
                for k, c in part.items()
            ]
        )
    sectors = edge_factor(budget)
    for v, w in graph.edges:
        factors.append(
            [
                ((p1 << v) ^ (p2 << w), i + j, (i, j), c)
                for (p1, p2), bp in sectors.items()
                for (i, j), c in bp.terms.items()
            ]
        )

    # partial products: (bits, degree, picks) -> coeff.  A loop's pick
    # (i, j) occurs in two parity sectors with the same bits, so the
    # products are summed, never assigned.
    terms = {(0, 0, ()): Fraction(1)}
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
            dec = Decoration(picks[:nv], picks[nv:nv + n], picks[nv + n:])
            out[dec] = out.get(dec, 0) + c
    return out


def pixton_class(g, n, A, d):
    """The degree-d relation class for leg markings A, as a StrataElement.

    Admissibility requires 2g-2+n > 0, each a_i in {0,1}, len(A) = n, and
    (g - 1 + sum A)/3 < d <= 3g - 3 + n, the dimension, above which all vanish.
    """
    A = tuple(A)
    if len(A) != n or any(a not in (0, 1) for a in A):
        raise ValueError("A must be a 0/1 vector of length n")
    if 2 * g - 2 + n <= 0:
        raise NotInPixtonSetError("unstable (g, n)")
    if 3 * d <= g - 1 + sum(A):
        raise NotInPixtonSetError(
            "validity: d > (g-1+sum A)/3 fails (3d = %d <= %d)"
            % (3 * d, g - 1 + sum(A))
        )
    if d > 3 * g - 3 + n:
        raise NotInPixtonSetError("d = %d exceeds dim = 3g-3+n = %d" % (d, 3 * g - 3 + n))
    element = StrataElement(g, n, d)
    # A graph with more than d edges leaves a negative decoration
    # budget and contributes nothing.
    for graph in enumerate_stable_graphs(g, n, max_edges=d):
        terms = _graph_summand(graph, A, d)
        # strata.pairings divides by |Aut|, matching the formula's
        # 1/|Aut(Gamma)|; only 1/2^{h1} is applied here.
        pref = Fraction(1, 2**graph.h1)
        for dec, c in terms.items():
            element.add_term(graph, dec, c * pref)
    return element


def fz_restriction_report(g, d):
    """The smooth-graph part of the n=0 class against fz_relation.

    The smooth part must equal (-1)^d fz_relation(g, d, ()) exactly;
    ``match`` says whether it does, and both term maps are reported.
    Data failing the parity condition of the kappa relation are not
    comparable, and their smooth part vanishes by zeta-parity.
    """
    element = pixton_class(g, 0, (), d)
    smooth = {}
    for (graph, dec), c in element.terms.items():
        if not graph.edges:
            smooth[dec.vertex_kappas[0]] = c
    try:
        rel = fz_relation(g, d, ())
    except NotARelationError as exc:
        return {"comparable": False, "reason": str(exc), "smooth": smooth}
    return {
        "comparable": True,
        "match": smooth == {e: (-1) ** d * c for e, c in rel.items()},
        "smooth": {e: str(c) for e, c in smooth.items()},
        "fz": {e: str(c) for e, c in rel.items()},
    }
