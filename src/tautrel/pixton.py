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

The degrees fix the zeta-parity of the vertex and leg terms: kappa_a
carries zeta^a, and psi^k on a leg marked a_l carries zeta^{k+a_l}.  So
the vertex factor is the plain kappa map at zeta = 1, the leg factor
the coefficients of H_{a_l}, and _graph_summand reads each term's
parity bit off its degree.  Only the edge factor is kept by sector of
(zeta', zeta'') parity.  The vertex and edge tables are label-free and
computed once per decoration budget; vertex labels enter only when
_graph_summand turns the parities into bits.
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
    "edge_factor",
    "pixton_class",
    "fz_restriction_report",
]


class NotInPixtonSetError(ValueError):
    """Raised when (g, n, A, d) violates an admissibility condition."""


@lru_cache(maxsize=None)
def vertex_factor(truncation):
    """kappa(T - T H0(T)), the vertex factor at zeta = 1, as the
    strata.kappa_of_f map {kappa exponents: coeff}.

    The T^{b+1} coefficient of T - T H0(zeta T) carries zeta^b, so a
    kappa-monomial carries zeta to its weighted degree.  Cached per
    truncation; callers must not mutate the returned map.

    >>> vertex_factor(1)
    {(): Fraction(1, 1), (1,): Fraction(60, 1)}
    """
    return kappa_of_f((1 - series_H0(truncation)).times_monomial("x"), truncation)


@lru_cache(maxsize=None)
def edge_factor(truncation):
    """Delta_e by sector of (zeta', zeta'') parity, as exact quotients.

    Returns a dict {(p', p''): BiPoly}, each sector's numerator divided
    by psi' + psi'' with series.divide_exact; the BiPoly's x and y are
    psi' and psi''.  For a loop the two parities fall on one vertex and
    cancel when both are odd.  Cached per truncation; callers must not
    mutate the returned dict.

    With H_a(zeta psi) = E_a(psi) + zeta O_a(psi), its even and odd
    parts, and zeta^2 = 1, the numerator's zeta' + zeta'' puts 1 into
    sectors (1, 0) and (0, 1); -H0(zeta' psi') zeta'' H1(zeta'' psi'')
    puts the parity-i part of H0 in psi' times the parity-j part of H1
    in psi'' into sector (i, j + 1 mod 2); and
    -zeta' H1(zeta' psi') H0(zeta'' psi'') the parity-i part of H1 in
    psi' times the parity-j part of H0 in psi'' into (i + 1 mod 2, j).

    >>> sec = edge_factor(0)
    >>> sec[(1, 1)].coefficient((0, 0)), sec[(0, 0)].coefficient((0, 0))
    (Fraction(60, 1), Fraction(-84, 1))
    """
    t = truncation + 1
    y = BiPoly({(0, 1): 1}, t)
    H = (series_H0(t), series_H1(t))
    # X[a][p] and Y[a][p]: the parity-p part of H_a in x = psi' and in y = psi''.
    X = [[h.parity_part(p).substitute(y.grading, {}) for p in (0, 1)] for h in H]
    Y = [[h.parity_part(p).substitute(y.grading, {"x": y}) for p in (0, 1)] for h in H]
    return {
        (p, q): divide_exact((p ^ q) - X[0][p] * Y[1][1 - q] - X[1][1 - p] * Y[0][q])
        for p in (0, 1) for q in (0, 1)
    }


def _graph_summand(graph, A, d):
    """Decorated terms (Decoration -> coeff) for one graph at codim d.

    Every vertex, leg and edge offers a list of options (parity bits,
    degree, pick, coeff), where bit v of the parity bits is the
    exponent of zeta_v: the degree's parity for a vertex, and for a
    leg marked a_l the parity of degree + a_l.  The products of one
    option per factor are folded left to right, dropping any whose
    degree passes the budget; a product is kept when its bits are the
    target prod_v zeta_v^{h(v)-1} and its degree is the budget.
    """
    nv, n = len(graph.genera), len(graph.legs)
    budget = d - len(graph.edges)
    if budget < 0:
        return {}
    kappas = [(kappa_degree(e), e, c) for e, c in vertex_factor(budget).items()]
    factors = [[((k & 1) << v, k, e, c) for k, e, c in kappas] for v in range(nv)]
    legs = {a: (series_H0, series_H1)[a](budget).coeffs for a in set(A)}
    for v, a_l in zip(graph.legs, A):
        factors.append(
            [(((k + a_l) & 1) << v, k, k, c) for k, c in enumerate(legs[a_l]) if c]
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
