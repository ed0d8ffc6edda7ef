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
of (Z/2)^V: monomials are vertex subsets multiplying by symmetric
difference.

In the vertex factor the zeta-parity of a kappa-monomial is its
weighted degree mod 2 (kappa_a has degree a), so the factor is the
kappa class of T - T H0(T) split into its even- and odd-degree parts.
"""

from fractions import Fraction
from functools import lru_cache

from .fz import KappaPolynomial
from .named_series import series_H0, series_H1
from .series import BiPoly, PowerSeries, divide_exact
from .strata import (
    Decoration,
    StrataElement,
    enumerate_stable_graphs,
    kappa_of_f,
)

__all__ = [
    "NotInPixtonSetError",
    "ZetaPolynomial",
    "vertex_factor",
    "leg_factor",
    "edge_factor",
    "pixton_class",
    "fz_restriction_report",
]


class NotInPixtonSetError(ValueError):
    """Raised when (g, n, A, d) violates an admissibility condition."""


class ZetaPolynomial:
    """Element of the group algebra of (Z/2)^V over an arbitrary ring.

    Terms map frozensets of vertex ids (the support of a square-free
    zeta-monomial) to coefficients.

    >>> x = ZetaPolynomial({frozenset([0]): Fraction(2)})
    >>> x.coefficient([0]), x.coefficient([])
    (Fraction(2, 1), None)
    """

    def __init__(self, terms):
        self.terms = {frozenset(s): c for s, c in terms.items()}

    def coefficient(self, subset):
        return self.terms.get(frozenset(subset), None)

    def __eq__(self, other):
        return isinstance(other, ZetaPolynomial) and self.terms == other.terms

    def __repr__(self):
        return "ZetaPolynomial(%r)" % (self.terms,)


@lru_cache(maxsize=None)
def _h_coeffs(which, order):
    series = series_H0(order) if which == 0 else series_H1(order)
    return tuple(series[k] for k in range(order + 1))


def vertex_factor(v, truncation):
    """kappa(T - T H0(zeta_v T)) as a ZetaPolynomial over kappa-polynomials.

    The T^{b+1} coefficient of f = T - T H0(zeta T) carries zeta^b, so
    kappa_a carries zeta^a and each kappa-monomial carries zeta to its
    weighted degree: the factor is strata.kappa_of_f(T - T H0(T)) with
    its even-degree part on the empty subset and its odd-degree part
    on {v}.

    >>> out = vertex_factor(0, 1)
    >>> out.coefficient(frozenset([0])).terms
    {(1,): Fraction(60, 1)}
    """
    T = PowerSeries.identity(truncation + 1)
    kappa = kappa_of_f(T - T * series_H0(truncation + 1), truncation)
    parts = ({}, {})
    for e, c in kappa.terms.items():
        parts[KappaPolynomial.term_degree(e) % 2][e] = c
    return ZetaPolynomial(
        {
            frozenset(): KappaPolynomial(parts[0]),
            frozenset([v]): KappaPolynomial(parts[1]),
        }
    )


def leg_factor(v, a_l, truncation):
    """zeta^{a_l} H_{a_l}(zeta psi) as {subset: {psi_exp: coeff}}.

    >>> out = leg_factor(0, 1, 1)
    >>> out.coefficient(frozenset([0]))
    {0: Fraction(1, 1)}
    """
    if a_l not in (0, 1):
        raise ValueError("leg marking must be 0 or 1")
    h = _h_coeffs(a_l, truncation)
    parts = [{}, {}]
    for k in range(truncation + 1):
        if h[k]:
            parts[(k + a_l) % 2][k] = h[k]
    return ZetaPolynomial({frozenset(): parts[0], frozenset([v]): parts[1]})


def edge_factor(v, w, truncation):
    """Delta_e by sector of (zeta', zeta'') parity, as BiPoly quotients.

    Returns a dict {(p', p''): BiPoly in (psi', psi'')}.  For a loop
    (v == w) use the dict as-is and fold parities when assembling.

    >>> sec = edge_factor(0, 1, 0)
    >>> sec[(1, 1)].coefficient(0, 0), sec[(0, 0)].coefficient(0, 0)
    (Fraction(60, 1), Fraction(-84, 1))
    """
    t = truncation + 1
    h0 = _h_coeffs(0, t)
    h1 = _h_coeffs(1, t)
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
        p: divide_exact(BiPoly(terms, t), (1, 1)) for p, terms in num.items()
    }


def _graph_summand(graph, A, d):
    """Decorated terms (Decoration -> coeff) for one graph at codim d."""
    nv = len(graph.genera)
    budget = d - len(graph.edges)
    if budget < 0:
        return {}
    target = frozenset(v for v in range(nv) if (graph.genera[v] - 1) % 2)

    # states: (zeta-subset, degree, vkappas, leg_psis, edge_psis) -> coeff
    states = {(frozenset(), 0, (), (), ()): Fraction(1)}

    def advance(options):
        # options: list of (subset, degree, payload, coeff)
        nonlocal states
        new = {}
        for (s, deg, vk, lp, ep), c in states.items():
            for s2, d2, payload, c2 in options:
                nd = deg + d2
                if nd > budget:
                    continue
                key = _extend(s ^ s2, nd, vk, lp, ep, payload)
                val = c * c2
                new[key] = new.get(key, Fraction(0)) + val
        states = new

    for v in range(nv):
        zp = vertex_factor(v, budget)
        options = []
        for s, kp in zp.terms.items():
            for e, c in kp.terms.items():
                options.append((s, KappaPolynomial.term_degree(e), ("v", e), c))
        advance(options)
    for leg_v, a_l in zip(graph.legs, A):
        zp = leg_factor(leg_v, a_l, budget)
        options = []
        for s, ser in zp.terms.items():
            for k, c in ser.items():
                options.append((s, k, ("l", k), c))
        advance(options)
    for v, w in graph.edges:
        sectors = edge_factor(v, w, budget)
        options = []
        for (p1, p2), bp in sectors.items():
            s = frozenset()
            if p1:
                s ^= frozenset([v])
            if p2:
                s ^= frozenset([w])
            for (i, j), c in bp.terms.items():
                options.append((s, i + j, ("e", (i, j)), c))
        advance(options)

    out = {}
    for (s, deg, vk, lp, ep), c in states.items():
        if s != target or deg != budget:
            continue
        dec = Decoration(vk, lp, ep)
        out[dec] = out.get(dec, Fraction(0)) + c
    return out


def _extend(subset, deg, vk, lp, ep, payload):
    kind, data = payload
    if kind == "v":
        vk = vk + (data,)
    elif kind == "l":
        lp = lp + (data,)
    else:
        ep = ep + (data,)
    return (subset, deg, vk, lp, ep)


def pixton_class(g, n, A, d):
    """The degree-d relation class for leg markings A, as a StrataElement.

    Admissibility requires 2g-2+n > 0, each a_i in {0,1}, len(A) = n,
    and d > (g - 1 + sum A)/3.
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
    element = StrataElement(g, n, d)
    # A graph with more than d edges leaves a negative decoration
    # budget and contributes nothing.
    for graph in enumerate_stable_graphs(g, n, max_edges=d):
        terms = _graph_summand(graph, A, d)
        # strata.integrate divides by |Aut|, matching the formula's
        # 1/|Aut(Gamma)|; only 1/2^{h1} is applied here.
        pref = Fraction(1, 2**graph.h1)
        for dec, c in terms.items():
            element.add_term(graph, dec, c * pref)
    return element


def fz_restriction_report(g, d):
    """Diagnostic: the smooth-graph part of the n=0 class vs fz_relation.

    The normalization between the two conventions is not pinned down a
    priori, so this reports a proportionality search instead of
    asserting equality: if the smooth part is a constant multiple of
    the kappa-relation from fz_relation, the scale is reported.
    """
    from .fz import NotARelationError, fz_relation

    element = pixton_class(g, 0, (), d)
    smooth = {}
    for (graph, dec), c in element.terms.items():
        if not graph.edges:
            smooth[dec.vertex_kappas[0]] = c
    try:
        rel = dict(fz_relation(g, d, ()).terms)
    except NotARelationError as exc:
        return {"comparable": False, "reason": str(exc), "smooth": smooth}
    scales = set()
    for e in set(smooth) | set(rel):
        a, b = smooth.get(e, Fraction(0)), rel.get(e, Fraction(0))
        if (a == 0) != (b == 0):
            scales.add(None)
        elif b != 0:
            scales.add(a / b)
    match = len(scales) == 1 and None not in scales
    return {
        "comparable": True,
        "match": match,
        "scale": str(scales.pop()) if match else None,
        "smooth": {e: str(c) for e, c in smooth.items()},
        "fz": {e: str(c) for e, c in rel.items()},
    }
