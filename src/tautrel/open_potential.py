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
Both z-graded exponentials of the formula go through
:func:`tautrel.series.graded_exp`, and its final log through
:func:`tautrel.series.graded_log`.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iter_product
from math import comb, prod

from .descendents import apply_L, build_Fc, t_grading
from .named_series import d_coeff, double_factorial
from .series import (
    Grading,
    MultiSeries,
    Q,
    _bucket_derivative,
    _lcm_bucket,
    _lowest,
    _mul_sum,
    graded_exp,
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


def gz_shift_t_ratio(Fc: MultiSeries, D_max: int) -> dict:
    """G_z(exp F^c)/exp F^c as {j >= 0: MultiSeries coefficient of z^{-j}},
    where G_z shifts t_i by -(2i-1)!!/z^{2i+1}.

    The ratio equals exp(G_z F^c - F^c).  Every z^{-j} coefficient keeps
    only monomials m with deg(m) + j <= D_max: the later z-pairing consumes
    exactly j degrees, so deeper terms cannot contribute.
    """
    g = Fc.grading
    # P = G_z Fc - Fc as {j: {weighted degree: (m, {exps: c})}}, j the z^{-1}
    # power.  Shifting r factors t_i moves weight (2i+1) r from the monomial
    # to j, so a monomial of degree d lands at weighted degree d - j: the
    # bucket (j, d - j) is fed by the degree-d bucket alone, over its m.
    P: dict[int, dict] = {}
    for d, (m, terms) in Fc.buckets().items():
        if d > D_max:
            continue
        acc: dict = {}
        for exps, c in terms.items():
            choices = []
            for i, e in enumerate(exps):
                k = double_factorial(2 * i - 1)
                choices.append(
                    [(r, comb(e, r) * (-k) ** r, (2 * i + 1) * r) for r in range(e + 1)]
                )
            for combo in iter_product(*choices):
                j = sum(t[2] for t in combo)
                if j == 0:
                    continue
                coeff = c * prod(t[1] for t in combo)
                key = tuple(e - t[0] for t, e in zip(combo, exps))
                part = acc.setdefault(j, {})
                part[key] = part.get(key, 0) + coeff
        for j, part in acc.items():
            part = _lowest(m, part)
            if part:
                P.setdefault(j, {})[d - j] = part
    # exp(P): P has only j >= 1 terms, hence nilpotent below D_max.
    ratio = graded_exp(P, D_max, (0,) * len(g), budget=D_max)
    return {j: MultiSeries.from_buckets(g, m, D_max - j) for j, m in ratio.items()}


def exp_xi(grading: Grading, D_max: int) -> dict:
    """exp(xi) as {j >= 0: MultiSeries coefficient of z^j}, where
    xi = sum_i t_i z^{2i+1}/(2i+1)!! + s z^2/2.

    Every variable in xi carries the z-power of its own weight, so the
    coefficient of z^j is homogeneous of weighted degree exactly j.
    """
    xi: dict[int, dict] = {}
    for i, (name, j) in enumerate(zip(grading.names, grading.weights)):
        exps = tuple(1 if k == i else 0 for k in range(len(grading)))
        den = 2 if name == "s" else double_factorial(j)
        xi.setdefault(j, {})[exps] = (1, den)
    xi = {j: {j: _lcm_bucket(part)} for j, part in xi.items()}
    out = graded_exp(xi, D_max, (0,) * len(grading))
    return {j: MultiSeries.from_buckets(grading, m, D_max) for j, m in out.items()}


def buryak_formula(Fc: MultiSeries, D_max: int) -> MultiSeries:
    """F~^o from the explicit z^0-pairing formula."""
    if Fc.max_degree < D_max:
        raise IndexError("Fc truncated below the requested degree")
    g = open_grading(D_max)
    ratio = gz_shift_t_ratio(lift_to_open(Fc.truncate(D_max), g), D_max)
    # Multiply by D(z^{-1}) = 1 + sum d_i z^{-3i}.
    neg: dict[int, MultiSeries] = {}
    for i in range(D_max // 3 + 1):
        di = d_coeff(i) if i else Q(1)
        for j, m in ratio.items():
            jj = j + 3 * i
            if jj > D_max:
                continue
            t = (m * di).truncate(D_max - jj)
            neg[jj] = neg.get(jj, MultiSeries.zero(g, D_max - jj)) + t
    pos = exp_xi(g, D_max)
    acc = MultiSeries.zero(g, D_max)
    for j, m in neg.items():
        if j in pos:
            # pos[j] is homogeneous of weighted degree j and m is valid to
            # degree D_max - j, so the product is valid to D_max in full.
            prod = MultiSeries.from_buckets(g, m.buckets(), D_max) * pos[j]
            acc = acc + prod
    return acc.log()


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
