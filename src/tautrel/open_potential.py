r"""The open potential, computed three independent ways.

Variables are t_0, t_1, ... (weights 2i+1) together with the boundary
variable s (weight 2).  The three routes:

- :func:`solve_open_kdv`: the open KdV system
  (2n+1)/2 F_{t_n} = F_s F_{t_{n-1}} + F_{s t_{n-1}}
  + 1/2 F_{t_0} Fc_{t_0 t_{n-1}} - 1/4 Fc_{t_0 t_0 t_{n-1}},  n >= 1,
  solved coefficient-by-coefficient from the initial slice
  F|_{t_{i>=1}=0} = s^3/6 + t_0 s.
- :func:`open_virasoro_residual`: the modified Virasoro constraints
  applied to exp(F^o + F^c) (verification only).
- :func:`buryak_formula`: the z^0-pairing closed formula
  exp(F~^o) = Coef_{z^0}[ D(1/z) * G_z(exp F^c)/exp F^c * exp(xi) ].

The shift operator G_z of the closed formula acts on the t_i with shifts
(2i-1)!!/z^{2i+1} (not on KP times, which share its traditional name).
Both z-graded exponentials of the formula go through
:func:`tautrel.series.graded_exp`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import comb

from .descendents import build_Fc, t_grading
from .named_series import d_coeff, double_factorial
from .series import Grading, MultiSeries, Q, graded_exp


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
    exceed its truncation degree and are dropped.
    """
    nt = len(grading) - 1
    terms = {}
    for exps, c in Fc.terms.items():
        if any(exps[nt:]):
            continue
        e = list(exps[:nt]) + [0] * (nt - len(exps)) + [0]
        terms[tuple(e)] = c
    return MultiSeries(grading, terms, Fc.max_degree)


class _Coeffs:
    """Coefficient store with derivative-aware lookups."""

    def __init__(self, nvars):
        self.F = {}
        self.nvars = nvars

    def get(self, exps):
        return self.F.get(tuple(exps), Q(0))

    def d(self, exps, var_index, times=1):
        """Coefficient of prod x^exps in (d/dx_var)^times F."""
        e = list(exps)
        mult = 1
        for j in range(times):
            mult *= e[var_index] + 1
            e[var_index] += 1
        return self.get(e) * mult


def _splits(exps):
    """All ways to write the exponent vector as an ordered sum A + B."""
    ranges = [range(e + 1) for e in exps]
    for a in iter_product(*ranges):
        b = tuple(e - x for e, x in zip(exps, a))
        yield a, b


def solve_open_kdv(Fc: MultiSeries, D_max: int) -> MultiSeries:
    """The unique open KdV solution with the standard initial slice.

    ``Fc`` must be truncated to weighted degree >= D_max.
    """
    if Fc.max_degree < D_max:
        raise IndexError("Fc truncated below the requested degree")
    g = open_grading(D_max)
    nt = len(g) - 1  # t-variables; index nt is s
    s_i = nt
    fc = {}
    for exps, c in Fc.terms.items():
        if any(exps[nt:]):
            continue
        fc[tuple(exps[:nt]) + (0,) * (nt - len(exps))] = c

    def fc_d(exps_t, *vars_counts):
        """Coefficient lookup in a multi-derivative of Fc (t-variables)."""
        e = list(exps_t)
        mult = 1
        for vi, times in vars_counts:
            for _ in range(times):
                mult *= e[vi] + 1
                e[vi] += 1
        return fc.get(tuple(e), Q(0)) * mult

    store = _Coeffs(len(g))
    # Initial slice: all pure (t0, s) monomials.
    e = [0] * len(g)
    e[s_i] = 3
    store.F[tuple(e)] = Q(1, 6)
    e = [0] * len(g)
    e[0] = 1
    e[s_i] = 1
    store.F[tuple(e)] = Q(1)

    # Enumerate monomials with a t_{>=1} factor, by degree then by the
    # descending multiset of t-indices: replacing one t_n by t_{n-1} (and s)
    # strictly lowers the sort key, so the right side is always known.
    monos = []

    def rec2(i, d_left, exps):
        if d_left == 0:
            if any(exps[1:nt]):
                monos.append(tuple(exps))
            return
        if i < 0:
            return
        rec2(i - 1, d_left, exps)
        for cnt in range(1, d_left // g.weights[i] + 1):
            exps2 = list(exps)
            exps2[i] = cnt
            rec2(i - 1, d_left - cnt * g.weights[i], exps2)

    for d in range(1, D_max + 1):
        rec2(len(g) - 1, d, [0] * len(g))

    def sort_key(exps):
        t_indices = tuple(
            sorted((i for i in range(nt) for _ in range(exps[i])), reverse=True)
        )
        return (g.degree(exps), t_indices)

    monos.sort(key=sort_key)

    for M in monos:
        n = max(i for i in range(1, nt) if M[i])
        Mp = list(M)
        Mp[n] -= 1
        Mp = tuple(Mp)
        rhs = Q(0)
        # F_{s t_{n-1}} at Mp
        e = list(Mp)
        mult = (e[s_i] + 1)
        e[s_i] += 1
        mult *= e[n - 1] + 1
        e[n - 1] += 1
        rhs += store.get(e) * mult
        # -1/4 Fc_{t0 t0 t_{n-1}} at Mp (zero if Mp has s-dependence)
        if Mp[s_i] == 0:
            rhs -= Q(1, 4) * fc_d(Mp[:nt], (0, 2), (n - 1, 1))
        # products
        for A, B in _splits(Mp):
            fa = store.d(A, s_i)
            if fa:
                rhs += fa * store.d(B, n - 1)
            if B[s_i] == 0:
                fb = fc_d(B[:nt], (0, 1), (n - 1, 1))
                if fb:
                    rhs += Q(1, 2) * store.d(A, 0) * fb
        val = rhs * Q(2, 2 * n + 1) / (Mp[n] + 1)
        if val:
            store.F[M] = val
    return MultiSeries(g, store.F, D_max)


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
    from .descendents import apply_L

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
    # P = G_z Fc - Fc as {j: {weighted degree: {exps: coeff}}}, j the z^{-1}
    # power.  Shifting r factors t_i moves weight (2i+1) r from the monomial
    # to j, so a monomial of degree d lands at weighted degree d - j.
    P: dict[int, dict] = {}
    for exps, c in Fc.terms.items():
        d = g.degree(exps)
        if d > D_max:
            continue
        choices = []
        for i, e in enumerate(exps):
            k = double_factorial(2 * i - 1)
            choices.append(
                [(r, comb(e, r) * Q(-k) ** r, (2 * i + 1) * r) for r in range(e + 1)]
            )
        for combo in iter_product(*choices):
            j = sum(t[2] for t in combo)
            if j == 0:
                continue
            coeff = c
            mono = []
            for (r, w, _), e in zip(combo, exps):
                coeff *= w
                mono.append(e - r)
            part = P.setdefault(j, {}).setdefault(d - j, {})
            key = tuple(mono)
            part[key] = part.get(key, Q(0)) + coeff
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
        c = Q(1, 2) if name == "s" else Q(1, double_factorial(j))
        xi.setdefault(j, {}).setdefault(j, {})[exps] = c
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
            prod = MultiSeries(g, m.terms, D_max) * pos[j]
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
