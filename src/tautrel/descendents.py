r"""Closed descendent integrals, the potential F^c, and its consistency checks.

The brackets <tau_{k_1} ... tau_{k_n}>_g are determined by the Virasoro
constraints L_n exp(F^c) = 0 alone.  Extracting the coefficient of a
monomial from the constraint with n = k_max - 1 yields the DVV recursion
(Dijkgraaf-Verlinde-Verlinde), which strictly lowers (sum k, multiset) and
bottoms out at the inhomogeneous terms t_0^2/2 (string, forcing
<tau_0^3>_0 = 1) and 1/16 (dilaton, forcing <tau_1>_1 = 1/24).  The genus
of a bracket is implied by the dimension constraint 3g - 3 + n = sum k_i,
so brackets are keyed by the exponent multiset only.

The recursion runs on integers: with chi = 2g - 2 + n, the scaled bracket
M(ks) = 2^(2 chi + 1) prod (2k_i + 1)!! <tau_ks>_g (Liu-Xu's normalisation,
math/0701319, times a power of 2) satisfies M(0, 0, 0) = 8, M(1) = 1 and

    M(0, S) = 4 sum_j (2k_j + 1) M(S with k_j -> k_j - 1),
    M(1, S) = 12 (2g - 2 + |S|) M(S),
    M(n + 1, S) = 4 sum_j (2k_j + 1) M(S with k_j -> k_j + n)
        + sum_{a+b=n-1} [2 M(S + {a, b}) + sum_{I+J=S} M(I + {a}) M(J + {b})]

for n >= 1 and max S <= n + 1.  Only :func:`bracket` builds a Fraction.

Weighted degree of t_i is 2i + 1 throughout; a genus-g, n-point bracket
contributes a monomial of weighted degree 6g - 6 + 3n = 3 chi, and
:func:`build_Fc` lists for each (g, n) only the multisets with
sum k = 3g - 3 + n.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from .named_series import double_factorial, series_calA
from .series import Grading, MultiSeries, PowerSeries, Q
from .series import _lcm_bucket


def _genus_of(ks: tuple) -> int | None:
    """Genus implied by the dimension constraint, or None if none exists."""
    n = len(ks)
    g3 = sum(ks) - n + 3
    if g3 < 0 or g3 % 3:
        return None
    g = g3 // 3
    if 2 * g - 2 + n <= 0:
        return None
    return g


@lru_cache(maxsize=None)
def bracket(ks: tuple) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}> at the genus forced by dimension (0 if none).

    >>> bracket((0, 0, 0))
    Fraction(1, 1)
    >>> bracket((1,))
    Fraction(1, 24)
    >>> bracket((4,))
    Fraction(1, 1152)
    """
    ks = tuple(sorted(ks))
    g = _genus_of(ks)
    if g is None:
        return Q(0)
    den = 2 ** (4 * g - 3 + 2 * len(ks))
    for k in ks:
        den *= double_factorial(2 * k + 1)
    return Fraction(_scaled_bracket(ks), den)


@lru_cache(maxsize=None)
def _scaled_bracket(ks: tuple) -> int:
    """The integer M(ks) of the module docstring for sorted ``ks``; 0 if
    no genus fits."""
    g = _genus_of(ks)
    if g is None:
        return 0
    if ks[0] == 0:
        # String equation from L_{-1}: F_{t_0} = sum_i t_i F_{t_{i-1}} + t_0^2/2.
        if ks == (0, 0, 0):
            return 8
        rest = ks[1:]
        total = 0
        for k, m in Counter(rest).items():
            if k:
                j = rest.index(k)
                lower = rest[:j] + (k - 1,) + rest[j + 1 :]
                total += m * (2 * k + 1) * _scaled_bracket(lower)
        return 4 * total
    if ks[-1] == 1:
        # Dilaton from L_0: (3/2) F_{t_1} = sum_i ((2i+1)/2) t_i F_{t_i} + 1/16.
        if ks == (1,):
            return 1
        return 12 * (2 * g - 3 + len(ks)) * _scaled_bracket(ks[:-1])
    # DVV with n = k_max - 1 >= 1.  Equal exponents give equal terms, so
    # each sum runs over distinct values weighted by multiplicity, and over
    # sub-multisets weighted by prod comb(m_v, t_v) for the splits.  Keys
    # are built sorted, so the cache holds each multiset once.
    n = ks[-1] - 1
    rest = ks[:-1]
    total = 0
    for k, m in Counter(rest).items():
        j = rest.index(k)
        raised = rest[:j] + rest[j + 1 :] + (k + n,)
        total += m * (2 * k + 1) * _scaled_bracket(raised)
    total *= 4
    splits = _multiset_splits(rest)
    for a in range(n):
        b = n - 1 - a
        total += 2 * _scaled_bracket(_insert(_insert(rest, a), b))
        for weight, inside, outside in splits:
            left = _scaled_bracket(_insert(inside, a))
            if left:
                total += weight * left * _scaled_bracket(_insert(outside, b))
    return total


def _insert(ks: tuple, k: int) -> tuple:
    """The sorted tuple ``ks`` with ``k`` added in order."""
    j = bisect_left(ks, k)
    return ks[:j] + (k,) + ks[j:]


def _multiset_splits(ks: tuple) -> list:
    """Every split of the sorted multiset ``ks`` into (inside, outside), as
    (number of index subsets giving it, inside, outside); both sides sorted.

    >>> _multiset_splits((2, 2))
    [(1, (), (2, 2)), (2, (2,), (2,)), (1, (2, 2), ())]
    """
    counts = sorted(Counter(ks).items())
    out = []
    for takes in product(*(range(m + 1) for _, m in counts)):
        weight = 1
        inside: tuple = ()
        outside: tuple = ()
        for (v, m), t in zip(counts, takes):
            weight *= comb(m, t)
            inside += (v,) * t
            outside += (v,) * (m - t)
        out.append((weight, inside, outside))
    return out


def descendent(g: int, ks) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}>_g with explicit genus (0 off-dimension)."""
    ks = tuple(sorted(ks))
    if 2 * g - 2 + len(ks) <= 0:
        raise ValueError(f"unstable (g, n) = ({g}, {len(ks)})")
    if _genus_of(ks) != g:
        return Q(0)
    return bracket(ks)


def t_grading(degree_max: int) -> Grading:
    """Variables t_0 .. t_K with weights 2i+1, K as large as the degree allows."""
    K = max((degree_max - 1) // 2, 0)
    return Grading(
        [f"t{i}" for i in range(K + 1)], [2 * i + 1 for i in range(K + 1)]
    )


def _multisets(s: int, n: int, top: int):
    """Non-increasing n-tuples of integers in [0, top] summing to s."""
    if s == 0:
        yield (0,) * n
        return
    for k in range(min(top, s), 0, -1):
        if s <= k * n:
            for rest in _multisets(s - k, n - 1, k):
                yield (k,) + rest


def build_Fc(degree_max: int) -> MultiSeries:
    """F^c as a MultiSeries over t_grading(degree_max) to that degree.

    The coefficient of prod t_a^{m_a} is bracket(ks) / prod m_a!, that is
    M(ks) / (2^(2 chi + 1) prod ((2a + 1)!!^{m_a} m_a!)); the terms of one
    chi form the bucket of weighted degree 3 chi, over the lcm of these
    denominators.

    >>> build_Fc(5).coefficient((3, 0, 0))
    Fraction(1, 6)
    >>> build_Fc(5).coefficient((0, 1, 0))
    Fraction(1, 24)
    """
    grading = t_grading(degree_max)
    nv = len(grading)
    dfact = [double_factorial(2 * k + 1) for k in range(nv)]
    buckets = {}
    for chi in range(1, degree_max // 3 + 1):
        terms = {}
        for g in range((chi + 1) // 2 + 1):
            n = chi + 2 - 2 * g
            for ks in _multisets(3 * g - 3 + n, n, nv - 1):
                exps = [0] * nv
                for k in ks:
                    exps[k] += 1
                den = 2 ** (2 * chi + 1)
                for k, e in enumerate(exps):
                    if e:
                        den *= dfact[k] ** e * factorial(e)
                terms[tuple(exps)] = (_scaled_bracket(ks[::-1]), den)
        buckets[3 * chi] = _lcm_bucket(terms)
    return MultiSeries.from_buckets(grading, buckets, degree_max)


def apply_L(n: int, series: MultiSeries, s_var: bool = False) -> MultiSeries:
    """Apply the Virasoro operator L_n (or the open modification if s_var).

    L_n = sum_i (2i+2n+1)!!/(2^{n+1}(2i-1)!!) (t_i - delta_{i,1}) d/dt_{i+n}
        + 1/2 sum_{i=0}^{n-1} (2i+1)!!(2n-2i-1)!!/2^{n+1} d^2/dt_i dt_{n-1-i}
        + delta_{n,-1} t_0^2/2 + delta_{n,0}/16.

    With ``s_var`` the operator gains s d^{n+1}/ds^{n+1} + ((3n+3)/4) d^n/ds^n
    and the grading is expected to contain a final variable named "s".

    The returned truncation degree is max_degree - (2n+3) for n >= 0 and
    max_degree - 1 for n = -1: the t-linear and quadratic terms shift the
    weighted degree by exactly -2n, but the dilaton shift -d/dt_{n+1}
    consults input coefficients 2n+3 degrees higher (one degree higher for
    n = -1).
    """
    if n < -1:
        raise ValueError("L_n defined for n >= -1")
    g = series.grading
    names = g.names
    t_names = [nm for nm in names if nm.startswith("t")]
    K = len(t_names) - 1
    D = series.max_degree
    out_deg = D - (2 * n + 3) if n >= 0 else D - 1
    acc = MultiSeries.zero(g, out_deg)
    pow2 = Q(1, 2 ** (n + 1))
    for i in range(0, K + 1):
        if i + n < 0 or i + n > K:
            continue
        c = pow2 * Q(
            double_factorial(2 * i + 2 * n + 1), double_factorial(2 * i - 1)
        )
        d = series.derivative(f"t{i + n}").truncate(out_deg)
        term = MultiSeries.variable(g, f"t{i}", out_deg) * d
        if i == 1:
            term = term - d
        acc = acc + term * c
    for i in range(0, n):
        c = pow2 * Q(
            double_factorial(2 * i + 1) * double_factorial(2 * n - 2 * i - 1), 2
        )
        acc = acc + series.derivative(f"t{i}").derivative(f"t{n - 1 - i}").truncate(
            out_deg
        ) * c
    if n == -1:
        t0 = MultiSeries.variable(g, "t0", out_deg)
        acc = acc + t0 * t0 * series.truncate(out_deg - 2) * Q(1, 2)
    if n == 0:
        acc = acc + series.truncate(out_deg) * Q(1, 16)
    if s_var:
        ds = series
        for _ in range(n + 1):
            ds = ds.derivative("s")
        acc = acc + MultiSeries.variable(g, "s", out_deg) * ds.truncate(out_deg)
        if n >= 0:
            ds = series
            for _ in range(n):
                ds = ds.derivative("s")
            acc = acc + ds.truncate(out_deg) * Q(3 * n + 3, 4)
    return acc.truncate(out_deg)


def kdv_residual(Fc: MultiSeries, which: int) -> MultiSeries:
    """Residual of the first (which=1) or second (which=2) KdV equation for
    u = d^2 F^c / dt_0^2, with x identified with t_0.  Zero up to truncation
    if F^c is correct."""
    u = Fc.derivative("t0").derivative("t0")

    def dx(f, k=1):
        for _ in range(k):
            f = f.derivative("t0")
        return f

    if which == 1:
        res = u.derivative("t1") - u * dx(u) - dx(u, 3) * Q(1, 12)
        return res.truncate(Fc.max_degree - 5)
    if which == 2:
        res = (
            u.derivative("t2")
            - u * u * dx(u) * Q(1, 2)
            - (dx(u) * dx(u, 2) * 2 + u * dx(u, 3)) * Q(1, 12)
            - dx(u, 5) * Q(1, 240)
        )
        return res.truncate(Fc.max_degree - 7)
    raise ValueError("which must be 1 or 2")


def _airy_shift(Fc: MultiSeries, order: int, xs: Grading) -> MultiSeries:
    """exp(F^c) at t_i = -(2i-1)!! sum_x x^{2i+1}, x over the weight-1
    variables ``xs``, over the t's (all at exponent 0) followed by ``xs``.
    Each monomial lands at an x-degree equal to its weighted degree, so
    the result is exact through ``order``."""
    if order > Fc.max_degree:
        raise IndexError("order exceeds the truncation of F^c")
    t = Fc.grading
    G = Grading(t.names + xs.names, t.weights + xs.weights)
    images = {name: MultiSeries(G, {G.monomial(x, w): -double_factorial(w - 2)
                                    for x in xs.names}, w)
              for name, w in zip(t.names, t.weights)}
    return Fc.truncate(order).substitute(G, images).exp()


def specialize_airy(Fc: MultiSeries, order: int) -> PowerSeries:
    """exp(F^c) at t_i = -(2i-1)!! y^{2i+1} as a series in y = 1/lambda,
    exact through the truncation degree of F^c."""
    E = _airy_shift(Fc, order, Grading(["y"], [1]))
    coeffs = [E.coefficient(E.grading.monomial("y", k)) for k in range(order + 1)]
    return PowerSeries(coeffs, order, var="y")


_XY = Grading(["x1", "x2"], [1, 1])


def _apply_D(A: PowerSeries) -> PowerSeries:
    """x * D(A) where D = x^3 d/dx + 1/x + x^2/2 (multiplying by x clears the
    pole; the constant term of A/x is handled by the caller's pairing)."""
    order = A.order
    x = PowerSeries.identity(order)
    return (
        (x * x * x * x) * A.derivative().truncate(order)
        + A
        + (x * x * x) * A * Q(1, 2)
    )


def determinant_formula_check(Fc: MultiSeries, N: int, order: int) -> dict:
    """Check the determinant representation of the Airy specialization.

    N=1: exp(F^c)|_{t_i = -(2i-1)!! x^{2i+1}} must equal calA(x) through
    the given order.  N=2: with t_i = -(2i-1)!!(x1^{2i+1} + x2^{2i+1}),
    exp(F^c) times (x1 - x2) must equal x1 A(x1) E(x2) - x2 A(x2) E(x1)
    through degree order + 1, where E = x * (D-operator applied to calA);
    the residual terms are keyed by the (x1, x2) exponents.  Both N raise
    IndexError when ``order`` exceeds the truncation of F^c.
    Returns {"ok": bool, "residual_terms": ...}.
    """
    if N == 1:
        lhs = specialize_airy(Fc, order)
        rhs = series_calA(order)
        diff = lhs - rhs
        return {"ok": diff.is_zero(), "residual_terms": [str(c) for c in diff.coeffs]}
    if N != 2:
        raise ValueError("N must be 1 or 2")
    lhs = _airy_shift(Fc, order, _XY)
    G = lhs.grading
    nt = len(Fc.grading)
    top = order + 1
    A = series_calA(top + 1)
    xA = PowerSeries.identity(top + 1) * A
    E = _apply_D(A)

    def of(x: str, f: PowerSeries) -> MultiSeries:
        return MultiSeries(G, {G.monomial(x, k): c for k, c in enumerate(f.coeffs)}, top)

    # lhs (x1 - x2) == x1 A(x1) E(x2) - x2 A(x2) E(x1) through degree top is
    # exact division by x1 - x2, which is homogeneous of degree 1: the
    # terms of lhs above degree order would land above top.
    x1_x2 = MultiSeries.variable(G, "x1", top) - MultiSeries.variable(G, "x2", top)
    lhs = MultiSeries.from_buckets(G, lhs.buckets(), top) * x1_x2
    rhs = of("x1", xA) * of("x2", E) - of("x2", xA) * of("x1", E)
    diff = lhs - rhs
    return {
        "ok": diff.is_zero(),
        "residual_terms": {str(e[nt:]): str(c) for e, c in diff.terms.items()},
    }
