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

for n >= 1 and max S <= n + 1.  Only :func:`bracket` builds a Fraction,
and it answers the genus-0 brackets <tau_ks>_0 = (n-3)!/prod k_i!, the
one-point brackets <tau_{3g-2}>_g = 1/(24^g g!) and the all-ones
brackets <tau_1^n>_1 = (n-1)!/24 in closed form.

Weighted degree of t_i is 2i + 1 throughout; a genus-g, n-point bracket
contributes a monomial of weighted degree 6g - 6 + 3n = 3 chi.  So
:func:`build_Fc` reads the monomials of weighted degree 3 chi from
:meth:`tautrel.series.Grading.monomials` and keeps those of at most
chi + 2 points, where the genus (chi + 2 - n)/2 is not negative.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from math import comb, factorial, prod

from .named_series import double_factorial, series_calA
from .series import Grading, MultiSeries, Q


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
    >>> bracket((1, 1, 1, 1))
    Fraction(1, 4)
    """
    ks = tuple(sorted(ks))
    g = _genus_of(ks)
    if g is None:
        return Q(0)
    # Closed forms where the recursion would visit every lower multiset:
    # <tau_ks>_0 = (n-3)!/prod k_i!, <tau_{3g-2}>_g = 1/(24^g g!), and
    # <tau_1^n>_1 = (n-1)!/24 by the dilaton equation.
    if g == 0:
        return Fraction(factorial(len(ks) - 3), prod(map(factorial, ks)))
    if len(ks) == 1:
        return Fraction(1, 24**g * factorial(g))
    if ks[0] == ks[-1] == 1:
        return Fraction(factorial(len(ks) - 1), 24)
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


def t_grading(degree_max: int) -> Grading:
    """Variables t_0 .. t_K with weights 2i+1, K as large as the degree allows."""
    K = max((degree_max - 1) // 2, 0)
    return Grading(
        [f"t{i}" for i in range(K + 1)], [2 * i + 1 for i in range(K + 1)]
    )


def build_Fc(degree_max: int) -> MultiSeries:
    """F^c as a MultiSeries over t_grading(degree_max) to that degree.

    The coefficient of prod t_a^{m_a} is bracket(ks) / prod m_a!, that is
    M(ks) / (2^(2 chi + 1) prod ((2a + 1)!!^{m_a} m_a!)).  M is read from
    the recursion :func:`_scaled_bracket` also where :func:`bracket` has a
    closed form, genus 0 included, so the checks on F^c test the
    recursion.  The terms of one chi are the monomials of weighted degree
    3 chi with at most chi + 2 points; ks and the scale are built from
    their nonzero exponents.

    >>> build_Fc(5).coefficient((3, 0, 0))
    Fraction(1, 6)
    >>> build_Fc(5).coefficient((0, 1, 0))
    Fraction(1, 24)
    """
    grading = t_grading(degree_max)
    dfact = [double_factorial(2 * k + 1) for k in range(len(grading))]
    terms = {}
    for chi in range(1, degree_max // 3 + 1):
        for exps in grading.monomials(3 * chi):
            if sum(exps) > chi + 2:  # negative genus
                continue
            ks = ()
            den = 2 ** (2 * chi + 1)
            for k, e in enumerate(exps):
                if e:
                    ks += (k,) * e
                    den *= dfact[k] ** e * factorial(e)
            terms[exps] = Fraction(_scaled_bracket(ks), den)
    return MultiSeries(grading, terms, degree_max)


def apply_L(n: int, series: MultiSeries) -> MultiSeries:
    """Apply the Virasoro operator L_n, or its open modification when the
    grading of ``series`` has a variable named "s".

    L_n = sum_i (2i+2n+1)!!/(2^{n+1}(2i-1)!!) (t_i - delta_{i,1}) d/dt_{i+n}
        + 1/2 sum_{i=0}^{n-1} (2i+1)!!(2n-2i-1)!!/2^{n+1} d^2/dt_i dt_{n-1-i}
        + delta_{n,-1} t_0^2/2 + delta_{n,0}/16.

    The open modification adds s d^{n+1}/ds^{n+1} + ((3n+3)/4) d^n/ds^n.

    Each term is known as far as the series core determines it, and the
    result through max_degree - (2n+3) for n >= 0 and max_degree - 1 for
    n = -1: the window of the dilaton shift -d/dt_{n+1}, the lowest, as
    the other terms shift the weighted degree by exactly -2n.
    """
    if n < -1:
        raise ValueError("L_n defined for n >= -1")
    g = series.grading
    K = sum(nm.startswith("t") for nm in g.names) - 1
    D = series.max_degree
    out_deg = D - (2 * n + 3) if n >= 0 else D - 1
    acc = MultiSeries.zero(g, out_deg)
    pow2 = Q(1, 2 ** (n + 1))
    for i in range(max(-n, 0), K + 1 - max(n, 0)):  # t_i and t_{i+n} both exist
        c = pow2 * Q(double_factorial(2 * i + 2 * n + 1), double_factorial(2 * i - 1))
        d = series.derivative(f"t{i + n}")
        term = d.times_monomial(f"t{i}")
        if i == 1:
            term = term - d
        acc = acc + term * c
    for i in range(0, n):
        c = pow2 * Q(double_factorial(2 * i + 1) * double_factorial(2 * n - 2 * i - 1), 2)
        acc = acc + series.derivative(f"t{i}").derivative(f"t{n - 1 - i}") * c
    if n == -1:
        acc = acc + series.times_monomial("t0", 2) * Q(1, 2)
    if n == 0:
        acc = acc + series * Q(1, 16)
    if "s" in g.index:
        ds = [series]
        for _ in range(n + 1):
            ds.append(ds[-1].derivative("s"))
        acc = acc + ds[-1].times_monomial("s")
        if n >= 0:
            acc = acc + ds[-2] * Q(3 * n + 3, 4)
    return acc


def kdv_residual(Fc: MultiSeries, which: int) -> MultiSeries:
    """Residual of the first (which=1) or second (which=2) KdV equation for
    u = d^2 F^c / dt_0^2, with x identified with t_0.  Zero up to truncation
    if F^c is correct: it is known through Fc.max_degree - 5 (which=1) or
    - 7 (which=2), the window of its u_{t_1} or u_{t_2} term."""
    u = Fc.derivative("t0").derivative("t0")

    def dx(f, k=1):
        for _ in range(k):
            f = f.derivative("t0")
        return f

    if which == 1:
        return u.derivative("t1") - u * dx(u) - dx(u, 3) * Q(1, 12)
    if which == 2:
        return (
            u.derivative("t2")
            - u * u * dx(u) * Q(1, 2)
            - (dx(u) * dx(u, 2) * 2 + u * dx(u, 3)) * Q(1, 12)
            - dx(u, 5) * Q(1, 240)
        )
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


def determinant_formula_check(Fc: MultiSeries, N: int, order: int) -> dict:
    r"""Check exp(F^c) prod_{a<b} (x_a - x_b) = det[x_a^{N-j} psi_j(x_a)]
    (Kontsevich) at t_i = -(2i-1)!! sum_a x_a^{2i+1} through x-degree
    ``order``, with psi_1 = calA and
    psi_{j+1} = x^4 psi_j' + psi_j + (3/2 - j) x^3 psi_j.

    Both sides are antisymmetric, so it compares them at x^{lambda+delta},
    delta = (N-1, ..., 0), for every partition lambda of at most N parts
    with |lambda| <= order: the left side's sum over sigma of
    sgn(sigma) E[lambda_a - a + sigma(a)], E the specialized exp(F^c),
    against the Plucker coordinate det[c_{sigma(a), lambda_a - a + sigma(a)}],
    c_{j,k} the x^k coefficient of psi_j.  Raises IndexError when ``order``
    exceeds the truncation of F^c.  Returns {"ok": bool, "residual_terms":
    {str(lambda): left - right where they differ}, "series": E}.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    xs = Grading([f"x{a}" for a in range(1, N + 1)], [1] * N)
    E = _airy_shift(Fc, order, xs)
    nt = len(Fc.grading)
    at = {e[nt:]: c for e, c in E.terms.items()}
    # The Plucker coordinates read psi_j through x^(order + j - 1).
    p = series_calA(order + N - 1)
    psi = [p.coeffs]
    for j in range(1, N):
        p = (p.derivative().times_monomial("x", 4) + p
             + p.times_monomial("x", 3) * (Q(3, 2) - j))
        psi.append(p.coeffs)
    perms = [((-1) ** sum(p > q for i, p in enumerate(s) for q in s[i + 1:]), s)
             for s in permutations(range(N))]
    # A partition of d into at most N parts is the conjugate of one with
    # parts at most N, m_i of them equal to i: lambda_a = sum_{i>=a} m_i.
    conjugates = Grading(xs.names, range(1, N + 1))
    residual = {}
    for d in range(order + 1):
        for m in conjugates.monomials(d):
            lam = tuple(accumulate(reversed(m)))[::-1]
            left = right = 0
            for sign, s in perms:
                ks = tuple(l - a + j for a, (l, j) in enumerate(zip(lam, s)))
                if min(ks) >= 0:
                    left += sign * at.get(ks, 0)
                    right += sign * prod(psi[j][k] for j, k in zip(s, ks))
            if left != right:
                residual[str(lam)] = str(left - right)
    return {"ok": not residual, "residual_terms": residual, "series": E}
