"""Kappa-class relations extracted from a two-row hypergeometric series.

The generating object is

    Psi(t, p) = (1 + t p_3 + t^2 p_6 + ...) * sum_i (6i)!/((3i)!(2i)!) t^i
              + (p_1 + t p_4 + t^2 p_7 + ...) * sum_i (6i)!/((3i)!(2i)!)
                                                 * (6i+1)/(6i-1) t^i

in a variable t and variables p_j indexed by positive integers j not
congruent to 2 mod 3.  Writing

    log(Psi) = sum_{sigma, r} C_r(sigma) t^r p^sigma,

the class gamma = sum C_r(sigma) kappa_r t^r p^sigma gives, for each
admissible triple (g, r, sigma), the kappa-polynomial relation

    [exp(-gamma)]_{t^r p^sigma} = 0,

valid when g - 1 + |sigma| < 3r and g = r + |sigma| + 1 (mod 2).  Here
sigma is a partition avoiding parts congruent to 2 mod 3, and kappa_0
is substituted by the scalar 2g - 2.

Example::

    >>> fz_constants(1, ())
    Fraction(60, 1)
    >>> sorted(fz_relation(3, 2, ()).items())
    [((0, 1), Fraction(-25920, 1)), ((2,), Fraction(1800, 1))]
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .series import Grading, MultiSeries
from .strata import kappa_monomial

__all__ = [
    "NotARelationError",
    "normalize_partition",
    "build_psi",
    "fz_constants",
    "fz_relation",
]


class NotARelationError(ValueError):
    """Raised when (g, r, sigma) fails an admissibility condition."""


def normalize_partition(sigma):
    """Validate and sort a partition avoiding parts congruent to 2 mod 3.

    >>> normalize_partition([4, 1, 3])
    (1, 3, 4)
    """
    parts = tuple(sorted(sigma))
    for part in parts:
        if part <= 0 or part % 3 == 2:
            raise ValueError("parts must be positive and not 2 mod 3: %r" % (part,))
    return parts


def _row_coeff(i):
    # (6i)! / ((3i)! (2i)!)
    return Fraction(factorial(6 * i), factorial(3 * i) * factorial(2 * i))


def _p_indices(p_weight_max):
    return [j for j in range(1, p_weight_max + 1) if j % 3 != 2]


def _psi_grading(t_order, p_weight_max):
    names = ["t"] + ["p%d" % j for j in _p_indices(p_weight_max)]
    weights = [1] + _p_indices(p_weight_max)
    return Grading(names, weights)


def build_psi(t_order, p_weight_max):
    """The two-row series Psi as a multivariate series in t and the p_j.

    Monomials are kept when the t-degree is at most ``t_order`` and the
    p-weight (weight of p_j is j) is at most ``p_weight_max``.

    >>> psi = build_psi(2, 1)
    >>> psi.constant_term()
    Fraction(1, 1)
    >>> psi.coefficient((1, 0))
    Fraction(60, 1)
    >>> psi.coefficient((0, 1))
    Fraction(-1, 1)
    """
    if t_order < 0 or p_weight_max < 0:
        raise ValueError("orders must be nonnegative")
    g = _psi_grading(t_order, p_weight_max)
    nv = len(g)
    terms = {}

    def add(t_pow, p_name, coeff):
        e = [0] * nv
        e[0] = t_pow
        if p_name is not None:
            e[g.index[p_name]] = 1
        key = tuple(e)
        terms[key] = terms.get(key, Fraction(0)) + coeff

    for i in range(t_order + 1):
        row1 = _row_coeff(i)
        row2 = row1 * Fraction(6 * i + 1, 6 * i - 1)
        add(i, None, row1)
        for k in range(1, (t_order - i) + 1):
            if 3 * k <= p_weight_max:
                add(i + k, "p%d" % (3 * k), row1)
        for k in range(1, (t_order - i + 1) + 1):
            if 3 * k - 2 <= p_weight_max:
                add(i + k - 1, "p%d" % (3 * k - 2), row2)
    return MultiSeries(g, terms, t_order + p_weight_max)


@lru_cache(maxsize=None)
def _log_psi(t_order, p_weight_max):
    return build_psi(t_order, p_weight_max).log()


def fz_constants(r, sigma):
    """Coefficient C_r(sigma) of t^r p^sigma in log Psi.

    >>> fz_constants(0, ())
    Fraction(0, 1)
    >>> fz_constants(0, (1,))
    Fraction(-1, 1)
    """
    sigma = normalize_partition(sigma)
    if r < 0:
        raise ValueError("r must be nonnegative")
    weight = sum(sigma)
    lp = _log_psi(r, weight)
    e = [0] * len(lp.grading)
    e[0] = r
    for part in sigma:
        e[lp.grading.index["p%d" % part]] += 1
    return lp.coefficient(tuple(e))


def fz_relation(g, r, sigma):
    """The kappa-polynomial relation [exp(-gamma)]_{t^r p^sigma}, as a
    {kappa-exponent tuple: coeff} map whose keys have no trailing zero
    (strata.kappa_monomial) and kappa-degree r.

    Admissibility requires g - 1 + |sigma| < 3r (strict) and
    g = r + |sigma| + 1 (mod 2); violations raise NotARelationError
    naming the failed condition.

    >>> fz_relation(1, 1, (1,))
    {(1,): Fraction(-144, 1)}
    """
    sigma = normalize_partition(sigma)
    weight = sum(sigma)
    if not g - 1 + weight < 3 * r:
        raise NotARelationError(
            "validity: g-1+|sigma| < 3r fails (%d < %d)" % (g - 1 + weight, 3 * r)
        )
    if (g - (r + weight + 1)) % 2 != 0:
        raise NotARelationError(
            "validity: g = r+|sigma|+1 (mod 2) fails (g=%d, r+|sigma|+1=%d)"
            % (g, r + weight + 1)
        )

    # gamma as a series in kappa_1..kappa_r and the p_j appearing in
    # sigma; kappa_a carries weight a so the t-power is the kappa-degree.
    kappa_names = ["k%d" % a for a in range(1, r + 1)]
    kappa_weights = list(range(1, r + 1))
    p_parts = sorted(set(sigma))
    p_names = ["p%d" % j for j in p_parts]
    p_weights = list(p_parts)
    grading = Grading(kappa_names + p_names, kappa_weights + p_weights)
    nv = len(grading)
    cap = r + weight

    gamma_terms = {}
    for rp in range(r + 1):
        for sub in _sub_multisets(sigma):
            if rp == 0 and not sub:
                continue
            c = fz_constants(rp, sub)
            if rp == 0:
                c *= 2 * g - 2  # kappa_0 is the scalar 2g-2
            if c == 0:
                continue
            e = [0] * nv
            if rp > 0:
                e[grading.index["k%d" % rp]] = 1
            for part in sub:
                e[grading.index["p%d" % part]] += 1
            key = tuple(e)
            gamma_terms[key] = gamma_terms.get(key, Fraction(0)) + c
    gamma = MultiSeries(grading, gamma_terms, cap)
    # A kept term has kappa-degree r and p-part sigma, so it lies in the
    # top weighted-degree bucket r + |sigma| of exp(-gamma).
    m, top = (gamma * Fraction(-1)).exp().buckets().get(cap, (1, {}))
    target_p = tuple(sigma.count(j) for j in p_parts)
    return {
        kappa_monomial(e[:r]): Fraction(c, m)
        for e, c in top.items()
        if e[r:] == target_p
    }


def _sub_multisets(sigma):
    """All sub-multisets of a sorted partition tuple, each sorted."""
    if not sigma:
        return [()]
    parts = sorted(set(sigma))
    out = [()]
    for j in parts:
        n = sigma.count(j)
        out = [base + (j,) * k for base in out for k in range(n + 1)]
    return [tuple(sorted(s)) for s in out]
