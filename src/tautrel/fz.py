"""Kappa-class relations extracted from a two-row hypergeometric series.

The generating object is

    Psi(t, p) = (1 + sum_{k>=1} t^k p_{3k}) * A(288 t)
              + (sum_{k>=1} t^{k-1} p_{3k-2}) * B(288 t)

in a variable t and variables p_j indexed by positive integers j not
congruent to 2 mod 3, where A and B are ``named_series.series_A`` and
``series_B``: A(288 t) = sum_i (6i)!/((3i)!(2i)!) t^i, and B(288 t) twists
its coefficients by (6i+1)/(6i-1).  Writing

    log(Psi) = sum_{sigma, r} C_r(sigma) t^r p^sigma,

the class gamma = sum C_r(sigma) kappa_r t^r p^sigma gives, for each
admissible triple (g, r, sigma), the kappa-polynomial relation

    [exp(-gamma)]_{t^r p^sigma} = 0,

valid when g - 1 + |sigma| < 3r and g = r + |sigma| + 1 (mod 2).  Here
sigma is a partition avoiding parts congruent to 2 mod 3, and kappa_0
is substituted by the scalar 2g - 2.

Psi is linear in the p_j: Psi = A(288 t) (1 + sum_j p_j u_j) with
u_{3k} = t^k and u_{3k-2} = t^{k-1} B(288 t)/A(288 t).  So the p^sigma'
part of log Psi is log A(288 t) for sigma' empty, and for sigma' of k > 0
parts with multiplicities m_j it is

    (-1)^{k+1} (k-1)!/prod_j m_j! * prod_j u_j^{m_j}.

Every C_r'(sigma') that gamma needs is read from two one-variable tables
through t^r: log A(288 t) and the powers of B(288 t)/A(288 t).  No p_j
becomes a variable: with gamma_c and E_c the p^c parts of gamma and
exp(-gamma), for c the p-counts of a sub-multiset of sigma, the Euler
operator sum_j p_j d/dp_j gives E_0 = exp(-gamma_0) and

    |c| E_c = -sum_{0 < c' <= c} |c'| gamma_{c'} E_{c-c'},

and the relation is the kappa-degree-r part of E_sigma.

Example::

    >>> sorted(fz_relation(3, 2, ()).items())
    [((0, 1), Fraction(-25920, 1)), ((2,), Fraction(1800, 1))]
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import le, sub

from .named_series import series_A, series_B
from .series import PowerSeries
from .strata import _weighted_linear, kappa_monomial

__all__ = [
    "NotARelationError",
    "normalize_partition",
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


@lru_cache(maxsize=None)
def _log_a(order):
    """log A(288 t) through t^order: the p-free part of log Psi."""
    return series_A(order).scale_argument(288).log()


@lru_cache(maxsize=None)
def _ratio_powers(order, n):
    """(B/A)(288 t)^i through t^order, as coefficient tuples, i = 0..n."""
    powers = [PowerSeries([1], order)]
    if n:
        ratio = series_B(order).scale_argument(288) * (-_log_a(order)).exp()
        while len(powers) <= n:
            powers.append(powers[-1] * ratio)
    return [p.coeffs for p in powers]


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

    # gamma_c and E_c as series in kappa_1..kappa_r, kappa_a of weight a and
    # kappa_0 the scalar 2g-2.  product() lists each c after every c' <= c,
    # and sigma's own counts last.
    p_parts = sorted(set(sigma))
    powers = _ratio_powers(r, sum(j % 3 == 1 for j in sigma))
    gamma, E = {}, {}
    for c in product(*(range(sigma.count(j) + 1) for j in p_parts)):
        k = sum(c)
        if not k:
            # log A(0) = 0, so gamma_0 has no constant term.
            gamma[c] = _weighted_linear(_log_a(r).coeffs, r)
            E[c] = (-gamma[c]).exp()
            continue
        # prod_j u_j^{m_j} = t^shift (B/A)^ones
        shift = sum(m * (j // 3) for m, j in zip(c, p_parts))
        ones = sum(m for m, j in zip(c, p_parts) if j % 3 == 1)
        scale = Fraction((-1) ** (k + 1) * factorial(k - 1),
                         prod(map(factorial, c)))
        column = (0,) * shift + tuple(scale * x for x in powers[ones])
        gamma[c] = _weighted_linear(column, r) + column[0] * (2 * g - 2)
        terms = [sum(d) * gamma[d] * E[tuple(map(sub, c, d))]
                 for d in gamma if any(d) and all(map(le, d, c))]
        E[c] = sum(terms[1:], terms[0]) * Fraction(-1, k)
    return {kappa_monomial(e): x for e, x in E[c].part(r).terms.items()}
