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
is substituted by the scalar 2g - 2.  Every C_r'(sigma') that gamma needs
(r' <= r, sigma' inside sigma) is a coefficient of the one log Psi
truncated at t-degree r and p-weight |sigma|.

Example::

    >>> sorted(fz_relation(3, 2, ()).items())
    [((0, 1), Fraction(-25920, 1)), ((2,), Fraction(1800, 1))]
"""

from fractions import Fraction
from functools import lru_cache

from .named_series import series_A, series_B
from .series import Grading, MultiSeries
from .strata import kappa_monomial

__all__ = [
    "NotARelationError",
    "normalize_partition",
    "build_psi",
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


def _p_indices(p_weight_max):
    return [j for j in range(1, p_weight_max + 1) if j % 3 != 2]


def _psi_grading(p_weight_max):
    names = ["t"] + ["p%d" % j for j in _p_indices(p_weight_max)]
    weights = [1] + _p_indices(p_weight_max)
    return Grading(names, weights)


def build_psi(t_order, p_weight_max):
    """The two-row series Psi as a multivariate series in t and the p_j.

    Monomials are kept when the t-degree is at most ``t_order`` and the
    p-weight (weight of p_j is j) is at most ``p_weight_max``.

    >>> psi = build_psi(2, 1)
    >>> psi.coefficient((0, 0))
    Fraction(1, 1)
    >>> psi.coefficient((1, 0))
    Fraction(60, 1)
    >>> psi.coefficient((0, 1))
    Fraction(-1, 1)
    """
    if t_order < 0 or p_weight_max < 0:
        raise ValueError("orders must be nonnegative")
    g = _psi_grading(p_weight_max)
    A = series_A(t_order).scale_argument(288).coeffs
    B = series_B(t_order).scale_argument(288).coeffs
    # The constant 1 multiplies A(288 t); p_j multiplies t^{j//3} A(288 t)
    # when 3 divides j, and t^{j//3} B(288 t) when j = 1 (mod 3).
    terms = {}
    for col, j in enumerate([0] + _p_indices(p_weight_max)):
        for i, c in enumerate((B if j % 3 == 1 else A)[: t_order - j // 3 + 1]):
            e = [0] * len(g)
            e[0] = i + j // 3
            if j:
                e[col] = 1
            terms[tuple(e)] = c
    return MultiSeries(g, terms, t_order + p_weight_max)


@lru_cache(maxsize=None)
def _log_psi(t_order, p_weight_max):
    return build_psi(t_order, p_weight_max).log()


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
    cap = r + weight

    # C_r'(sigma') for r' <= r and sigma' inside sigma, read off the one
    # log Psi that covers them all.  gamma's terms go in by r', then by
    # p-counts: the relation's row order follows theirs.
    lp = _log_psi(r, weight)
    p_cols = [lp.grading.index["p%d" % j] for j in p_parts]
    target_p = tuple(sigma.count(j) for j in p_parts)
    picked = {}
    for e, c in lp.terms.items():
        counts = tuple(e[i] for i in p_cols)
        if (e[0] > r or sum(e[1:]) != sum(counts)
                or any(n > m for n, m in zip(counts, target_p))):
            continue
        if e[0] == 0:
            c *= 2 * g - 2  # kappa_0 is the scalar 2g-2
        if c:
            picked[e[0], counts] = c
    gamma_terms = {}
    for (rp, counts), c in sorted(picked.items()):
        kappa = [0] * r
        if rp:
            kappa[rp - 1] = 1
        gamma_terms[tuple(kappa) + counts] = c
    gamma = MultiSeries(grading, gamma_terms, cap)
    # A kept term has kappa-degree r and p-part sigma, so it lies in the
    # top weighted-degree bucket r + |sigma| of exp(-gamma).
    m, top = (gamma * Fraction(-1)).exp().buckets().get(cap, (1, {}))
    return {
        kappa_monomial(e[:r]): Fraction(c, m)
        for e, c in top.items()
        if e[r:] == target_p
    }

