"""Two-dimensional Frobenius structures and the flatness recursion for R.

What ``frobenius`` and ``verify frobenius``/``flatness`` run: the 3-spin
R-matrix ``solve_R`` against ``hypergeometric_r_matrix`` and its flatness,
the product tables of the 3-spin and P^1 structures, and the P^1 checks on
the q-hypergeometric series Phi.

Two structures are provided.  The *polynomial* (3-spin) structure has
potential t0^2 t1 / 2 + t1^4 / 72 and metric [[0, 1], [1, 0]]; writing
phi = t1 / 3, the product is e1 * e1 = phi e0.  The *exponential* (P^1)
structure has potential t0^2 t1 / 2 + lam t0 t1^2 / 2 + lam^2 t1^3 / 6
+ e^{t1} and metric [[0, 1], [1, lam]]; writing q = e^{t1} and
phi = q + lam^2 / 4, the product is e1 * e1 = q e0 + lam e1.  (The
cubic coefficient +lam^2/6 is forced: eta(e1 * e1, e1) = q + lam^2
must equal the third t1-derivative of the potential.)  Potentials and
product tables are ``MultiSeries`` in (t0, t1, q).

For the polynomial structure everything is exact in the formal square
root rho = sqrt(phi) with d rho / d t1 = 1 / (6 rho).  The R-matrix is
solved from the flatness equation z dS/dt1 = e1 * S for
S = Psi R e^{u/z} in the canonical frame, where the commutator with
diag(-rho, rho) determines the off-diagonal part of each R_{k+1} and
the diagonal part follows by integration, with integration constants
killed by rho-homogeneity.  In the flat basis the result is the
hypergeometric matrix

    [[ -B^even(w),        -rho   B^odd(w) ],
     [  rho^{-1} A^odd(w),  A^even(w)     ]],     w = z / (6 rho^3),

built from the A and B series of ``named_series``.  Entry (i, j) is
rho^(j - i) M[i][j](z / rho^3) for a power series M[i][j], so its z^k
coefficient is the single rho-monomial M[i][j]_k rho^(j - i - 3k).
``solve_R`` and ``hypergeometric_r_matrix`` return the 2x2 tuple M of
``PowerSeries``; ``r_matrix_json`` writes it with the rho-powers.

Example::

    >>> R = solve_R(2)
    >>> r_matrix_json(R)["entries"]["10"][1]
    {'rho^-4': '5/144'}
"""

import random
from fractions import Fraction
from math import factorial

from .named_series import (
    SpecializationError,
    double_factorial,
    series_A,
    series_B,
    series_Phi,
)
from .series import Grading, MultiSeries, PowerSeries

__all__ = [
    "COORDS",
    "t_derivative",
    "product_consistency",
    "spin3_structure",
    "cp1_structure",
    "rho_json",
    "r_matrix_json",
    "solve_R",
    "hypergeometric_r_matrix",
    "airy_flatness_check",
    "cp1_gamma_limit_check",
    "cp1_phi_ode_residual",
    "cp1_phi_ode_check",
    "cp1_leading_limit",
]


# ---------------------------------------------------------------------------
# coordinate polynomials

#: The flat coordinates t0, t1 and q = e^{t1}.  A structure's product
#: table is truncated at its potential's total degree, and the potential
#: three degrees higher, so that its third derivatives are known as far.
COORDS = Grading(("t0", "t1", "q"), (1, 1, 1))


def t_derivative(p, i):
    """The t_i-derivative of p for i = 0, 1; as q = e^{t1}, the
    t1-derivative is the partial in t1 plus q times the partial in q.

    >>> q = MultiSeries.variable(COORDS, "q", 2)
    >>> t_derivative(q, 1) == q
    True
    """
    d = p.derivative(("t0", "t1")[i])
    if i == 1:
        d = d + p.derivative("q").times_monomial("q")
    return d


# ---------------------------------------------------------------------------
# Frobenius data


def product_consistency(eta, potential, c1):
    """True iff the product table ``c1`` of a 2-dimensional Frobenius
    structure matches its potential and e0 is the unit.

    ``eta`` is the 2x2 rational metric, which must be symmetric and
    nondegenerate (ValueError otherwise), ``potential`` a ``MultiSeries``
    over :data:`COORDS`, and ``c1`` the 2x2 tuple (of such series) of
    multiplication by e1 in the basis (e0, e1).  Multiplication by e_a
    has the entries c^nu_b = eta^{nu c} Phi_{a b c}.
    """
    (e00, e01), (e10, e11) = eta
    if e01 != e10:
        raise ValueError("eta must be symmetric")
    det = Fraction(e00 * e11 - e01 * e10)
    if not det:
        raise ValueError("eta must be nondegenerate")
    inv = ((e11 / det, -e01 / det), (-e01 / det, e00 / det))

    def product(a):
        third = [[t_derivative(t_derivative(t_derivative(potential, a), b), c)
                  for c in (0, 1)] for b in (0, 1)]
        return tuple(tuple(row[0] * inv[nu][0] + row[1] * inv[nu][1]
                           for row in third) for nu in (0, 1))

    n = potential.max_degree
    one = MultiSeries.constant(COORDS, 1, n)
    zero = MultiSeries.zero(COORDS, n)
    return product(1) == c1 and product(0) == ((one, zero), (zero, one))


def spin3_structure():
    """The polynomial structure: (eta, potential, c1) with potential
    t0^2 t1/2 + t1^4/72.

    >>> product_consistency(*spin3_structure())
    True
    """
    potential = MultiSeries(
        COORDS, {(2, 1, 0): Fraction(1, 2), (0, 4, 0): Fraction(1, 72)}, 7
    )
    phi = MultiSeries(COORDS, {(0, 1, 0): Fraction(1, 3)}, 4)
    zero = MultiSeries.zero(COORDS, 4)
    one = MultiSeries.constant(COORDS, 1, 4)
    c1 = ((zero, phi), (one, zero))
    return ((0, 1), (1, 0)), potential, c1


def cp1_structure(lam):
    """The exponential structure at rational parameter lam, as
    (eta, potential, c1).

    Potential t0^2 t1/2 + lam t0 t1^2/2 + lam^2 t1^3/6 + q with
    q = e^{t1}; the product is e1*e1 = q e0 + lam e1.

    >>> product_consistency(*cp1_structure(Fraction(2)))
    True
    """
    lam = Fraction(lam)
    potential = MultiSeries(
        COORDS,
        {
            (2, 1, 0): Fraction(1, 2),
            (1, 2, 0): lam / 2,
            (0, 3, 0): lam * lam / 6,
            (0, 0, 1): Fraction(1),
        },
        6,
    )
    q = MultiSeries.variable(COORDS, "q", 3)
    zero = MultiSeries.zero(COORDS, 3)
    one = MultiSeries.constant(COORDS, 1, 3)
    c1 = ((zero, q), (one, one * lam))
    return ((0, 1), (1, lam)), potential, c1


# ---------------------------------------------------------------------------
# the R-matrix in w = z / rho^3


def _theta(f):
    """The Euler operator x d/dx on a PowerSeries, known through its order."""
    return f.derivative().times_monomial("x")


def rho_json(offset, f):
    """rho^offset f(z / rho^3) by its z^k coefficients, each the single
    rho-monomial {"rho^(offset - 3k)": f_k}, or {} where f_k is 0.

    >>> rho_json(1, PowerSeries([1, 0, Fraction(1, 6)]))
    [{'rho^1': '1'}, {}, {'rho^-5': '1/6'}]
    """
    return [{"rho^%d" % (offset - 3 * k): str(c)} if c else {}
            for k, c in enumerate(f.coeffs)]


def r_matrix_json(R):
    """The report of an R-matrix: its order and each entry under the key
    "ij", with its rho-offset j - i."""
    return {
        "order": R[0][0].order,
        "entries": {"%d%d" % (i, j): rho_json(j - i, R[i][j])
                    for i in (0, 1) for j in (0, 1)},
    }


# ---------------------------------------------------------------------------
# the flatness recursion


def _canonical_components(order):
    """Components (a, beta, gamma, d) of R in the canonical frame.

    R_k = [[a_k, i beta_k], [i gamma_k, d_k]] rho^(-3k) with rational
    a_k, beta_k, gamma_k, d_k.  The commutator with diag(-rho, rho)
    fixes the off-diagonal parts and integration in t1 the diagonal
    ones, with integration constants killed by rho-homogeneity:

        beta_{k+1}  = d_k / 24 + k beta_k / 4
        gamma_{k+1} = a_k / 24 - k gamma_k / 4
        a_{k+1}     = gamma_{k+1} / (6 (k + 1))
        d_{k+1}     = -beta_{k+1} / (6 (k + 1))
    """
    a, beta, gamma, d = [Fraction(1)], [Fraction(0)], [Fraction(0)], [Fraction(1)]
    for k in range(order):
        b_next = d[k] / 24 + k * beta[k] / 4
        g_next = a[k] / 24 - k * gamma[k] / 4
        beta.append(b_next)
        gamma.append(g_next)
        a.append(g_next / (6 * (k + 1)))
        d.append(-b_next / (6 * (k + 1)))
    return a, beta, gamma, d


def solve_R(order):
    """The 3-spin R-matrix in the flat basis through z^order, as the 2x2
    tuple M of PowerSeries in w with R[i][j] = rho^(j - i) M[i][j](w),
    solved from the flatness equation (the exponential structure is
    covered only by its leading-order limit, ``cp1_leading_limit``).

    >>> solve_R(1)[0][1]
    PowerSeries(-7/144*x^1 + O(x^2))
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    comps = list(zip(*_canonical_components(order)))
    return (
        (PowerSeries([(a + d + g - b) / 2 for a, b, g, d in comps], order),
         PowerSeries([(d - a - b - g) / 2 for a, b, g, d in comps], order)),
        (PowerSeries([(d - a + b + g) / 2 for a, b, g, d in comps], order),
         PowerSeries([(a + d + b - g) / 2 for a, b, g, d in comps], order)),
    )


def hypergeometric_r_matrix(order):
    """The closed-form R-matrix from the A and B series, as ``solve_R``'s M.

    Entry-wise, with w = z / (6 rho^3):

        (0,0) = -B^even(w)            (0,1) = -rho B^odd(w)
        (1,0) = rho^{-1} A^odd(w)     (1,1) =  A^even(w)

    ``solve_R`` reproduces this matrix exactly.
    """
    A = series_A(order).scale_argument(Fraction(1, 6))
    B = series_B(order).scale_argument(Fraction(1, 6))
    return (
        (-B.parity_part(0), -B.parity_part(1)),
        (A.parity_part(1), A.parity_part(0)),
    )


def _reduced_operator(g, m, branch):
    """z(d/dt1 - 1/(12 rho^2)) - branch*rho, the flatness operator on a
    reduced solution column rho^m g(w), as the series of rho^(m+1) (the
    last term records the e^{u/z} factor).  As d/dt1 takes rho^m g to
    rho^(m-2) (m g - 3 theta g)/6 and z is w rho^3, the series is
    w ((2m - 1) g/12 - theta g/2) - branch g.

    >>> _reduced_operator(PowerSeries([1, 1]), 1, 1)
    PowerSeries(-1*x^0 + -11/12*x^1 + O(x^2))
    """
    out = (g * Fraction(2 * m - 1, 12) - _theta(g) * Fraction(1, 2)).times_monomial("x")
    return out.truncate(g.order) - g * branch


def airy_flatness_check(order, branch=1):
    """Residuals of the flatness system for S = Psi R e^{u/z}.

    The solution column for the given branch (+1 or -1) reduces, after
    stripping 1/sqrt(Delta) and e^{u/z}, to G = R . (-branch*rho, 1),
    that is G^0 = rho g0(w) and G^1 = g1(w) with g0 = M01 - branch M00
    and g1 = M11 - branch M10 for the M of ``solve_R``.  Returns each
    residual, identically zero, as (offset, series) for
    rho^offset series(w):

    - "t0_0", "t0_1": z dS/dt0 - S for each component,
    - "t1_1": z dS/dt1 - (e1 * S), component 1 (reduces to D G^1 - G^0),
    - "t1_0": component 0 (reduces to D G^0 - rho^2 G^1),
    - "second_order": (z d/dt1)^2 S^1 - phi S^1 (reduces to
      D D G^1 - rho^2 G^1).
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if order < 2:
        raise ValueError("order must be at least 2")
    (m00, m01), (m10, m11) = solve_R(order)
    g0 = m01 - m00 * branch
    g1 = m11 - m10 * branch
    d_g1 = _reduced_operator(g1, 0, branch)
    # z dS/dt0 = S reduces to (du/dt0) G = G, as G does not depend on t0:
    # the e^{u/z} factor meets it alone, so its residuals are 0.
    return {
        "t0_0": (1, g0 * 0),
        "t0_1": (0, g1 * 0),
        "t1_1": (1, d_g1 - g0),
        "t1_0": (2, _reduced_operator(g0, 1, branch) - g1),
        "second_order": (2, _reduced_operator(d_g1, 1, branch) - g1),
    }


# ---------------------------------------------------------------------------
# exponential-structure checks


def cp1_phi_ode_residual(order, lam, z):
    """Residual of (z q d/dq)^2 Phi - lam (z q d/dq) Phi - q Phi.

    Exact through q^order; identically zero for the hypergeometric
    series Phi.

    >>> cp1_phi_ode_residual(6, Fraction(3), Fraction(1, 7)).is_zero()
    True
    """
    lam, z = Fraction(lam), Fraction(z)
    phi = series_Phi(order, lam, z)
    z_theta_phi = _theta(phi) * z
    return _theta(z_theta_phi) * z - z_theta_phi * lam - phi.times_monomial("x")


def _sample_rational(rng):
    num = rng.randint(-40, 40)
    den = rng.randint(1, 12)
    return Fraction(num, den)


# The order through which cp1_phi_ode_check compares, and the number of
# random points each of the two P^1 checks samples.
CP1_ORDER = 15
CP1_TRIALS = 5


def cp1_phi_ode_check(seed=0):
    """Check the second-order ODE for Phi through q^CP1_ORDER at
    CP1_TRIALS random rational (lam, z).

    Returns a report dict with the seed, the order, the sampled points,
    and a boolean "ok".
    """
    rng = random.Random(seed)
    samples = []
    while len(samples) < CP1_TRIALS:
        lam, z = _sample_rational(rng), _sample_rational(rng)
        try:
            residual = cp1_phi_ode_residual(CP1_ORDER, lam, z)
        except SpecializationError:
            continue
        samples.append(
            {"lam": str(lam), "z": str(z), "residual_zero": residual.is_zero()}
        )
    return {
        "seed": seed,
        "order": CP1_ORDER,
        "samples": samples,
        "ok": all(s["residual_zero"] for s in samples),
    }


def cp1_gamma_limit_check(seed=0):
    """The q -> 0 limit identity for the first q-derivative of Phi, at
    CP1_TRIALS random rational (lam, z).

    The identity states that shifting the Gamma-function argument and the
    power of (-z) by -1 multiplies the limit by 1/(z(z - lam)):

        (-z)^(-1) * (1/z) * Gamma(x - 1)/Gamma(x) = 1/(z(z - lam)),

    at x = lam/z, where the Gamma-ratio 1/(x - 1) follows from the
    functional equation Gamma(x) = (x - 1) Gamma(x - 1).  The matching
    boundary value d Phi/d q (z, 0) = 1/((z - lam) z) is checked
    alongside.

    >>> cp1_gamma_limit_check()
    True
    """
    rng = random.Random(seed)
    done = 0
    while done < CP1_TRIALS:
        lam, z = _sample_rational(rng), _sample_rational(rng)
        if z == 0 or lam == z or lam == 0:
            continue
        x = lam / z
        if x == 1:
            continue
        # (-z)^(-1) * (1/z) * Gamma(x - 1)/Gamma(x)
        lhs = -1 / z / z / (x - 1)
        rhs = 1 / (z * (z - lam))
        if lhs != rhs:
            return False
        try:
            phi = series_Phi(1, lam, z)
        except SpecializationError:
            continue
        if phi[1] != 1 / ((z - lam) * z):
            return False
        done += 1
    return True


def cp1_leading_limit(order):
    """Leading coefficients of the saddle-point expansion of the
    exponential structure's solution integrals.

    Keeping only the cubic term of the expanded exponent and evaluating
    the Gaussian moments <x^{2k}> = (2k-1)!! gives the series

        sum_j (6j-1)!! / (36^j (2j)!) y^j

    in the scaling variable y; this equals the A series exactly.

    >>> cp1_leading_limit(1)[1]
    Fraction(5, 24)
    """
    coeffs = [
        Fraction(double_factorial(6 * j - 1), 36**j * factorial(2 * j))
        for j in range(order + 1)
    ]
    return PowerSeries(coeffs, order)
