r"""High-precision evaluation of the Airy integral and its asymptotics.

The function treated here is

    Ai(x) = int_0^oo cos(t^3/3 + x t) dt,

i.e. pi times the conventionally normalized Airy function, which is why the
asymptotic prefactor below is (sqrt(pi)/2) x^{-1/4} e^{-(2/3)x^{3/2}} rather
than 1/(2 sqrt(pi)) x^{-1/4} ...

Two independent numeric oracles are provided for x > 0:

- ``airy_quadrature`` and ``airy_prime_quadrature``: one trapezoid sweep
  over the deformed-Gaussian contour form

      Ai(x) = P int_R e^{-t^2/2} cos(c t^3) dt,
      P = e^{-(2/3)x^{3/2}} x^{-1/4}/(2 sqrt 2),  c = x^{-3/4}/(6 sqrt 2),

  and its x-derivative.  Differentiating under the integral
  (P'/P = -sqrt(x) - 1/(4x), c' = -3c/(4x)) and integrating the
  t^3 sin(c t^3) term by parts leaves

      Ai'(x) = -P int_R (sqrt(x) + t^2/(4x)) e^{-t^2/2} cos(c t^3) dt,

  so one exp and one cos per node give both values.  The integrands are
  entire and decay like a Gaussian, so the rule converges geometrically
  in 1/h (Trefethen and Weideman, "The exponentially convergent
  trapezoidal rule", SIAM Rev. 56 (2014) 385-458) and needs no nodes or
  weights.  They are cut at T = sqrt(2L) + 2 with L = (p + 16) ln 2 for p
  bits: T^2/2 = L + 2T - 2, so e^{-T^2/2} and T^2 e^{-T^2/2}
  = e^{-L} (T e^{1-T})^2 are both below 2^{-(p+16)}.
- ``airy_ode``: Taylor-series continuation of y'' = x y from 0, with working
  precision padded to absorb the exponential cancellation.

Both are compared with the truncated asymptotic expansions of Ai and Ai',
whose series are A(-w) and B(-w) of ``named_series`` at w = 1/(2 x^{3/2}):
one routine sums either one and returns the value with the magnitude of
its first omitted term, which bounds the error (``asymptotic_report``).

This is the only module in the package that uses floating point.  Its
functions import mpmath when they run, so mpmath is loaded only when an
Airy value is computed, not whenever the package or its CLI is imported.
"""

from __future__ import annotations

import math

from .named_series import series_A, series_B


def _require_positive(x):
    if x <= 0:
        raise ValueError("Airy evaluation implemented for x > 0 only")


# Integrand evaluations one trapezoid sum may spend.  Small x needs more
# (the cost grows like x^{-3/4}): x = 0.001 at 128 bits takes about 66k.
MAX_EVALUATIONS = 2**17


class QuadratureBudgetExceeded(ArithmeticError):
    """The trapezoid rule did not converge within MAX_EVALUATIONS."""

    def __init__(self, evaluations):
        super().__init__(
            f"trapezoid rule not converged after {evaluations} evaluations"
        )
        self.evaluations = evaluations


def _trapezoid(f, half_width, precision_bits):
    """int_0^half_width f for an even f whose tail beyond half_width is
    negligible, by the trapezoid rule; f returns a tuple of integrands.

    The step starts at 1 and halves, each halving evaluating only the new
    odd nodes, until two successive sums agree to 2^{-(precision_bits+8)}
    relative in every component.
    """
    from mpmath import mpf

    tol = mpf(2) ** -(precision_bits + 8)
    total = [v / 2 for v in f(mpf(0))]  # sum of f over the nodes, f(0) halved
    evaluations = 1
    h, stride, previous = mpf(1), 1, None
    while True:
        nodes = range(1, int(half_width / h) + 1, stride)
        if evaluations + len(nodes) > MAX_EVALUATIONS:
            raise QuadratureBudgetExceeded(evaluations)
        for k in nodes:
            for i, v in enumerate(f(k * h)):
                total[i] += v
        evaluations += len(nodes)
        estimate = [h * v for v in total]
        if previous is not None and all(
            abs(e - p) <= tol * abs(e) for e, p in zip(estimate, previous)
        ):
            return estimate
        h, stride, previous = h / 2, 2, estimate


def _quadrature_pair(x, precision_bits: int):
    """(Ai(x), Ai'(x)) by one trapezoid sweep of the contour form and its
    x-derivative (module docstring), for x > 0."""
    import mpmath
    from mpmath import mp, mpf

    _require_positive(x)
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    with mp.workprec(precision_bits + 32):
        x = mpf(x)
        # Beyond T both e^{-t^2/2} and t^2 e^{-t^2/2} are below
        # 2^{-(precision_bits+16)} (module docstring), which bounds the tails.
        tol_log = (precision_bits + 16) * math.log(2)
        T = math.sqrt(2 * tol_log) + 2
        c = x ** mpf("-0.75") / (6 * mpmath.sqrt(2))
        sx = mpmath.sqrt(x)
        q = 1 / (4 * x)

        def integrands(t):
            t2 = t * t
            f = mpmath.exp(-t2 / 2) * mpmath.cos(c * t2 * t)
            return f, -(sx + q * t2) * f

        # Even integrands: sum over [0, T], then multiply by 2P.
        half, half_prime = _trapezoid(integrands, T, precision_bits)
        pref = (mpmath.exp(-mpf(2) / 3 * x ** mpf("1.5")) / mpmath.sqrt(2)
                * x ** mpf("-0.25"))
        ai, aip = pref * half, pref * half_prime
    with mp.workprec(precision_bits):
        return +ai, +aip


def airy_quadrature(x, precision_bits: int = 128):
    """Ai(x) by the quadrature oracle."""
    return _quadrature_pair(x, precision_bits)[0]


def airy_prime_quadrature(x, precision_bits: int = 128):
    """Ai'(x) by the quadrature oracle."""
    return _quadrature_pair(x, precision_bits)[1]


def _gamma_two_thirds():
    """Gamma(2/3) at the working precision, from one AGM.

    Gamma(1/3)^3 = 2^{7/3} pi K(sin 15 deg) / 3^{1/4} (Borwein and Zucker,
    IMA J. Numer. Anal. 12 (1992) 519-526), with K(k) = pi / (2 agm(1, k'))
    and k' = cos 15 deg = (sqrt 6 + sqrt 2) / 4, and the reflection formula
    gives Gamma(2/3) = 2 pi / (sqrt 3 Gamma(1/3)).  mpmath.gamma costs
    more, as it builds a Taylor table in every process.
    """
    import mpmath
    from mpmath import mpf

    k = (mpmath.sqrt(6) + mpmath.sqrt(2)) / 4
    cube = 2 ** (mpf(4) / 3) * mpmath.pi ** 2 / (mpf(3) ** (mpf(1) / 4) * mpmath.agm(1, k))
    return 2 * mpmath.pi / mpmath.sqrt(3) / mpmath.cbrt(cube)


def _ode_pair(x, precision_bits: int):
    """(Ai(x), Ai'(x)) by Taylor continuation of y'' = x y from 0.

    The partial sums reach magnitude ~ e^{(2/3)x^{3/2}} before collapsing to
    the e^{-(2/3)x^{3/2}} answer, so the working precision is padded by the
    corresponding number of bits.
    """
    import mpmath
    from mpmath import mp, mpf

    _require_positive(x)
    cancel_bits = int(mpf(4) / 3 * mpf(x) ** mpf("1.5") / math.log(2)) + 32
    with mp.workprec(precision_bits + cancel_bits + 32):
        x = mpf(x)
        # pi times the standard initial values.
        # c1 = -pi / (3^{1/3} Gamma(1/3)), and the reflection formula
        # Gamma(1/3) Gamma(2/3) = 2 pi / sqrt 3 leaves one Gamma value.
        g = _gamma_two_thirds()
        c0 = mpmath.pi / (mpf(3) ** (mpf(2) / 3) * g)
        c1 = -mpf(3) ** (mpf(1) / 6) * g / 2
        # y = sum c_n x^n with c_{n+3} = c_n / ((n+3)(n+2)); c_2 = 0.
        y = mpmath.mpf(0)
        yp = mpmath.mpf(0)
        terms = [c0, c1, mpf(0)]
        n = 0
        xe = mpf(1)  # x^n
        tiny = mpmath.mpf(2) ** (-(precision_bits + cancel_bits))
        while True:
            c = terms[n % 3]
            y += c * xe
            if n >= 1:
                yp += n * c * xe / x
            terms[n % 3] = c / ((n + 3) * (n + 2))
            xe *= x
            # Every third coefficient is zero, so test all three pending
            # coefficient streams, not just the current term.
            if n > 3 * x and max(abs(t) for t in terms) * xe < tiny:
                break
            n += 1
        ai, aip = +y, +yp
    with mp.workprec(precision_bits):
        return +ai, +aip


def airy_ode(x, precision_bits: int = 128):
    """Ai(x) by the ODE/Taylor oracle."""
    return _ode_pair(x, precision_bits)[0]


def airy_prime_ode(x, precision_bits: int = 128):
    """Ai'(x) by the ODE/Taylor oracle."""
    return _ode_pair(x, precision_bits)[1]


class OracleDisagreement(ArithmeticError):
    """The quadrature and ODE oracles disagree at x beyond the tolerance."""

    def __init__(self, x, quadrature, ode):
        super().__init__(f"oracle disagreement at x={x}: {quadrature} vs {ode}")
        self.quadrature = quadrature
        self.ode = ode


def airy_numeric(x, precision_bits: int = 128, prime: bool = False):
    """Ai(x) (Ai'(x) if ``prime``), cross-checked between the quadrature
    and ODE oracles.

    Raises OracleDisagreement (an ArithmeticError) if the two methods
    disagree beyond the certified tolerance 2^{-(precision_bits/2)}
    relative.
    """
    from mpmath import mpf

    if prime:
        quadrature, ode = airy_prime_quadrature, airy_prime_ode
    else:
        quadrature, ode = airy_quadrature, airy_ode
    q, o = quadrature(x, precision_bits), ode(x, precision_bits)
    if abs(q - o) > mpf(2) ** (-(precision_bits // 2)) * abs(o):
        raise OracleDisagreement(x, q, o)
    return o


def _asymptotic(x, k, prime, precision_bits):
    """The truncated asymptotic of Ai(x) (of Ai'(x) if ``prime``) and the
    magnitude of its first omitted term, as mpf values.

    The truncation is (sqrt(pi)/2) x^{-1/4} e^{-(2/3)x^{3/2}} * S, with
    x^{1/4} for x^{-1/4} if ``prime``, where S sums A(-w) (B(-w) if
    ``prime``) through w^k at w = 1/(2 x^{3/2}); these are calA and -calB
    at 2^{-1/3} x^{-1/2}.
    """
    import mpmath
    from mpmath import mp, mpf

    _require_positive(x)
    series = series_B if prime else series_A
    *kept, omitted = series(k + 1).scale_argument(-1).coeffs
    with mp.workprec(precision_bits):
        x = mpf(x)
        w = 1 / (2 * x ** mpf("1.5"))
        total = mpmath.mpf(0)
        p = mpf(1)
        for c in kept:
            total += mpf(c.numerator) / c.denominator * p
            p *= w
        omitted = mpf(omitted.numerator) / omitted.denominator * p
        pref = (
            mpmath.sqrt(mpmath.pi)
            / 2
            * x ** mpf("0.25" if prime else "-0.25")
            * mpmath.e ** (-mpf(2) / 3 * x ** mpf("1.5"))
        )
        return +(pref * total), abs(pref * omitted)


def asymptotic_report(x, k, prime: bool = False, precision_bits: int = 128) -> dict:
    """Compare numeric and truncated-asymptotic values at x with k terms."""
    import mpmath
    from mpmath import mp, mpf

    with mp.workprec(precision_bits):
        x = mpf(x)
        num = airy_numeric(x, precision_bits, prime)
        asym, omitted_mag = _asymptotic(x, k, prime, precision_bits)
        err = abs(num - asym)
        return {
            "x": float(x),
            "terms": k,
            "numeric": mpmath.nstr(num, 20),
            "asymptotic": mpmath.nstr(asym, 20),
            "abs_error": mpmath.nstr(err, 10),
            "rel_error": mpmath.nstr(err / abs(num), 10),
            "first_omitted_magnitude": mpmath.nstr(omitted_mag, 10),
            "envelope_ok": bool(err <= 2 * omitted_mag),
            "prime": prime,
        }
