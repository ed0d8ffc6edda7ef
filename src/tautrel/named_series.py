r"""The named hypergeometric series and their companions.

Everything here is a :class:`~tautrel.series.PowerSeries` with exact rational
coefficients:

- ``series_A``, ``series_B`` -- the basic hypergeometric pair in z, with
  coefficients a_i = (6i)!/((3i)!(2i)! 288^i) and a_i (6i+1)/(6i-1).  They
  are the only source of these coefficients; every variant below is an
  argument change of one of them:

  - ``series_calA``, ``series_calB`` -- A(-x^3) and -B(-x^3) in x
    (``scale_argument(-1)``, then ``shift_exponents(3)``);
  - ``series_H0``, ``series_H1`` -- A(-288 T) and -B(-288 T) in T;
  - ``series_D`` -- the correction series, whose coefficients d_n are closed
    sums over the a_i, cubed the same way, and the first-order ODE it
    satisfies (``series_D_ode``, driven by calA(-x)).

  The rows of the Faber-Zagier series (``fz``) are A(288 t) and B(288 t),
  and the Airy asymptotics (``airy``) sum A(-w) and B(-w).
- ``series_Phi`` -- the q-hypergeometric series at a rational (lambda, z)
  specialization.
- ``bernoulli`` -- the Bernoulli numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .series import PowerSeries, Q


def double_factorial(n: int) -> int:
    """(2k-1)!! style double factorial; (-1)!! = 1 by convention."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def _a_coeffs(order: int) -> tuple:
    """(a_0, ..., a_order) with a_i = (6i)!/((3i)!(2i)! 288^i), each from
    a_{i-1} by the ratio (6i-1)(6i-3)(6i-5)/(72 i (2i-1)).

    >>> _a_coeffs(2)
    (Fraction(1, 1), Fraction(5, 24), Fraction(385, 1152))
    """
    out = [Q(1)]
    for i in range(1, order + 1):
        out.append(
            out[-1] * Q((6 * i - 1) * (6 * i - 3) * (6 * i - 5), 72 * i * (2 * i - 1))
        )
    return tuple(out)


def series_A(order: int) -> PowerSeries:
    """A(z) = sum_i (6i)!/((3i)!(2i)!) (z/288)^i.

    >>> series_A(2).coeffs
    (Fraction(1, 1), Fraction(5, 24), Fraction(385, 1152))
    """
    return PowerSeries(list(_a_coeffs(order)), order)


def series_B(order: int) -> PowerSeries:
    """B(z): A's coefficients twisted by (6i+1)/(6i-1).

    >>> series_B(1).coeffs
    (Fraction(-1, 1), Fraction(7, 24))
    """
    return PowerSeries(
        [a * Q(6 * i + 1, 6 * i - 1) for i, a in enumerate(_a_coeffs(order))], order
    )


def _cube(s: PowerSeries, order: int) -> PowerSeries:
    """s(x^3) in the variable x through x^order."""
    return PowerSeries(s.shift_exponents(3).coeffs, order)


def series_calA(order: int) -> PowerSeries:
    """calA(x) = A(-x^3) = 1 - (5/24)x^3 + (385/1152)x^6 - ..."""
    return _cube(series_A(order // 3).scale_argument(-1), order)


def series_calB(order: int) -> PowerSeries:
    """calB(x) = -B(-x^3); starts 1 + (7/24)x^3 + ..."""
    return _cube(-series_B(order // 3).scale_argument(-1), order)


def series_H0(order: int) -> PowerSeries:
    """H0(T) = A(-288 T) = 1 - 60T + 27720T^2 - ..."""
    return series_A(order).scale_argument(-288)


def series_H1(order: int) -> PowerSeries:
    """H1(T) = -B(-288 T) = 1 + 84T - 32760T^2 + ..."""
    return -series_B(order).scale_argument(-288)


def d_coeff(n: int) -> Fraction:
    """d_n = sum_{i=0}^n 3^i |a_{n-i}| prod_{k=1}^i (n + 1/2 - k).

    >>> d_coeff(1)
    Fraction(41, 24)
    """
    a = _a_coeffs(n)
    total = Q(0)
    for i in range(n + 1):
        prod = Q(1)
        for k in range(1, i + 1):
            prod *= n + Q(1, 2) - k
        total += 3**i * a[n - i] * prod
    return total


def series_D(order: int) -> PowerSeries:
    """D(x) = 1 + sum_{i>=1} d_i x^{3i}."""
    return _cube(PowerSeries([d_coeff(n) for n in range(order // 3 + 1)]), order)


def series_D_ode(order: int) -> PowerSeries:
    """The series solution of (-x^4 d/dx - (3/2)x^3 + 1) D = calA(-x).

    Solved coefficient-by-coefficient: the x^m equation reads
    c_m = rhs_m + (m - 3 + 3/2) c_{m-3}, which determines each c_m from the
    constant term up.
    """
    rhs = series_calA(order).scale_argument(-1)
    c = [Q(0)] * (order + 1)
    for m in range(order + 1):
        c[m] = rhs[m]
        if m >= 3:
            # -x^4 d/dx sends x^{m-3} to -(m-3) x^m; -(3/2)x^3 shifts by 3.
            c[m] += (m - 3 + Q(3, 2)) * c[m - 3]
    return PowerSeries(c, order)


class SpecializationError(ValueError):
    """A rational specialization hits a vanishing denominator."""


def series_Phi(order_in_q: int, lam: Fraction, z: Fraction) -> PowerSeries:
    """Phi(z, q) at fixed rational (lambda, z): q^d coefficient is
    prod_{i=1}^d 1/((iz - lambda) i z)."""
    lam, z = Q(lam), Q(z)
    coeffs = [Q(1)]
    acc = Q(1)
    for i in range(1, order_in_q + 1):
        den = (i * z - lam) * i * z
        if den == 0:
            raise SpecializationError(
                f"denominator (iz - lambda)iz vanishes at i={i}, lambda={lam}, z={z}"
            )
        acc /= den
        coeffs.append(acc)
    return PowerSeries(coeffs, order_in_q)


@lru_cache(maxsize=None)
def _bernoulli_list(n: int) -> tuple:
    # x/(e^x - 1) expanded via reciprocal of sum x^k/(k+1)!.
    den = PowerSeries([Q(1, factorial(k + 1)) for k in range(n + 1)], n)
    rec = den.reciprocal()
    return tuple(rec.coeffs[k] * factorial(k) for k in range(n + 1))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n from x/(e^x - 1); B_1 = -1/2.

    >>> bernoulli(2)
    Fraction(1, 6)
    """
    return _bernoulli_list(n)[n]

