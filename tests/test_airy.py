from fractions import Fraction as Q
from math import factorial

import mpmath
import pytest
from mpmath import mp, mpf

from tautrel import airy


def sig_agree(a, b, digits):
    return abs(a - b) <= abs(b) * mpf(10) ** (-digits)


# Points where the oracles must agree to all but the last 8 bits.
ORACLE_X = [1, 5, 9.5, 10, 10.5, 20]


def bits_agree(a, b, bits):
    return abs(a - b) <= abs(b) * mpf(2) ** -(bits - 8)


class TestOracles:
    @pytest.mark.parametrize("x", ORACLE_X)
    def test_dual_oracles_agree(self, x):
        for bits in (128, 384):
            q = airy.airy_quadrature(x, bits)
            assert bits_agree(q, airy.airy_ode(x, bits), bits), bits

    def test_prime_oracles_agree(self):
        for x in ORACLE_X:
            for bits in (128, 384):
                q = airy.airy_prime_quadrature(x, bits)
                o = airy.airy_prime_ode(x, bits)
                assert bits_agree(q, o, bits), (x, bits)

    @pytest.mark.parametrize("x", ORACLE_X)
    def test_quadrature_matches_mpmath_airyai(self, x):
        for bits in (128, 384):
            with mpmath.mp.workprec(bits):
                for derivative, quadrature in (
                    (0, airy.airy_quadrature), (1, airy.airy_prime_quadrature)
                ):
                    ref = mpmath.pi * mpmath.airyai(x, derivative)
                    assert bits_agree(quadrature(x, bits), ref, bits), (
                        derivative, bits)

    def test_small_x(self):
        # cos(x^{-3/4} t^3 / (6 sqrt 2)) oscillates fast here; the step
        # halving must resolve it.
        q = airy.airy_quadrature(mpf("0.001"), 64)
        assert bits_agree(q, airy.airy_ode(mpf("0.001"), 64), 64)
        with mpmath.mp.workprec(64):
            ref = mpmath.pi * mpmath.airyai(mpf("0.001"))
        assert bits_agree(q, ref, 64)

    def test_small_x_prime(self):
        # At 0.001 and 128 bits the sweep must converge for Ai' within the
        # evaluation budget, as it does for Ai.
        for x, bits in (("0.01", 64), ("0.001", 128)):
            q = airy.airy_prime_quadrature(mpf(x), bits)
            assert bits_agree(q, airy.airy_prime_ode(mpf(x), bits), bits), x

    def test_evaluation_budget(self, monkeypatch):
        monkeypatch.setattr(airy, "MAX_EVALUATIONS", 50)
        for quadrature in (airy.airy_quadrature, airy.airy_prime_quadrature):
            with pytest.raises(airy.QuadratureBudgetExceeded) as exc:
                quadrature(1, 128)
            assert isinstance(exc.value, ArithmeticError)
            assert 0 < exc.value.evaluations <= 50

    def test_gamma_two_thirds(self):
        with mp.workprec(600):
            want = mpmath.gamma(mpf(2) / 3)
            assert abs(airy._gamma_two_thirds() - want) <= mpf(2) ** -595 * want

    def test_known_magnitudes(self):
        # These are pi times the standard Airy values.
        v10 = airy.airy_numeric(10)
        assert sig_agree(v10, mpf("1.1047532552898685e-10") * mpmath.pi, 8)
        v1 = airy.airy_numeric(1)
        assert sig_agree(v1, mpf("0.13529241631288141") * mpmath.pi, 8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            airy.airy_numeric(-1)
        with pytest.raises(ValueError):
            airy.airy_numeric(0)

    def test_ode_satisfied_numerically(self):
        # y'' = x y via central differences of the ODE oracle.
        h = mpf(1) / 1024
        for x in [2, 5, 9]:
            x = mpf(x)
            y = airy.airy_ode(x, 192)
            ypp = (airy.airy_ode(x + h, 192) - 2 * y + airy.airy_ode(x - h, 192)) / h**2
            assert abs(ypp - x * y) < abs(x * y) * mpf(10) ** -4


class TestAsymptotics:
    def test_k0_closed_form(self):
        with mpmath.mp.workprec(160):
            x = mpf(7)
            expected = (
                mpmath.sqrt(mpmath.pi)
                / 2
                * x ** mpf("-0.25")
                * mpmath.e ** (-mpf(2) / 3 * x ** mpf("1.5"))
            )
            assert sig_agree(airy._asymptotic(x, 0, False, 128)[0], expected, 25)

    def test_k1_correction_factor(self):
        x = mpf(10)
        ratio = (airy._asymptotic(x, 1, False, 128)[0]
                 / airy._asymptotic(x, 0, False, 128)[0])
        expected = 1 - mpf(5) / 48 / mpmath.sqrt(mpf(1000))
        assert sig_agree(ratio, expected, 25)

    @pytest.mark.parametrize("x", [5, 10, 20])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_envelope(self, x, k):
        rep = airy.asymptotic_report(x, k)
        assert rep["envelope_ok"], rep

    @pytest.mark.parametrize("x", [5, 10, 20])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_envelope_prime(self, x, k):
        rep = airy.asymptotic_report(x, k, prime=True)
        assert rep["envelope_ok"], rep

    def test_report_fields(self):
        data = airy.asymptotic_report(10, 3)
        assert data["terms"] == 3 and data["x"] == 10.0
        assert float(data["rel_error"]) >= 0


def closed_a(j):
    """Coefficient of w^j in A(-w) from factorials."""
    return (-1) ** j * Q(factorial(6 * j), factorial(3 * j) * factorial(2 * j) * 288**j)


def ref_asym_sum(coeff, x, k, precision_bits):
    """sum_{j<=k} coeff(j) w^j at w = 1/(2 x^{3/2}), and the first omitted
    term, summed term by term."""
    with mp.workprec(precision_bits):
        x = mpf(x)
        w = 1 / (2 * x ** mpf("1.5"))
        total = mpmath.mpf(0)
        p = mpf(1)
        for j in range(k + 1):
            total += mpf(coeff(j).numerator) / coeff(j).denominator * p
            p *= w
        omitted = mpf(coeff(k + 1).numerator) / coeff(k + 1).denominator * p
        return +total, +omitted


def ref_asymptotic(x, k, prime, precision_bits):
    """The truncated asymptotic and its first omitted magnitude, with the
    prefactor built apart from the sum, as the report once did."""
    def coeff(j):
        return closed_a(j) * Q(6 * j + 1, 6 * j - 1) if prime else closed_a(j)

    with mp.workprec(precision_bits):
        x = mpf(x)
        s, omitted = ref_asym_sum(coeff, x, k, precision_bits)
        pref = mpmath.sqrt(mpmath.pi) / 2 * x ** mpf("0.25" if prime else "-0.25")
        exp = mpmath.e ** (-mpf(2) / 3 * x ** mpf("1.5"))
        return +(pref * exp * s), abs(pref * exp * omitted)


class TestOneAsymptoticRoutine:
    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("x,k,bits", [
        (10, 5, 128), (mpf("9.5"), 5, 384), (mpf("0.5"), 0, 128), (3, 3, 64),
        (25, 7, 192), (mpf("10.5"), 1, 384),
    ])
    def test_equals_term_by_term_sum(self, x, k, bits, prime):
        want = ref_asymptotic(x, k, prime, bits)
        assert airy._asymptotic(x, k, prime, bits) == want
