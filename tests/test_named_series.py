import random
from fractions import Fraction as Q
from functools import lru_cache
from math import factorial

import pytest

from tautrel import named_series as ns
from tautrel.series import PowerSeries


class TestAB:
    def test_a_coeffs_closed_form(self):
        assert ns._a_coeffs(400) == tuple(
            Q(factorial(6 * i), factorial(3 * i) * factorial(2 * i) * 288**i)
            for i in range(401)
        )

    def test_first_coefficients(self):
        A = ns.series_A(2)
        assert A[0] == 1
        assert A[1] == Q(5, 24)
        assert A[2] == Q(385, 1152)
        B = ns.series_B(1)
        assert B[0] == -1
        assert B[1] == Q(7, 24)

    def test_first_order_ode(self):
        # 3z^2 A' + (z/2 - 1) A = B
        order = 30
        A = ns.series_A(order + 1)
        B = ns.series_B(order)
        z = PowerSeries([0, 1], order)
        lhs = 3 * z * z * A.derivative().truncate(order) + (z * Q(1, 2) - PowerSeries.one(order)) * A.truncate(order)
        assert (lhs - B).is_zero()

    def test_second_order_ode(self):
        # 3z^2 A'' + (6z - 2) A' + (5/12) A = 0
        order = 30
        A = ns.series_A(order + 2)
        z = PowerSeries([0, 1], order)
        lhs = (
            3 * z * z * A.derivative().derivative().truncate(order)
            + (6 * z - 2 * PowerSeries.one(order)) * A.derivative().truncate(order)
            + Q(5, 12) * A.truncate(order)
        )
        assert lhs.is_zero()


class TestCalAB:
    def test_calA_expansion(self):
        cA = ns.series_calA(6)
        assert [cA[k] for k in range(7)] == [1, 0, 0, Q(-5, 24), 0, 0, Q(385, 1152)]

    def test_calB_expansion(self):
        cB = ns.series_calB(3)
        assert cB[0] == 1 and cB[3] == Q(7, 24)

    def test_relation_to_A(self):
        assert ns.series_calA(15) == ns.series_A(5).scale_argument(-1).shift_exponents(3)


class TestH:
    def test_H0_H1_coefficients(self):
        H0 = ns.series_H0(2)
        H1 = ns.series_H1(2)
        assert tuple(H0.coeffs) == (1, -60, 27720)
        assert tuple(H1.coeffs) == (1, 84, -32760)

    def test_reflection_identity(self):
        order = 30
        H0 = ns.series_H0(order)
        H1 = ns.series_H1(order)
        H0m = H0.scale_argument(-1)
        H1m = H1.scale_argument(-1)
        assert H0 * H1m + H0m * H1 == 2 * PowerSeries.one(order)

    def test_reciprocal_H0(self):
        rec = ns.series_H0(2).reciprocal()
        assert tuple(rec.coeffs) == (1, 60, -24120)


class TestD:
    def test_d0_d1(self):
        # d_1 = |a_1| + 3*(1/2)*|a_0| = 5/24 + 3/2; the product factor at
        # n=1, i=1, k=1 is n + 1/2 - k = 1/2.
        assert ns.d_coeff(0) == 1
        assert ns.d_coeff(1) == Q(41, 24)

    def test_closed_form_equals_ode_solution(self):
        assert ns.series_D(21) == ns.series_D_ode(21)

    def test_ode_residual(self):
        order = 21
        D = ns.series_D(order + 3)
        x = PowerSeries([0, 1], order)
        lhs = (
            -(x * x * x * x) * D.derivative().truncate(order)
            - Q(3, 2) * (x * x * x) * D.truncate(order)
            + D.truncate(order)
        )
        assert lhs == ns.series_calA(order).scale_argument(-1)


@lru_cache(maxsize=None)
def closed_a(i):
    """a_i = (6i)!/((3i)!(2i)! 288^i) from factorials."""
    return Q(factorial(6 * i), factorial(3 * i) * factorial(2 * i) * 288**i)


def closed_b(i):
    """B's coefficient a_i (6i+1)/(6i-1) from factorials."""
    return closed_a(i) * Q(6 * i + 1, 6 * i - 1)


def cubed(coeff, order):
    """sum_j coeff(j) x^{3j} through x^order."""
    return PowerSeries(
        [coeff(k // 3) if k % 3 == 0 else 0 for k in range(order + 1)], order
    )


def closed_d(n):
    """d_n = sum_i 3^i |a_{n-i}| prod_{k=1}^i (n + 1/2 - k), |a| from
    factorials."""
    total = Q(0)
    for i in range(n + 1):
        prod = Q(1)
        for k in range(1, i + 1):
            prod *= n + Q(1, 2) - k
        total += 3**i * closed_a(n - i) * prod
    return total


class TestFactorialClosedForms:
    """Every variant is an argument change of A or B; the factorial
    closed forms of their coefficients are the independent route."""

    ORDER = 200

    def assert_same(self, got, want):
        assert (got.coeffs, got.order) == (want.coeffs, want.order)

    def test_calA_calB(self):
        for order in (self.ORDER - 1, self.ORDER):
            self.assert_same(ns.series_calA(order),
                             cubed(lambda j: (-1) ** j * closed_a(j), order))
            self.assert_same(ns.series_calB(order),
                             cubed(lambda j: (-1) ** (j + 1) * closed_b(j), order))

    def test_H0_H1(self):
        n = self.ORDER
        self.assert_same(ns.series_H0(n), PowerSeries(
            [closed_a(i) * (-288) ** i for i in range(n + 1)], n))
        self.assert_same(ns.series_H1(n), PowerSeries(
            [-closed_b(i) * (-288) ** i for i in range(n + 1)], n))

    def test_D(self):
        self.assert_same(ns.series_D(self.ORDER), cubed(closed_d, self.ORDER))

    def test_a_j(self):
        # a_j, calA's coefficient of x^{3j}, read from A.
        A = ns.series_A(39)
        assert [(-1) ** j * A[j] for j in range(40)] == [
            (-1) ** j * closed_a(j) for j in range(40)]


class TestPhi:
    def test_constant_term(self):
        phi = ns.series_Phi(3, Q(2), Q(3))
        assert phi[0] == 1

    def test_q1_coefficient(self):
        lam, z = Q(2), Q(3)
        phi = ns.series_Phi(1, lam, z)
        assert phi[1] == 1 / ((z - lam) * z)

    def test_specialization_error(self):
        with pytest.raises(ns.SpecializationError):
            ns.series_Phi(2, Q(1), Q(1))

    def test_ode_random_specializations(self):
        # (z q d/dq)^2 Phi - lambda (z q d/dq) Phi = q Phi through q^15
        rng = random.Random(20150731)
        order = 15
        checked = 0
        while checked < 5:
            lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
            z = Q(rng.randint(-9, 9), rng.randint(1, 9))
            try:
                phi = ns.series_Phi(order, lam, z)
            except (ns.SpecializationError, ZeroDivisionError):
                continue
            for d in range(order):
                c = phi[d + 1]
                lhs = (z * (d + 1)) ** 2 * c - lam * z * (d + 1) * c
                assert lhs == phi[d]
            checked += 1


class TestBernoulliStirling:
    def test_first_bernoullis(self):
        assert ns.bernoulli(0) == 1
        assert ns.bernoulli(1) == Q(-1, 2)
        assert ns.bernoulli(2) == Q(1, 6)
        assert ns.bernoulli(12) == Q(-691, 2730)


def test_double_factorial():
    assert ns.double_factorial(-1) == 1
    assert ns.double_factorial(0) == 1
    assert ns.double_factorial(5) == 15
    assert ns.double_factorial(7) == 105
