from fractions import Fraction as Q
from math import factorial

import pytest

from tautrel import frobenius as fr
from tautrel.named_series import SpecializationError, series_A, series_B
from tautrel.series import MultiSeries, PowerSeries


def poly_eval(p, t0, t1, q):
    return sum(c * t0**i * t1**j * q**k for (i, j, k), c in p.terms.items())


def coord(terms, degree=4):
    return MultiSeries(fr.COORDS, terms, degree)


def rho_series(offset, coeffs, order=None):
    return fr.RhoSeries(offset, PowerSeries(coeffs, order))


class TestCoordPolynomial:
    """Polynomials in the coordinates (t0, t1, q = e^{t1})."""

    def test_exponential_variable(self):
        q = coord({(0, 0, 1): Q(1)})
        assert fr.t_derivative(q, 1) == q
        assert fr.t_derivative(q, 0).is_zero()

    def test_mixed_derivative(self):
        # d/dt1 (t1^2 q) = 2 t1 q + t1^2 q, and d/dt0 (t0^2 t1 q) = 2 t0 t1 q
        p = coord({(0, 2, 1): Q(1)})
        expected = coord({(0, 1, 1): Q(2), (0, 2, 1): Q(1)})
        assert fr.t_derivative(p, 1) == expected
        p = coord({(2, 1, 1): Q(1)})
        assert fr.t_derivative(p, 0) == coord({(1, 1, 1): Q(2)})


class TestStructures:
    def test_spin3_consistency(self):
        assert fr.product_consistency(*fr.spin3_structure())

    def test_spin3_third_derivative_oracle(self):
        # eta(e1*e1, e1) = d^3/dt1^3 (t1^4/72) = t1/3
        _, potential, _ = fr.spin3_structure()
        d = lambda p: fr.t_derivative(p, 1)
        assert d(d(d(potential))) == coord({(0, 1, 0): Q(1, 3)})

    def test_spin3_product_at_t1_3(self):
        # phi = t1/3 = 1 at t1 = 3, so e1*e1 = e0 there.
        _, _, c1 = fr.spin3_structure()
        assert poly_eval(c1[0][1], 0, 3, 1) == 1
        assert poly_eval(c1[1][1], 0, 3, 1) == 0

    def test_cp1_consistency(self):
        assert fr.product_consistency(*fr.cp1_structure(Q(2)))
        assert fr.product_consistency(*fr.cp1_structure(Q(7, 2)))

    def test_cp1_cubic_sign_negative_control(self):
        # Flipping the cubic coefficient to -lam^2/6 breaks the match
        # between the product table and the potential.
        lam = Q(2)
        eta, potential, c1 = fr.cp1_structure(lam)
        bad_potential = potential + coord(
            {(0, 3, 0): -lam * lam / 3}, potential.max_degree
        )
        assert not fr.product_consistency(eta, bad_potential, c1)

    def test_degenerate_eta_rejected(self):
        with pytest.raises(ValueError, match="nondegenerate"):
            fr.product_consistency(((1, 1), (1, 1)), None, None)

    def test_non_symmetric_eta_rejected(self):
        _, potential, c1 = fr.spin3_structure()
        with pytest.raises(ValueError, match="symmetric"):
            fr.product_consistency(((0, 1), (2, 0)), potential, c1)


class TestRhoSeries:
    def test_derivative(self):
        # d rho / dt1 = 1/(6 rho), and z/rho^3 -> -z/(2 rho^5)
        rho = rho_series(1, [1])
        assert rho.t1_derivative() == rho_series(-1, [Q(1, 6)])
        w = rho_series(0, [0, 1])
        assert w.t1_derivative() == rho_series(-2, [0, Q(-1, 2)])

    def test_arithmetic(self):
        s = rho_series(1, [1, 2])
        t = rho_series(-1, [3, 4])
        assert (s * t).to_json() == [{"rho^0": "3"}, {"rho^-3": "10"}]
        assert (s * Q(1, 2) + s.shift(2).shift(-2)).to_json() == (
            (s * Q(3, 2)).to_json()
        )
        assert (s - s).is_zero() and (s - s).to_json() == [{}, {}]
        assert s.z_shift().to_json() == [{}, {"rho^1": "1"}]

    def test_unequal_offsets_rejected(self):
        s = rho_series(1, [1, 2])
        with pytest.raises(ValueError):
            s + s.shift(1)
        with pytest.raises(ValueError):
            s - s.z_shift()

    def test_equality(self):
        assert rho_series(0, [1, 2]) != rho_series(1, [1, 2])
        assert rho_series(0, [1, 2]) != rho_series(0, [1, 2, 0])
        # A zero series is zero at every offset.
        assert rho_series(0, [0, 0]) == rho_series(3, [0, 0])


def a_coeff(j):
    return Q(factorial(6 * j), factorial(3 * j) * factorial(2 * j) * 288**j)


class TestSolveR:
    def test_first_order_hand_values(self):
        # From the commutator at order z: beta_1 = gamma_1 = 1/(24 rho^3)
        # and integration gives a_1 = -d_1 = 1/(144 rho^3); converting to
        # the flat basis yields the values below.
        R = fr.solve_R(1)
        assert R[0][0][1] == 0
        assert R[1][1][1] == 0
        assert R[0][1].to_json()[1] == {"rho^-2": "-7/144"}
        assert R[1][0].to_json()[1] == {"rho^-4": "5/144"}

    def test_second_order_diagonal_factorial_oracle(self):
        # Diagonal z^2 coefficients are -B_2/36 and A_2/36 with
        # A_2 = 12!/(6!4!288^2) = 385/1152 and B_2 = A_2 * 13/11.
        R = fr.solve_R(2)
        A2 = a_coeff(2)
        assert A2 == Q(385, 1152)
        assert R[1][1].to_json()[2] == {"rho^-6": str(A2 / 36)}
        assert R[0][0].to_json()[2] == {
            "rho^-6": str(-A2 * Q(13, 11) / 36)
        }

    def test_matches_hypergeometric_form_z6(self):
        R = fr.solve_R(6)
        assert R == fr.hypergeometric_r_matrix(6)

    def test_symplectic_condition(self):
        # R(z) eta R(-z)^T eta = Id; with eta the antidiagonal metric the
        # adjoint entry (i, j) is R(-z)[1-j][1-i].  This pins the sign of
        # the (0,1) entry: flipping it breaks the identity at z^2.
        order = 6
        R = fr.solve_R(order)

        def at_minus_z(s):
            return fr.RhoSeries(s.offset, s.series.scale_argument(-1))

        for i in (0, 1):
            for j in (0, 1):
                acc = R[i][0] * at_minus_z(R[1 - j][1])
                acc = acc + R[i][1] * at_minus_z(R[1 - j][0])
                expect = rho_series(i - j, [1 if i == j else 0], order)
                assert acc == expect, (i, j)

    def test_canonical_recursion_solves_flatness(self):
        # The rational recursion against the equations it solves, with
        # X = sum_k X_k z^k rho^{-3k} for each component X:
        # 2 rho beta = z (d / (12 rho^2) - beta'),
        # 2 rho gamma = z (a / (12 rho^2) + gamma'),
        # a' = -gamma / (12 rho^2) and d' = beta / (12 rho^2).
        order = 12
        a, beta, gamma, d = (
            rho_series(0, c) for c in fr._canonical_components(order)
        )
        twelfth = Q(1, 12)
        assert beta.shift(1) * 2 == (
            d.shift(-2) * twelfth - beta.t1_derivative()
        ).z_shift()
        assert gamma.shift(1) * 2 == (
            a.shift(-2) * twelfth + gamma.t1_derivative()
        ).z_shift()
        assert a.t1_derivative() == gamma.shift(-2) * -twelfth
        assert d.t1_derivative() == beta.shift(-2) * twelfth
        assert not a.t1_derivative().is_zero()

    def test_homogeneity(self):
        # Every z^k coefficient is concentrated in a single rho-weight
        # -3k shifted by +1 / -1 on the off-diagonal.
        R = fr.solve_R(5)
        shifts = {(0, 0): 0, (0, 1): 1, (1, 0): -1, (1, 1): 0}
        for (i, j), s in shifts.items():
            for k in range(6):
                for m in R[i][j].to_json()[k]:
                    assert m == "rho^%d" % (-3 * k + s)

    def test_rejects_other_models_and_bad_order(self):
        with pytest.raises(ValueError):
            fr.solve_R(0)

    def test_constant_term_is_the_identity(self):
        for R in (fr.solve_R(3), fr.hypergeometric_r_matrix(3)):
            for i in (0, 1):
                for j in (0, 1):
                    assert R[i][j].to_json()[0] == ({"rho^0": "1"} if i == j else {})

    def test_json(self):
        data = fr.r_matrix_json(fr.solve_R(1))
        assert data["order"] == 1
        assert data["entries"]["01"][1] == {"rho^-2": "-7/144"}


class TestClosedFormConsistency:
    def test_b_ode_identity(self):
        # The flatness equation z dS^0/dt1 = phi S^1 applied to the
        # closed-form columns reduces to 3y^2 B' - (1 + y/2) B = A.
        order = 20
        A, B = series_A(order), series_B(order + 1)
        y = PowerSeries([0, 1], order)
        lhs = (
            y * y * B.truncate(order).derivative() * 3
            - B.truncate(order)
            - y * B.truncate(order) * Q(1, 2)
        )
        assert lhs == A


class TestAiryFlatness:
    @pytest.mark.parametrize("order", [4, 8])
    @pytest.mark.parametrize("branch", [1, -1])
    def test_residuals_vanish(self, order, branch):
        res = fr.airy_flatness_check(order, branch=branch)
        assert set(res) == {"t0_0", "t0_1", "t1_1", "t1_0", "second_order"}
        for name, series in res.items():
            assert series.is_zero(), name

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fr.airy_flatness_check(4, branch=2)
        with pytest.raises(ValueError):
            fr.airy_flatness_check(1)


class TestCp1Phi:
    def test_residual_zero_examples(self):
        for lam, z in [(Q(3), Q(1, 7)), (Q(-5, 7), Q(2, 3)), (Q(1, 4), Q(9))]:
            assert fr.cp1_phi_ode_residual(15, lam, z).is_zero()

    def test_residual_against_direct_product(self):
        # Recompute the q^d coefficients of Phi by the bare product
        # formula and form the ODE combination independently.
        lam, z, order = Q(3, 2), Q(2, 5), 10
        c = [Q(1)]
        for i in range(1, order + 1):
            c.append(c[-1] / ((i * z - lam) * i * z))
        for d in range(1, order + 1):
            assert c[d] * (z * d) * (z * d - lam) - c[d - 1] == 0

    def test_specialization_error_propagates(self):
        with pytest.raises(SpecializationError):
            fr.cp1_phi_ode_residual(5, Q(2), Q(1))  # i=2 pole

    def test_check_report(self):
        rep = fr.cp1_phi_ode_check(seed=3)
        assert rep["ok"] and rep["seed"] == 3 and len(rep["samples"]) == 5
        assert rep["order"] == 15 and rep == fr.cp1_phi_ode_check(seed=3)


class TestGammaLimit:
    def test_identity_holds(self):
        assert fr.cp1_gamma_limit_check() is True

    def test_hand_instance(self):
        # x = lam/z = 3 at lam = 3, z = 1:
        # (-z)^{-1} (1/z) Gamma(2)/Gamma(3) = -1/2 and 1/(z(z-lam)) = -1/2.
        lam, z = Q(3), Q(1)
        assert (-1 / z) * (1 / z) * Q(1, 2) == 1 / (z * (z - lam))


class TestLeadingLimit:
    def test_equals_a_series(self):
        assert fr.cp1_leading_limit(12) == series_A(12)

    def test_double_factorial_oracle(self):
        # (6j-1)!! by bare product, j = 1, 2.
        for j, want in [(1, Q(5, 24)), (2, Q(385, 1152))]:
            df = 1
            for m in range(1, 6 * j, 2):
                df *= m
            assert Q(df, 36**j * factorial(2 * j)) == want
            assert fr.cp1_leading_limit(j)[j] == want

    def test_order_zero(self):
        assert fr.cp1_leading_limit(0)[0] == 1

