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


class TestReducedOperator:
    def test_hand_values(self):
        # rho^m g(w) goes to rho^(m+1) times z(d/dt1 - 1/(12 rho^2)) - branch rho
        # of it; with d rho / dt1 = 1/(6 rho), for rho itself (m = 1, g = 1)
        # that is z (1/6 - 1/12) rho^{-1} - branch rho^2 = (w/12 - branch) rho^2.
        one = PowerSeries([1], 2)
        assert fr._reduced_operator(one, 1, 1) == PowerSeries([-1, Q(1, 12), 0])
        # w = z / rho^3 (m = 0) has d/dt1 -z/(2 rho^5) = -w/(2 rho^2), so
        # z (-w/2 - w/12) rho^{-2} - branch w rho = (-7 w^2/12 - branch w) rho.
        w = PowerSeries([0, 1], 2)
        assert fr._reduced_operator(w, 0, -1) == PowerSeries([0, 1, Q(-7, 12)])


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
        entries = fr.r_matrix_json(R)["entries"]
        assert entries["01"][1] == {"rho^-2": "-7/144"}
        assert entries["10"][1] == {"rho^-4": "5/144"}

    def test_second_order_diagonal_factorial_oracle(self):
        # Diagonal z^2 coefficients are -B_2/36 and A_2/36 with
        # A_2 = 12!/(6!4!288^2) = 385/1152 and B_2 = A_2 * 13/11.
        entries = fr.r_matrix_json(fr.solve_R(2))["entries"]
        A2 = a_coeff(2)
        assert A2 == Q(385, 1152)
        assert entries["11"][2] == {"rho^-6": str(A2 / 36)}
        assert entries["00"][2] == {
            "rho^-6": str(-A2 * Q(13, 11) / 36)
        }

    def test_matches_hypergeometric_form_z6(self):
        R = fr.solve_R(6)
        assert R == fr.hypergeometric_r_matrix(6)

    def test_symplectic_condition(self):
        # R(z) eta R(-z)^T eta = Id; with eta the antidiagonal metric the
        # adjoint entry (i, j) is R(-z)[1-j][1-i].  As R[i][j] is
        # rho^(j-i) M[i][j](w), both terms of entry (i, j) carry rho^(i-j),
        # so in w it reads M_i0(w) M_{1-j,1}(-w) + M_i1(w) M_{1-j,0}(-w)
        # = delta_ij.  This pins the sign of the (0,1) entry: flipping it
        # breaks the identity at z^2.
        order = 8
        M = fr.solve_R(order)
        for i in (0, 1):
            for j in (0, 1):
                acc = (M[i][0] * M[1 - j][1].scale_argument(-1)
                       + M[i][1] * M[1 - j][0].scale_argument(-1))
                assert acc == PowerSeries([1 if i == j else 0], order), (i, j)

    def test_canonical_recursion_solves_flatness(self):
        # The rational recursion against the equations it solves, with
        # X = sum_k X_k z^k rho^{-3k} = X(w) for each component X, which
        # is rho-offset 0, so that X' = d/dt1 X = -(theta X)(w) / (2 rho^2)
        # with theta = w d/dw:
        # 2 rho beta = z (d / (12 rho^2) - beta'),
        # 2 rho gamma = z (a / (12 rho^2) + gamma'),
        # a' = -gamma / (12 rho^2) and d' = beta / (12 rho^2).
        # At offset 1 the first two read 2 beta = w (d / 12 + theta beta / 2)
        # and 2 gamma = w (a / 12 - theta gamma / 2); at offset -2 the last
        # two read theta a = gamma / 6 and theta d = -beta / 6.
        order = 12
        a, beta, gamma, d = (
            PowerSeries(c) for c in fr._canonical_components(order)
        )
        theta = fr._theta

        def times_w(f):
            return f.times_monomial("x").truncate(order)

        assert beta * 2 == times_w(d * Q(1, 12) + theta(beta) * Q(1, 2))
        assert gamma * 2 == times_w(a * Q(1, 12) - theta(gamma) * Q(1, 2))
        assert theta(a) == gamma * Q(1, 6)
        assert theta(d) == beta * Q(-1, 6)
        assert not theta(a).is_zero()

    def test_homogeneity(self):
        # Every z^k coefficient is concentrated in a single rho-weight
        # -3k shifted by +1 / -1 on the off-diagonal.
        entries = fr.r_matrix_json(fr.solve_R(5))["entries"]
        shifts = {(0, 0): 0, (0, 1): 1, (1, 0): -1, (1, 1): 0}
        for (i, j), s in shifts.items():
            for k in range(6):
                for m in entries["%d%d" % (i, j)][k]:
                    assert m == "rho^%d" % (-3 * k + s)

    def test_rejects_other_models_and_bad_order(self):
        with pytest.raises(ValueError):
            fr.solve_R(0)

    def test_constant_term_is_the_identity(self):
        for R in (fr.solve_R(3), fr.hypergeometric_r_matrix(3)):
            entries = fr.r_matrix_json(R)["entries"]
            for i in (0, 1):
                for j in (0, 1):
                    want = {"rho^0": "1"} if i == j else {}
                    assert entries["%d%d" % (i, j)][0] == want

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
        for name, (_, series) in res.items():
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

