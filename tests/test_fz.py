import json
from fractions import Fraction as Q
from math import factorial

import pytest

from tautrel import cli, fz, pixton, strata
from tautrel.named_series import series_A, series_B
from tautrel.series import Grading, MultiSeries, PowerSeries

from test_pixton import ref_kappa_of_f


def row1(i):
    return Q(factorial(6 * i), factorial(3 * i) * factorial(2 * i))


def row2(i):
    return row1(i) * Q(6 * i + 1, 6 * i - 1)


def p_indices(p_weight_max):
    return [j for j in range(1, p_weight_max + 1) if j % 3 != 2]


def ref_build_psi(t_order, p_weight_max):
    """The two-row series Psi as a multivariate series in t and the p_j.

    Monomials are kept when the t-degree is at most ``t_order`` and the
    p-weight (weight of p_j is j) is at most ``p_weight_max``.
    """
    parts = p_indices(p_weight_max)
    g = Grading(["t"] + ["p%d" % j for j in parts], [1] + parts)
    A = series_A(t_order).scale_argument(288).coeffs
    B = series_B(t_order).scale_argument(288).coeffs
    # The constant 1 multiplies A(288 t); p_j multiplies t^{j//3} A(288 t)
    # when 3 divides j, and t^{j//3} B(288 t) when j = 1 (mod 3).
    terms = {}
    for col, j in enumerate([0] + parts):
        for i, c in enumerate((B if j % 3 == 1 else A)[: t_order - j // 3 + 1]):
            e = [0] * len(g)
            e[0] = i + j // 3
            if j:
                e[col] = 1
            terms[tuple(e)] = c
    return MultiSeries(g, terms, t_order + p_weight_max)


def ref_psi_terms(t_order, p_weight_max):
    """The terms of Psi written out from the factorial row coefficients:
    t^i row1(i), t^{i+k} p_{3k} row1(i) and t^{i+k-1} p_{3k-2} row2(i)."""
    column = {j: 1 + n for n, j in enumerate(p_indices(p_weight_max))}
    terms = {}

    def add(t_pow, j, coeff):
        e = [0] * (1 + len(column))
        e[0] = t_pow
        if j:
            e[column[j]] = 1
        terms[tuple(e)] = coeff

    for i in range(t_order + 1):
        add(i, None, row1(i))
        for k in range(1, t_order - i + 1):
            if 3 * k <= p_weight_max:
                add(i + k, 3 * k, row1(i))
        for k in range(1, t_order - i + 2):
            if 3 * k - 2 <= p_weight_max:
                add(i + k - 1, 3 * k - 2, row2(i))
    return terms


class TestBuildPsi:
    def test_constant_term(self):
        psi = ref_build_psi(3, 4)
        assert psi.coefficient((0,) * len(psi.grading)) == 1

    def test_first_row_coefficients(self):
        psi = ref_build_psi(3, 0)
        g = psi.grading
        for i in range(4):
            e = [0] * len(g)
            e[0] = i
            assert psi.coefficient(tuple(e)) == row1(i)
        assert psi.coefficient((1,) + (0,) * (len(g) - 1)) == 60

    def test_second_row_coefficients(self):
        # coefficient of t^i p_1 is row1(i) * (6i+1)/(6i-1)
        psi = ref_build_psi(2, 1)
        g = psi.grading
        j = g.index["p1"]
        for i in range(3):
            e = [0] * len(g)
            e[0], e[j] = i, 1
            assert psi.coefficient(tuple(e)) == row1(i) * Q(6 * i + 1, 6 * i - 1)

    def test_p_row_shift(self):
        # p_{3k} multiplies the first row shifted by t^k, while p_{3k-2}
        # multiplies the second row shifted by t^{k-1}.
        psi = ref_build_psi(2, 4)
        g = psi.grading
        e = [0] * len(g)
        e[0], e[g.index["p3"]] = 2, 1
        assert psi.coefficient(tuple(e)) == row1(1)
        e = [0] * len(g)
        e[0], e[g.index["p4"]] = 1, 1
        assert psi.coefficient(tuple(e)) == -1
        e[0] = 2
        assert psi.coefficient(tuple(e)) == row1(1) * Q(7, 5)

    @pytest.mark.parametrize("t_order,p_weight_max",
                             [(0, 0), (1, 1), (2, 4), (5, 7), (200, 0), (200, 7)])
    def test_rows_equal_factorial_closed_forms(self, t_order, p_weight_max):
        psi = ref_build_psi(t_order, p_weight_max)
        assert psi.terms == ref_psi_terms(t_order, p_weight_max)

    def test_log_round_trip(self):
        psi = ref_build_psi(3, 4)
        assert psi.log().exp() == psi


def ref_fz_constants(r, sigma):
    """Coefficient C_r(sigma) of t^r p^sigma in log Psi, read off the log
    of ref_build_psi at its own truncation (r, |sigma|)."""
    lp = ref_build_psi(r, sum(sigma)).log()
    e = [0] * len(lp.grading)
    e[0] = r
    for part in sigma:
        e[lp.grading.index["p%d" % part]] += 1
    return lp.coefficient(tuple(e))


class TestConstants:
    def test_empty_partition(self):
        assert ref_fz_constants(0, ()) == 0
        assert ref_fz_constants(1, ()) == 60
        # t^2: 27720 - 60^2/2
        assert ref_fz_constants(2, ()) == 27720 - 1800

    def test_p1_column(self):
        assert ref_fz_constants(0, (1,)) == -1
        # log(Psi0 + p1 Psi1) = log Psi0 + p1 Psi1/Psi0 + O(p1^2); the
        # t-coefficient of Psi1/Psi0 is 84 - 60*(-1) = 144 and the
        # t^2-coefficient is 32760 - 84*60 - (-1)*(3600 - 27720) = 51840.
        assert ref_fz_constants(1, (1,)) == 144
        assert ref_fz_constants(2, (1,)) == 51840

    def test_bad_partition(self):
        for sigma in ((2,), (5,), (0,)):
            with pytest.raises(ValueError, match="not 2 mod 3"):
                fz.fz_relation(3, 1, sigma)


class TestRelation:
    def test_inequality_boundary(self):
        with pytest.raises(fz.NotARelationError, match="3r"):
            fz.fz_relation(4, 1, ())
        with pytest.raises(fz.NotARelationError, match="3r"):
            fz.fz_relation(5, 2, (1, 1))

    def test_parity_violation(self):
        with pytest.raises(fz.NotARelationError, match="mod 2"):
            fz.fz_relation(2, 2, ())

    def test_codimension2_relation(self):
        # exp(-gamma) at t^2: gamma^2/2 - gamma = (60^2/2) k1^2 - C2 k2.
        rel = fz.fz_relation(3, 2, ())
        assert rel == {(2,): Q(1800), (0, 1): Q(-25920)}

    def test_p1_relation_genus1(self):
        # At g=1 the kappa_0 scalar 2g-2 vanishes, leaving -C1(p1) k1.
        rel = fz.fz_relation(1, 1, (1,))
        assert rel == {(1,): Q(-144)}

    def test_p1_relation_genus2_hand_expansion(self):
        # [exp(-gamma)]_{t^2 p1} with kappa_0 = 2:
        #   -gamma:       -C2(p1) k2                    = -51840 k2
        #   +gamma^2/2:   60*144 k1^2 + C2 * C0(p1)*2 k2 = 8640 k1^2 - 51840 k2
        #   -gamma^3/6:   -3*60^2*(-2)/6 k1^2            = +3600 k1^2
        rel = fz.fz_relation(2, 2, (1,))
        assert rel == {(2,): Q(12240), (0, 1): Q(-103680)}

    @pytest.mark.parametrize(
        "g,r,sigma", [(3, 2, ()), (1, 1, (1,)), (4, 3, (1, 3)), (3, 3, (1, 1, 1))]
    )
    def test_graded_degree_is_r(self, g, r, sigma):
        rel = fz.fz_relation(g, r, sigma)
        assert {strata.kappa_degree(e) for e in rel} == {r}

    def test_g_independence_for_empty_sigma(self):
        # For sigma = (), gamma has no kappa_0 term, so the polynomial
        # depends on g only through validity.
        assert fz.fz_relation(3, 2, ()) == fz.fz_relation(5, 2, ())
        assert fz.fz_relation(2, 3, ()) == fz.fz_relation(4, 3, ())


def sub_multisets(sigma):
    """All sub-multisets of a sorted partition tuple, each sorted."""
    out = [()]
    for j in sorted(set(sigma)):
        out = [base + (j,) * k for base in out for k in range(sigma.count(j) + 1)]
    return out


def ref_fz_relation(g, r, sigma):
    """[exp(-gamma)]_{t^r p^sigma} with gamma assembled term by term: one
    ref_fz_constants(r', sigma') per r' <= r and sub-multiset sigma' of sigma,
    each read off the log Psi of its own truncation (r', |sigma'|)."""
    kappa_names = ["k%d" % a for a in range(1, r + 1)]
    p_parts = sorted(set(sigma))
    grading = Grading(kappa_names + ["p%d" % j for j in p_parts],
                      list(range(1, r + 1)) + p_parts)
    cap = r + sum(sigma)
    gamma_terms = {}
    for rp in range(r + 1):
        for sub in sub_multisets(sigma):
            if rp == 0 and not sub:
                continue
            c = ref_fz_constants(rp, sub)
            if rp == 0:
                c *= 2 * g - 2
            if c == 0:
                continue
            e = [0] * len(grading)
            if rp > 0:
                e[grading.index["k%d" % rp]] = 1
            for part in sub:
                e[grading.index["p%d" % part]] += 1
            gamma_terms[tuple(e)] = c
    gamma = MultiSeries(grading, gamma_terms, cap)
    m, top = (gamma * Q(-1)).exp()._buckets.get(cap, (1, {}))
    target_p = tuple(sigma.count(j) for j in p_parts)
    return {
        strata.kappa_monomial(e[:r]): Q(c, m)
        for e, c in top.items()
        if e[r:] == target_p
    }


def partitions(weight, largest):
    """Partitions of weight into parts <= largest, none 2 mod 3."""
    if weight == 0:
        yield ()
        return
    for part in range(min(weight, largest), 0, -1):
        if part % 3 != 2:
            for rest in partitions(weight - part, part):
                yield rest + (part,)


# Every admissible (g, r, sigma) with g <= 11, r <= 7, |sigma| <= 7 and
# at most three parts.
FZ_CASES = [
    (g, r, sigma)
    for g in range(12) for r in range(8) for w in range(8)
    for sigma in partitions(w, w)
    if len(sigma) <= 3 and g - 1 + w < 3 * r and (g - r - w - 1) % 2 == 0
]


class TestOneLogPsi:
    """fz_relation reads every constant of log Psi from one log A and the
    powers of B/A; the term-by-term assembly from the multivariate log
    Psi is the independent route."""

    def test_matches_term_by_term_assembly(self):
        # Equal as maps; the reports sort the rows, and the text digests
        # pin the order they print.
        assert len(FZ_CASES) == 398
        for g, r, sigma in FZ_CASES:
            got = fz.fz_relation(g, r, sigma)
            assert got == ref_fz_relation(g, r, sigma), (g, r, sigma)

    # FZ_CASES stops at three parts.
    @pytest.mark.parametrize(
        "g,r,sigma", [(13, 8, (1, 1, 1, 3, 4)), (10, 7, (1,) * 4), (11, 7, (1,) * 5)]
    )
    def test_long_sigma_matches_term_by_term_assembly(self, g, r, sigma):
        assert fz.fz_relation(g, r, sigma) == ref_fz_relation(g, r, sigma)

    @pytest.mark.parametrize(
        "g,r,sigma", [(3, 2, ()), (7, 4, (1, 3)), (10, 6, (1, 4)), (3, 3, (1, 1, 1))]
    )
    def test_one_log_per_relation(self, g, r, sigma, monkeypatch):
        # One log A per relation, and sigma = () reads no B.
        b_reads = []
        monkeypatch.setattr(fz, "series_B",
                            lambda order: b_reads.append(order) or series_B(order))
        fz._log_a.cache_clear()
        fz._ratio_powers.cache_clear()
        fz.fz_relation(g, r, sigma)
        assert fz._log_a.cache_info().misses == 1
        assert b_reads == ([r] if sigma else [])


def in_normal_form(poly):
    """No key ends in a zero exponent and no coefficient is zero."""
    return all(not e or e[-1] for e in poly) and all(poly.values())


class TestKappaMaps:
    """Kappa polynomials are {exponent tuple: coeff} maps in one normal
    form, whichever routine builds them."""

    @pytest.mark.parametrize(
        "g,r,sigma", [(3, 2, ()), (7, 4, ()), (5, 3, (1,)), (3, 3, (1, 1, 1))]
    )
    def test_fz_relation_normal_form(self, g, r, sigma):
        rel = fz.fz_relation(g, r, sigma)
        assert rel and in_normal_form(rel)

    @pytest.mark.parametrize("t", range(1, 6))
    def test_kappa_of_f_and_vertex_factor_normal_form(self, t):
        # vertex_factor works over kappa_1..kappa_t, so kappa_1 alone
        # comes out of the exp as (1, 0, ..., 0) before it is trimmed.
        f = PowerSeries([0, 0, 1, 0, 1], 4)
        for poly in (ref_kappa_of_f(f, t), pixton.vertex_factor(t)):
            assert poly and in_normal_form(poly)

    def test_relation_json_keys(self):
        # Every exponent is written, also an exponent 1.
        code, out = cli.dispatch(["fz", "--g", "3", "--r", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["relation"] == {"k1^2": "1800", "k2^1": "-25920"}
