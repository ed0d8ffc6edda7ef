import random
from fractions import Fraction as Q
from itertools import product
from math import factorial, gcd, lcm
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautrel import open_potential as op
from tautrel.descendents import build_Fc
from tautrel.series import (
    BiPoly,
    DivisibilityError,
    Grading,
    MultiSeries,
    PowerSeries,
    divide_exact,
    graded_exp,
    graded_log,
)


def geometric(order):
    return PowerSeries([1] * (order + 1), order)


def exp_series(order):
    from math import factorial

    return PowerSeries([Q(1, factorial(k)) for k in range(order + 1)], order)


class TestPowerSeries:
    def test_mul_difference_of_squares(self):
        one_plus = PowerSeries([1, 1], 5)
        one_minus = PowerSeries([1, -1], 5)
        assert one_plus * one_minus == PowerSeries([1, 0, -1], 5)

    def test_exp_times_exp_neg(self):
        e = exp_series(20)
        em = e.scale_argument(-1)
        assert (e * em) == PowerSeries([1], 20)

    def test_log_of_one_plus_z(self):
        f = PowerSeries([1, 1], 8)
        lg = f.log()
        assert [lg[k] for k in range(1, 9)] == [Q((-1) ** (k + 1), k) for k in range(1, 9)]

    def test_log_exp_inverse_pair(self):
        assert exp_series(15).log() == PowerSeries([0, 1], 15)

    def test_unhashable(self):
        # Equal through the smaller order, so no hash can agree with ==.
        a, b = PowerSeries([1], 0), PowerSeries([1, 5], 1)
        assert a == b
        with pytest.raises(TypeError):
            {a, b}

    def test_exp_log_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(5):
            f = PowerSeries(
                [1] + [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(30)], 30
            )
            assert f.log().exp() == f

    def test_derivative(self):
        f = PowerSeries([0, 0, 0, 1], 3)
        assert f.derivative() == PowerSeries([0, 0, 3], 2)

    def test_derivative_product_rule_random(self):
        rng = random.Random(11)
        f = PowerSeries([Q(rng.randint(-5, 5)) for _ in range(12)], 11)
        g = PowerSeries([Q(rng.randint(-5, 5)) for _ in range(12)], 11)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g.truncate(10) + f.truncate(10) * g.derivative()
        assert lhs == rhs

    def test_reciprocal(self):
        f = PowerSeries([1, -60, 27720], 2)
        assert f.reciprocal() == PowerSeries([1, 60, -24120], 2)

    def test_reciprocal_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries([0, 1], 3).reciprocal()

    def test_json_roundtrip(self):
        f = PowerSeries([Q(1), Q(-5, 24)], 4)
        data = f.to_json()
        assert data["coeffs"][1] == "-5/24"


class TestMultiSeries:
    def grading(self):
        return Grading(["t0", "t1", "t2"], [1, 3, 5])

    def test_weighted_truncation(self):
        g = self.grading()
        t2 = MultiSeries.variable(g, "t2", 4)
        assert t2.is_zero()  # weight 5 > 4

    @pytest.mark.parametrize("cls", [MultiSeries, PowerSeries, BiPoly])
    def test_constructors_on_each_class(self, cls):
        # They build a MultiSeries over the given grading, whatever
        # grading the class's own constructor fixes.
        g = self.grading()
        cases = [
            (cls.zero(g, 6), {}),
            (cls.constant(g, 2, 6), {(0, 0, 0): 2}),
            (cls.variable(g, "t1", 6), {(0, 1, 0): 1}),
        ]
        for got, terms in cases:
            assert type(got) is MultiSeries and got.grading == g
            assert got == MultiSeries(g, terms, 6) and got.max_degree == 6

    def test_product_agrees_with_untruncated(self):
        g = self.grading()
        rng = random.Random(3)
        def rand(maxdeg):
            terms = {}
            for e0 in range(4):
                for e1 in range(2):
                    if g.degree((e0, e1, 0)) <= maxdeg:
                        terms[(e0, e1, 0)] = Q(rng.randint(-4, 4))
            return terms
        big = 20
        a_t, b_t = rand(6), rand(6)
        small = MultiSeries(g, a_t, 6) * MultiSeries(g, b_t, 6)
        full = MultiSeries(g, a_t, big) * MultiSeries(g, b_t, big)
        assert small == full.truncate(6)

    def test_exp_log_roundtrip(self):
        g = self.grading()
        f = (
            MultiSeries.variable(g, "t0", 7)
            + MultiSeries.variable(g, "t1", 7) * Q(1, 3)
            + MultiSeries.variable(g, "t2", 7) * 5
        )
        assert f.exp().log() == f

    def test_derivative(self):
        g = self.grading()
        t0 = MultiSeries.variable(g, "t0", 6)
        t1 = MultiSeries.variable(g, "t1", 6)
        f = t0 * t0 * t1
        df = f.derivative("t0")
        assert df.coefficient((1, 1, 0)) == 2

    def test_equality_needs_the_same_grading(self):
        a = MultiSeries(Grading(["x", "y"], [1, 1]), {(1, 0): 1}, 3)
        assert a == MultiSeries(Grading(["x", "y"], [1, 1]), {(1, 0): 1}, 5)
        assert a != MultiSeries(Grading(["y", "x"], [1, 1]), {(1, 0): 1}, 3)
        assert a != MultiSeries(Grading(["x", "y"], [1, 2]), {(1, 0): 1}, 3)

    def test_different_gradings_do_not_combine(self):
        # Exponent tuples of two alphabets do not line up: merging them
        # would add x to y, or key x^1 as both (1, 0) and (1,).
        a = MultiSeries(Grading(["x", "y"], [1, 1]), {(1, 0): 1}, 3)
        others = [MultiSeries(self.grading(), {(0, 1, 0): 2}, 3),
                  MultiSeries(Grading(["u"], [2]), {(1,): 1}, 3),
                  PowerSeries([1, 2], 3)]
        for b in others:
            for combine in (add, sub, mul):
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(ValueError):
                        combine(x, y)
        same_grading = MultiSeries(Grading(["x", "y"], [1, 1]), {(0, 1): 2}, 3)
        assert a + same_grading == MultiSeries(a.grading, {(1, 0): 1, (0, 1): 2}, 3)

    def test_coefficient_out_of_range(self):
        g = self.grading()
        f = MultiSeries.constant(g, 1, 3)
        with pytest.raises(IndexError):
            f.coefficient((0, 0, 1))

    def test_exponents_must_match_grading(self):
        # Grading.degree zips exponents with weights, so a tuple of the
        # wrong length would otherwise be accepted and truncated silently.
        g = Grading(["x", "y"], [1, 2])
        for exps in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                MultiSeries(g, {exps: 1}, 5)
        x = MultiSeries.variable(g, "x", 5)
        for exps in ((1,), (1, 0, 7)):
            with pytest.raises(ValueError):
                x.coefficient(exps)


# Reference implementations: the pairwise product and the D-fold power
# loops that the degree-graded kernel replaced.  The arithmetic is exact,
# so the kernel must reproduce them term for term.


def ref_mul(a, b):
    """Every pair of terms, kept when their degrees fit the truncation."""
    n = min(a.max_degree, b.max_degree)
    deg = a.grading.degree
    out = {}
    for e1, c1 in a.terms.items():
        d1 = deg(e1)
        for e2, c2 in b.terms.items():
            if d1 + deg(e2) > n:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Q(0)) + c1 * c2
    return MultiSeries(a.grading, out, n)


def ref_exp(f):
    """sum_k f^k / k!, one full product per power."""
    acc = MultiSeries.constant(f.grading, 1, f.max_degree)
    term = acc
    for k in range(1, f.max_degree + 1):
        term = ref_mul(term, f) * Q(1, k)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def ref_log(f):
    """sum_k (-1)^(k+1) (f - 1)^k / k, one full product per power."""
    u = f - 1
    acc = MultiSeries.zero(f.grading, f.max_degree)
    term = MultiSeries.constant(f.grading, -1, f.max_degree)
    for k in range(1, f.max_degree + 1):
        term = ref_mul(term, u) * Q(-1)
        if term.is_zero():
            break
        acc = acc + term * Q(1, k)
    return acc


def same(a, b):
    """Equal truncation degree and equal terms, exactly."""
    return a.max_degree == b.max_degree and a.terms == b.terms


@pytest.fixture(scope="module")
def Fc20():
    return build_Fc(20)


@pytest.fixture(scope="module")
def open_sum12():
    Fc = build_Fc(15)
    Fo = op.solve_open_kdv(Fc, 12)
    return Fo + Fc.truncate(12).substitute(Fo.grading, {})


class TestGradedKernelOracles:
    def test_mul_closed_potential(self, Fc20):
        u = Fc20.derivative("t0").derivative("t0")
        assert same(Fc20 * Fc20, ref_mul(Fc20, Fc20))
        assert same(u * Fc20.derivative("t1"), ref_mul(u, Fc20.derivative("t1")))

    def test_exp_log_closed_potential(self, Fc20):
        E = Fc20.exp()
        assert same(E, ref_exp(Fc20))
        assert same(E.log(), ref_log(E))
        assert same(E.log(), Fc20)

    def test_exp_log_open_plus_closed(self, open_sum12):
        E = open_sum12.exp()
        assert same(E, ref_exp(open_sum12))
        assert same(E.log(), ref_log(E))
        assert same(E.log(), open_sum12)

    def test_zero_series(self):
        g = Grading(["x", "y"], [1, 2])
        zero = MultiSeries.zero(g, 6)
        one = MultiSeries.constant(g, 1, 6)
        assert same(zero.exp(), one) and same(zero.exp(), ref_exp(zero))
        assert same(one.log(), zero) and same(one.log(), ref_log(one))
        assert same(zero * one, zero) and same(one * zero, ref_mul(one, zero))

    def test_single_variable(self):
        g = Grading(["x"], [3])
        x = MultiSeries.variable(g, "x", 10)
        e = x.exp()
        # x^k has weighted degree 3k, so exp stops at x^3.
        assert e.terms == {(k,): Q(1, [1, 1, 2, 6][k]) for k in range(4)}
        assert same(e, ref_exp(x))
        assert same(e.log(), x)

    def test_truncation_at_zero(self):
        g = Grading(["x", "y"], [1, 1])
        x = MultiSeries.variable(g, "x", 0)
        assert x.is_zero()
        c = MultiSeries.constant(g, 3, 0)
        one = MultiSeries.constant(g, 1, 0)
        assert same(x.exp(), one)
        assert same(one.log(), MultiSeries.zero(g, 0))
        assert same(c * c, MultiSeries.constant(g, 9, 0))
        assert same(c * x, ref_mul(c, x)) and (c * x).is_zero()

    def test_mismatched_max_degree(self):
        g = Grading(["x", "y"], [1, 2])
        x7 = MultiSeries.variable(g, "x", 7) + MultiSeries.variable(g, "y", 7)
        y4 = MultiSeries.variable(g, "y", 4) * 3 + 1
        for a, b in ((x7, y4), (y4, x7)):
            p = a * b
            assert p.max_degree == 4
            assert same(p, ref_mul(a, b))

    def test_weighted_truncation_replaces_budget(self):
        # exp(u x), x and u of weight 1: the u^d part holds x^d/d!, kept
        # while its degree d plus the power d of u fits the truncation.
        g = Grading(["x", "u"], [1, 1])
        out = MultiSeries(g, {(1, 1): 1}, 7).exp()
        assert out.terms == {(d, d): Q(1, factorial(d)) for d in range(4)}


WEIGHTS = st.lists(st.integers(1, 4), min_size=1, max_size=3)
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def sparse_series(draw, weights, constant=None):
    """A sparse series over the given weights, at a drawn truncation."""
    g = Grading(["x%d" % i for i in range(len(weights))], weights)
    D = draw(st.integers(0, 9))
    exps = st.tuples(*(st.integers(0, 4) for _ in weights))
    terms = draw(st.dictionaries(exps, COEFFS, max_size=8))
    if constant is not None:
        terms[(0,) * len(weights)] = Q(constant)
    return MultiSeries(g, terms, D)


class TestGradedKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_matches_pairwise(self, data):
        w = data.draw(WEIGHTS)
        a = data.draw(sparse_series(w))
        b = data.draw(sparse_series(w))
        assert same(a * b, ref_mul(a, b))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exp_matches_power_loop(self, data):
        f = data.draw(sparse_series(data.draw(WEIGHTS), constant=0))
        assert same(f.exp(), ref_exp(f))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_log_matches_power_loop(self, data):
        f = data.draw(sparse_series(data.draw(WEIGHTS), constant=1))
        assert same(f.log(), ref_log(f))
        assert same(f.log().exp(), f)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_graded_exp_matches_power_loop(self, data):
        parts, top, unit = data.draw(graded_parts())
        assert on_fractions(graded_exp, parts, top, unit) == ref_graded_exp(
            parts, top, unit)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_graded_log_matches_power_loop(self, data):
        parts, top, unit = data.draw(graded_parts())
        assert on_fractions(graded_log, parts, top, unit) == ref_graded_log(
            parts, top, unit)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_graded_log_inverts_graded_exp(self, data):
        parts, top, unit = data.draw(graded_parts())
        kept = {}  # the parts of degree 1..top, without zero terms
        for d, ts in parts.items():
            for e, c in ts.items():
                if c and 1 <= d <= top:
                    kept.setdefault(d, {})[e] = c
        exp = on_fractions(graded_exp, parts, top, unit)
        log = on_fractions(graded_log, parts, top, unit)
        assert on_fractions(graded_log, exp, top, unit) == kept
        assert on_fractions(graded_exp, log, top, unit) == {0: {unit: Q(1)}, **kept}


def on_fractions(recurrence, parts, *args):
    """``recurrence`` (graded_exp or graded_log) on weighted-degree buckets
    of Fractions, ``{d: {exps: coeff}}``, in and out."""
    ints = {}
    for d, ts in parts.items():
        m = lcm(*(Q(c).denominator for c in ts.values()))
        ints[d] = (m, {e: int(c * m) for e, c in ts.items()})
    return {d: {e: Q(c, m) for e, c in ts.items()}
            for d, (m, ts) in recurrence(ints, *args).items()}


@st.composite
def graded_parts(draw):
    """Sparse parts of weighted degrees 0..top+1 over drawn weights,
    ``{d: {exps: coeff}}``, with (parts, top, unit); the parts of degree 0
    and top+1 must be ignored."""
    w = draw(WEIGHTS)
    g = Grading(["x%d" % i for i in range(len(w))], w)
    top = draw(st.integers(1, 6))
    parts = {}
    for d, i, c in draw(st.lists(
            st.tuples(st.integers(0, top + 1), st.integers(0, 99), COEFFS), max_size=8)):
        monomials = g.monomials(d)
        if monomials:
            parts.setdefault(d, {})[monomials[i % len(monomials)]] = c
    return parts, top, (0,) * len(w)


def ref_power_loop(parts, top, unit, coefficient):
    """sum_m coefficient(m) U^m over the terms U of weighted degree 1..top,
    one full product per power; a term is kept while its degree is at
    most ``top``."""
    U = {(d, e): c for d, ts in parts.items() for e, c in ts.items() if 1 <= d <= top}
    acc = {(0, unit): coefficient(0)}
    term = {(0, unit): Q(1)}
    for m in range(1, top + 1):
        nxt = {}
        for (d1, e1), c1 in term.items():
            for (d2, e2), c2 in U.items():
                if d1 + d2 <= top:
                    key = (d1 + d2, tuple(map(add, e1, e2)))
                    nxt[key] = nxt.get(key, Q(0)) + c1 * c2
        term = nxt
        for key, c in term.items():
            acc[key] = acc.get(key, Q(0)) + coefficient(m) * c
    out = {}
    for (d, e), c in acc.items():
        if c:
            out.setdefault(d, {})[e] = c
    return out


def ref_graded_exp(parts, top, unit):
    """sum_m F^m / m!, one full product per power."""
    return ref_power_loop(parts, top, unit, lambda m: Q(1, factorial(m)))


def ref_graded_log(parts, top, unit):
    """sum_m (-1)^(m+1) U^m / m for U = G - 1, one full product per power."""
    return ref_power_loop(parts, top, unit, lambda m: Q((-1) ** (m + 1), m) if m else Q(0))


def ref_add(a, b):
    n = min(a.max_degree, b.max_degree)
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, Q(0)) + c
    return MultiSeries(a.grading, out, n)


def ref_derivative(f, i):
    out = {}
    for e, c in f.terms.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return MultiSeries(f.grading, out, f.max_degree - f.grading.weights[i])


def well_bucketed(f):
    """The storage is canonical: each degree d <= max_degree holds the
    monomials of degree d as integers over one m > 0 with gcd(m, *c) = 1,
    no numerator is 0 and no bucket is empty; and it is what the
    constructor builds from the terms."""
    deg = f.grading.degree
    fresh = MultiSeries(f.grading, f.terms, f.max_degree)
    return f._buckets == fresh._buckets and all(
        m > 0 and t and 0 not in t.values() and gcd(m, *t.values()) == 1
        and d <= f.max_degree and all(deg(e) == d for e in t)
        for d, (m, t) in f._buckets.items()
    )


class TestBucketConstructors:
    """+, -, scalar *, derivative and truncate build their results from the
    operands' degree buckets instead of recomputing degrees."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_results_match_constructor(self, data):
        w = data.draw(WEIGHTS)
        a = data.draw(sparse_series(w))
        b = data.draw(sparse_series(w))
        c = data.draw(COEFFS)
        i = data.draw(st.integers(0, len(w) - 1))
        k = data.draw(st.integers(0, 9))
        n = min(a.max_degree, b.max_degree)
        neg_b = MultiSeries(b.grading, {e: -v for e, v in b.terms.items()},
                            b.max_degree)
        cases = [
            (a + b, ref_add(a, b)),
            (a - b, ref_add(a, neg_b)),
            (-b, neg_b),
            (a - a, MultiSeries.zero(a.grading, a.max_degree)),
            (a * c, MultiSeries(a.grading, {e: c * v for e, v in a.terms.items()},
                                a.max_degree)),
            (a.derivative(a.grading.names[i]), ref_derivative(a, i)),
            (a.truncate(k), MultiSeries(a.grading, a.terms, min(k, a.max_degree))),
            (a + 3, ref_add(a, MultiSeries.constant(a.grading, 3, a.max_degree))),
        ]
        assert (a + b).max_degree == n
        for got, want in cases:
            assert same(got, want) and well_bucketed(got)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_edge_cases_match_constructor(self, data):
        w = data.draw(WEIGHTS)
        a = data.draw(sparse_series(w))
        b = data.draw(sparse_series(w))
        g, D = a.grading, a.max_degree
        big = data.draw(st.builds(Q, st.integers(-(10**30), 10**30),
                                  st.integers(1, 10**40)))
        neg = -data.draw(COEFFS.filter(lambda c: c > 0))
        i = data.draw(st.integers(0, len(w) - 1))
        k = data.draw(st.integers(0, 9))
        zero = MultiSeries.zero(g, D)
        # No term of `flat` contains x_i, so its x_i-derivative vanishes,
        # known w_i degrees less than `flat`.
        flat = MultiSeries(g, {e: c for e, c in a.terms.items() if not e[i]}, D)
        low = a.truncate(k)
        cases = [
            (a * big, MultiSeries(g, {e: big * v for e, v in a.terms.items()}, D)),
            (a * neg, MultiSeries(g, {e: neg * v for e, v in a.terms.items()}, D)),
            (a * 0, zero),
            (a + (-a), zero),
            (low + b, ref_add(low, b)),
            (b - low, ref_add(b, low * -1)),
            (flat.derivative(g.names[i]), MultiSeries.zero(g, D - w[i])),
        ]
        for got, want in cases:
            assert same(got, want) and well_bucketed(got)
        # Equality compares through the smaller truncation degree only.
        top = (0,) * i + (D // w[i] + 1,) + (0,) * (len(w) - i - 1)
        high = MultiSeries(g, {**a.terms, top: 7}, D + w[i])
        assert a == low and low == a and a == high and high == a
        assert high != MultiSeries(g, a.terms, high.max_degree)
        n = min(D, b.max_degree)
        agree = {e: c for e, c in a.terms.items() if g.degree(e) <= n} == {
            e: c for e, c in b.terms.items() if g.degree(e) <= n}
        assert (a == b) == agree


class TestPart:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_parts_are_homogeneous_and_sum_to_the_series(self, data):
        f = data.draw(sparse_series(data.draw(WEIGHTS)))
        g, D = f.grading, f.max_degree
        parts = [f.part(d) for d in range(D + 1)]
        assert same(sum(parts[1:], parts[0]), f)
        for d, part in enumerate(parts):
            assert part.max_degree == D and well_bucketed(part)
            assert all(g.degree(e) == d for e in part.terms)
        # A degree no term has: below 0, above the truncation, or between.
        for d in (-1, D + 1, data.draw(st.integers(0, D))):
            if all(g.degree(e) != d for e in f.terms):
                assert same(f.part(d), MultiSeries.zero(g, D))


class TestSumOfProducts:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_chained_products(self, data):
        w = data.draw(WEIGHTS)
        scale = st.integers(-6, 6)
        pairs = [(data.draw(scale), data.draw(sparse_series(w)), data.draw(sparse_series(w)))
                 for _ in range(data.draw(st.integers(1, 4)))]
        if data.draw(st.booleans()):
            # A zero factor, at its own truncation degree.
            zero = MultiSeries.zero(pairs[0][1].grading, data.draw(st.integers(0, 9)))
            at = data.draw(st.integers(0, len(pairs)))
            pairs.insert(at, (data.draw(scale), zero, pairs[0][2]))
        den = data.draw(st.integers(1, 12))
        got = MultiSeries.sum_of_products(pairs, den)
        products = [ref_mul(a, b) * s for s, a, b in pairs]
        want = sum(products[1:], products[0]) * Q(1, den)
        assert same(got, want) and well_bucketed(got)
        assert got.max_degree == min(f.max_degree for _, a, b in pairs for f in (a, b))

    def test_keeps_the_first_factors_class(self):
        x = PowerSeries([1, 2, 3], 4)
        xy = BiPoly({(1, 0): 1, (0, 1): 2}, 3)
        got = MultiSeries.sum_of_products([(2, x, x), (-1, x, PowerSeries([0, 1], 3))], 3)
        assert type(got) is PowerSeries and well_bucketed(got)
        assert got.coeffs == (Q(2, 3), Q(7, 3), Q(6), Q(7))
        one = MultiSeries.constant(xy.grading, 1, 3)
        got = MultiSeries.sum_of_products([(1, xy, xy), (3, xy, one)])
        assert type(got) is BiPoly and well_bucketed(got)
        assert same(got, xy * xy + xy * 3)
        plain = MultiSeries(xy.grading, xy.terms, 3)
        assert type(MultiSeries.sum_of_products([(1, plain, xy)])) is MultiSeries

    def test_rejects_bad_pairs(self):
        x = PowerSeries([1, 2], 3)
        xy = BiPoly({(1, 0): 1}, 3)
        for pairs in ([(1, x, xy)], [(1, x, x), (1, xy, xy)], [(1, x, x), (1, x, xy)], []):
            with pytest.raises(ValueError):
                MultiSeries.sum_of_products(pairs)
        for den in (0, -4):
            with pytest.raises(ValueError):
                MultiSeries.sum_of_products([(1, x, x)], den)


class TestTruncationContract:
    """Each result is known as far as its operands determine it: a
    derivative by a variable of weight w through D - w, a product by x^k
    for x of weight w through D + k w, so no caller truncates."""

    def test_equal_series_have_equal_derivatives(self):
        # x + O(x^2) and x + 3x^2 + O(x^3) are equal, and so are their
        # derivatives 1 + O(x) and 1 + 6x + O(x^2).
        a, b = PowerSeries([0, 1], 1), PowerSeries([0, 1, 3], 2)
        assert a == b and a.derivative() == b.derivative()
        assert (a.derivative().order, b.derivative().order) == (0, 1)

    def test_derivative_at_order_zero_knows_no_coefficient(self):
        d = PowerSeries([5], 0).derivative()
        assert d.order == -1 and d.coeffs == () and d.is_zero()
        with pytest.raises(IndexError):
            d[0]
        assert d == PowerSeries([1, 2], 1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_derivative_window(self, data):
        w = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
        a = data.draw(sparse_series(w))
        i = data.draw(st.integers(0, len(w) - 1))
        g, D, name = a.grading, a.max_degree, a.grading.names[i]
        # `high` adds terms above D, so it equals `a`, and so must the
        # derivatives, whatever the added terms.
        exps = st.tuples(*(st.integers(0, 4) for _ in w))
        tail = data.draw(st.dictionaries(exps, COEFFS.filter(bool), max_size=6))
        high = MultiSeries(g, {**a.terms, **{e: c for e, c in tail.items()
                                             if g.degree(e) > D}}, D + 8)
        assert a == high
        assert a.derivative(name).max_degree == D - w[i]
        assert a.derivative(name) == high.derivative(name)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_times_monomial_is_product_with_monomial(self, data):
        w = data.draw(WEIGHTS)
        a = data.draw(sparse_series(w))
        i = data.draw(st.integers(0, len(w) - 1))
        k = data.draw(st.integers(0, 4))
        g, D, name = a.grading, a.max_degree, a.grading.names[i]
        got = a.times_monomial(name, k)
        assert got.max_degree == D + k * w[i] and well_bucketed(got)
        mono = MultiSeries(g, {g.monomial(name, k): 1}, got.max_degree)
        # The product with `a` is known through D only, and agrees there;
        # with `a` read as a polynomial it agrees throughout.
        assert same(mono * a, got.truncate(D))
        assert same(mono * MultiSeries(g, a.terms, got.max_degree), got)

    def test_power_series_times_monomial_is_product_with_monomial(self):
        s = PowerSeries([Q(k + 1, k + 2) for k in range(9)], 8)
        for k in range(10):
            got = s.times_monomial("x", k)
            monomial = PowerSeries([0] * k + [1], 8 + k)
            assert type(got) is PowerSeries and got.order == 8 + k
            assert got.coeffs == (monomial * PowerSeries(s.coeffs, 8 + k)).coeffs


def monomials_of_degree(weights, d):
    """Every exponent tuple of weighted degree exactly ``d``."""
    if not weights:
        return [()] if d == 0 else []
    return [(k,) + rest for k in range(d // weights[0] + 1)
            for rest in monomials_of_degree(weights[1:], d - k * weights[0])]


def ref_substitute(f, grading, images):
    """Each term of ``f`` expanded on its own: a variable with an image
    contributes image^e by full products, any other variable its own
    power in ``grading``.  A homogeneous image is a polynomial, so it is
    taken at the truncation degree of ``f``."""
    D = f.max_degree
    acc = MultiSeries.zero(grading, D)
    for e, c in f.terms.items():
        term = MultiSeries.constant(grading, c, D)
        for name, k in zip(f.grading.names, e):
            x = MultiSeries(grading, images[name].terms, D) if name in images \
                else MultiSeries.variable(grading, name, D)
            for _ in range(k):
                term = ref_mul(term, x)
        acc = acc + term
    return acc


def random_substitution(rng):
    """A random series, a target grading holding its variables shuffled
    among new ones, and random homogeneous images of some variables."""
    weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    names = ["x%d" % i for i in range(len(weights))]
    D = rng.randint(0, 9)
    terms = {}
    for _ in range(rng.randint(0, 8)):
        e = tuple(rng.randint(0, 3) for _ in weights)
        terms[e] = Q(rng.randint(-5, 5), rng.randint(1, 6))
    f = MultiSeries(Grading(names, weights), terms, D)
    pairs = list(zip(names, weights))
    pairs += [("y%d" % i, rng.randint(1, 3)) for i in range(rng.randint(0, 2))]
    rng.shuffle(pairs)
    target = Grading([n for n, _ in pairs], [w for _, w in pairs])
    replaced = [i for i in range(len(pairs)) if rng.random() < 0.6]
    images = {}
    for i in replaced:
        name, w = pairs[i]
        # The image holds its own variable, or none that is replaced.
        monos = [e for e in monomials_of_degree(target.weights, w)
                 if not any(e[j] for j in replaced if j != i)]
        picked = rng.sample(monos, rng.randint(0, min(3, len(monos))))
        images[name] = MultiSeries(
            target, {e: Q(rng.randint(-4, 4), rng.randint(1, 3)) for e in picked},
            rng.randint(w, 12))
    return f, target, images


class TestSubstitute:
    def test_matches_per_monomial_expansion(self):
        rng = random.Random(18)
        for _ in range(150):
            f, target, images = random_substitution(rng)
            got = f.substitute(target, images)
            assert got.grading == target
            assert same(got, ref_substitute(f, target, images))
            assert well_bucketed(got)

    def test_rekey_only(self):
        # No images: the terms move to their variables' new positions.
        f = MultiSeries(Grading(["a", "b"], [1, 2]), {(1, 2): 3, (0, 1): 1}, 6)
        g = Grading(["b", "c", "a"], [2, 5, 1])
        got = f.substitute(g, {})
        assert got.terms == {(2, 0, 1): 3, (1, 0, 0): 1}
        assert got.max_degree == 6 and well_bucketed(got)

    def test_shift_keeps_truncation(self):
        # t -> t - u^3 over (t, u) of weights 3, 1: the binomial expansion,
        # every term at the weighted degree of the monomial it came from.
        g = Grading(["t", "u"], [3, 1])
        f = MultiSeries(Grading(["t"], [3]), {(1,): 1, (2,): 1}, 7)
        shift = MultiSeries(g, {(1, 0): 1, (0, 3): -1}, 7)
        got = f.substitute(g, {"t": shift})
        assert got.max_degree == 7
        assert got.terms == {(1, 0): 1, (0, 3): -1, (2, 0): 1, (1, 3): -2, (0, 6): 1}
        assert f.truncate(5).substitute(g, {"t": shift}).terms == {(1, 0): 1, (0, 3): -1}

    def test_errors(self):
        g = Grading(["x", "y"], [1, 2])
        f = MultiSeries(Grading(["x"], [1]), {(2,): 1}, 4)
        y = MultiSeries.variable(g, "y", 4)
        x = MultiSeries.variable(g, "x", 4)
        with pytest.raises(ValueError):  # x has weight 1, not 2
            f.substitute(g, {"x": y})
        with pytest.raises(ValueError):  # not homogeneous
            f.substitute(g, {"x": x + y})
        with pytest.raises(ValueError):  # no variable z in the grading
            f.substitute(g, {"z": x})
        with pytest.raises(ValueError):  # image cut below its weight
            f.substitute(g, {"x": MultiSeries.variable(g, "x", 0)})
        with pytest.raises(ValueError):  # x's image holds y, also replaced
            f.substitute(g, {"x": x, "y": MultiSeries(g, {(2, 0): 1}, 4)})
        with pytest.raises(ValueError):  # image over another grading
            f.substitute(g, {"x": MultiSeries.variable(f.grading, "x", 4)})
        with pytest.raises(ValueError):  # x is missing from the grading
            f.substitute(Grading(["y"], [2]), {})
        with pytest.raises(ValueError):  # x has another weight there
            f.substitute(Grading(["x"], [2]), {})

    def test_variable_above_truncation_may_be_missing(self):
        # z weighs 5 > 4, so no term of f can hold it.
        f = MultiSeries(Grading(["x", "z"], [1, 5]), {(2, 0): 3}, 4)
        got = f.substitute(Grading(["y", "x"], [2, 1]), {})
        assert got.terms == {(0, 2): 3} and got.max_degree == 4
        with pytest.raises(ValueError):  # at truncation 5, z is a term
            MultiSeries(f.grading, {(0, 1): 1}, 5).substitute(Grading(["x"], [1]), {})


class TestGradingMonomials:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=4), st.integers(-2, 10))
    @example([], 0)
    @example([], 3)
    @example([2, 3], -1)
    @example([1, 2], 0)
    @example([4, 6], 7)
    @example([3, 5, 2], 13)
    def test_equals_filtered_box(self, weights, degree):
        g = Grading(["x%d" % i for i in range(len(weights))], weights)
        box = product(*(range(max(degree, 0) // w + 1) for w in weights))
        assert g.monomials(degree) == [e for e in box if g.degree(e) == degree]


def ref_power_mul(a, b):
    """Schoolbook product of the coefficient lists, in Fractions."""
    n = min(a.order, b.order)
    out = [Q(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out


def ref_power_add(a, b):
    n = min(a.order, b.order)
    return [a.coeffs[k] + b.coeffs[k] for k in range(n + 1)]


def ref_power_scale(f, c):
    return [c * a for a in f.coeffs]


def ref_power_derivative(f):
    return [k * f.coeffs[k] for k in range(1, f.order + 1)]


def ref_power_times_monomial(f, k):
    return [Q(0)] * k + list(f.coeffs)


def ref_power_scale_argument(f, c):
    return [a * c**k for k, a in enumerate(f.coeffs)]


# The Fraction loops PowerSeries.exp, log and reciprocal ran before they
# went through graded_exp and graded_log.


def ref_power_exp(f):
    out = [Q(1)] + [Q(0)] * f.order
    for k in range(1, f.order + 1):
        acc = Q(0)
        for j in range(1, k + 1):
            acc += j * f.coeffs[j] * out[k - j]
        out[k] = acc / k
    return out


def ref_power_log(f):
    out = [Q(0)] * (f.order + 1)
    for k in range(1, f.order + 1):
        acc = k * f.coeffs[k]
        for j in range(1, k):
            acc -= j * out[j] * f.coeffs[k - j]
        out[k] = acc / k
    return out


def ref_power_reciprocal(f):
    inv0 = 1 / f.coeffs[0]
    out = [inv0]
    for k in range(1, f.order + 1):
        acc = Q(0)
        for j in range(1, k + 1):
            acc += f.coeffs[j] * out[k - j]
        out.append(-inv0 * acc)
    return out


# Mixed denominators, explicit zeros and negative entries.
POWER_COEFFS = st.one_of(
    st.just(Q(0)),
    st.integers(-(10**30), 10**30).map(Q),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
POWER_TAILS = st.lists(POWER_COEFFS, max_size=12)


def exactly(got, want):
    return list(got.coeffs) == want and all(type(c) is Q for c in got.coeffs)


class TestPowerSeriesIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(POWER_COEFFS, min_size=1, max_size=14),
        st.lists(POWER_COEFFS, min_size=1, max_size=14),
    )
    def test_mul_matches_schoolbook(self, a, b):
        A, B = PowerSeries(a), PowerSeries(b)
        p = A * B
        assert p.order == min(A.order, B.order)
        assert list(p.coeffs) == ref_power_mul(A, B)
        assert all(type(c) is Q for c in p.coeffs)

    @settings(max_examples=100, deadline=None)
    @given(POWER_TAILS)
    def test_exp_matches_loop(self, tail):
        f = PowerSeries([0] + tail)
        assert exactly(f.exp(), ref_power_exp(f))

    @settings(max_examples=100, deadline=None)
    @given(POWER_TAILS)
    def test_log_matches_loop(self, tail):
        f = PowerSeries([1] + tail)
        assert exactly(f.log(), ref_power_log(f))

    @settings(max_examples=100, deadline=None)
    @given(POWER_COEFFS.filter(bool), POWER_TAILS)
    def test_reciprocal_matches_loop(self, c0, tail):
        f = PowerSeries([c0] + tail)
        assert exactly(f.reciprocal(), ref_power_reciprocal(f))

    def test_reciprocal_non_unit_constant(self):
        f = PowerSeries([Q(-3, 2), 5, 0, Q(7, 4)], 6)
        r = f.reciprocal()
        assert exactly(r, ref_power_reciprocal(f))
        assert r[0] == Q(-2, 3) and f * r == PowerSeries([1], 6)

    def test_exp_log_reject_bad_constant(self):
        with pytest.raises(ValueError):
            PowerSeries([1, 1], 3).exp()
        for c0 in (0, 2):
            with pytest.raises(ValueError):
                PowerSeries([c0, 1], 3).log()

    def test_mul_of_zero_series(self):
        z = PowerSeries([], 4)
        assert (z * exp_series(6)).coeffs == (Q(0),) * 5

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(POWER_COEFFS, min_size=1, max_size=14),
        st.lists(POWER_COEFFS, min_size=1, max_size=14),
        POWER_COEFFS,
        st.integers(0, 5),
    )
    def test_linear_ops_and_rekeyings_match_lists(self, a, b, c, k):
        A, B = PowerSeries(a), PowerSeries(b)
        cases = [
            (A + B, ref_power_add(A, B)),
            (A - B, ref_power_add(A, PowerSeries([-x for x in b]))),
            (A * c, ref_power_scale(A, c)),
            (c * A, ref_power_scale(A, c)),
            (A.derivative(), ref_power_derivative(A)),
            (A.times_monomial("x", k), ref_power_times_monomial(A, k)),
            (A.scale_argument(c), ref_power_scale_argument(A, c)),
        ]
        for got, want in cases:
            assert exactly(got, want) and got.order == len(want) - 1
            assert well_bucketed(got)

    @settings(max_examples=100, deadline=None)
    @given(POWER_TAILS)
    def test_parity_parts_split_the_series(self, tail):
        f = PowerSeries([0] + tail)
        even, odd = f.parity_part(0), f.parity_part(1)
        assert exactly(even + odd, list(f.coeffs))
        for part, parity in ((even, 0), (odd, 1)):
            assert part.order == f.order and well_bucketed(part)
            assert all(part[k] == (f[k] if k % 2 == parity else 0)
                       for k in range(f.order + 1))

    def test_every_operation_returns_a_power_series(self):
        f, g = PowerSeries([1, Q(1, 2), 3, 0, Q(-5, 7)], 4), exp_series(6)
        h = f.times_monomial("x")
        cases = [
            (f + g, 4), (g + f, 4), (f + 1, 4), (2 + f, 4),
            (f - g, 4), (g - f, 4), (f - 1, 4), (1 - f, 4), (-f, 4),
            (f * 3, 4), (3 * f, 4), (f * Q(2, 3), 4), (f * 0, 4), (0 * f, 4),
            (f * g, 4), (g * f, 4),
            (f.truncate(2), 2), (f.truncate(9), 4),
            (f.derivative(), 3), (PowerSeries([5], 0).derivative(), -1),
            (h.exp(), 5), (f.log(), 4), (f.reciprocal(), 4),
            (f.times_monomial("x", 2), 6), (f.scale_argument(-2), 4),
            (f.parity_part(0), 4), (f.parity_part(1), 4),
            (f.part(2), 4), (f.part(3), 4),
        ]
        for got, order in cases:
            assert type(got) is PowerSeries and got.order == order

    def test_coeffs_are_built_once(self):
        # coeffs and [k] read the Fractions of terms, built on first use.
        f = PowerSeries([1, 2, 3]) * PowerSeries([1, 1, 1])
        assert f[2] is f.coeffs[2] is f.terms[(2,)]
        assert f.coeffs == (1, 3, 6)

    def test_index_beyond_the_order(self):
        f = PowerSeries([1, 2], 3)
        assert f[3] == 0
        for k in (-1, 4):
            with pytest.raises(IndexError):
                f[k]


def ref_divide_exact(num, den):
    """Division by a*x + b*y on Fraction terms, kept as an oracle: terms
    go highest power of x first, by x^i y^j = (a x + b y) x^(i-1) y^j / a
    - (b/a) x^(i-1) y^(j+1), and whatever is left is the remainder."""
    a, b = Q(den[0]), Q(den[1])
    if a == 0:
        raise ValueError("leading coefficient of the divisor must be nonzero")
    rem = dict(num.terms)
    out = {}
    for i in range(num.max_degree, 0, -1):
        for j in range(num.max_degree - i + 1):
            c = rem.pop((i, j), Q(0))
            if c == 0:
                continue
            q = c / a
            out[(i - 1, j)] = out.get((i - 1, j), Q(0)) + q
            rem[(i - 1, j + 1)] = rem.get((i - 1, j + 1), Q(0)) - q * b
    if any(rem.values()):
        raise DivisibilityError("nonzero remainder")
    return BiPoly(out, num.max_degree - 1)


def divide_by_x_plus_y(num, den):
    """num / (a x + b y) by divide_exact, for a and b nonzero: x and y
    scaled by 1/a and 1/b make the divisor x + y, and the quotient is
    scaled back."""
    a, b = Q(den[0]), Q(den[1])
    scaled = BiPoly({(i, j): c / a**i / b**j for (i, j), c in num.terms.items()},
                    num.max_degree)
    q = divide_exact(scaled)
    return BiPoly({(i, j): c * a**i * b**j for (i, j), c in q.terms.items()}, q.max_degree)


# The divisors a x + b y as (a, b), and the ids of the two divisions.
DENS = [(1, 1), (1, -1), (2, 3), (Q(-1, 2), 3)]
IDS = ["divide_exact", "ref_divide_exact"]
QUOTIENTS = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 4)), COEFFS,
                            max_size=12)


class TestDivideExact:
    def test_difference_of_squares(self):
        num = BiPoly({(2, 0): Q(1), (0, 2): Q(-1)}, 4)
        q = divide_exact(num)
        assert q == BiPoly({(1, 0): Q(1), (0, 1): Q(-1)}, 3)

    def test_divide_self(self):
        num = BiPoly({(1, 0): Q(1), (0, 1): Q(1)}, 4)
        assert divide_exact(num) == BiPoly({(0, 0): Q(1)}, 3)

    def test_remainder_detected(self):
        num = BiPoly({(1, 0): Q(1)}, 3)
        with pytest.raises(DivisibilityError):
            divide_exact(num)

    def test_random_roundtrip(self):
        rng = random.Random(5)
        den = BiPoly({(1, 0): Q(1), (0, 1): Q(1)}, 9)
        q = BiPoly(
            {(i, j): Q(rng.randint(-6, 6)) for i in range(4) for j in range(4)}, 8
        )
        assert divide_exact(den * q) == q

    @pytest.mark.parametrize("divide", [divide_by_x_plus_y, ref_divide_exact], ids=IDS)
    @pytest.mark.parametrize("den", DENS)
    @settings(max_examples=40, deadline=None)
    @given(terms=QUOTIENTS)
    def test_quotient_recovered(self, divide, den, terms):
        q = BiPoly(terms, 10)
        num = q * BiPoly({(1, 0): den[0], (0, 1): den[1]}, 10)
        assert divide(num, den) == q

    @pytest.mark.parametrize("divide", [divide_by_x_plus_y, ref_divide_exact], ids=IDS)
    @pytest.mark.parametrize("den", DENS)
    @settings(max_examples=40, deadline=None)
    @given(terms=QUOTIENTS, i=st.integers(0, 5), j=st.integers(0, 5), c=COEFFS.filter(bool))
    def test_remainder_detected_with_a_quotient(self, divide, den, terms, i, j, c):
        # No monomial is a multiple of a x + b y with a and b nonzero.
        num = BiPoly(terms, 10) * BiPoly({(1, 0): den[0], (0, 1): den[1]}, 10)
        with pytest.raises(DivisibilityError):
            divide(num + BiPoly({(i, j): c}, 10), den)

    @pytest.mark.parametrize("divide", [ref_divide_exact])
    def test_zero_leading_coefficient(self, divide):
        with pytest.raises(ValueError):
            divide(BiPoly({(0, 1): Q(1)}, 2), (0, 1))


class TestBiPoly:
    def test_product_is_bipoly(self):
        f = BiPoly({(1, 0): Q(1), (0, 1): Q(2)}, 3)
        for g in (f * f, f * 3, 3 * f, f + f, -f):
            assert type(g) is BiPoly
        assert (f * f).terms == {(2, 0): 1, (1, 1): 4, (0, 2): 4}

    def test_no_sum_with_power_series(self):
        with pytest.raises(ValueError):
            BiPoly({(1, 0): Q(1)}, 3) + PowerSeries([1, 1], 3)
