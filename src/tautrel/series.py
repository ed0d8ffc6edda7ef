r"""Exact truncated series arithmetic over the rationals.

Two containers cover everything the higher-level modules need:

- :class:`PowerSeries` -- dense univariate series truncated at an explicit
  order (inclusive).
- :class:`MultiSeries` -- sparse multivariate series truncated by a weighted
  total degree; each variable carries a positive integer weight.

:class:`MultiSeries` arithmetic runs on terms grouped by weighted degree,
``{d: {exps: coeff}}``.  A product multiplies only the pairs of groups whose
degrees sum to at most the truncation degree, so no pair of terms is formed
and then discarded.  Every exp and log works grade by grade with the Euler
operator theta, which multiplies the part of grade d by d.  As theta is a
derivation, theta(exp F) = theta(F) exp F, whose grade-d part reads, with
E = exp F,

    d * E_d = sum_{k=1..d} k * F_k * E_{d-k},

and theta(G) = G theta(log G) gives, for L = log G with G_0 = 1,

    d * L_d = d * G_d - sum_{k=1..d-1} k * L_k * G_{d-k}.

These are the weighted forms of the recurrences in Brent and Kung, "Fast
algorithms for manipulating formal power series" (JACM 1978), each written
once: :func:`graded_exp` and :func:`graded_log`, over any grading of the
factors.  :meth:`MultiSeries.exp` and :meth:`MultiSeries.log` grade by
weighted degree, :meth:`PowerSeries.exp` and :meth:`PowerSeries.log` by the
power of x, and :meth:`PowerSeries.reciprocal` is exp(-log(f/f_0))/f_0;
other callers grade by a power of an auxiliary variable z.

All stored coefficients are :class:`fractions.Fraction`; no floating point
enters this module.  Products, :func:`graded_exp` and :func:`graded_log` run
on integers: each bucket becomes integer numerators over the lcm of its
denominators, and one sparse kernel, ``_mul_sum``, accumulates each output
degree over one common denominator and builds one Fraction per output term.
:class:`PowerSeries` products convolve the dense integer numerators
directly.  Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import add, mul
from typing import Mapping, Sequence


Q = Fraction


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integer_coeffs(coeffs: Sequence[Fraction]) -> tuple[list, int]:
    """Integers c_k and a common denominator m with coeffs[k] = c_k / m."""
    m = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (m // c.denominator) for c in coeffs], m


class PowerSeries:
    """Truncated power series sum_{k=0}^{order} c_k x^k.

    The truncation order is explicit and inclusive; arithmetic between two
    series truncates to the smaller order.
    """

    __slots__ = ("coeffs", "order", "var")

    def __init__(self, coeffs: Sequence, order: int | None = None, var: str = "z"):
        coeffs = [_q(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Q(0)] * (order + 1 - len(coeffs))
        self.coeffs = tuple(coeffs[: order + 1])
        self.order = order
        self.var = var

    @classmethod
    def zero(cls, order: int, var: str = "z") -> "PowerSeries":
        return cls([], order, var)

    @classmethod
    def one(cls, order: int, var: str = "z") -> "PowerSeries":
        return cls([Q(1)], order, var)

    @classmethod
    def identity(cls, order: int, var: str = "z") -> "PowerSeries":
        """The series x itself."""
        return cls([Q(0), Q(1)], order, var)

    def __getitem__(self, k: int) -> Fraction:
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    # Equality compares through the smaller order, which no hash of one
    # operand can follow, so series are unhashable.
    __hash__ = None

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries(self.coeffs[: order + 1], min(order, self.order), self.var)

    def __add__(self, other) -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            other = PowerSeries([other], self.order, self.var)
        n = min(self.order, other.order)
        return PowerSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n, self.var
        )

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs], self.order, self.var)

    def __sub__(self, other) -> "PowerSeries":
        return self + (-other if isinstance(other, PowerSeries) else PowerSeries([-_q(other)], self.order, self.var))

    def __rsub__(self, other) -> "PowerSeries":
        return (-self) + other

    def __mul__(self, other) -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            c = _q(other)
            return PowerSeries([c * a for a in self.coeffs], self.order, self.var)
        # Convolve integers: each operand scaled by the lcm of its
        # denominators, one Fraction built per output coefficient.
        n = min(self.order, other.order)
        a, den_a = _integer_coeffs(self.coeffs[: n + 1])
        b, den_b = _integer_coeffs(other.coeffs[: n + 1])
        b = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * (n + 1)
        for i, x in enumerate(a):
            if x:
                room = n - i
                for j, y in b:
                    if j > room:
                        break
                    out[i + j] += x * y
        den = den_a * den_b
        return PowerSeries([Fraction(c, den) for c in out], n, self.var)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def derivative(self) -> "PowerSeries":
        """Formal derivative; the order drops by one."""
        if self.order == 0:
            return PowerSeries.zero(0, self.var)
        return PowerSeries(
            [k * self.coeffs[k] for k in range(1, self.order + 1)],
            self.order - 1,
            self.var,
        )

    def reciprocal(self) -> "PowerSeries":
        """1/f = exp(-log(f/f_0))/f_0; requires nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("reciprocal requires nonzero constant term")
        inv0 = 1 / self.coeffs[0]
        return (-(self * inv0).log()).exp() * inv0

    def _graded(self, recurrence) -> "PowerSeries":
        """``recurrence`` (graded_exp or graded_log) with x^k as grade k."""
        parts = {k: {k: {(k,): c}} for k, c in enumerate(self.coeffs) if k and c}
        coeffs = [Q(0)] * (self.order + 1)
        for k, part in recurrence(parts, self.order, (0,)).items():
            coeffs[k] = part[k][(k,)]
        return PowerSeries(coeffs, self.order, self.var)

    def log(self) -> "PowerSeries":
        """Formal logarithm; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        return self._graded(graded_log)

    def exp(self) -> "PowerSeries":
        """Formal exponential; requires constant term 0."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires constant term 0")
        return self._graded(graded_exp)

    def shift_exponents(self, factor: int) -> "PowerSeries":
        """Replace x by x^factor (order scales accordingly)."""
        out = [Q(0)] * (factor * self.order + 1)
        for k, c in enumerate(self.coeffs):
            out[factor * k] = c
        return PowerSeries(out, factor * self.order, self.var)

    def scale_argument(self, c) -> "PowerSeries":
        """Replace x by c*x."""
        c = _q(c)
        return PowerSeries(
            [self.coeffs[k] * c**k for k in range(self.order + 1)],
            self.order,
            self.var,
        )

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __repr__(self):
        terms = [
            f"{c}*{self.var}^{k}" for k, c in enumerate(self.coeffs) if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"PowerSeries({body} + O({self.var}^{self.order + 1}))"


class Grading:
    """Variable alphabet with positive integer weights."""

    __slots__ = ("names", "weights", "index")

    def __init__(self, names: Sequence[str], weights: Sequence[int]):
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.names = tuple(names)
        self.weights = tuple(weights)
        self.index = {n: i for i, n in enumerate(names)}

    def degree(self, exps: Sequence[int]) -> int:
        return sum(map(mul, exps, self.weights))

    def __eq__(self, other):
        return (
            isinstance(other, Grading)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __len__(self):
        return len(self.names)


def _int_buckets(buckets: Mapping) -> dict:
    """Degree buckets ``{d: {exps: coeff}}`` as ``{d: (m, {exps: c})}`` with
    integers c = coeff * m, m the lcm of the bucket's denominators."""
    out = {}
    for d, part in buckets.items():
        ints, m = _integer_coeffs(part.values())
        out[d] = (m, dict(zip(part, ints)))
    return out


def _mul_sum(pairs, limit, den: int = 1) -> dict:
    """sum s * A * B / ``den`` over (s, A, B) in ``pairs``, integer buckets.

    Only bucket pairs with d1 + d2 <= ``limit`` are multiplied.  Each output
    degree accumulates over the lcm of its pairs' denominators and is
    returned reduced, without zero terms or empty buckets.
    """
    by_degree: dict = {}
    for s, a, b in pairs:
        for d1, p1 in a.items():
            room = limit - d1
            for d2, p2 in b.items():
                if d2 <= room:
                    by_degree.setdefault(d1 + d2, []).append((s, p1, p2))
    out = {}
    for d, items in by_degree.items():
        m = lcm(*(m1 * m2 for _, (m1, _), (m2, _) in items))
        acc: dict = {}
        for s, (m1, t1), (m2, t2) in items:
            s *= m // (m1 * m2)
            t2 = list(t2.items())
            for e1, c1 in t1.items():
                c1 *= s
                for e2, c2 in t2:
                    e = tuple(map(add, e1, e2))
                    if e in acc:
                        acc[e] += c1 * c2
                    else:
                        acc[e] = c1 * c2
        m *= den
        g = gcd(m, *acc.values())
        acc = {e: c // g for e, c in acc.items() if c}
        if acc:
            out[d] = (m // g, acc)
    return out


def _fraction_buckets(buckets: Mapping) -> dict:
    """Integer buckets ``{d: (m, {exps: c})}`` back as ``{d: {exps: c / m}}``."""
    return {d: {e: Fraction(c, m) for e, c in t.items()}
            for d, (m, t) in buckets.items()}


def _derivative_part(part: Mapping, i: int) -> dict:
    """d/dx_i of a term map ``{exps: coeff}`` without zero coefficients."""
    out = {}
    for e, c in part.items():
        k = e[i]
        if k:
            out[e[:i] + (k - 1,) + e[i + 1 :]] = c * k
    return out


def _scale(buckets: Mapping, c) -> dict:
    """``c`` times a degree-bucketed term map, zero terms and buckets dropped."""
    out = {}
    for d, part in buckets.items():
        part = {e: c * v for e, v in part.items() if v}
        if part:
            out[d] = part
    return out


def graded_exp(parts: Mapping, top: int, unit: tuple, budget: int | None = None) -> dict:
    """exp(F) for F = sum_{k>=1} F_k, grade by grade, through grade ``top``.

    Uses d * E_d = sum_{k=1..d} k * F_k * E_{d-k}, which follows from
    E' = F' E for the derivative counting the grade.  Each F_k and E_d is a
    term map bucketed by weighted degree, ``{w: {exps: coeff}}``, and
    ``unit`` is the exponent tuple of the constant 1.  Parts of grade 0 or
    above ``top`` are ignored.  With ``budget``, a grade-d term of weighted
    degree w is kept only when w + d <= budget.

    Returns ``{d: E_d}`` for the nonzero E_d, 0 <= d <= top.

    >>> e = graded_exp({1: {1: {(1,): Fraction(1)}}}, 3, (0,))
    >>> [e[d][d][(d,)] for d in range(4)]
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 2), Fraction(1, 6)]
    """
    scaled = [(k, _int_buckets(parts[k])) for k in sorted(parts) if 0 < k <= top]
    out = {0: {0: (1, {unit: 1})}}
    for d in range(1, top + 1):
        limit = inf if budget is None else budget - d
        pairs = [(k, kf, out[d - k]) for k, kf in scaled if d - k in out]
        acc = _mul_sum(pairs, limit, d)
        if acc:
            out[d] = acc
    return {d: _fraction_buckets(part) for d, part in out.items()}


def graded_log(parts: Mapping, top: int, unit: tuple) -> dict:
    """log(G) for G = 1 + sum_{k>=1} G_k, grade by grade, through grade ``top``.

    Uses d * L_d = d * G_d - sum_{k=1..d-1} k * L_k * G_{d-k}, which follows
    from G L' = G' for the derivative counting the grade.  The parts are
    bucketed as in :func:`graded_exp`; the constant 1 is implied, and parts
    of grade 0 or above ``top`` are ignored.

    Returns ``{d: L_d}`` for the nonzero L_d, 1 <= d <= top.

    >>> l = graded_log({1: {1: {(1,): Fraction(1)}}}, 3, (0,))
    >>> [l[d][d][(d,)] for d in range(1, 4)]
    [Fraction(1, 1), Fraction(-1, 2), Fraction(1, 3)]
    """
    G = {k: _int_buckets(parts[k]) for k in sorted(parts) if 0 < k <= top}
    one = {0: (1, {unit: 1})}
    out: dict = {}
    for d in range(1, top + 1):
        pairs = [(d, G[d], one)] if d in G else []
        pairs += [(-k, lk, G[d - k]) for k, lk in out.items() if d - k in G]
        acc = _mul_sum(pairs, inf, d)
        if acc:
            out[d] = acc
    return {d: _fraction_buckets(part) for d, part in out.items()}


class MultiSeries:
    """Sparse multivariate series truncated by weighted total degree.

    Monomials are exponent tuples over a fixed :class:`Grading`; only
    monomials of weighted degree <= ``max_degree`` are stored, and explicit
    zeros are dropped.  The terms grouped by weighted degree are built on
    first use and kept (see :meth:`buckets`).  Only the public constructor
    computes weighted degrees: sums, negation, scalar products, products,
    derivatives and truncations build their results from the operands'
    buckets, and may share unchanged buckets with them.
    """

    __slots__ = ("grading", "terms", "max_degree", "_buckets")

    def __init__(self, grading: Grading, terms: Mapping[tuple, Fraction], max_degree: int):
        self.grading = grading
        self.max_degree = max_degree
        clean = {}
        for exps, c in terms.items():
            c = _q(c)
            if c == 0:
                continue
            if grading.degree(exps) <= max_degree:
                clean[tuple(exps)] = c
        self.terms = clean
        self._buckets = None

    @classmethod
    def from_buckets(cls, grading: Grading, buckets: dict, max_degree: int) -> "MultiSeries":
        """Series from degree buckets holding only nonzero terms of weighted
        degree <= ``max_degree``; takes ownership of ``buckets``, whose
        bucket dicts may be shared with other series but are never
        modified."""
        self = cls.__new__(cls)
        self.grading = grading
        self.max_degree = max_degree
        self.terms = {e: c for part in buckets.values() for e, c in part.items()}
        self._buckets = buckets
        return self

    def buckets(self) -> dict:
        """The terms grouped by weighted degree, ``{d: {exps: coeff}}``.

        Computed once and shared with the series: callers must not modify it.
        """
        if self._buckets is None:
            deg = self.grading.degree
            out: dict = {}
            for e, c in self.terms.items():
                out.setdefault(deg(e), {})[e] = c
            self._buckets = out
        return self._buckets

    @classmethod
    def zero(cls, grading: Grading, max_degree: int) -> "MultiSeries":
        return cls(grading, {}, max_degree)

    @classmethod
    def constant(cls, grading: Grading, c, max_degree: int) -> "MultiSeries":
        z = (0,) * len(grading)
        return cls(grading, {z: _q(c)}, max_degree)

    @classmethod
    def variable(cls, grading: Grading, name: str, max_degree: int) -> "MultiSeries":
        i = grading.index[name]
        exps = tuple(1 if j == i else 0 for j in range(len(grading)))
        return cls(grading, {exps: Q(1)}, max_degree)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(exps)
        if self.grading.degree(exps) > self.max_degree:
            raise IndexError("monomial beyond weighted truncation degree")
        return self.terms.get(exps, Q(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.grading), Q(0))

    def truncate(self, max_degree: int) -> "MultiSeries":
        n = min(max_degree, self.max_degree)
        kept = {d: part for d, part in self.buckets().items() if d <= n}
        return MultiSeries.from_buckets(self.grading, kept, n)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        n = min(self.max_degree, other.max_degree)
        return self.truncate(n).terms == other.truncate(n).terms

    def __add__(self, other) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            other = MultiSeries.constant(self.grading, other, self.max_degree)
        n = min(self.max_degree, other.max_degree)
        out = {d: part for d, part in self.buckets().items() if d <= n}
        for d, part in other.buckets().items():
            if d > n:
                continue
            if d in out:
                merged = dict(out[d])
                for e, c in part.items():
                    if e in merged:
                        c += merged[e]
                        if not c:
                            del merged[e]
                            continue
                    merged[e] = c
                part = merged
            if part:
                out[d] = part
            else:
                del out[d]
        return MultiSeries.from_buckets(self.grading, out, n)

    __radd__ = __add__

    def __neg__(self) -> "MultiSeries":
        return MultiSeries.from_buckets(
            self.grading, _scale(self.buckets(), -1), self.max_degree
        )

    def __sub__(self, other) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            other = MultiSeries.constant(self.grading, other, self.max_degree)
        return self + (-other)

    def __rsub__(self, other) -> "MultiSeries":
        return (-self) + other

    def __mul__(self, other) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            c = _q(other)
            buckets = _scale(self.buckets(), c) if c else {}
            return MultiSeries.from_buckets(self.grading, buckets, self.max_degree)
        n = min(self.max_degree, other.max_degree)
        pairs = [(1, _int_buckets(self.buckets()), _int_buckets(other.buckets()))]
        out = _fraction_buckets(_mul_sum(pairs, n))
        return MultiSeries.from_buckets(self.grading, out, n)

    __rmul__ = __mul__

    def derivative(self, name: str) -> "MultiSeries":
        i = self.grading.index[name]
        w = self.grading.weights[i]
        out = {}
        for d, part in self.buckets().items():
            part = _derivative_part(part, i)
            if part:
                out[d - w] = part
        # Differentiation lowers weighted degree uniformly by the weight of
        # the variable, so the truncation window stays valid as-is.
        return MultiSeries.from_buckets(self.grading, out, self.max_degree)

    def _graded(self, recurrence) -> "MultiSeries":
        """``recurrence`` (graded_exp or graded_log) with the weighted degree
        as the grade."""
        parts = {d: {d: part} for d, part in self.buckets().items()}
        out = recurrence(parts, self.max_degree, (0,) * len(self.grading))
        return MultiSeries.from_buckets(
            self.grading, {d: part[d] for d, part in out.items()}, self.max_degree
        )

    def exp(self) -> "MultiSeries":
        """exp of a series with zero constant term."""
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        return self._graded(graded_exp)

    def log(self) -> "MultiSeries":
        """log of a series with constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("log requires constant term 1")
        return self._graded(graded_log)

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [{"exps": list(e), "coeff": str(c)} for e, c in items]

    def __repr__(self):
        names = self.grading.names
        terms = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{names[i]}^{k}" for i, k in enumerate(e) if k
            )
            terms.append(f"{c}" + (f"*{mono}" if mono else ""))
        return f"MultiSeries({' + '.join(terms) or '0'}; deg<={self.max_degree})"


class BiPoly:
    """Bivariate polynomial with exact coefficients, truncated by total degree.

    Used for the edge-factor and Vandermonde divisions: sparse dict from
    (i, j) exponent pairs to Fraction.
    """

    __slots__ = ("terms", "max_degree")

    def __init__(self, terms: Mapping[tuple, Fraction], max_degree: int):
        self.max_degree = max_degree
        self.terms = {
            (i, j): _q(c)
            for (i, j), c in terms.items()
            if c != 0 and i + j <= max_degree
        }

    @classmethod
    def zero(cls, max_degree: int) -> "BiPoly":
        return cls({}, max_degree)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        n = min(self.max_degree, other.max_degree)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Q(0)) + c
        return BiPoly(out, n)

    def __neg__(self) -> "BiPoly":
        return BiPoly({e: -c for e, c in self.terms.items()}, self.max_degree)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            c = _q(other)
            return BiPoly({e: c * v for e, v in self.terms.items()}, self.max_degree)
        n = min(self.max_degree, other.max_degree)
        out: dict[tuple, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                if i1 + i2 + j1 + j2 <= n:
                    e = (i1 + i2, j1 + j2)
                    out[e] = out.get(e, Q(0)) + c1 * c2
        return BiPoly(out, n)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Q(0))

    def swap(self) -> "BiPoly":
        return BiPoly({(j, i): c for (i, j), c in self.terms.items()}, self.max_degree)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        n = min(self.max_degree, other.max_degree)
        a = {e: c for e, c in self.terms.items() if e[0] + e[1] <= n}
        b = {e: c for e, c in other.terms.items() if e[0] + e[1] <= n}
        return a == b


class DivisibilityError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def divide_exact(num: BiPoly, den: tuple = (1, 1)) -> BiPoly:
    """Divide ``num`` exactly by the linear form a*x + b*y.

    ``den`` is the coefficient pair (a, b) with a != 0.  The division is
    performed degree by degree; a nonzero remainder raises
    :class:`DivisibilityError`, which signals an inconsistency upstream
    (e.g. a wrongly assembled edge factor).
    """
    a, b = _q(den[0]), _q(den[1])
    if a == 0:
        raise ValueError("leading coefficient of the divisor must be nonzero")
    rem = dict(num.terms)
    out: dict[tuple, Fraction] = {}
    # Eliminate highest x-power first: x^i y^j = (a x + b y)/a * x^(i-1) y^j - ...
    for i in range(num.max_degree, 0, -1):
        for j in range(num.max_degree - i + 1):
            c = rem.get((i, j), Q(0))
            if c == 0:
                continue
            q = c / a
            out[(i - 1, j)] = out.get((i - 1, j), Q(0)) + q
            rem.pop((i, j))
            key = (i - 1, j + 1)
            rem[key] = rem.get(key, Q(0)) - q * b
    leftovers = {e: c for e, c in rem.items() if c != 0}
    if leftovers:
        raise DivisibilityError(f"nonzero remainder: {leftovers}")
    return BiPoly(out, num.max_degree - 1)
