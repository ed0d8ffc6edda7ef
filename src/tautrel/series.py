r"""Exact truncated series arithmetic over the rationals.

One container covers everything the higher-level modules need:

- :class:`MultiSeries` -- sparse multivariate series truncated by a weighted
  total degree; each variable carries a positive integer weight, and
  :meth:`Grading.monomials` lists the exponent tuples of one weighted
  degree.  Series over different gradings do not combine.
- :class:`PowerSeries` -- the one-variable MultiSeries, in an unnamed
  variable x of weight 1, truncated at an explicit order (inclusive);
  :meth:`PowerSeries.parity_part` keeps its even or its odd terms.
- :class:`BiPoly` -- the two-variable MultiSeries, in x and y of weight 1,
  truncated by total degree; :func:`divide_exact` divides one exactly by
  x + y, one degree at a time.

A series is known through its truncation degree ``max_degree``, and each
result through the degree its operands determine, so no caller truncates
to compensate: a sum or product through the smaller degree, a derivative
by a variable of weight w through max_degree - w, and the product by its
k-th power, the re-keying :meth:`MultiSeries.times_monomial`, through
max_degree + k w.

:class:`MultiSeries` arithmetic runs on terms grouped by weighted degree.
A product multiplies only the pairs of groups whose degrees sum to at most
the truncation degree, so no pair of terms is formed and then discarded.
Every exp and log works weighted degree by weighted degree with the Euler
operator theta, which multiplies the part of weighted degree d by d.  As
theta is a derivation, theta(exp F) = theta(F) exp F, whose degree-d part
reads, with E = exp F,

    d * E_d = sum_{k=1..d} k * F_k * E_{d-k},

and theta(G) = G theta(log G) gives, for L = log G with G_0 = 1,

    d * L_d = d * G_d - sum_{k=1..d-1} k * L_k * G_{d-k}.

These are the weighted forms of the recurrences in Brent and Kung, "Fast
algorithms for manipulating formal power series" (JACM 1978), each written
once: :func:`graded_exp` and :func:`graded_log`, on the weighted-degree
buckets of :meth:`MultiSeries.exp` and :meth:`MultiSeries.log` (for a
PowerSeries the powers of x), and :meth:`PowerSeries.reciprocal` is
exp(-log(f/f_0))/f_0.  Neither takes a budget: a cut such as "weighted
degree plus power of 1/z at most D" is the weighted truncation over one
more variable, of weight 1.
:meth:`MultiSeries.substitute` replaces variables by series homogeneous of
their weights, such as the shift t_i -> t_i - (2i-1)!! x^{2i+1} of
descendent theory, one variable at a time by one product call; with no
images it only re-keys a series by name into another grading.

No floating point enters this module.  A :class:`MultiSeries` stores each
weighted degree as integer numerators over one common denominator, in
lowest terms, ``{d: (m, {exps: c})}``; :func:`graded_exp` and
:func:`graded_log` take and return such buckets.  Sums, scalar products
and derivatives make one gcd per bucket.  One sparse kernel, ``_mul_sum``,
accumulates each output degree of a sum of products over one common
denominator: :meth:`MultiSeries.sum_of_products`, which ``*`` calls with
one pair; :func:`divide_exact` solves on the same buckets.  This storage
is private to the module: other modules build a series from Fraction
terms, read it through :attr:`MultiSeries.terms`, and take its homogeneous
part of one weighted degree with :meth:`MultiSeries.part`.  Fractions are
built only where coefficients leave the series.  Values are immutable
after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import add, itemgetter, mul
from typing import Mapping, Sequence


Q = Fraction


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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

    def monomial(self, name: str, k: int = 1) -> tuple:
        """The exponents of the variable ``name`` to the power k."""
        i = self.index[name]
        return (0,) * i + (k,) + (0,) * (len(self.names) - i - 1)

    def monomials(self, degree: int) -> list:
        """Every exponent tuple of weighted degree ``degree``, in
        lexicographic order.

        The tuples of the later variables are built last variable first,
        as (degree r, exponents) pairs ordered by descending r; the first
        variable's exponent is then solved from the remainder, so each
        such tuple yields at most one monomial.

        >>> Grading(["a", "b", "c"], [1, 2, 3]).monomials(3)
        [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
        """
        if not self.weights or degree < 0:
            return [()] if degree == 0 else []
        below = [(0, ())]
        for w in reversed(self.weights[1:]):
            # A stable sort keeps, within one degree, the exponent k
            # ascending and then the tuples below in their order.
            below = sorted([(r + k * w, (k,) + e) for r, e in below
                            for k in range((degree - r) // w + 1)], key=itemgetter(0), reverse=True)
        w = self.weights[0]
        return [((degree - r) // w,) + e for r, e in below if (degree - r) % w == 0]


def _lowest(m: int, acc: dict):
    """The bucket ``(m, acc)`` divided by gcd(m, *acc), without zero terms;
    None when no term is left."""
    g = gcd(m, *acc.values())
    if g != 1 or 0 in acc.values():
        acc = {e: c // g for e, c in acc.items() if c}
    return (m // g, acc) if acc else None


def _mul_sum(pairs, limit, den: int = 1) -> dict:
    """sum s * A * B / ``den`` over (s, A, B) in ``pairs``, integer buckets.

    Only bucket pairs with d1 + d2 <= ``limit`` are multiplied.  Each output
    degree accumulates over the lcm of its pairs' denominators and is
    returned reduced, without zero terms or empty buckets.  The bucket
    pairs of one output degree are formed only when that degree is
    accumulated, so no more than one degree's pairs are held at a time.
    They are found by scanning the operand with fewer buckets and looking
    up the other.
    """
    degrees = dict.fromkeys(d1 + d2 for _, a, b in pairs for d1 in a for d2 in b
                            if d1 + d2 <= limit)
    pairs = [(s, a, b) if len(a) <= len(b) else (s, b, a) for s, a, b in pairs]
    out = {}
    for d in degrees:
        items = [(s, p1, b[d - d1]) for s, a, b in pairs for d1, p1 in a.items()
                 if d - d1 in b]
        m = lcm(*(m1 * m2 for _, (m1, _), (m2, _) in items))
        acc: dict = {}
        for s, (m1, t1), (m2, t2) in items:
            s *= m // (m1 * m2)
            for e1, c1 in t1.items():
                if s != 1:
                    c1 *= s
                for e2, c2 in t2.items():
                    e = tuple(map(add, e1, e2))
                    if e in acc:
                        acc[e] += c1 * c2
                    else:
                        acc[e] = c1 * c2
        part = _lowest(m * den, acc)
        if part:
            out[d] = part
    return out


def graded_exp(parts: Mapping, top: int, unit: tuple) -> dict:
    """exp(F) for F = sum_{d>=1} F_d, degree by degree, through weighted
    degree ``top``.

    Uses d * E_d = sum_{k=1..d} k * F_k * E_{d-k}, which follows from
    theta(E) = theta(F) E for the Euler operator theta.  F_d and E_d are
    the integer buckets of weighted degree d, ``{d: (m, {exps: c})}``, and
    ``unit`` is the exponent tuple of the constant 1.  Parts of degree 0 or
    above ``top`` are ignored.

    Returns ``{d: E_d}`` for the nonzero E_d, 0 <= d <= top, each bucket in
    lowest terms.

    >>> graded_exp({1: (1, {(1,): 1})}, 3, (0,))
    {0: (1, {(0,): 1}), 1: (1, {(1,): 1}), 2: (2, {(2,): 1}), 3: (6, {(3,): 1})}
    """
    F = [(k, {k: parts[k]}) for k in sorted(parts) if 0 < k <= top]
    out = {0: (1, {unit: 1})}
    for d in range(1, top + 1):
        acc = _mul_sum([(k, f, {d - k: out[d - k]}) for k, f in F if d - k in out], inf, d)
        if acc:
            out[d] = acc[d]
    return out


def graded_log(parts: Mapping, top: int, unit: tuple) -> dict:
    """log(G) for G = 1 + sum_{d>=1} G_d, degree by degree, through weighted
    degree ``top``.

    Uses d * L_d = d * G_d - sum_{k=1..d-1} k * L_k * G_{d-k}, which follows
    from G theta(L) = theta(G).  The parts are integer buckets as in
    :func:`graded_exp`; the constant 1 is implied, and parts of degree 0 or
    above ``top`` are ignored.

    Returns ``{d: L_d}`` for the nonzero L_d, 1 <= d <= top.

    >>> graded_log({1: (1, {(1,): 1})}, 3, (0,))
    {1: (1, {(1,): 1}), 2: (2, {(2,): -1}), 3: (3, {(3,): 1})}
    """
    G = {k: {k: parts[k]} for k in sorted(parts) if 0 < k <= top}
    one = {0: (1, {unit: 1})}
    out: dict = {}
    for d in range(1, top + 1):
        pairs = [(d, G[d], one)] if d in G else []
        pairs += [(-k, {k: lk}, G[d - k]) for k, lk in out.items() if d - k in G]
        acc = _mul_sum(pairs, inf, d)
        if acc:
            out[d] = acc[d]
    return out


class MultiSeries:
    """Sparse multivariate series truncated by weighted total degree.

    Monomials are exponent tuples over a fixed :class:`Grading`; only
    monomials of weighted degree <= ``max_degree`` are kept.  The series is
    stored as integer buckets, one per weighted degree d,
    ``{d: (m, {exps: c})}``: the coefficient of exps is c / m, with m > 0,
    gcd(m, *c) = 1, no c zero and no bucket empty.  This form is canonical.
    Only the public constructor computes weighted degrees: sums, negation,
    products, derivatives, truncations, exp and log build their results
    from the operands' buckets by ``self.from_buckets``, so a subclass
    keeps its class, and may share unchanged buckets with them.  Fractions
    are built only for :attr:`terms` and the accessors on top of it.
    """

    __slots__ = ("grading", "max_degree", "_buckets", "_terms")

    def __init__(self, grading: Grading, terms: Mapping[tuple, Fraction], max_degree: int):
        self.grading = grading
        self.max_degree = max_degree
        n = len(grading)
        parts: dict = {}
        for exps, c in terms.items():
            if len(exps) != n:
                raise ValueError(f"exponents {tuple(exps)} do not match the grading")
            c = _q(c)
            if c:
                d = grading.degree(exps)
                if d <= max_degree:
                    parts.setdefault(d, {})[tuple(exps)] = c
        # Each degree over the lcm of its denominators, in lowest terms.
        self._buckets = {}
        for d, part in parts.items():
            m = lcm(*(c.denominator for c in part.values()))
            self._buckets[d] = _lowest(m, {e: c.numerator * (m // c.denominator)
                                           for e, c in part.items()})
        self._terms = None

    @classmethod
    def from_buckets(cls, grading: Grading, buckets: dict, max_degree: int) -> "MultiSeries":
        """Series from integer buckets ``{d: (m, {exps: c})}`` in the
        canonical form of the class, all of degree <= ``max_degree``; takes
        ownership of ``buckets``, whose buckets may be shared with other
        series but are never modified."""
        self = cls.__new__(cls)
        self.grading = grading
        self.max_degree = max_degree
        self._buckets = buckets
        self._terms = None
        return self

    @property
    def terms(self) -> dict:
        """The terms ``{exps: coeff}`` as Fractions, built on first use."""
        if self._terms is None:
            self._terms = {e: Fraction(c, m) for m, t in self._buckets.values()
                           for e, c in t.items()}
        return self._terms

    # These build a MultiSeries over any grading, also when called on a
    # subclass, whose constructor fixes its own grading.
    @staticmethod
    def zero(grading: Grading, max_degree: int) -> "MultiSeries":
        return MultiSeries(grading, {}, max_degree)

    @staticmethod
    def constant(grading: Grading, c, max_degree: int) -> "MultiSeries":
        z = (0,) * len(grading)
        return MultiSeries(grading, {z: _q(c)}, max_degree)

    @staticmethod
    def variable(grading: Grading, name: str, max_degree: int) -> "MultiSeries":
        return MultiSeries(grading, {grading.monomial(name): Q(1)}, max_degree)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(exps)
        if len(exps) != len(self.grading):
            raise ValueError(f"exponents {exps} do not match the grading")
        if self.grading.degree(exps) > self.max_degree:
            raise IndexError("monomial beyond weighted truncation degree")
        return self.terms.get(exps, Q(0))

    def part(self, d: int) -> "MultiSeries":
        """The homogeneous part of weighted degree d, a series of the same
        class known as far as this one; the zero series if no term has
        degree d.

        >>> MultiSeries(Grading(["x"], [2]), {(0,): 1, (1,): 3}, 4).part(2)
        MultiSeries(3*x^1; deg<=4)
        """
        kept = {d: self._buckets[d]} if d in self._buckets else {}
        return self.from_buckets(self.grading, kept, self.max_degree)

    def truncate(self, max_degree: int) -> "MultiSeries":
        n = min(max_degree, self.max_degree)
        kept = {d: b for d, b in self._buckets.items() if d <= n}
        return self.from_buckets(self.grading, kept, n)

    def is_zero(self) -> bool:
        return not self._buckets

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        n = min(self.max_degree, other.max_degree)
        return (self.grading == other.grading
                and self.truncate(n)._buckets == other.truncate(n)._buckets)

    def _check_grading(self, *others: "MultiSeries") -> None:
        """Raise ValueError unless ``others`` are over the same grading: the
        exponent tuples of two alphabets do not combine."""
        if any(o.grading is not self.grading and o.grading != self.grading for o in others):
            raise ValueError("series over different gradings do not combine")

    def __add__(self, other) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            other = MultiSeries.constant(self.grading, other, self.max_degree)
        self._check_grading(other)
        n = min(self.max_degree, other.max_degree)
        out = {d: b for d, b in self._buckets.items() if d <= n}
        for d, (m2, t2) in other._buckets.items():
            if d > n:
                continue
            if d not in out:
                out[d] = (m2, t2)
                continue
            # Both over lcm(m1, m2), then one gcd for the bucket.
            m1, t1 = out[d]
            m = lcm(m1, m2)
            s1, s2 = m // m1, m // m2
            acc = {e: c * s1 for e, c in t1.items()} if s1 != 1 else dict(t1)
            for e, c in t2.items():
                acc[e] = acc.get(e, 0) + c * s2
            part = _lowest(m, acc)
            if part:
                out[d] = part
            else:
                del out[d]
        return self.from_buckets(self.grading, out, n)

    __radd__ = __add__

    def __neg__(self) -> "MultiSeries":
        out = {d: (m, {e: -c for e, c in t.items()})
               for d, (m, t) in self._buckets.items()}
        return self.from_buckets(self.grading, out, self.max_degree)

    def __sub__(self, other) -> "MultiSeries":
        return self + (-other)

    def __rsub__(self, other) -> "MultiSeries":
        return (-self) + other

    def __mul__(self, other) -> "MultiSeries":
        return self._product(other)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs, den: int = 1) -> "MultiSeries":
        """sum s * a * b / ``den`` over (s, a, b) in ``pairs``, for integer s,
        ``den`` > 0 and factors over one grading, in the first factor's class:
        one accumulation per weighted degree, through the least truncation.

        >>> x = PowerSeries([0, 1], 3)
        >>> MultiSeries.sum_of_products([(1, x, x), (3, x, PowerSeries([1], 2))], 2)
        PowerSeries(3/2*x^1 + 1/2*x^2 + O(x^3))
        """
        if not pairs or den <= 0:
            raise ValueError("a sum of products takes one pair or more and den > 0")
        first = pairs[0][1]
        first._check_grading(*(f for _, a, b in pairs for f in (a, b)))
        n = min(min(a.max_degree, b.max_degree) for _, a, b in pairs)
        out = _mul_sum([(s, a._buckets, b._buckets) for s, a, b in pairs], n, den)
        return first.from_buckets(first.grading, out, n)

    def _product(self, other) -> "MultiSeries":
        """The product with a series over the same grading or a scalar: the
        one body of every class's ``__mul__``, apart from it so that
        perfbench/tracer.py times PowerSeries and BiPoly products apart."""
        if isinstance(other, MultiSeries):
            return MultiSeries.sum_of_products([(1, self, other)])
        # p/q times c/m is (c / h)(p / g) over (m / g)(q / h), with
        # g = gcd(p, m) and h = gcd(q, *c): already in lowest terms.
        c = _q(other)
        p, q = c.numerator, c.denominator
        if not p:
            return self.from_buckets(self.grading, {}, self.max_degree)
        out = {}
        for d, (m, t) in self._buckets.items():
            g, h = gcd(p, m), gcd(q, *t.values())
            pg = p // g
            out[d] = (m // g * (q // h), {e: c // h * pg for e, c in t.items()})
        return self.from_buckets(self.grading, out, self.max_degree)

    def derivative(self, name: str) -> "MultiSeries":
        """The derivative by ``name``, known w degrees less than the series
        for ``name`` of weight w."""
        i = self.grading.index[name]
        w = self.grading.weights[i]
        out = {}
        for d, (m, t) in self._buckets.items():
            acc = {}
            for e, c in t.items():
                k = e[i]
                if k:
                    acc[e[:i] + (k - 1,) + e[i + 1 :]] = c * k
            b = _lowest(m, acc)
            if b:
                out[d - w] = b
        return self.from_buckets(self.grading, out, self.max_degree - w)

    def times_monomial(self, name: str, k: int = 1) -> "MultiSeries":
        """``name`` to the power k >= 0 times the series: a re-keying,
        known k w degrees further than the series for ``name`` of weight w.

        >>> x = Grading(["x"], [2])
        >>> MultiSeries(x, {(0,): 1, (1,): 3}, 2).times_monomial("x")
        MultiSeries(1*x^1 + 3*x^2; deg<=4)
        """
        i = self.grading.index[name]
        shift = k * self.grading.weights[i]
        out = {d + shift: (m, {e[:i] + (e[i] + k,) + e[i + 1 :]: c for e, c in t.items()})
               for d, (m, t) in self._buckets.items()}
        return self.from_buckets(self.grading, out, self.max_degree + shift)

    def substitute(self, grading: Grading, images: Mapping[str, "MultiSeries"]) -> "MultiSeries":
        """The series re-keyed by variable name into ``grading``, with each
        variable named in ``images`` replaced by its image.

        ``grading`` holds every variable of the series at its weight, except
        those heavier than its truncation degree, which no term holds.  An
        image is a series over ``grading``, homogeneous of its variable's
        weight w and truncated no lower than w, so every term keeps its
        weighted degree.  It may hold its own variable but no other replaced
        one, so replacing one variable at a time, by one product call that
        sums group_k * image^k over the terms grouped by the exponent k of
        the variable, is the simultaneous substitution.

        >>> xy = Grading(["x", "y"], [1, 1])
        >>> f = MultiSeries(Grading(["x"], [1]), {(2,): 1}, 3)
        >>> f.substitute(xy, {"x": MultiSeries(xy, {(1, 0): 1, (0, 1): 1}, 3)})
        MultiSeries(1*y^2 + 2*x^1*y^1 + 1*x^2; deg<=3)
        """
        slots = [grading.index.get(name) for name in self.grading.names]
        if any(w <= self.max_degree if j is None else grading.weights[j] != w
               for j, w in zip(slots, self.grading.weights)):
            raise ValueError("the grading lacks a variable of the series at its weight")
        replaced = {grading.index.get(name): image for name, image in images.items()}
        if None in replaced:
            raise ValueError("the grading lacks a replaced variable")
        for i, image in replaced.items():
            w = grading.weights[i]
            if (image.grading != grading or image.max_degree < w
                    or any(d != w for d in image._buckets)
                    or any(e[j] for _, t in image._buckets.values() for e in t
                           for j in replaced if j != i)):
                raise ValueError("each image must be over the grading, homogeneous of "
                                 "its variable's weight and free of other replaced variables")
        n = len(grading)

        def rekey(e):
            key = [0] * n
            for j, k in zip(slots, e):
                if k:
                    key[j] = k
            return tuple(key)

        buckets = {d: (m, {rekey(e): c for e, c in t.items()}) for d, (m, t) in self._buckets.items()}
        for i, image in replaced.items():
            w = grading.weights[i]
            groups: dict = {}
            for d, (m, t) in buckets.items():
                for e, c in t.items():
                    # The terms of one (k, degree) group all come from bucket d.
                    k = e[i]
                    group = groups.setdefault(k, {}).setdefault(d - k * w, (m, {}))
                    group[1][e[:i] + (0,) + e[i + 1 :]] = c
            power, pairs = {0: (1, {(0,) * n: 1})}, []
            for k in range(max(groups, default=0) + 1):
                if k:
                    power = _mul_sum([(1, power, image._buckets)], self.max_degree)
                pairs.append((1, groups.get(k, {}), power))
            buckets = _mul_sum(pairs, self.max_degree)
        return MultiSeries.from_buckets(grading, buckets, self.max_degree)

    def exp(self) -> "MultiSeries":
        """exp of a series with zero constant term."""
        if 0 in self._buckets:
            raise ValueError("exp requires zero constant term")
        out = graded_exp(self._buckets, self.max_degree, (0,) * len(self.grading))
        return self.from_buckets(self.grading, out, self.max_degree)

    def log(self) -> "MultiSeries":
        """log of a series with constant term 1."""
        unit = (0,) * len(self.grading)
        if self._buckets.get(0) != (1, {unit: 1}):
            raise ValueError("log requires constant term 1")
        out = graded_log(self._buckets, self.max_degree, unit)
        return self.from_buckets(self.grading, out, self.max_degree)

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


# The one variable x of weight 1 that every PowerSeries is graded by.
_X = Grading(["x"], [1])


class PowerSeries(MultiSeries):
    """Truncated power series sum_{k=0}^{order} c_k x^k: the
    :class:`MultiSeries` over the one variable x of weight 1, so bucket k
    holds the x^k term and ``max_degree`` is the order.

    Arithmetic between two series truncates to the smaller order.  Sums,
    products, truncations, exp and log are the MultiSeries ones, and they
    return PowerSeries.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence, order: int | None = None):
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        super().__init__(_X, {(k,): c for k, c in enumerate(coeffs)}, order)

    @property
    def order(self) -> int:
        return self.max_degree

    @property
    def coeffs(self) -> tuple:
        """(c_0, ..., c_order), the Fractions of :attr:`terms`."""
        t, zero = self.terms, Q(0)
        return tuple(t.get((k,), zero) for k in range(self.max_degree + 1))

    def __getitem__(self, k: int) -> Fraction:
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.terms.get((k,), Q(0))

    def __mul__(self, other) -> "PowerSeries":
        return self._product(other)

    __rmul__ = __mul__

    def derivative(self) -> "PowerSeries":
        """Formal derivative, known through order - 1; at order 0 that is
        order -1, the series of which no coefficient is known."""
        return super().derivative("x")

    def scale_argument(self, c) -> "PowerSeries":
        """Replace x by c*x: the term c_k x^k becomes c_k c^k x^k."""
        c = _q(c)
        p, q = c.numerator, c.denominator
        out = {}
        for k, (m, t) in self._buckets.items():
            part = _lowest(m * q**k, {(k,): t[(k,)] * p**k})
            if part:
                out[k] = part
        return self.from_buckets(self.grading, out, self.max_degree)

    def parity_part(self, parity: int) -> "PowerSeries":
        """The terms whose exponent has the given parity, 0 or 1:
        (f(x) + (1 - 2 parity) f(-x)) / 2.

        >>> PowerSeries([1, 2, 3, 4]).parity_part(1)
        PowerSeries(2*x^1 + 4*x^3 + O(x^4))
        """
        kept = {k: b for k, b in self._buckets.items() if k % 2 == parity}
        return self.from_buckets(self.grading, kept, self.max_degree)

    def reciprocal(self) -> "PowerSeries":
        """1/f = exp(-log(f/f_0))/f_0; requires nonzero constant term."""
        if 0 not in self._buckets:
            raise ValueError("reciprocal requires nonzero constant term")
        inv0 = 1 / self[0]
        return (-(self * inv0).log()).exp() * inv0

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __repr__(self):
        terms = [
            f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"PowerSeries({body} + O(x^{self.order + 1}))"


# The two variables x and y of weight 1 that every BiPoly is graded by.
_XY = Grading(["x", "y"], [1, 1])


class BiPoly(MultiSeries):
    """Polynomial in x and y truncated by total degree: the
    :class:`MultiSeries` over x and y of weight 1, so bucket d holds the
    terms x^i y^(d-i).  Sums, products and equality are the MultiSeries
    ones; sums and products return BiPoly.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple, Fraction], max_degree: int):
        super().__init__(_XY, terms, max_degree)

    def __mul__(self, other) -> "BiPoly":
        return self._product(other)

    __rmul__ = __mul__


class DivisibilityError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def divide_exact(num: BiPoly) -> BiPoly:
    """Divide ``num`` exactly by x + y, one degree at a time.

    The quotient's coefficients of x^(k-1) y^(d-k) are solved from the
    numerator's degree-d bucket for k = d down to 1, and the coefficient
    of y^d is the remainder.  A nonzero remainder raises
    :class:`DivisibilityError`, which signals an inconsistency upstream
    (e.g. a wrongly assembled edge factor).

    >>> divide_exact(BiPoly({(2, 0): 1, (0, 2): -1}, 2)).terms
    {(1, 0): Fraction(1, 1), (0, 1): Fraction(-1, 1)}
    """
    out = {}
    for d, (m, t) in num._buckets.items():
        # With t_k the numerator's integer at x^k y^(d-k) and c_(d+1) = 0,
        # c_k = t_k - c_(k+1) gives the quotient's coefficient c_k / m of
        # x^(k-1) y^(d-k), and the remainder c_0 / m of y^d.
        acc, c = {}, 0
        for k in range(d, 0, -1):
            c = t.get((k, d - k), 0) - c
            acc[(k - 1, d - k)] = c
        c = t.get((0, d), 0) - c
        if c:
            raise DivisibilityError(f"nonzero remainder: {Fraction(c, m)}*y^{d}")
        part = _lowest(m, acc)
        if part:
            out[d - 1] = part
    return BiPoly.from_buckets(_XY, out, num.max_degree - 1)
