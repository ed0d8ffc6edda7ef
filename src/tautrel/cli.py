"""Command-line entry point.

Subcommands expose each module's computations and the verification
suites with machine-readable output:

- ``series``: coefficients of the named hypergeometric series;
- ``airy``: numeric-vs-asymptotic comparison reports (the only
  subcommand emitting decimals; everything else stays rational);
- ``descendents``: the closed and open potentials and single
  intersection numbers;
- ``fz``: kappa-polynomial relations;
- ``strata``: stable-graph census with automorphism orders;
- ``pixton``: relation classes as decorated-graph sums;
- ``frobenius``: the R-matrix and flatness residuals;
- ``verify``: the invariant suites, in dependency order for ``all``.
  Each suite is a generator of its checks; one driver, ``_run_suite``,
  fills in the default order from ``_SUITES``, the table of each
  suite's default and least ``--order``, times the suite and builds its
  report; ``_verified`` raises on failed checks, for ``all`` only once
  every suite has run.

Exit codes: 0 on success, 1 on a failed check or invalid input data
(with a structured diff naming the location), 2 on usage errors, which
include an argument below the smallest value its computation runs at
and a ``pixton --a`` whose length is not ``--n``.  A reader that closes
the output pipe early ends the run quietly, with the report's own exit
code.  Rationals serialize as "p/q" strings.
"""

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import airy, descendents, frobenius, fz, named_series, open_potential
from . import pixton, strata
from .fz import NotARelationError
from .pixton import NotInPixtonSetError
from .series import Grading, PowerSeries

__all__ = ["main", "dispatch"]


class CheckFailure(Exception):
    """A verification check failed; carries the structured report."""

    def __init__(self, report):
        super().__init__(report.get("message", "check failed"))
        self.report = report


def _checked(convert, what, ok=lambda value: True):
    """An argparse type: ``convert`` the text and test ``ok`` on the
    value; a ValueError or a failed test expects ``what``."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected %s, got %r" % (what, text))

    return parse


_nonneg_int = _checked(int, "a non-negative integer", lambda n: n >= 0)
_parse_int_list = _checked(
    lambda text: tuple(map(int, text.split(","))) if text.strip() else (),
    "a comma-separated integer list")
_exponents = _checked(_parse_int_list, "a nonempty list of non-negative "
                      "integers", lambda ks: ks and min(ks) >= 0)
_markings = _checked(_parse_int_list, "a comma-separated list of 0s and 1s",
                     lambda a: set(a) <= {0, 1})


# The Airy ODE oracle works at about 1.9 x^1.5 extra bits and sums more
# than 3x Taylor terms, so its cost grows faster than x^3: on one Xeon
# core x = 400 takes about 70 s, and x = 1e6 did not end within minutes.
AIRY_MAX_X = 500.0
_airy_x = _checked(float, "a finite positive number <= %g" % AIRY_MAX_X,
                   lambda x: 0 < x <= AIRY_MAX_X)


def _partition(text):
    """A comma-separated partition with no part congruent to 2 mod 3."""
    sigma = _parse_int_list(text)
    try:
        fz.normalize_partition(sigma)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return sigma


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a JSON-ready report dict)

_SERIES = {
    "A": named_series.series_A,
    "B": named_series.series_B,
    "calA": named_series.series_calA,
    "calB": named_series.series_calB,
    "H0": named_series.series_H0,
    "H1": named_series.series_H1,
    "D": named_series.series_D,
}


def cmd_series(args):
    ps = _SERIES[args.which](args.order)
    return {
        "series": args.which,
        "order": args.order,
        "coefficients": [str(c) for c in ps.coeffs],
    }


def cmd_airy(args):
    # airy loads mpmath on first use, after dispatch's freeze.  Loaded
    # and frozen here, its modules are not scanned at exit either.
    if "mpmath" not in sys.modules:
        import mpmath  # noqa: F401
        gc.freeze()
    try:
        out = airy.asymptotic_report(
            args.x, args.k, prime=args.prime,
            precision_bits=args.precision_bits,
        )
    except airy.OracleDisagreement as exc:
        raise CheckFailure(
            {
                "message": "the quadrature and ODE oracles disagree",
                "location": {"x": args.x, "prime": args.prime},
                "quadrature": str(exc.quadrature),
                "ode": str(exc.ode),
                "precision_bits": args.precision_bits,
            }
        )
    except airy.QuadratureBudgetExceeded as exc:
        raise CheckFailure(
            {
                "message": "the quadrature oracle did not converge",
                "location": {"x": args.x, "prime": args.prime},
                "evaluations": exc.evaluations,
                "precision_bits": args.precision_bits,
            }
        )
    out["precision_bits"] = args.precision_bits
    if not out["envelope_ok"]:
        raise CheckFailure(
            {
                "message": "asymptotic truncation outside the error envelope",
                "location": {"x": args.x, "terms": args.k},
                "computed": out["abs_error"],
                "expected_at_most": "2 * %s" % out["first_omitted_magnitude"],
            }
        )
    return out


def cmd_descendents_closed(args):
    Fc = descendents.build_Fc(args.degree)
    return {"degree": args.degree, "potential": Fc.to_json()}


def cmd_descendents_open(args):
    Fc = descendents.build_Fc(args.degree)
    Fo = open_potential.solve_open_kdv(Fc, args.degree)
    return {"degree": args.degree, "potential": Fo.to_json()}


def cmd_descendents_table(args):
    ks = args.ks
    try:
        value = descendents.bracket(ks)
    except RecursionError:
        # The recursion runs about sum(ks) + len(ks) deep.
        raise CheckFailure(
            {
                "message": "the bracket recursion exceeded Python's "
                "recursion limit",
                "location": {"ks": list(ks)},
            }
        )
    return {"ks": list(ks), "value": str(value)}


def cmd_fz(args):
    try:
        rel = fz.fz_relation(args.g, args.r, args.sigma)
    except NotARelationError as exc:
        raise CheckFailure(
            {
                "message": str(exc),
                "location": {"g": args.g, "r": args.r, "sigma": list(args.sigma)},
            }
        )
    return {
        "g": args.g,
        "r": args.r,
        "sigma": list(args.sigma),
        "relation": {
            ("*".join("k%d^%d" % (a, x) for a, x in enumerate(e, start=1) if x)
             or "1"): str(c)
            for e, c in sorted(rel.items())
        },
    }


def cmd_strata(args):
    try:
        graphs = strata.enumerate_stable_graphs(args.g, args.n)
    except ValueError as exc:
        raise CheckFailure(
            {"message": str(exc), "location": {"g": args.g, "n": args.n}}
        )
    out = []
    for gr in graphs:
        item = gr.to_json()
        item["automorphisms"] = strata.automorphism_order(gr)
        out.append(item)
    return {"g": args.g, "n": args.n, "count": len(graphs), "graphs": out}


def cmd_pixton(args):
    A = args.a
    try:
        el = pixton.pixton_class(args.g, args.n, A, args.d)
    except (NotInPixtonSetError, ValueError) as exc:
        raise CheckFailure(
            {
                "message": str(exc),
                "location": {
                    "g": args.g,
                    "n": args.n,
                    "a": list(A),
                    "d": args.d,
                },
            }
        )
    return {"g": args.g, "n": args.n, "a": list(A), "d": args.d,
            "class": el.to_json()}


def cmd_frobenius(args):
    if args.action == "flatness":
        return _verified(_run_suite("flatness", args.order, args.seed))
    # The R-matrix defaults to the order ``verify frobenius`` checks it at.
    order = _SUITES["frobenius"][1] if args.order is None else args.order
    if args.model == "3spin":
        return {"model": "3spin", "order": order,
                "r_matrix": frobenius.r_matrix_json(frobenius.solve_R(order))}
    # The exponential model is covered by its leading-order limit.
    ps = frobenius.cp1_leading_limit(order)
    return {
        "model": "cp1",
        "order": order,
        "leading_limit": [str(c) for c in ps.coeffs],
    }


# ---------------------------------------------------------------------------
# verification suites


def _check(name, description, ok, expected=None, computed=None):
    item = {"name": name, "check": description, "ok": bool(ok)}
    if expected is not None:
        item["expected"] = expected
    if computed is not None:
        item["computed"] = computed
    return item


def _reflection_holds(H0, H1, order):
    """H0(T)H1(-T) + H0(-T)H1(T) == 2 through T^order, from half-size
    products.

    Write H = E(u) + T O(u) with u = T^2.  The left side is then
    2 (E0 E1 - u O0 O1), whose odd part vanishes identically, so the
    identity says E0 E1 - u O0 O1 == 1 through u^(order // 2), with
    u O0 O1 formed by a re-keying.
    """
    m = order // 2
    E0, E1 = (PowerSeries(H.coeffs[::2], m) for H in (H0, H1))
    O0, O1 = (PowerSeries(H.coeffs[1::2], m) for H in (H0, H1))
    return E0 * E1 - (O0 * O1).times_monomial("x") == PowerSeries([1], m)


def _suite_series(order, seed):
    """The ODEs of A and B, the reflection identity of H0 and H1 (from
    half-size products, see _reflection_holds), the printed leading
    coefficients and the ODE of D, through the given order.  Products
    with powers of z are re-keyings (MultiSeries.times_monomial), so A
    through order + 1 gives both ODEs through the order."""
    A = named_series.series_A(order + 1)
    B = named_series.series_B(order)
    ode1 = (
        A.derivative().times_monomial("x", 2) * 3
        + A.times_monomial("x") * Fraction(1, 2)
        - A
        - B
    )
    yield _check(
        "first_ode",
        "3z^2 A' + (z/2 - 1)A - B == 0 through z^%d" % order,
        ode1.is_zero(),
        computed=None if ode1.is_zero() else ode1.to_json(),
    )
    Ap = A.derivative()
    ode2 = (
        Ap.derivative().times_monomial("x", 2) * 3
        + Ap.times_monomial("x") * 6
        - Ap * 2
        + A * Fraction(5, 12)
    )
    yield _check(
        "second_ode",
        "3z^2 A'' + (6z - 2)A' + (5/12)A == 0 through z^%d" % order,
        ode2.is_zero(),
    )
    H0 = named_series.series_H0(order)
    H1 = named_series.series_H1(order)
    yield _check(
        "reflection",
        "H0(T)H1(-T) + H0(-T)H1(T) == 2 through T^%d" % order,
        _reflection_holds(H0, H1, order),
    )
    printed = {
        "H0": ([H0[0], H0[1], H0[2]], [Fraction(1), Fraction(-60), Fraction(27720)]),
        "H1": ([H1[0], H1[1], H1[2]], [Fraction(1), Fraction(84), Fraction(-32760)]),
    }
    for name, (got, want) in printed.items():
        yield _check(
            "coefficients_%s" % name,
            "leading coefficients of %s, a pin of printed constants" % name,
            got == want,
            expected=[str(c) for c in want],
            computed=[str(c) for c in got],
        )
    d_order = min(order, 21)
    yield _check(
        "d_series_ode",
        "closed-form D equals its ODE solution through x^%d" % d_order,
        named_series.series_D(d_order) == named_series.series_D_ode(d_order),
    )


def _suite_descendents(degree, seed):
    Fc = descendents.build_Fc(degree)
    E = Fc.exp()
    for n in range(-1, 3):
        res = descendents.apply_L(n, E)
        yield _check(
            "virasoro_L%d" % n,
            "L_%d exp(F^c) == 0 at weighted degree <= %d" % (n, res.max_degree),
            res.is_zero(),
        )
    for which in (1, 2):
        res = descendents.kdv_residual(Fc, which)
        yield _check(
            "kdv_%d" % which,
            "KdV residual %d vanishes through degree %d"
            % (which, res.max_degree),
            res.is_zero(),
        )
    # One specialization of exp(F^c) serves both Airy checks.
    det = descendents.determinant_formula_check(Fc, 1, min(degree - 2, 12))
    spec = det["series"]
    target = [Fraction(1), Fraction(-5, 24), Fraction(385, 1152)]
    got = [spec.coefficient(spec.grading.monomial("x1", k)) for k in (0, 3, 6)]
    yield _check(
        "airy_specialization",
        "specialized exp(F^c) reproduces the A-series coefficients",
        got == target,
        expected=[str(c) for c in target],
        computed=[str(c) for c in got],
    )
    yield _check(
        "determinantal_N1",
        "determinantal formula, one variable",
        det["ok"],
    )


def _suite_open(degree, seed):
    Fc = descendents.build_Fc(degree)
    Fo = open_potential.solve_open_kdv(Fc, degree)
    Fb = open_potential.buryak_formula(Fc, degree)
    yield _check(
        "open_three_way",
        "open KdV solution == closed-form construction, degree <= %d"
        % degree,
        Fo == Fb,
    )
    E = open_potential.open_exp(Fo, Fc)
    for n in (-1, 0, 1):
        res = open_potential.open_virasoro_residual(n, E)
        yield _check(
            "open_virasoro_L%d" % n,
            "open Virasoro residual %d vanishes through degree %d"
            % (n, res.max_degree),
            res.is_zero(),
        )
    yield _check(
        "restriction",
        "restriction to the initial potential s^3/6 + t0 s",
        open_potential.restriction_check(Fo),
    )


def _suite_strata(order, seed):
    census = [((0, 3), 1), ((1, 1), 2), ((2, 0), 7), ((3, 0), 42)]
    for (g, n), want in census:
        got = len(strata.enumerate_stable_graphs(g, n))
        yield _check(
            "census_%d_%d" % (g, n),
            "stable-graph count at (g, n) = (%d, %d)" % (g, n),
            got == want,
            expected=want,
            computed=got,
        )
    aut_cases = [
        (strata.StableGraph((1,), (0,), []), 1),
        (strata.StableGraph((1,), (), [(0, 0)]), 2),
        (strata.StableGraph((0, 0), (), [(0, 1)] * 3), 12),
    ]
    for gr, want in aut_cases:
        got = strata.automorphism_order(gr)
        yield _check(
            "aut_order",
            "automorphism order of %s" % (gr.key(),),
            got == want,
            expected=want,
            computed=got,
        )


def _pixton_pairings(g, n, A, d):
    """(class terms, pairings made, the nonzero pairings) of a class."""
    el = pixton.pixton_class(g, n, A, d)
    extra = 3 * g - 3 + n - d
    values = [(psis, ke, v) for psis in _compositions(extra, n)
              for ke, v in strata.pairings(el, psis).items()]
    bad = [{"psi": list(psis), "kappa": list(ke), "value": str(v)}
           for psis, ke, v in values if v != 0]
    return len(el.terms), len(values), bad


def _compositions(total, n):
    """The psi exponents of n legs summing to at most ``total``, in
    lexicographic order: the monomials of degree ``total`` in n + 1
    variables of weight 1, the last one taking up the slack.

    >>> _compositions(1, 2)
    [(0, 0), (0, 1), (1, 0)]
    """
    slack = Grading(["psi%d" % i for i in range(n)] + ["slack"], [1] * (n + 1))
    return [e[:-1] for e in slack.monomials(total)]


def _suite_pixton(order, seed):
    sec = pixton.edge_factor(1)
    edge_values = {
        "constant_parity11": (sec[(1, 1)].coefficient((0, 0)), Fraction(60)),
        "constant_parity00": (sec[(0, 0)].coefficient((0, 0)), Fraction(-84)),
        "linear_same_side": (sec[(1, 0)].coefficient((1, 0)), Fraction(32760)),
        "linear_cross_side": (sec[(1, 0)].coefficient((0, 1)), Fraction(-27720)),
    }
    for name, (got, want) in edge_values.items():
        yield _check(
            "edge_%s" % name,
            "edge-factor coefficient %s, a pin of a printed constant" % name,
            got == want,
            expected=str(want),
            computed=str(got),
        )
    for g, n, A, d in [(1, 1, (1,), 1), (2, 0, (), 1), (2, 1, (1,), 1)]:
        terms, count, bad = _pixton_pairings(g, n, A, d)
        # A class with no terms pairs to 0 vacuously.
        yield dict(
            _check(
                "pairings_%d_%d_%s_%d" % (g, n, "".join(map(str, A)), d),
                "all %d pairings of the (%d,%d) class vanish" % (count, g, n),
                not bad,
                computed=bad or None,
            ),
            class_terms=terms,
        )


def _suite_frobenius(order, seed):
    R = frobenius.solve_R(order)
    target = frobenius.hypergeometric_r_matrix(order)
    yield _check(
        "r_matrix",
        "flatness-recursion R equals the A/B matrix through z^%d" % order,
        R == target,
        computed=None if R == target else frobenius.r_matrix_json(R),
    )
    for data, label in [
        (frobenius.spin3_structure(), "3spin"),
        (frobenius.cp1_structure(Fraction(2)), "cp1"),
    ]:
        yield _check(
            "product_%s" % label,
            "product table matches the potential (%s)" % label,
            frobenius.product_consistency(*data),
        )
    phi = frobenius.cp1_phi_ode_check(seed=seed)
    yield _check(
        "phi_ode",
        "second-order ODE for the q-hypergeometric series",
        phi["ok"],
        computed=phi["samples"],
    )
    yield _check(
        "gamma_limit",
        "Gamma functional-equation limit identity",
        frobenius.cp1_gamma_limit_check(seed=seed),
    )
    yield _check(
        "leading_limit",
        "Gaussian-moment leading limit equals the A series",
        frobenius.cp1_leading_limit(10) == named_series.series_A(10),
    )


def _suite_flatness(order, seed):
    for branch in (1, -1):
        res = frobenius.airy_flatness_check(order, branch=branch)
        for name, (offset, series) in res.items():
            note = ", zero as G does not depend on t0" if name.startswith("t0") else ""
            yield _check(
                "branch%+d_%s" % (branch, name),
                "flatness residual %s, branch %+d, through z^%d%s"
                % (name, branch, order, note),
                series.is_zero(),
                computed=None if series.is_zero() else frobenius.rho_json(offset, series),
            )


# Each verify suite yields its checks from (order, seed); beside it are
# its default and its least --order, both None for the suites that run
# fixed cases and take no order.  In dependency order, the order
# ``verify all`` runs them in.
_SUITES = {
    "series": (_suite_series, 30, 2),
    "descendents": (_suite_descendents, 12, 8),
    "open": (_suite_open, 8, 1),
    "strata": (_suite_strata, None, None),
    "pixton": (_suite_pixton, None, None),
    "frobenius": (_suite_frobenius, 6, 1),
    "flatness": (_suite_flatness, 6, 2),
}


def _run_suite(name, order, seed):
    """Run a verify suite at ``order`` (None: its default) and return its
    timed report."""
    checks_of, default, _ = _SUITES[name]
    if order is None:
        order = default
    started = time.monotonic()
    checks = list(checks_of(order, seed))
    return {
        "suite": name,
        "order": order,
        "seed": seed,
        "wall_time_s": round(time.monotonic() - started, 3),
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def _verified(report):
    """``report``, of one suite or of all in its "suites"; raise
    CheckFailure naming every failed suite and check instead, if any."""
    suites = report.get("suites", [report])
    bad = [c for suite in suites for c in suite["checks"] if not c["ok"]]
    if bad:
        names = ", ".join(repr(suite["suite"]) for suite in suites if not suite["ok"])
        raise CheckFailure(
            {
                "message": "suite %s failed %d check(s)" % (names, len(bad)),
                "failures": bad,
                "report": report,
            }
        )
    return report


def cmd_verify(args):
    if args.suite != "all":
        return _verified(_run_suite(args.suite, args.order, args.seed))
    started = time.monotonic()
    # Every suite runs, so a failure lists the failed checks of all.
    reports = [_run_suite(name, None, args.seed) for name in _SUITES]
    return _verified({
        "suite": "all",
        "seed": args.seed,
        "wall_time_s": round(time.monotonic() - started, 3),
        "suites": reports,
        "ok": all(r["ok"] for r in reports),
    })


# ---------------------------------------------------------------------------
# output and dispatch


def _flatten_csv(report):
    rows = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(prefix + (str(k),), v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(prefix + (str(i),), v)
        else:
            rows.append((".".join(prefix), value))

    walk((), report)
    return rows


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in _flatten_csv(report):
            writer.writerow([key, value])
        return buf.getvalue().rstrip("\n")
    # text
    lines = []
    for key, value in _flatten_csv(report):
        lines.append("%s: %s" % (key, value))
    return "\n".join(lines)


def _before_mode(text):
    """The type of a common option given before the ``descendents`` mode:
    a usage error under the option's name (the mode's default would win)."""
    raise argparse.ArgumentTypeError(
        "given before the mode; options follow the mode (closed, open or table)")


class _Parser(argparse.ArgumentParser):
    """Reads -1,2 as a value, not an option; subparsers share the class."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d[\d,]*|\d*\.\d+)$")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write the report here")

    parser = _Parser(
        prog="tautrel",
        description="exact computations with the hypergeometric relation "
        "series and tautological classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", parents=[common])
    p.add_argument("--which", choices=sorted(_SERIES), default="A")
    p.add_argument("--order", type=_nonneg_int, default=10)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("airy", parents=[common])
    p.add_argument(
        "--x", type=_airy_x, default=10.0,
        help="the point, 0 < x <= %g (default 10)" % AIRY_MAX_X,
    )
    p.add_argument("--k", type=_nonneg_int, default=3)
    p.add_argument("--prime", action="store_true")
    p.add_argument("--precision-bits", default=128,
                   type=_checked(int, "an integer >= 64", lambda n: n >= 64))
    p.set_defaults(func=cmd_airy)

    # The group rejects the common options: each mode sets its own
    # defaults, which would override one given before the mode.
    p = sub.add_parser("descendents")
    for option in ("--format", "--seed", "--out"):
        p.add_argument(option, type=_before_mode, default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
    dsub = p.add_subparsers(dest="mode", required=True)
    d = dsub.add_parser("closed", parents=[common])
    d.add_argument("--degree", type=_nonneg_int, default=8)
    d.set_defaults(func=cmd_descendents_closed)
    d = dsub.add_parser("open", parents=[common])
    d.add_argument("--degree", type=_nonneg_int, default=6)
    d.set_defaults(func=cmd_descendents_open)
    d = dsub.add_parser("table", parents=[common])
    d.add_argument("--ks", type=_exponents, required=True)
    d.set_defaults(func=cmd_descendents_table)

    p = sub.add_parser("fz", parents=[common])
    p.add_argument("--g", type=_nonneg_int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sigma", type=_partition, default=())
    p.set_defaults(func=cmd_fz)

    p = sub.add_parser("strata", parents=[common])
    p.add_argument("--g", type=_nonneg_int, required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("pixton", parents=[common])
    p.add_argument("--g", type=_nonneg_int, required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--a", type=_markings, default=())
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_pixton)

    p = sub.add_parser("frobenius", parents=[common])
    p.add_argument(
        "action", choices=("r-matrix", "flatness"), nargs="?",
        default="r-matrix",
    )
    p.add_argument("--model", choices=("3spin", "cp1"), default="3spin")
    p.add_argument("--order", type=_nonneg_int, default=None)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.add_argument(
        "--order", type=_nonneg_int, default=None,
        help="the order to run at; not taken by %s"
        % ", ".join(sorted(["all"] + [name for name, (_, _, low)
                                     in _SUITES.items() if low is None])),
    )
    p.set_defaults(func=cmd_verify)

    return parser


def _order_floor(args):
    """The computation that --order sizes, and the least order it takes:
    None if it takes no order."""
    if args.command == "verify":
        # "all" runs every suite at its default order.
        return args.suite, None if args.suite == "all" else _SUITES[args.suite][2]
    if args.command != "frobenius":
        return None, 0
    if args.action == "flatness":
        return "flatness", _SUITES["flatness"][2]
    # The 3-spin R-matrix starts at z^1; the cp1 limit takes any order.
    return "r-matrix " + args.model, 1 if args.model == "3spin" else 0


def dispatch(argv):
    """Parse argv, run the subcommand, and return (exit_code, rendered).

    >>> code, out = dispatch(["fz", "--g", "4", "--r", "1"])
    >>> code
    1
    """
    # The objects built so far, the interpreter's and the imports', mostly
    # live as long as the process.  Frozen, no collection scans them, and
    # neither does the exit: a fresh process exits in about 2.5 ms instead
    # of 10 ms (README).
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    name, low = _order_floor(args)
    order = getattr(args, "order", None)
    if order is not None and low is None:
        parser.error("argument --order: verify %s takes no order" % name)
    if order is not None and order < low:
        parser.error(
            "argument --order: %s needs an integer >= %d, got %d"
            % (name, low, order)
        )
    if args.command == "pixton" and len(args.a) != args.n:
        parser.error("argument --a: expected one entry per leg, --n %d, got %d"
                     % (args.n, len(args.a)))
    if args.command == "frobenius" and name == "flatness" and args.model != "3spin":
        parser.error(
            "argument --model: flatness is computed for 3spin only, got %s"
            % args.model
        )
    try:
        # Opened before the run, so that a path that cannot be written
        # costs no computation.
        out = open(args.out, "w") if args.out else contextlib.nullcontext()
    except OSError as exc:
        parser.error("argument --out: can't open %r: %s" % (args.out, exc.strerror))
    with out:
        try:
            report = args.func(args)
            code = 0
        except CheckFailure as exc:
            report = dict(exc.report)
            report["ok"] = False
            code = 1
        rendered = render(report, args.format)
        if args.out:
            out.write(rendered + "\n")
    return code, rendered


def main(argv=None):
    code, rendered = dispatch(sys.argv[1:] if argv is None else argv)
    try:
        print(rendered)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Python flushes stdout again at exit, so point
        # it at devnull, or that flush raises once more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
