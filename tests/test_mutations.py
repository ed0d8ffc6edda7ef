"""Mutation rows for the verify suites: each row breaks one kernel, or
the formula of one check as its negative control, by a source edit and
requires the suites it names to fail.

A row names the module and function to edit, one text replacement in
the function's source, the modules whose binding of the function the
edited copy replaces, and the checks of each suite that must fail.
Each row runs in a fresh interpreter, so no patched function or cached
value outlives it.  The unmutated row shows that the suites pass
without an edit, so a failure of the other rows is the edit's doing.
The rows in ``HOLES`` are edits no check catches yet; they are strict
xfails, so they fail once a check catches them.

No kernel mutation reaches ``verify frobenius``'s ``gamma_limit``: it
compares two forms of one rational function, and its boundary value of
Phi is also covered by ``phi_ode``.  Only an edit of the check itself
fails it (``gamma_limit_shift_plus_1``).  It checks nothing, which is
the reason to delete it (ROADMAP item 15).
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from importlib import import_module
from pathlib import Path

import pytest

import tautrel

_RUN = """
import inspect, json, sys, textwrap
from importlib import import_module
from tautrel import cli

row = json.loads(sys.argv[1])
if row["function"]:
    home = import_module("tautrel." + row["module"])
    source = textwrap.dedent(inspect.getsource(getattr(home, row["function"])))
    old, new = row["edit"]
    assert source.count(old) == 1, "the edit no longer matches the source"
    scope = dict(vars(home))
    exec(source.replace(old, new), scope)
    for name in row["bound_in"]:
        setattr(import_module("tautrel." + name), row["function"],
                scope[row["function"]])
failed = {}
for suite in row["suites"]:
    code, out = cli.dispatch(["verify", suite, "--format", "json"])
    report = json.loads(out)
    failed[suite] = sorted(c["name"] for c in report.get("failures", []))
print(json.dumps(failed))
"""

# id: (module, function, (old, new), modules binding the function,
#      {suite: checks that must fail}); None for the checks of a hole
#      (see HOLES) asks only that some check of the suite fail.
MUTATIONS = {
    "none": (None, None, None, (),
             {suite: [] for suite in ("series", "descendents", "open",
                                      "strata", "pixton", "frobenius",
                                      "flatness", "all")}),
    "a3_doubled": (
        "named_series", "_a_coeffs",
        ("return tuple(out)",
         "return tuple(v * (2 if i == 3 else 1) for i, v in enumerate(out))"),
        ("named_series",),
        {"series": ["first_ode", "reflection", "second_ode"],
         "descendents": ["determinantal_N1"],
         "frobenius": ["leading_limit", "r_matrix"],
         "all": ["determinantal_N1", "first_ode", "leading_limit", "r_matrix",
                 "reflection", "second_ode"]},
    ),
    "tau4_genus2_doubled": (
        "descendents", "_scaled_bracket",
        ("return total\n", "return total * (2 if ks == (4,) else 1)\n"),
        ("descendents",),
        {"descendents": ["determinantal_N1", "virasoro_L0", "virasoro_L1"],
         "pixton": ["pairings_2_0__1"],
         "all": ["determinantal_N1", "pairings_2_0__1", "virasoro_L0",
                 "virasoro_L1"]},
    ),
    "automorphism_order_doubled": (
        "strata", "automorphism_order",
        ("return order", "return 2 * order"), ("strata",),
        {"strata": ["aut_order"], "all": ["aut_order"]},
    ),
    "tau7_genus3_doubled": (
        "descendents", "_scaled_bracket",
        ("return total\n", "return total * (2 if ks == (7,) else 1)\n"),
        ("descendents",),
        {"all": None},
    ),
    # H1 as pixton reads it, in its leg and edge factors.
    "h1_z3_doubled": (
        "named_series", "series_H1",
        ("return -series_B(order).scale_argument(-288)",
         "return PowerSeries([c * (2 if k == 3 else 1) for k, c in enumerate("
         "(-series_B(order).scale_argument(-288)).coeffs)], order)"),
        ("pixton",),
        {"all": None},
    ),
    "log_psi_doubled": (
        "fz", "_log_a", (".log()", ".log() * 2"), ("fz",),
        {"all": None},
    ),
    # The integration layer's dimension counts: both edits leave every
    # pairing of verify all vanishing, vacuously.
    "vertex_integral_kappa_degree_plus_1": (
        "strata", "vertex_integral", ("3 * h - 3", "3 * h - 2"), ("strata",),
        {"all": None},
    ),
    "pairings_top_plus_1": (
        "strata", "pairings",
        ("top = 3 * g - 3 + n", "top = 3 * g - 2 + n"), ("strata",),
        {"all": None},
    ),
    "beta_recursion_d_over_25": (
        "frobenius", "_canonical_components",
        ("d[k] / 24", "d[k] / 25"), ("frobenius",),
        {"frobenius": ["r_matrix"],
         "flatness": ["branch-1_second_order", "branch-1_t1_0",
                      "branch-1_t1_1"],
         "all": ["branch-1_second_order", "branch-1_t1_0", "branch-1_t1_1",
                 "r_matrix"]},
    ),
    "phi_q2_doubled": (
        "named_series", "series_Phi",
        ("coeffs.append(acc)", "coeffs.append(acc * (2 if i == 2 else 1))"),
        ("frobenius",),
        {"frobenius": ["phi_ode"], "all": ["phi_ode"]},
    ),
    "mul_sum_denominator_plus_1": (
        "series", "_mul_sum",
        ("_lowest(m * den, acc)", "_lowest(m * den + (den > 1), acc)"),
        ("series",),
        {"descendents": ["airy_specialization", "determinantal_N1",
                         "virasoro_L-1", "virasoro_L0", "virasoro_L1",
                         "virasoro_L2"],
         "open": ["open_three_way", "open_virasoro_L-1", "open_virasoro_L0",
                  "open_virasoro_L1"],
         "pixton": ["pairings_2_0__1"],
         "all": ["airy_specialization", "determinantal_N1", "open_three_way",
                 "open_virasoro_L-1", "open_virasoro_L0", "open_virasoro_L1",
                 "pairings_2_0__1", "virasoro_L-1", "virasoro_L0",
                 "virasoro_L1", "virasoro_L2"]},
    ),
    # series' reflection fails too: PowerSeries products run through
    # _mul_sum, the one product of the series core.
    "mul_sum_accumulate_overwrites": (
        "series", "_mul_sum", ("acc[e] += c1 * c2", "acc[e] = c1 * c2"),
        ("series",),
        {"series": ["reflection"],
         "descendents": ["airy_specialization", "determinantal_N1", "kdv_1",
                         "kdv_2", "virasoro_L-1", "virasoro_L0",
                         "virasoro_L1", "virasoro_L2"],
         "open": ["open_three_way", "open_virasoro_L-1", "open_virasoro_L0"],
         "pixton": ["pairings_2_0__1"],
         "all": ["airy_specialization", "determinantal_N1", "kdv_1", "kdv_2",
                 "open_three_way", "open_virasoro_L-1", "open_virasoro_L0",
                 "pairings_2_0__1", "reflection", "virasoro_L-1",
                 "virasoro_L0", "virasoro_L1", "virasoro_L2"]},
    ),
    "graded_exp_top_grade_dropped": (
        "series", "graded_exp", ("range(1, top + 1)", "range(1, top)"),
        ("series",),
        {"descendents": ["virasoro_L0", "virasoro_L1", "virasoro_L2"],
         "pixton": ["pairings_1_1_1_1", "pairings_2_0__1"],
         "all": ["pairings_1_1_1_1", "pairings_2_0__1", "virasoro_L0",
                 "virasoro_L1", "virasoro_L2"]},
    ),
    "vertex_kappa1_doubled": (
        "pixton", "vertex_factor",
        ("return {kappa_monomial(e): c for e, c in kappa.terms.items()}",
         "return {kappa_monomial(e): c * (2 if kappa_monomial(e) == (1,) else 1)"
         " for e, c in kappa.terms.items()}"),
        ("pixton",),
        {"pixton": ["pairings_1_1_1_1", "pairings_2_0__1"],
         "all": ["pairings_1_1_1_1", "pairings_2_0__1"]},
    ),
    # The quotient, not the numerator: an edited numerator no longer
    # divides by psi' + psi'', and DivisibilityError stops every check.
    "edge_sector00_doubled": (
        "pixton", "edge_factor",
        ("[(1, X[0][p], Y[1][1 - q]), (1, X[1][1 - p], Y[0][q])]))",
         "[(1, X[0][p], Y[1][1 - q]), (1, X[1][1 - p], Y[0][q])]))"
         " * (2 if (p, q) == (0, 0) else 1)"),
        ("pixton",),
        {"pixton": ["edge_constant_parity00", "pairings_1_1_1_1",
                    "pairings_2_0__1"],
         "all": ["edge_constant_parity00", "pairings_1_1_1_1",
                 "pairings_2_0__1"]},
    ),
    # The open KdV right side with its F_{t_0} Fc_{t_0 t_{n-1}} term
    # doubled: F^o changes only off the initial slice, so restriction holds.
    "open_rhs_half_term_doubled": (
        "open_potential", "solve_open_kdv",
        ("(2, dF((0,), a)", "(4, dF((0,), a)"), ("open_potential",),
        {"open": ["open_three_way", "open_virasoro_L-1", "open_virasoro_L0",
                  "open_virasoro_L1"],
         "all": ["open_three_way", "open_virasoro_L-1", "open_virasoro_L0",
                 "open_virasoro_L1"]},
    ),
    # The flatness operator without the term of the e^{u/z} factor.
    "flatness_without_exponential": (
        "frobenius", "_reduced_operator",
        ("return out.truncate(g.order) - g * branch",
         "return out.truncate(g.order)"),
        ("frobenius",),
        {"flatness": ["branch+1_second_order", "branch+1_t1_0", "branch+1_t1_1",
                      "branch-1_second_order", "branch-1_t1_0",
                      "branch-1_t1_1"],
         "all": ["branch+1_second_order", "branch+1_t1_0", "branch+1_t1_1",
                 "branch-1_second_order", "branch-1_t1_0", "branch-1_t1_1"]},
    ),
    # Gamma's argument and the power of -z shifted by +1 instead of -1.
    "gamma_limit_shift_plus_1": (
        "frobenius", "cp1_gamma_limit_check",
        ("lhs = -1 / z / z / (x - 1)", "lhs = -z / z * x"), ("frobenius",),
        {"frobenius": ["gamma_limit"], "all": ["gamma_limit"]},
    ),
    # product_consistency alone guards the c1 table of CP^1.
    "cp1_c1_lambda_plus_1": (
        "frobenius", "cp1_structure", ("one * lam", "one * (lam + 1)"),
        ("frobenius",),
        {"frobenius": ["product_cp1"], "all": ["product_cp1"]},
    ),
    # A potential is cut three degrees above its own, so its third
    # derivatives hold every entry of the product table, q's included.
    "cp1_c1_q_doubled": (
        "frobenius", "cp1_structure", ("c1 = ((zero, q),", "c1 = ((zero, q * 2),"),
        ("frobenius",),
        {"frobenius": ["product_cp1"], "all": ["product_cp1"]},
    ),
    "spin3_quartic_doubled": (
        "frobenius", "spin3_structure",
        ("(0, 4, 0): Fraction(1, 72)", "(0, 4, 0): Fraction(1, 36)"),
        ("frobenius",),
        {"frobenius": ["product_3spin"], "all": ["product_3spin"]},
    ),
}

# Mutations no check catches yet, each with the ROADMAP item whose checks
# must catch it.  The xfails are strict: when the item lands, the row
# passes, and the item deletes its entry here.
HOLES = {
    "tau7_genus3_doubled":
        "item 4: no verify descendents check reads a genus-3 one-point "
        "bracket",
    "h1_z3_doubled":
        "item 2: verify pixton reads H0 and H1 only through z^1",
    "log_psi_doubled":
        "item 1: verify all runs no fz suite",
    "vertex_integral_kappa_degree_plus_1":
        "items 20 and 25: no verify check compares an intersection number "
        "with an independent value, and a vanishing pairing may be vacuous",
    "pairings_top_plus_1":
        "items 20 and 25: no verify check compares an intersection number "
        "with an independent value, and a vanishing pairing may be vacuous",
}


@pytest.mark.parametrize("mutation", [m for m in MUTATIONS if MUTATIONS[m][1]])
def test_edit_matches_its_function_once(mutation):
    # Not an xfail: a row whose function or edit text is gone errors in
    # its subprocess, which a strict xfail would still report as xfailed.
    module, function, (old, _), bound_in, _ = MUTATIONS[mutation]
    home = import_module("tautrel." + module)
    assert hasattr(home, function), (module, function)
    source = textwrap.dedent(inspect.getsource(getattr(home, function)))
    assert source.count(old) == 1, (function, old)
    for name in bound_in:
        assert hasattr(import_module("tautrel." + name), function), name


@pytest.mark.parametrize("mutation", [
    pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=HOLES[m]))
    if m in HOLES else m for m in MUTATIONS])
def test_mutation_fails_its_checks(mutation):
    module, function, edit, bound_in, expected = MUTATIONS[mutation]
    row = {"module": module, "function": function, "edit": edit,
           "bound_in": bound_in, "suites": sorted(expected)}
    src = str(Path(tautrel.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(row)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    failed = json.loads(done.stdout)
    for suite, checks in expected.items():
        if checks is None:
            assert failed[suite], (suite, "no check fails")
            continue
        # Each named check fails; a later check may catch the edit too.
        assert set(checks) <= set(failed[suite]), (suite, failed[suite])
        assert bool(checks) == bool(failed[suite]), (suite, failed[suite])
