"""Mutation rows for the verify suites: each row breaks one kernel by a
source edit and requires the suites it names to fail.

A row names the module and function to edit, one text replacement in
the function's source, the modules whose binding of the function the
edited copy replaces, and the checks of each suite that must fail.
Each row runs in a fresh interpreter, so no patched function or cached
value outlives it.  The unmutated row shows that the suites pass
without an edit, so a failure of the other rows is the edit's doing.
The rows in ``HOLES`` are edits no check catches yet; they are strict
xfails, so they fail once a check catches them.

No mutation reaches ``verify frobenius``'s ``gamma_limit``: it compares
two forms of one rational function, and its boundary value of Phi is
also covered by ``phi_ode``.  It checks nothing, which is the reason to
delete it (ROADMAP item 15).
"""

import json
import os
import subprocess
import sys
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
    "h1_z3_doubled": (
        "pixton", "_h_coeffs",
        ("series[k] for k",
         "series[k] * (2 if (which, k) == (1, 3) else 1) for k"),
        ("pixton",),
        {"all": None},
    ),
    "log_psi_doubled": (
        "fz", "_log_psi", (".log()", ".log() * 2"), ("fz",),
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
        ("series", "open_potential"),
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
        ("series", "open_potential"),
        {"series": ["reflection"],
         "descendents": ["airy_specialization", "determinantal_N1", "kdv_1",
                         "kdv_2", "virasoro_L-1", "virasoro_L0",
                         "virasoro_L1", "virasoro_L2"],
         "open": ["open_three_way", "open_virasoro_L-1", "open_virasoro_L0",
                  "open_virasoro_L1"],
         "pixton": ["pairings_2_0__1"],
         "all": ["airy_specialization", "determinantal_N1", "kdv_1", "kdv_2",
                 "open_three_way", "open_virasoro_L-1", "open_virasoro_L0",
                 "open_virasoro_L1", "pairings_2_0__1", "reflection",
                 "virasoro_L-1", "virasoro_L0", "virasoro_L1",
                 "virasoro_L2"]},
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
        ("parts[kappa_degree(e) % 2][e] = c",
         "parts[kappa_degree(e) % 2][e] = c * (2 if e == (1,) else 1)"),
        ("pixton",),
        {"pixton": ["pairings_1_1_1_1", "pairings_2_0__1"],
         "all": ["pairings_1_1_1_1", "pairings_2_0__1"]},
    ),
    # The quotient, not the numerator: an edited numerator no longer
    # divides by psi' + psi'', and DivisibilityError stops every check.
    "edge_sector00_doubled": (
        "pixton", "edge_factor",
        ("divide_exact(BiPoly(terms, t), (1, 1))",
         "divide_exact(BiPoly(terms, t), (1, 1)) * (2 if p == (0, 0) else 1)"),
        ("pixton",),
        {"pixton": ["edge_constant_parity00", "pairings_1_1_1_1",
                    "pairings_2_0__1"],
         "all": ["edge_constant_parity00", "pairings_1_1_1_1",
                 "pairings_2_0__1"]},
    ),
    # product_consistency alone guards the c1 table of CP^1.
    "cp1_c1_lambda_plus_1": (
        "frobenius", "cp1_structure", ("one * lam", "one * (lam + 1)"),
        ("frobenius",),
        {"frobenius": ["product_cp1"], "all": ["product_cp1"]},
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
}


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
