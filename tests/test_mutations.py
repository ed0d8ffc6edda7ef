"""Mutation rows for the verify suites: each row breaks one kernel by a
source edit and requires the suites it names to fail.

A row names the module and function to edit, one text replacement in
the function's source, the modules whose binding of the function the
edited copy replaces, and the checks of each suite that must fail.
Each row runs in a fresh interpreter, so no patched function or cached
value outlives it.  The unmutated row shows that the suites pass
without an edit, so a failure of the other rows is the edit's doing.

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
#      {suite: checks that must fail}).
MUTATIONS = {
    "none": (None, None, None, (),
             {"frobenius": [], "flatness": []}),
    "beta_recursion_d_over_25": (
        "frobenius", "_canonical_components",
        ("d[k] / 24", "d[k] / 25"), ("frobenius",),
        {"frobenius": ["r_matrix"],
         "flatness": ["branch-1_second_order", "branch-1_t1_0",
                      "branch-1_t1_1"]},
    ),
    "phi_q2_doubled": (
        "named_series", "series_Phi",
        ("coeffs.append(acc)", "coeffs.append(acc * (2 if i == 2 else 1))"),
        ("frobenius",),
        {"frobenius": ["phi_ode"]},
    ),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
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
        # Each named check fails; a later check may catch the edit too.
        assert set(checks) <= set(failed[suite]), (suite, failed[suite])
        assert bool(checks) == bool(failed[suite]), (suite, failed[suite])
