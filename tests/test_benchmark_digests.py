"""The benchmark's output checks, run in this process.

Every job that any seed of ``perfbench/workloads.py`` can pick runs
through ``cli.dispatch`` (the pairing job through ``pairings`` of
``perfbench/job.py``) and must pass every check of
``perfbench/checks.py`` against the digests of ``perfbench/reference.json``.
A change that moves a benchmarked report fails here, before the benchmark
runs.  The files under ``perfbench/`` are read, never written.
"""

import importlib.util
import json
from pathlib import Path

from tautrel import cli, pixton, strata

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py as a module of its own name, outside sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, job, workloads = map(load, ("checks", "job", "workloads"))


def test_every_benchmark_job_passes_its_checks():
    reference = json.loads((BENCH / "reference.json").read_text())
    failed = {}
    for argv in workloads.all_jobs():
        if argv[0] == "pairings":
            g, n, a, d = argv[1:]
            A = tuple(int(x) for x in a.split(",") if x)
            code, out = 0, json.dumps(job.pairings(pixton, strata, int(g), int(n), A, int(d)))
        else:
            code, out = cli.dispatch(list(argv) + ["--format", "json", "--seed", "0"])
        found, _ = checks.check_job(argv, code, out, reference)
        bad = [name for name, ok, _ in found if not ok]
        if bad:
            failed[checks.job_key(argv)] = bad
    assert not failed, failed
