"""Benchmark of the tautrel command line, one job at a time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

A run repeats passes of the workload's jobs (see workloads.py) for about
``--seconds``: it stops after the pass that brings it closest to that
time, and always runs at least one pass.  Each job is
a fresh Python process that imports tautrel from ``src/`` of this
checkout and runs one command line, as a researcher would run
``tautrel``; the next job starts only after the previous one's output
has been checked (a closed loop with one client).

With ``--trace 0`` the run reports the end-to-end metrics:

- ``wall_s``: median over passes of the seconds from launching a pass's
  first job to the checked output of its last;
- ``setup_s``: median over jobs of the seconds from spawning the job's
  process to its entry into ``tautrel.cli.dispatch``;
- ``peak_rss_mb``: the largest peak resident set of any job process.

With ``--trace 1`` every pass runs twice, untraced and then traced, and
the run reports the per-layer metrics of the traced passes, per pass,
with ``trace_overhead_ratio`` (median traced pass over median untraced
pass) and ``ops_failed_ratio`` (failed checks over checks made).

The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count checks (see checks.py).  ``correct`` is false when any check
fails, apart from the pairings of the known-defect job KNOWN_DEFECT,
whose failures are counted in ``failed`` and listed in the result file
under perfbench/out/.  The run exits 2 without a result when the
checkout has no tautrel source.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
JOB_TIMEOUT_S = 60

# Pixton classes in codimension >= 4 pair to nonzero values (ROADMAP
# item 1).  The job stays in `graphs` so the defect shows in `failed`.
KNOWN_DEFECT = workloads.PAIRING

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: (tracer name, stats).  A stat is a counter the
# tracer keeps, or a ratio computed in layer_metrics().
LAYERS = [
    ("series.MultiSeries.mul", ("calls", "self_s", "pairs", "kept_ratio")),
    ("series.MultiSeries.exp", ("calls", "incl_s")),
    ("series.MultiSeries.log", ("calls", "incl_s")),
    ("series.MultiSeries.add", ("calls", "self_s")),
    ("series.MultiSeries.derivative", ("calls", "self_s")),
    ("series.PowerSeries.mul", ("calls", "self_s")),
    ("series.BiPoly.mul", ("calls", "self_s")),
    ("named_series.series", ("calls", "self_s")),
    ("descendents.bracket", ("calls", "incl_s", "self_s", "cache_hit_ratio")),
    ("descendents.build_Fc", ("incl_s", "self_s", "terms")),
    ("descendents.apply_L", ("incl_s", "self_s")),
    ("descendents.kdv_residual", ("incl_s", "self_s")),
    ("descendents.determinant_formula_check", ("incl_s",)),
    ("open_potential.solve_open_kdv", ("incl_s", "self_s", "terms")),
    ("open_potential.buryak_formula", ("incl_s", "self_s")),
    ("open_potential.open_virasoro_residual", ("incl_s", "self_s")),
    ("strata.enumerate_stable_graphs",
     ("calls", "incl_s", "self_s", "graphs", "kept_ratio")),
    ("strata.StableGraph.init", ("calls", "self_s")),
    ("strata.automorphism_order", ("calls", "self_s")),
    ("strata.integrate", ("calls", "incl_s", "self_s")),
    ("strata.StrataElement.add_term", ("calls", "self_s")),
    ("strata.vertex_integral", ("cache_hit_ratio",)),
    ("pixton.pixton_class", ("calls", "incl_s", "self_s", "terms")),
    ("airy.airy_quadrature", ("calls", "self_s")),
    ("airy.airy_prime_quadrature", ("calls", "self_s")),
    ("airy.airy_ode", ("calls", "self_s")),
    ("airy.airy_prime_ode", ("calls", "self_s")),
    ("fz.fz_relation", ("calls", "incl_s")),
    ("frobenius.solve_R", ("incl_s",)),
    ("frobenius.hypergeometric_r_matrix", ("incl_s",)),
    ("frobenius.airy_flatness_check", ("incl_s",)),
    ("cli.dispatch", ("incl_s",)),
    ("cli.render", ("self_s", "bytes")),
]
UNITS = {"calls": "count", "incl_s": "s", "self_s": "s", "pairs": "count",
         "terms": "count", "graphs": "count", "bytes": "bytes",
         "kept_ratio": "ratio", "cache_hit_ratio": "ratio"}


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def job_argv(job, cli_seed):
    if cli_seed is None:
        return list(job)
    return list(job) + ["--format", "json", "--seed", str(cli_seed)]


def job_env():
    """The default environment, without a thread cap."""
    env = dict(os.environ)
    env.pop("TAUTREL_THREADS", None)
    return env


def run_job(job, cli_seed, trace, scratch):
    """Run one job in a fresh process and wait for it.

    Returns (code, stdout, launched, started, finished, maxrss_kb, meta):
    ``launched``, ``started`` and ``finished`` are monotonic times of
    the spawn, the entry into dispatch and the reaping of the process.
    """
    meta_path = scratch / "meta.json"
    out_path = scratch / "stdout"
    err_path = scratch / "stderr"
    meta_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "job.py"), str(meta_path),
            "1" if trace else "0"] + job_argv(job, cli_seed)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=job_env())
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        finished = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return (proc.returncode, out_path.read_text(), launched,
            meta.get("started"), finished, usage.ru_maxrss, meta)


def run_pass(jobs, trace, scratch, reference, record):
    """Run and check one pass; append per-job records to ``record``.

    Returns the pass's wall time and the tracer snapshots of its jobs.
    """
    snapshots = []
    t0 = time.monotonic()
    for job, cli_seed in jobs:
        code, stdout, launched, started, finished, rss_kb, meta = run_job(
            job, cli_seed, trace, scratch)
        found, report = checks.check_job(job, code, stdout, reference)
        entry = {
            "job": checks.job_key(job), "cli_seed": cli_seed,
            "traced": bool(trace), "code": code,
            "setup_s": None if started is None else started - launched,
            "job_s": finished - launched,
            "peak_rss_mb": rss_kb / 1024,
            "threads": (report or {}).get("threads"),
            "checks": len(found),
            "failures": [{"check": name, "detail": detail}
                         for name, ok, detail in found if not ok],
        }
        if code != 0:
            entry["stderr_tail"] = (scratch / "stderr").read_text()[-2000:]
        record.append(entry)
        if "trace" in meta:
            snapshots.append(meta["trace"])
    return time.monotonic() - t0, snapshots


def _merge(snapshots):
    total = {}
    for snap in snapshots:
        for name, counts in snap.items():
            into = total.setdefault(name, {})
            for key, value in counts.items():
                into[key] = into.get(key, 0) + value
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snapshots, passes):
    """Per-layer metrics per pass from the traced jobs' snapshots.

    Counts and times are summed over the traced passes and divided by
    their number; ratios are taken over the sums.  A layer the workload
    never calls reads 0.
    """
    total = _merge(snapshots)
    out = {}
    for layer, stats in LAYERS:
        counts = total.get(layer, {})
        for stat in stats:
            if stat == "kept_ratio" and layer.endswith(".mul"):
                value = _ratio(counts.get("kept", 0), counts.get("pairs", 0))
            elif stat == "kept_ratio":
                value = _ratio(counts.get("graphs", 0),
                               counts.get("candidates", 0))
            elif stat == "cache_hit_ratio":
                hits = counts.get("cache_hits", 0)
                value = _ratio(hits, hits + counts.get("cache_misses", 0))
            else:
                value = counts.get(stat, 0) / passes
            out["%s.%s" % (layer, stat)] = value
    return out


def environment(seed):
    """What a result depends on besides the code: interpreter, mpmath
    and its backend, processor count, and the checkout's commit."""
    import mpmath

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(workload, seed, seconds, trace, size="full", reference=None):
    """One run of a workload; returns the full result record."""
    if reference is None:
        reference = load_reference()
    rng = workloads.make_rng(workload, seed)
    record, untraced, traced, snapshots = [], [], [], []
    t_start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        rounds = []
        while True:
            t_round = time.monotonic()
            jobs = workloads.pick(workload, size, rng)
            wall, _ = run_pass(jobs, False, scratch, reference, record)
            untraced.append(wall)
            if trace:
                wall, snaps = run_pass(jobs, True, scratch, reference, record)
                traced.append(wall)
                snapshots.extend(snaps)
            rounds.append(time.monotonic() - t_round)
            # Stop where the run ends closest to `seconds`.
            elapsed = time.monotonic() - t_start
            if elapsed + statistics.median(rounds) / 2 >= seconds:
                break
    failures = [dict(f, job=e["job"]) for e in record for f in e["failures"]]
    known = [f for f in failures if f["job"] == checks.job_key(KNOWN_DEFECT)
             and f["check"].startswith("pairing:")]
    attempted = sum(e["checks"] for e in record)
    if trace:
        metrics = layer_metrics(snapshots, len(traced))
        metrics["trace_overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(untraced))
        metrics["ops_failed_ratio"] = len(failures) / attempted
    else:
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(
                e["setup_s"] for e in record if e["setup_s"] is not None),
            "peak_rss_mb": max(e["peak_rss_mb"] for e in record),
        }
    return {
        "workload": workload, "size": size, "seconds": seconds,
        "trace": bool(trace), "environment": environment(seed),
        "correct": len(failures) == len(known),
        "attempted": attempted, "failed": len(failures),
        "known_defect_failures": known,
        "other_failures": [f for f in failures if f not in known],
        "threads": sorted({e["threads"] for e in record if e["threads"]}),
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "metrics": metrics, "jobs": record,
    }


def summary(result):
    """The result line: metric values with units, as BENCHMARK.json
    names them."""
    units = dict(END_TO_END, trace_overhead_ratio="ratio",
                 ops_failed_ratio="ratio")
    metrics = {}
    for name, value in result["metrics"].items():
        unit = units.get(name) or UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SLOTS),
                        default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tautrel" / "cli.py").is_file():
        print("no tautrel source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.size)
    path = OUT / ("%s-%s-seed%d-trace%d.json" % (
        args.workload, args.size, args.seed, args.trace))
    path.write_text(json.dumps(result, indent=1))
    print("result file: %s" % path.relative_to(ROOT))
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
