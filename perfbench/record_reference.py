"""Record the reference digests of every job any seed can pick.

Usage: python3 perfbench/record_reference.py

Runs each job of workloads.all_jobs() once, at both sizes, and writes
the digest of its payload (see checks.py) to perfbench/reference.json.
Run it only at a commit whose outputs are known to be right: the
digests are what later runs are checked against.  It exits 1, after
writing, if any job exited with another code than 0 or reported a
failed verify check.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main():
    reference, bad = {}, []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for job in workloads.all_jobs():
            if job[0] == "pairings":
                continue
            code, stdout, *_ = run.run_job(job, 0, False, Path(tmp))
            found, report = checks.check_job(job, code, stdout, {})
            if any(not ok for name, ok, _ in found if name != "digest"):
                bad.append(checks.job_key(job))
            if report is not None:
                reference[checks.job_key(job)] = checks.digest(report)
            print("%-60s exit %d" % (checks.job_key(job), code), flush=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for key in bad:
        print("failed: %s" % key, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
