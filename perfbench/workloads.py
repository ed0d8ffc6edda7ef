"""The benchmark's workloads: which tautrel jobs each one runs.

A workload is a list of job slots.  A slot holds one command line, or
several alternatives of about the same cost from which the seed picks
one.  The seed also orders the jobs of each pass and sets the ``--seed``
the CLI receives; it never changes a job's size.  README.md says why
each workload exists.

Every alternative has a reference digest in reference.json, so the
output of every job the seed can pick is checked.  ``pairings`` is the
benchmark's own job (see job.py), which checks a known defect instead.
"""

import random

AIRY_X = ("9.5", "10", "10.5")
FZ_RANKS = (4, 5, 6, 7)


def _fz(r):
    """fz jobs of rank r, one per genus inside the validity window
    2 <= g <= 3r, g = r + 1 (mod 2)."""
    return [("fz", "--g", str(g), "--r", str(r))
            for g in range(2, 3 * r + 1) if (g - r - 1) % 2 == 0]


def _airy(k, bits, prime):
    extra = ("--prime",) if prime else ()
    return [("airy", "--x", x, "--k", str(k), "--precision-bits", str(bits))
            + extra for x in AIRY_X]


PAIRING = ("pairings", "3", "0", "", "4")

SLOTS = {
    "full": {
        "closed": [
            [("verify", "descendents", "--order", "28")],
            [("descendents", "closed", "--degree", "36")],
            [("descendents", "table", "--ks", "8,8,8")],
            [("verify", "open", "--order", "20")],
            [("descendents", "open", "--degree", "20")],
        ],
        "graphs": [
            [("strata", "--g", "2", "--n", "2")],
            [("strata", "--g", "3", "--n", "0")],
            [("strata", "--g", "1", "--n", "4")],
            [("pixton", "--g", "2", "--n", "2", "--a", "0,0", "--d", "1")],
            [("verify", "pixton")],
            [PAIRING],
            _airy(5, 384, False),
            _airy(5, 384, True),
            [("verify", "series", "--order", "300")],
            [("frobenius", "r-matrix", "--order", "80")],
            [("frobenius", "flatness", "--order", "20")],
            [("verify", "frobenius")],
            [job for r in FZ_RANKS for job in _fz(r)],
        ],
    },
    "smoke": {
        "closed": [
            [("verify", "descendents", "--order", "12")],
            [("descendents", "closed", "--degree", "8")],
            [("descendents", "table", "--ks", "3,3,3")],
            [("verify", "open", "--order", "8")],
            [("descendents", "open", "--degree", "6")],
        ],
        "graphs": [
            [("strata", "--g", "1", "--n", "2")],
            [("pixton", "--g", "1", "--n", "1", "--a", "1", "--d", "1")],
            [("verify", "pixton")],
            [PAIRING],
            _airy(3, 128, False),
            _airy(3, 128, True),
            [("verify", "series", "--order", "30")],
            [("frobenius", "r-matrix", "--order", "10")],
            [("frobenius", "flatness", "--order", "6")],
            [("verify", "frobenius")],
            _fz(4),
        ],
    },
}

WORKLOADS = tuple(SLOTS["full"])


def all_jobs():
    """Every command line any seed can pick, at either size."""
    return sorted({job for size in SLOTS.values() for slots in size.values()
                   for slot in slots for job in slot})


def pick(workload, size, rng):
    """One pass of the workload: a job per slot, in seeded order.

    Returns (job, cli_seed) pairs; cli_seed is None for the pairing job,
    which takes no seed.
    """
    jobs = [rng.choice(slot) for slot in SLOTS[size][workload]]
    rng.shuffle(jobs)
    return [(job, None if job[0] == "pairings" else rng.randrange(1000))
            for job in jobs]


def make_rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))
