"""Run one benchmark job in this process and report on it.

Usage: python3 perfbench/job.py META TRACE ARG...

ARG... is a ``tautrel`` command line, or ``pairings G N A D`` for the
benchmark's own pairing job.  The job's output goes to stdout, exactly as
the CLI prints it.  META receives a JSON object with the monotonic time
at which the job's work began (entry into ``tautrel.cli.dispatch``) and,
when TRACE is 1, the per-layer counters.

The package is imported from ``src/`` of the checkout this file lies in;
the job refuses to run (exit 3) if ``tautrel`` resolves anywhere else.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_FROM_CHECKOUT = 3


def compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def kappa_monomials(degree):
    """Exponent tuples (e_1, e_2, ...) with sum a * e_a == degree."""
    if degree == 0:
        return [()]
    out = []

    def extend(prefix, left, index):
        if left == 0:
            out.append(tuple(prefix))
            return
        if index > left:
            return
        for e in range(left // index + 1):
            extend(prefix + [e], left - index * e, index + 1)

    extend([], degree, 1)
    return out


def pairings(pixton, strata, g, n, A, d):
    """Pair the Pixton class with every psi/kappa monomial of complementary
    degree through the public ``strata.integrate``.

    Each pairing is a relation in the tautological ring and should be 0.
    """
    element = pixton.pixton_class(g, n, A, d)
    extra = 3 * g - 3 + n - d
    out = []
    for psis in compositions(extra, n) if n else [()]:
        for kappas in kappa_monomials(extra - sum(psis)):
            value = strata.integrate(element, psi_exps=psis, kappa_exps=kappas)
            out.append({"psi": list(psis), "kappa": list(kappas),
                        "value": str(Fraction(value))})
    return {"g": g, "n": n, "a": list(A), "d": d,
            "class_terms": len(element.terms), "pairings": out}


def main(argv):
    meta_path, trace, *args = argv
    sys.path.insert(0, str(ROOT / "src"))
    import tautrel

    if not Path(tautrel.__file__).resolve().is_relative_to(ROOT):
        print("tautrel imported from %s, outside %s" % (tautrel.__file__, ROOT),
              file=sys.stderr)
        return NOT_FROM_CHECKOUT
    from tautrel import (airy, cli, descendents, frobenius, fz, named_series,
                         open_potential, pixton, series, strata)

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({m.__name__.rsplit(".", 1)[1]: m for m in (
            airy, cli, descendents, frobenius, fz, named_series,
            open_potential, pixton, series, strata)})

    if args[0] == "pairings":
        g, n, a, d = args[1:]
        A = tuple(int(x) for x in a.split(",") if x)
        started = time.monotonic()
        code, rendered = 0, json.dumps(
            pairings(pixton, strata, int(g), int(n), A, int(d)), indent=2)
    else:
        started = time.monotonic()
        code, rendered = cli.dispatch(args)
    sys.stdout.write(rendered + "\n")
    sys.stdout.flush()
    meta = {"started": started}
    if tracer is not None:
        meta["trace"] = tracer.snapshot()
    Path(meta_path).write_text(json.dumps(meta))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
