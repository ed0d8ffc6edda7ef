"""Output checks of the benchmark's jobs.

A job's checks are:

- ``exit``: the job exited with code 0;
- ``parse``: its output is one JSON document;
- ``verify:<name>``: one per check a ``verify`` suite reports, passing
  when the suite reports ``ok: true`` for it;
- ``digest``: the digest of the mathematical payload equals the one
  recorded in reference.json;
- ``nonzero_class`` and ``pairing:<psi>/<kappa>`` for the pairing job:
  the Pixton class has terms, and each pairing is 0.

The digest covers only the whitelisted payload keys below and each
reported check's name and verdict.  Timings, thread counts and any
statistics a report gains later are outside it.  Stable graphs are
digested by a canonical form under vertex relabelling, so a different
choice of representative by the enumeration does not change the digest.
"""

import hashlib
import itertools
import json
from fractions import Fraction

PAYLOAD_KEYS = ("potential", "coefficients", "count", "graphs", "class",
                "relation", "r_matrix", "leading_limit", "value", "numeric",
                "asymptotic", "envelope_ok", "ok")


def _canonical_graph(graph, vertex_data=None, leg_data=None, edge_data=None):
    """Least relabelling of a graph in its JSON form, with decorations.

    ``vertex_data``, ``leg_data`` and ``edge_data`` are per-vertex,
    per-leg and per-edge decorations; an edge's data is the pair of its
    half-edges' data, aligned with its two endpoints.
    """
    genera = [v["genus"] for v in graph["vertices"]]
    nv = len(genera)
    vertex_data = vertex_data or [()] * nv
    legs = graph["legs"]
    leg_data = leg_data or [0] * len(legs)
    edges = [(v, w) for (v, _), (w, _) in graph["edges"]]
    edge_data = edge_data or [(0, 0)] * len(edges)
    best = None
    for p in itertools.permutations(range(nv)):
        inv = [0] * nv
        for v, pv in enumerate(p):
            inv[pv] = v
        cand = (
            [(genera[inv[v]], vertex_data[inv[v]]) for v in range(nv)],
            [(p[v], x) for v, x in zip(legs, leg_data)],
            sorted(tuple(sorted(((p[v], a), (p[w], b))))
                   for (v, w), (a, b) in zip(edges, edge_data)),
        )
        if best is None or cand < best:
            best = cand
    return best


def _canonical_class(element):
    """A strata element's terms, each canonical, merged and sorted."""
    merged = {}
    for term in element["terms"]:
        key = json.dumps(_canonical_graph(
            term["graph"],
            [tuple(k) for k in term["vertex_kappas"]],
            term["leg_psis"],
            [tuple(p) for p in term["edge_psis"]]))
        merged[key] = merged.get(key, Fraction(0)) + Fraction(term["coeff"])
    terms = sorted((k, str(c)) for k, c in merged.items() if c)
    return {"g": element["g"], "n": element["n"], "d": element["d"],
            "terms": terms}


def payload(report):
    """The part of a report that the digest covers."""
    out = {k: report[k] for k in PAYLOAD_KEYS if k in report}
    if "checks" in report:
        out["checks"] = [[c["name"], c["ok"]] for c in report["checks"]]
    if "graphs" in out:
        out["graphs"] = sorted(
            json.dumps([_canonical_graph(g), g.get("automorphisms")])
            for g in out["graphs"])
    if "class" in out:
        out["class"] = _canonical_class(out["class"])
    return out


def digest(report):
    text = json.dumps(payload(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def job_key(job):
    return " ".join(job)


def check_job(job, code, stdout, reference):
    """The checks of one finished job, as (name, ok, detail) triples,
    and the parsed report (None if the output is not JSON)."""
    checks = [("exit", code == 0, None if code == 0 else {"code": code})]
    try:
        report = json.loads(stdout)
    except ValueError:
        checks.append(("parse", False, {"head": stdout[:200]}))
        return checks, None
    checks.append(("parse", True, None))
    if job[0] == "pairings":
        checks.append(("nonzero_class", report["class_terms"] > 0,
                       {"class_terms": report["class_terms"]}))
        for p in report["pairings"]:
            name = "pairing:%s/%s" % (p["psi"], p["kappa"])
            checks.append((name, Fraction(p["value"]) == 0,
                           None if Fraction(p["value"]) == 0 else p))
        return checks, report
    if job[0] == "verify":
        for c in report.get("checks", []):
            checks.append(("verify:" + c["name"], c["ok"],
                           None if c["ok"] else c))
    want = reference.get(job_key(job))
    got = digest(report)
    checks.append(("digest", got == want,
                   None if got == want else {"want": want, "got": got}))
    return checks, report
