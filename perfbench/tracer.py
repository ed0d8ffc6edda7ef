"""Per-layer timing of tautrel, installed from outside the package.

The tracer replaces public functions and methods of the tautrel modules
with timing wrappers after import, so the package itself is unchanged.
Every name that another module imported by value (``strata.bracket``,
``pixton.enumerate_stable_graphs``, ``open_potential.build_Fc``, the
``series_*`` constructors in ``descendents`` and ``pixton``, the class
aliases ``__rmul__``/``__radd__``, ...) is rebound to the same wrapper;
otherwise the callee's time would land in the caller's self time.

For each traced name the tracer keeps:

- ``calls``: every call, recursive ones included;
- ``incl_s``: wall time of outermost calls only, so recursion is not
  counted twice;
- ``self_s``: per call, its wall time minus the wall time of the traced
  calls it made, summed over all calls;
- named counts gathered at the call boundary (``pairs``, ``kept``,
  ``terms``, ``graphs``, ``candidates``, ``bytes``).

Call stacks are kept per thread, because ``verify pixton`` runs
``strata.integrate`` from a thread pool.
"""

import threading
import time
from collections import Counter

# (module, attribute path, metric prefix).  An attribute path ending in
# "*" wraps every module function whose name starts with the prefix, and
# all of them share one set of counters.
TRACED = [
    ("cli", "dispatch", "cli.dispatch"),
    ("cli", "render", "cli.render"),
    ("series", "MultiSeries.__mul__", "series.MultiSeries.mul"),
    ("series", "MultiSeries.__add__", "series.MultiSeries.add"),
    ("series", "MultiSeries.derivative", "series.MultiSeries.derivative"),
    ("series", "MultiSeries.exp", "series.MultiSeries.exp"),
    ("series", "MultiSeries.log", "series.MultiSeries.log"),
    ("series", "PowerSeries.__mul__", "series.PowerSeries.mul"),
    ("series", "BiPoly.__mul__", "series.BiPoly.mul"),
    ("named_series", "series_*", "named_series.series"),
    ("descendents", "bracket", "descendents.bracket"),
    ("descendents", "build_Fc", "descendents.build_Fc"),
    ("descendents", "apply_L", "descendents.apply_L"),
    ("descendents", "kdv_residual", "descendents.kdv_residual"),
    ("descendents", "determinant_formula_check",
     "descendents.determinant_formula_check"),
    ("open_potential", "solve_open_kdv", "open_potential.solve_open_kdv"),
    ("open_potential", "buryak_formula", "open_potential.buryak_formula"),
    ("open_potential", "open_virasoro_residual",
     "open_potential.open_virasoro_residual"),
    ("strata", "enumerate_stable_graphs", "strata.enumerate_stable_graphs"),
    ("strata", "StableGraph.__init__", "strata.StableGraph.init"),
    ("strata", "automorphism_order", "strata.automorphism_order"),
    ("strata", "integrate", "strata.integrate"),
    ("strata", "StrataElement.add_term", "strata.StrataElement.add_term"),
    ("pixton", "pixton_class", "pixton.pixton_class"),
    ("airy", "airy_quadrature", "airy.airy_quadrature"),
    ("airy", "airy_prime_quadrature", "airy.airy_prime_quadrature"),
    ("airy", "airy_ode", "airy.airy_ode"),
    ("airy", "airy_prime_ode", "airy.airy_prime_ode"),
    ("fz", "fz_relation", "fz.fz_relation"),
    ("frobenius", "solve_R", "frobenius.solve_R"),
    ("frobenius", "hypergeometric_r_matrix", "frobenius.hypergeometric_r_matrix"),
    ("frobenius", "airy_flatness_check", "frobenius.airy_flatness_check"),
]

# lru_cache'd functions whose hit ratio is read from cache_info().
CACHES = [
    ("descendents", "bracket", "descendents.bracket"),
    ("strata", "vertex_integral", "strata.vertex_integral"),
]

# Names bound by value in another module; install() checks that each
# resolves to a wrapper afterwards.  ``pixton.StrataElement`` is the
# class itself, whose wrapped method the check looks up through it.
REBOUND = [
    ("strata", "bracket"),
    ("pixton", "enumerate_stable_graphs"),
    ("pixton", "StrataElement.add_term"),
    ("open_potential", "build_Fc"),
]


def _mul_counts(stats, args, result):
    """Pairs a MultiSeries product examines, and how many it keeps.

    A pair is kept when the weighted degrees of its two terms sum to at
    most the product's truncation degree; the count comes from per-degree
    term counts of the operands, without multiplying again.
    """
    a, b = args
    if type(b) is not type(a):
        return
    deg = a.grading.degree
    ca = Counter(deg(e) for e in a.terms)
    cb = Counter(deg(e) for e in b.terms)
    n = min(a.max_degree, b.max_degree)
    prefix = [0] * (n + 1)
    running = 0
    for d in range(n + 1):
        running += cb.get(d, 0)
        prefix[d] = running
    kept = sum(c * prefix[n - d] for d, c in ca.items() if d <= n)
    stats["pairs"] += len(a.terms) * len(b.terms)
    stats["kept"] += kept


def _terms(stats, args, result):
    stats["terms"] += len(result.terms)


def _graphs(stats, args, result):
    stats["graphs"] += len(result)


def _bytes(stats, args, result):
    stats["bytes"] += len(result.encode())


COUNTERS = {
    "series.MultiSeries.mul": _mul_counts,
    "descendents.build_Fc": _terms,
    "open_potential.solve_open_kdv": _terms,
    "pixton.pixton_class": _terms,
    "strata.enumerate_stable_graphs": _graphs,
    "cli.render": _bytes,
}

# A call of the key made while the named outer function is running in
# the same thread also counts as that function's named count: the graphs
# built inside an enumeration are its candidates.
INNER = {
    "strata.StableGraph.init": ("strata.enumerate_stable_graphs", "candidates"),
}


class Tracer:
    """Timing wrappers and their counters for one process.

    Each thread keeps its own call stack and counters, merged by
    snapshot(), so the thread pool in ``verify pixton`` neither corrupts
    the self-time accounting nor loses counter updates.
    """

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = Counter()
            local.stats = {}
            with self._lock:
                self._threads.append(local.stats)
        return local

    def wrap(self, name, fn, count=None):
        state = self._state
        clock = time.perf_counter
        outer, outer_count = INNER.get(name, (None, None))

        def wrapper(*args, **kwargs):
            local = state()
            stack, active = local.stack, local.active
            outermost = active[name] == 0
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                active[name] -= 1
                stats = local.stats.get(name)
                if stats is None:
                    stats = local.stats[name] = Counter()
                stats["calls"] += 1
                stats["self_s"] += dt - child
                if outermost:
                    stats["incl_s"] += dt
                if stack:
                    stack[-1] += dt
                if outer is not None and active[outer]:
                    local.stats.setdefault(outer, Counter())[outer_count] += 1
            if count is not None:
                count(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, modules):
        """Wrap every TRACED name in ``modules`` and rebind its aliases.

        ``modules`` maps the short module names to the imported modules.
        """
        self._caches = {metric: getattr(modules[m], attr)
                        for m, attr, metric in CACHES}
        replaced = {}
        for mod_name, path, metric in TRACED:
            owner = modules[mod_name]
            if path.endswith("*"):
                targets = [(owner, n) for n, v in vars(owner).items()
                           if n.startswith(path[:-1]) and callable(v)]
            else:
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                targets = [(owner, attr)]
            for obj, attr in targets:
                original = getattr(obj, attr)
                wrapper = self.wrap(metric, original, COUNTERS.get(metric))
                setattr(obj, attr, wrapper)
                replaced[id(original)] = wrapper
        _rebind(modules, replaced)
        for mod_name, path in REBOUND:
            target = modules[mod_name]
            for part in path.split("."):
                target = getattr(target, part)
            if not hasattr(target, "__wrapped__"):
                raise RuntimeError("%s.%s was not rebound" % (mod_name, path))

    def snapshot(self):
        """Counters of all threads as plain data, with cache statistics."""
        out = {}
        with self._lock:
            per_thread = list(self._threads)
        for stats in per_thread:
            for name, counts in stats.items():
                out.setdefault(name, Counter()).update(counts)
        out = {name: dict(counts) for name, counts in out.items()}
        for metric, fn in self._caches.items():
            info = fn.cache_info()
            entry = out.setdefault(metric, {})
            entry["cache_hits"] = info.hits
            entry["cache_misses"] = info.misses
        return out


def _rebind(modules, replaced):
    """Point every other reference to a wrapped original at its wrapper.

    Covers module globals (``from .x import f``), class attributes
    (``__rmul__ = __mul__``) and module-level dicts (the CLI's table of
    series constructors).
    """
    def fix(namespace, setter):
        for key, value in list(namespace.items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setter(key, wrapper)

    for module in modules.values():
        space = vars(module)
        for value in list(space.values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                fix(dict(vars(value)), lambda k, w, c=value: setattr(c, k, w))
            elif isinstance(value, dict) and not value is space:
                fix(value, value.__setitem__)
        fix(space, lambda k, w, m=module: setattr(m, k, w))
