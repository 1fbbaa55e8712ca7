"""Per-layer tracing for the benchmark's traced runs.

Two jobs, both done from outside the solver:

* :func:`install` wraps the public entry points of the inner layers
  (``SatSolver.solve``, ``IntegerSolver.check``, ``Store.get`` ...) so
  that every call opens a span in the ambient :mod:`repro.obs` tracer.
  Targets are resolved by name at run time; a target that no longer
  exists is reported as missing and its metrics read ``None``, so a
  later change that deletes one backend cannot break the benchmark.
* :func:`attribute` turns a finished span forest into self times per
  layer (a span's duration minus the part its children cover) and into
  the span counts the per-layer ratios need, recorded as counters in a
  :class:`repro.obs.Metrics` registry.  Registries merge, and worker
  registries travel through ``TelemetryAggregator``, so in-process and
  worker-side solves are attributed by the same code.
"""

import functools
import importlib

TARGETS = {
    "sat.search": ("repro.sat.solver:SatSolver.solve",
                   "repro.kernels.sat:PackedSatSolver.solve"),
    "lia.check": ("repro.lia.branch_bound:IntegerSolver.check",),
    "store.get": ("repro.store:Store.get",),
    "store.put": ("repro.store:Store.put",),
    "router.submit": ("repro.serve.router:ShardRouter.submit",),
}
"""Span name -> the ``module:Class.method`` targets timed under it."""

SOLVE_TARGET = "repro.core.solver:TrauSolver.solve"
"""Wrapped in service workers only, where no benchmark code runs after a
solve: the wrapper attributes the solve's spans into the request's
metrics, which the worker ships to the aggregator."""

WORKER_ENV = "PERFBENCH_WORKER_TRACE"
"""Set to ``1`` while a traced service boots its workers; see
``perfbench.child``."""

LAYER_OF = {
    "solve": "solve", "round": "solve",
    "normalize": "normalize",
    "overapprox": "overapprox", "emptiness": "overapprox",
    "abstract": "overapprox",
    "analyze": "analyze",
    "restrict": "restrict",
    "flatten": "flatten",
    "smt.solve": "smt", "smt.presolve": "smt", "smt.tseitin": "smt",
    "sat.search": "sat",
    "lia.check": "lia",
    "decode": "decode",
    "validate": "validate", "eval.check_model": "validate",
    "store.get": "store.get",
    "store.put": "store.put",
    "router.submit": "router.submit",
    "router.pump": "router.pump",
}
"""Span name -> layer.  A span with another name belongs to the layer of
its nearest named ancestor, so a sub-span added inside a layer later
keeps that layer's time where it was."""

_BENCH_ATTR = "perfbench"


def _resolve(target):
    """``(owner class, method name)`` for *target*, or None if gone."""
    module_name, _, path = target.partition(":")
    owner_path, _, method = path.rpartition(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in owner_path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, method, None)):
        return None
    return owner, method


def _spanned(name, original):
    from repro.obs import current_tracer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with current_tracer().span(name, **{_BENCH_ATTR: True}) as span:
            result = original(*args, **kwargs)
            status = getattr(result, "status", None)
            if status is not None:
                span.set(status=status)
            return result
    return wrapper


def _attributing(original):
    from repro.obs import current_metrics, current_tracer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        tracer = current_tracer()
        if tracer.enabled and tracer.roots:
            attribute(tracer.roots[-1:], current_metrics())
        return result
    return wrapper


class Hooks:
    """The installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self):
        self._saved = []          # [(owner, method, original)]
        self.missing = []         # targets that could not be resolved

    def wrap(self, target, make):
        resolved = _resolve(target)
        if resolved is None:
            self.missing.append(target)
            return
        owner, method = resolved
        self._saved.append((owner, method, owner.__dict__.get(method)))
        setattr(owner, method, make(getattr(owner, method)))

    def available(self, span_name):
        """Does at least one target of *span_name* exist?"""
        return any(t not in self.missing for t in TARGETS[span_name])

    def remove(self):
        for owner, method, original in reversed(self._saved):
            if original is None:
                delattr(owner, method)      # the method was inherited
            else:
                setattr(owner, method, original)
        self._saved = []


def install(worker=False):
    """Wrap every :data:`TARGETS` entry (plus the attributing solve
    wrapper when *worker*); returns the :class:`Hooks`."""
    hooks = Hooks()
    for name, targets in TARGETS.items():
        for target in targets:
            hooks.wrap(target, functools.partial(_spanned, name))
    if worker:
        hooks.wrap(SOLVE_TARGET, _attributing)
    return hooks


def per_layer(metrics, passes, hooks):
    """The per-layer metrics of one pass over a workload, from a registry
    holding *passes* passes' attributed spans and solver counters.

    A ratio without a denominator, and a metric whose wrapped targets
    are all missing from this checkout, read ``None``.
    """
    counters = metrics.counters

    def each(name):
        return counters.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else None

    def hist_sum(name):
        hist = metrics.histograms.get(name)
        return hist.total if hist is not None else 0

    def timed(span_name, value):
        return value if hooks.available(span_name) else None

    cache_hits = sum(v for k, v in counters.items()
                     if k.startswith("cache.") and k.endswith(".hits"))
    cache_misses = sum(v for k, v in counters.items()
                       if k.startswith("cache.") and k.endswith(".misses"))
    core = metrics.histograms.get("smt.core_size")
    verdict_hits = counters.get("store.verdict.hits", 0)
    return {
        "solve.self_s": each("layer.solve_s"),
        "normalize.self_s": each("layer.normalize_s"),
        "overapprox.self_s": each("layer.overapprox_s"),
        "overapprox.decided_ratio": ratio(counters.get("overapprox.decided",
                                                       0),
                                          counters.get("span.overapprox")),
        "analyze.self_s": each("layer.analyze_s"),
        "restrict.self_s": each("layer.restrict_s"),
        "flatten.self_s": each("layer.flatten_s"),
        "flatten.constraints": each("flatten.constraints"),
        "rounds": each("span.round"),
        "cache.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "nfa.states": (hist_sum("nfa.determinize_states")
                       + hist_sum("nfa.product_states")) / passes,
        "smt.self_s": each("layer.smt_s"),
        "smt.iterations": each("smt.iterations"),
        "smt.theory_conflicts": each("smt.theory_conflicts"),
        "smt.core_size_mean": ratio(core.total, core.count) if core else None,
        "smt.accept_ratio": timed("lia.check", ratio(
            counters.get("lia.accepted", 0), counters.get("lia.proposed"))),
        "sat.search_s": timed("sat.search", each("layer.sat_s")),
        "sat.calls": timed("sat.search", each("span.sat.search")),
        "sat.decisions": each("sat.decisions"),
        "sat.conflicts": each("sat.conflicts"),
        "lia.check_s": timed("lia.check", each("layer.lia_s")),
        "lia.checks": timed("lia.check", each("span.lia.check")),
        "bb.nodes": each("bb.nodes"),
        "simplex.pivots": each("simplex.pivots"),
        "decode.self_s": each("layer.decode_s"),
        "validate.self_s": each("layer.validate_s"),
        "store.get_s": timed("store.get", each("layer.store.get_s")),
        "store.put_s": timed("store.put", each("layer.store.put_s")),
        "store.verdict_hit_ratio": ratio(
            verdict_hits,
            verdict_hits + counters.get("store.verdict.misses", 0)),
    }


def scale_seconds(metrics, factor):
    """Scale the seconds :func:`attribute` wrote into *metrics* by
    *factor*, to reference speed (see ``perfbench.speed``)."""
    for name, value in metrics.counters.items():
        if name.startswith("layer.") or name == "span.roots_s":
            metrics.counters[name] = value * factor


def attribute(roots, metrics):
    """Add the self time and span counts of the forest under *roots* to
    *metrics*.

    Counters written: ``layer.<layer>_s`` (self seconds),
    ``span.<name>`` (occurrences), ``span.roots_s`` (root durations),
    ``overapprox.decided`` (over-approximations that answered unsat),
    and ``lia.proposed``/``lia.accepted`` (Boolean models of the lazy
    SMT loop handed to the integer check, and those it accepted).
    """
    stack = [(root, None, "solve") for root in roots]
    for root in roots:
        if root.duration is not None:
            metrics.add("span.roots_s", root.duration)
    while stack:
        span, parent, inherited = stack.pop()
        if span.duration is None:
            continue
        layer = LAYER_OF.get(span.name, inherited)
        covered = sum(child.duration for child in span.children
                      if child.duration is not None)
        metrics.add("layer.%s_s" % layer, span.duration - covered)
        # A span the program itself opens under a wrapped name (a later
        # change may add one) keeps its time but is not a second call.
        if span.name not in TARGETS or span.attrs.get(_BENCH_ATTR):
            metrics.add("span.%s" % span.name)
        if span.name == "overapprox" and span.attrs.get("status") == "unsat":
            metrics.add("overapprox.decided")
        if span.name == "lia.check" and parent == "smt.solve":
            metrics.add("lia.proposed")
            if span.attrs.get("status") == "sat":
                metrics.add("lia.accepted")
        for child in span.children:
            stack.append((child, span.name, layer))
