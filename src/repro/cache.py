"""Solver-wide bounded memoization caches.

The refinement loop and the benchmark suites re-run the same automata
constructions over and over (the same regexes compile per instance, the
same intersections re-run per round).  This module provides the shared
bounded-LRU caches those operations memoize through, with hit/miss
counters wired into :mod:`repro.obs` so ``--trace`` shows exactly what
the caches bought.

Discipline (see DESIGN.md Section 6):

* only **pure, immutable-result** operations may be memoized — every
  cached value is shared between callers, so callers must never mutate
  a returned object;
* keys must capture the *full* semantic input of the operation (for
  automata: the structural fingerprint plus any alphabet argument);
* every cache is bounded (LRU eviction), so memoization can change
  running time but never the memory asymptotics or the results.

Caches are process-global and survive across solver instances on
purpose: cross-instance reuse is where benchmark suites win.  They are
never persisted: the on-disk store (:mod:`repro.store`) keeps validated
verdicts only, so a new worker process starts with empty caches.  The
``--no-cache`` CLI flag (and ``SolverConfig.use_caches=False``) routes
through :func:`set_enabled` / :class:`disabled`; with caching disabled
every lookup misses and nothing is stored, so results are identical by
construction.
"""

import hashlib
from collections import OrderedDict

from repro import faults as _faults
from repro.obs import current_metrics

MISSING = object()
"""Sentinel returned by :meth:`LRUCache.get` on a miss (values may be None)."""

_enabled = True

_REGISTRY = {}


def enabled():
    """Is memoization globally enabled?"""
    return _enabled


def set_enabled(flag):
    """Globally enable/disable all caches; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


class disabled:
    """Context manager: run a block with every cache bypassed."""

    def __enter__(self):
        self._previous = set_enabled(False)
        return self

    def __exit__(self, *exc):
        set_enabled(self._previous)
        return False


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Instances register themselves in a module-level registry under
    *name* so :func:`stats` and :func:`clear_all` can reach every cache,
    and hit/miss counters are reported to the ambient metrics context as
    ``cache.<name>.hits`` / ``cache.<name>.misses``.
    """

    __slots__ = ("name", "maxsize", "_data", "hits", "misses")

    def __init__(self, name, maxsize=256):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self._data = OrderedDict()
        self.hits = 0
        self.misses = 0
        _REGISTRY[name] = self

    def __len__(self):
        return len(self._data)

    def get(self, key):
        """The cached value, or :data:`MISSING`; counts the access."""
        if not _enabled:
            return MISSING
        if _faults.ARMED:
            _faults.point("cache.lookup")
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            metrics = current_metrics()
            if metrics.enabled:
                metrics.add("cache.%s.misses" % self.name)
            return MISSING
        data.move_to_end(key)
        self.hits += 1
        metrics = current_metrics()
        if metrics.enabled:
            metrics.add("cache.%s.hits" % self.name)
        if _faults.ARMED:
            # A corrupted lookup degrades to a miss: dropping the hit is
            # the only corruption that cannot leak a wrong result.
            return _faults.corrupt("cache.lookup", value, lambda _: MISSING)
        return value

    def put(self, key, value):
        """Store *value*, evicting the least recently used entry if full."""
        if not _enabled:
            return
        if _faults.ARMED:
            _faults.point("cache.store")
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self):
        self._data.clear()

    def info(self):
        return {"size": len(self._data), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses}

    def __repr__(self):
        return "LRUCache(%s, %d/%d, hits=%d, misses=%d)" % (
            self.name, len(self._data), self.maxsize, self.hits, self.misses)


def _canonical(obj, depth=0):
    """A deterministic, hash-seed-independent structure for *obj*.

    Only *public* fields participate: the AST and automata classes keep
    lazily-memoized caches in underscore slots (``NFA._fp``,
    ``RegularConstraint._dfa``, ``Atom._canon``, ...) that are populated
    *during* solving, so any identity that serialized them would change
    under the caller's feet mid-solve.  Sets and dicts are emitted in
    sorted order so the result is identical across processes regardless
    of ``PYTHONHASHSEED``.
    """
    if depth > 150:
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (list, tuple)):
        return ("seq",) + tuple(_canonical(x, depth + 1) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted(
            (_canonical(x, depth + 1) for x in obj), key=repr))
    if isinstance(obj, dict):
        return ("map",) + tuple(sorted(
            ((_canonical(k, depth + 1), _canonical(v, depth + 1))
             for k, v in obj.items()), key=repr))
    fields = {}
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if not slot.startswith("_") and hasattr(obj, slot):
                fields[slot] = getattr(obj, slot)
    if not fields and getattr(obj, "__dict__", None):
        fields = {name: value for name, value in vars(obj).items()
                  if not name.startswith("_")}
    if fields:
        return (type(obj).__name__,) + tuple(
            (name, _canonical(value, depth + 1))
            for name, value in sorted(fields.items()))
    return repr(obj)


def problem_fingerprint(problem):
    """A stable content identity for a string problem: the hash of its
    canonical SMT-LIB rendering, falling back to a canonical structural
    walk for problems the printer cannot express (e.g. parsed regular
    constraints whose NFA has no printable source).  Both forms are
    independent of ``PYTHONHASHSEED`` and of the lazy memo fields the
    solver populates on AST nodes, so the fingerprint a worker computes
    before solving equals the one any later worker generation computes —
    the property the persistent store keys live and die by.

    Lives here — not in :mod:`repro.serve` where it originated — so the
    solver-phase caches keyed by it do not import the serving layer.
    """
    try:
        from repro.smtlib import problem_to_smtlib
        payload = problem_to_smtlib(problem).encode("utf-8")
    except Exception:
        payload = repr(_canonical(problem)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def stats():
    """Per-cache ``{name: {size, maxsize, hits, misses}}`` snapshot."""
    return {name: cache.info() for name, cache in sorted(_REGISTRY.items())}


def clear_all():
    """Empty every registered cache (process-lifetime counters survive)."""
    for cache in _REGISTRY.values():
        cache.clear()
