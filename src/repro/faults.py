"""Deterministic fault injection at the solver's internal seams.

Production solvers earn their robustness claims by *testing* them: every
"no input escapes as a traceback" guarantee in DESIGN.md Section 7 is
backed by a chaos test that arms one of the fault points below and
asserts the degradation ladder recovers.  This module is that machinery.

Design constraints:

* **off means free** — a planted point costs one module-attribute load
  and a falsy check (``if _faults.ARMED:``) when nothing is armed, so
  the points live in hot paths (cache lookups, simplex pivots)
  permanently;
* **deterministic** — a fault fires on a fixed schedule (skip the first
  ``after`` hits, then fire up to ``times`` times), never on a clock or
  an RNG, so every chaos-test failure replays;
* **catalogued** — only names in :data:`CATALOG` may be armed, and the
  chaos suite iterates the catalog, so a point cannot be planted (or
  bit-rot away) without test coverage.

Three fault modes:

``raise``
    Raise an exception at the point.  The default exception is
    :class:`~repro.errors.FaultInjected` (a :class:`SolverError`), which
    travels the internal-failure recovery path; ``exc=runtime`` raises a
    bare ``RuntimeError`` to model a genuinely unexpected crash.

``delay``
    Sleep ``seconds`` at the point, modelling a stall; with a wall-clock
    budget armed this exercises the attributable-deadline path.

``corrupt``
    Hand the point's return value to a site-supplied mutator, modelling
    a wrong-but-plausible result (a stale cache entry, a bogus model).
    Only seams whose corruption is *detectable* downstream participate
    — model-producing seams (validation catches the lie), cache
    lookups (corruption degrades to a miss, worst case a recompute), and
    the serve-layer result envelope (it turns UNSAT into SAT with an
    empty model, which the model re-check in :mod:`repro.serve.service`
    catches).

Arming: the CLI flag ``--inject-fault SPEC`` (repeatable), the
environment variable ``REPRO_INJECT_FAULT`` (``;``-separated specs), the
``SolverConfig.fault_specs`` tuple, or the :class:`injected` context
manager in tests.  Spec syntax::

    point[:mode[:key=value,key=value...]]

e.g. ``cache.lookup:raise:after=2,times=1`` or ``lia.pivot:delay:seconds=0.1``.
"""

import os
import time

from repro.errors import FaultInjected, ResourceLimit

CATALOG = {
    "cache.lookup": "LRUCache.get — memoization lookup (any cache)",
    "cache.store": "LRUCache.put — memoization insert (any cache)",
    "smt.session.solve": "IncrementalSmtSession.solve — every DPLL(T) "
                         "query: the over-approximation's and each "
                         "refinement round's",
    "sat.solve": "SatSolver.solve — CDCL search entry",
    "automata.determinize": "NFA.determinize — subset construction",
    "automata.intersect": "NFA.intersect — product construction",
    "lia.pivot": "Simplex._pivot — tableau pivot",
    "lia.check": "IntegerSolver.check — branch-and-bound entry",
    "flatten.fragment": "Flattener.fragments — per-fragment flattening",
    "strategy.restrict": "build_restriction — PFA selection",
    "solver.decode": "TrauSolver._decode — LIA model to strings",
    "serve.worker.request": "pool worker request intake — a raise escapes "
                            "the worker loop and kills the process, a "
                            "delay models a hang",
    "serve.worker.result": "pool worker result envelope — corrupt "
                           "turns UNSAT into SAT with an empty model "
                           "(the service's model re-check answers "
                           "unknown(invalid-model)), a raise kills the "
                           "worker after the work is done",
    "store.read": "Store.get — persistent-store read; a raise degrades to "
                  "a miss, corrupt bit-flips the payload *after* the "
                  "checksum so validate-on-read must catch it",
    "store.write": "Store.put — persistent-store append; corrupt writes a "
                   "record whose checksum cannot verify (a torn write)",
    "store.lock": "Store._locked — advisory-lock acquisition; delay "
                  "models a stalled holder, raise a lock failure",
    "store.validate": "Store.get validator outcome — corrupt forces a "
                      "certificate rejection, driving the quarantine path",
    "net.accept": "NetServer connection accept — a raise drops the "
                  "connection before any request is read (the client "
                  "retries), a delay models a slow accept path",
    "net.read": "NetServer request read — a raise closes the connection "
                "mid-read, modelling a torn or malformed request",
    "net.write": "NetServer response write — a raise loses the response "
                 "after the work is done (the client retries; coalescing "
                 "and the store make the retry cheap)",
    "net.route": "ShardRouter.submit — a raise models a routing failure; "
                 "the front door answers unknown(route-error) instead of "
                 "crashing the connection",
}
"""Every plantable seam: name -> where it lives.  The chaos suite
(`tests/test_faults.py`) arms each of these in turn."""

_EXCEPTIONS = {
    "solver": FaultInjected,
    "runtime": RuntimeError,
    "resource": ResourceLimit,
}

ARMED = {}
"""Armed faults by point name.  Mutated in place, never rebound, so the
``if _faults.ARMED:`` guard at every planted site stays valid.  Empty
means injection is off and every point is free."""


class Fault:
    """One armed fault: a point name, a mode, and a firing schedule."""

    __slots__ = ("point", "mode", "after", "times", "seconds", "exc",
                 "hits", "fired")

    def __init__(self, point, mode="raise", after=0, times=None,
                 seconds=0.01, exc="solver"):
        if point not in CATALOG:
            raise ValueError("unknown fault point %r (catalog: %s)"
                             % (point, ", ".join(sorted(CATALOG))))
        if mode not in ("raise", "delay", "corrupt"):
            raise ValueError("unknown fault mode %r" % mode)
        if exc not in _EXCEPTIONS:
            raise ValueError("unknown fault exception kind %r" % exc)
        self.point = point
        self.mode = mode
        self.after = int(after)
        self.times = None if times is None else int(times)
        self.seconds = float(seconds)
        self.exc = exc
        self.hits = 0          # times the point was reached
        self.fired = 0         # times the fault actually acted

    def _due(self):
        """Advance the schedule; True when this hit should fire."""
        self.hits += 1
        if self.hits <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True

    def trigger(self):
        """Act at a plain (non-returning) point: raise or stall."""
        if self.mode == "corrupt" or not self._due():
            return
        if self.mode == "delay":
            time.sleep(self.seconds)
            return
        exc_class = _EXCEPTIONS[self.exc]
        if exc_class is FaultInjected:
            raise FaultInjected("injected fault at %s" % self.point,
                                point=self.point)
        if exc_class is ResourceLimit:
            raise ResourceLimit("injected resource fault at %s" % self.point,
                                reason="deadline")
        raise exc_class("injected fault at %s" % self.point)

    def __repr__(self):
        return "Fault(%s:%s, hits=%d, fired=%d)" % (
            self.point, self.mode, self.hits, self.fired)


def point(name):
    """A planted seam.  Call sites guard with ``if _faults.ARMED:`` so
    this function only runs when at least one fault is armed."""
    fault = ARMED.get(name)
    if fault is not None:
        fault.trigger()


def corrupt(name, value, mutator):
    """A planted value-returning seam: pass *value* through, or through
    *mutator* when a corrupt-mode fault at *name* is due."""
    fault = ARMED.get(name)
    if fault is None or fault.mode != "corrupt":
        return value
    if not fault._due():
        return value
    return mutator(value)


# -- arming ------------------------------------------------------------------


def arm(fault):
    """Install *fault* (replacing any armed fault at the same point)."""
    ARMED[fault.point] = fault
    return fault


def disarm(name=None):
    """Remove the fault at *name*, or every armed fault when None."""
    if name is None:
        ARMED.clear()
    else:
        ARMED.pop(name, None)


def parse_spec(spec):
    """``point[:mode[:k=v,...]]`` -> :class:`Fault` (not yet armed)."""
    parts = spec.split(":", 2)
    name = parts[0].strip()
    mode = parts[1].strip() if len(parts) > 1 and parts[1].strip() \
        else "raise"
    kwargs = {}
    if len(parts) > 2 and parts[2].strip():
        for item in parts[2].split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise ValueError("malformed fault option %r in %r"
                                 % (item, spec))
            key, value = item.split("=", 1)
            kwargs[key.strip()] = value.strip()
    allowed = {"after", "times", "seconds", "exc"}
    unknown = set(kwargs) - allowed
    if unknown:
        raise ValueError("unknown fault option(s) %s in %r"
                         % (", ".join(sorted(unknown)), spec))
    return Fault(name, mode=mode, **kwargs)


class injected:
    """Context manager arming one fault (or several specs) for a block.

    ``with faults.injected("cache.lookup", mode="raise", times=1) as f:``
    or ``with faults.injected(specs=["lia.pivot:delay:seconds=0.2"]):``.
    Restores the previous armed set on exit, so tests compose.
    """

    def __init__(self, name=None, specs=None, **kwargs):
        self._faults = []
        if name is not None:
            self._faults.append(Fault(name, **kwargs))
        for spec in specs or ():
            self._faults.append(spec if isinstance(spec, Fault)
                                else parse_spec(spec))
        self._saved = None

    def __enter__(self):
        self._saved = dict(ARMED)
        for fault in self._faults:
            arm(fault)
        return self._faults[0] if len(self._faults) == 1 else self._faults

    def __exit__(self, *exc):
        ARMED.clear()
        ARMED.update(self._saved)
        return False


def arm_from_env(environ=None):
    """Arm the ``;``-separated specs in ``REPRO_INJECT_FAULT``, if set."""
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_INJECT_FAULT", "")
    armed = []
    for spec in raw.split(";"):
        if spec.strip():
            armed.append(arm(parse_spec(spec)))
    return armed
