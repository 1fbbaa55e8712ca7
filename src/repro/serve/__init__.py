"""repro.serve — supervised solver service over a worker process pool.

The resilience layer *across* many concurrent solves (PR 3's ladder and
budgets protect a single solve): per-query process isolation with hard
deadlines, bounded-queue backpressure, poison-pill quarantine, and a
model re-check on every SAT answer.

* :class:`~repro.serve.pool.WorkerPool` — spawn-based supervised worker
  pool (deadlines + hard kill, crash detection, health checks, recycling
  by request count or RSS); also the engine under the parallel benchmark
  runner, so the supervision logic exists exactly once.
* :class:`~repro.serve.service.SolverService` — the solving front-end:
  every submitted request gets exactly one answer, whatever the
  instance does to its workers.
* :class:`~repro.serve.router.ShardRouter` — hashes problem
  fingerprints across N services, coalesces identical in-flight solves,
  answers repeat verdicts from a front-door cache, and routes around
  dead or circuit-broken shards.
* :class:`~repro.serve.net.NetServer` — the asyncio network front door
  (``python -m repro netserve``): admission control, deadline
  propagation, and the chaos/admin surface.
* ``python -m repro serve-batch DIR`` — CLI over a corpus of SMT-LIB
  files, with ``--metrics-out`` Prometheus snapshots (watch them live
  with ``python -m repro top``) and ``--flight-dir`` black-box dumps.

All layers speak the :mod:`repro.obs.pipeline` delta protocol when
telemetry is enabled, so worker-side spans and counters survive the
process boundary.
"""

from repro.serve.pool import PoolEvent, WorkerPool
from repro.serve.router import CircuitBreaker, RouterTicket, ShardRouter
from repro.serve.service import (
    ServeResult, SolverService, problem_fingerprint,
)

__all__ = [
    "WorkerPool", "PoolEvent",
    "SolverService", "ServeResult", "problem_fingerprint",
    "ShardRouter", "CircuitBreaker", "RouterTicket",
]
