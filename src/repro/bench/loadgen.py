"""Chaos load harness for the network front door.

Run with ``python -m repro.bench.loadgen --json BENCH_PR9.json`` (also
reachable as ``python -m repro loadgen``).

The harness boots a full :class:`~repro.serve.net.NetServer` in-process
on an ephemeral port, then speaks the length-prefixed-JSON wire protocol
at it like a fleet of clients would — the server code under test is
byte-for-byte what ``repro netserve`` runs.  Traffic is the PR 5
differential generator's seeded problem space (a fixed pool of distinct
problems re-asked with heavy reuse, the way a symbolic-execution service
sees the same path conditions from many clients), offered at a
controlled request rate.

Three phases, reported separately so degradation is measurable:

* **clean** — the offered rate against a healthy server; includes a
  same-instant duplicate burst so request coalescing provably engages,
  and a noisy tenant with a tiny token bucket so throttling provably
  engages.
* **chaos** — the same offered rate while the harness arms ``net.*``
  fault seams over the admin surface, kills one shard mid-run (later
  restarting it), and floods a burst of fresh problems to trip the
  intake bound.  Transport errors are retried like a real client
  retries; the invariant is that every *logical* request ends in a
  well-formed response — an answer or an attributable ``unknown(...)``.
* **drain** — SIGTERM semantics: requests sent after the drain begins
  are answered ``unknown(shutdown)`` and the server exits cleanly.

The report records p50/p95/p99 latency per phase, the verdict/reason
mix, the door and router counters scraped from ``/metrics`` exposition,
and the zero-wrong-answer / zero-internal-error invariants the CI gate
asserts.  A *wrong answer* is an ``unsat`` verdict for a problem whose
generated witness was certified by the evaluator — the one thing chaos
must never cause.
"""

import argparse
import asyncio
import json
import random
import sys
import time

from repro import faults
from repro.config import NetConfig, SolverConfig, TenantQuota
from repro.diff.generator import GenConfig, generate
from repro.obs import metrics_from_prometheus
from repro.serve.net import NetServer
from repro.smtlib import problem_to_smtlib

LOAD_KEY = "loadgen-key"
NOISY_KEY = "noisy-key"
ADMIN_KEY = "chaos-admin"

CHAOS_FAULT_SPECS = (
    "net.accept:raise:after=5,times=4",
    "net.read:raise:after=20,times=4",
    "net.write:raise:after=20,times=4",
    "net.route:raise:after=10,times=3",
)


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return None
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def latency_block(latencies):
    """The histogram summary one phase reports (milliseconds)."""
    if not latencies:
        return {"count": 0}
    return {
        "count": len(latencies),
        "p50_ms": round(1000.0 * percentile(latencies, 0.50), 3),
        "p95_ms": round(1000.0 * percentile(latencies, 0.95), 3),
        "p99_ms": round(1000.0 * percentile(latencies, 0.99), 3),
        "max_ms": round(1000.0 * max(latencies), 3),
        "mean_ms": round(1000.0 * sum(latencies) / len(latencies), 3),
    }


def make_corpus(distinct, seed, max_len=3):
    """The problem pool: (smt2 text, certified) pairs, reproducible."""
    rng = random.Random(seed)
    config = GenConfig(max_len=max_len)
    corpus = []
    for index in range(distinct):
        generated = generate(rng, config, seed_index=index)
        corpus.append((problem_to_smtlib(generated.problem),
                       bool(generated.certified)))
    return corpus


class LpjClient:
    """One wire connection: pipelined frames, responses demuxed by
    ``id`` (a reader task resolves per-request futures, so many
    requests share the connection concurrently).

    Chaos drops connections (``net.accept`` / ``net.read`` /
    ``net.write`` raises); like any sane client, :meth:`request`
    reconnects and resends, counting the retries.  Only after
    ``max_retries`` transport failures does a logical request go
    unanswered — which the harness reports as an invariant violation.
    """

    def __init__(self, host, port, max_retries=6):
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.retries = 0
        self._writer = None
        self._conn_lock = None
        self._read_task = None
        self._pending = {}           # frame id -> future
        self._next_id = 0

    async def _ensure_connected(self):
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            if self._writer is not None:
                return
            reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
            self._read_task = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader):
        try:
            while True:
                head = await reader.readexactly(4)
                body = await reader.readexactly(int.from_bytes(head, "big"))
                payload = json.loads(body.decode("utf-8"))
                future = self._pending.pop(payload.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except Exception:
            # The connection died mid-read: fail every in-flight
            # request so its caller reconnects and resends.
            self._writer = None
            pending, self._pending = self._pending, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection lost"))

    async def _roundtrip(self, obj, timeout):
        await self._ensure_connected()
        future = asyncio.get_running_loop().create_future()
        self._pending[obj["id"]] = future
        data = json.dumps(obj).encode("utf-8")
        try:
            async with self._conn_lock:
                if self._writer is None:
                    raise ConnectionError("connection lost before send")
                self._writer.write(len(data).to_bytes(4, "big") + data)
                await self._writer.drain()
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(obj["id"], None)

    async def request(self, obj, timeout=30.0):
        """The logical request: returns a payload dict or None after
        exhausting transport retries."""
        self._next_id += 1
        obj = dict(obj, id=self._next_id)
        for attempt in range(self.max_retries + 1):
            try:
                return await self._roundtrip(obj, timeout)
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError):
                await self._drop()
                if attempt == self.max_retries:
                    return None
                self.retries += 1
                await asyncio.sleep(0.01 * (attempt + 1))

    async def _drop(self):
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass

    async def close(self):
        await self._drop()
        if self._read_task is not None:
            self._read_task.cancel()
            self._read_task = None


class PhaseTally:
    """Accumulates one phase's latencies, answers, and violations."""

    def __init__(self, name):
        self.name = name
        self.latencies = []
        self.answers = {}
        self.wrong = []
        self.malformed = 0
        self.unanswered = 0
        self.started = time.monotonic()
        self.finished = None

    def record(self, payload, certified, latency):
        if payload is None:
            self.unanswered += 1
            return
        answer = payload.get("answer")
        status = payload.get("status")
        if not isinstance(answer, str) or status is None:
            self.malformed += 1
            return
        self.latencies.append(latency)
        self.answers[answer] = self.answers.get(answer, 0) + 1
        if certified and status == "unsat":
            self.wrong.append(payload.get("name"))

    def close(self):
        self.finished = time.monotonic()

    def report(self, offered_rps=None):
        duration = (self.finished or time.monotonic()) - self.started
        block = {
            "requests": (len(self.latencies) + self.malformed
                         + self.unanswered),
            "latency": latency_block(self.latencies),
            "answers": dict(sorted(self.answers.items())),
            "malformed": self.malformed,
            "unanswered": self.unanswered,
            "wrong_answers": len(self.wrong),
            "duration_s": round(duration, 3),
        }
        if offered_rps is not None:
            block["offered_rps"] = offered_rps
        if duration > 0:
            block["achieved_rps"] = round(
                len(self.latencies) / duration, 1)
        return block


async def run_phase(tally, clients, schedule, timeout=None):
    """Offer *schedule* — (delay_from_phase_start, request, certified)
    tuples — across *clients*, holding the offered rate.  Each attempt
    waits the request's own deadline plus a margin (a response lost to
    ``net.write`` chaos is resent promptly, not after some huge global
    timeout — the way a real client would behave)."""
    start = time.monotonic()
    tasks = []

    async def one(delay, obj, certified, client):
        wait = delay - (time.monotonic() - start)
        if wait > 0:
            await asyncio.sleep(wait)
        sent = time.monotonic()
        per_try = timeout or float(obj.get("deadline_s", 8.0)) + 4.0
        payload = await client.request(obj, per_try)
        tally.record(payload, certified, time.monotonic() - sent)

    for index, (delay, obj, certified) in enumerate(schedule):
        tasks.append(asyncio.ensure_future(
            one(delay, obj, certified, clients[index % len(clients)])))
    if tasks:
        await asyncio.wait(tasks)
    tally.close()


def solve_request(smt2, key=LOAD_KEY, deadline_s=8.0, name=None):
    obj = {"op": "solve", "smt2": smt2, "api_key": key,
           "deadline_s": deadline_s}
    if name is not None:
        obj["name"] = name
    return obj


def build_schedule(corpus, requests, rps, rng, start_at=0.0):
    """A reuse-heavy request stream at the offered rate: ~25% of asks
    target the hottest 4 problems so the coalescer and verdict cache
    see realistic repetition."""
    schedule = []
    for index in range(requests):
        if rng.random() < 0.25:
            smt2, certified = corpus[rng.randrange(min(4, len(corpus)))]
        else:
            smt2, certified = corpus[rng.randrange(len(corpus))]
        schedule.append((start_at + index / float(rps),
                         solve_request(smt2, name="load-%d" % index),
                         certified))
    return schedule


async def drive(options):
    """The whole run: boot, clean phase, chaos phase, drain phase."""
    tenants = (TenantQuota("load", LOAD_KEY, rps=10 ** 6, burst=10 ** 6),
               TenantQuota("noisy", NOISY_KEY, rps=2.0, burst=4))
    net_config = NetConfig(
        host="127.0.0.1", port=0, shards=options.shards,
        jobs_per_shard=options.jobs, max_open_requests=options.open_bound,
        default_deadline_s=8.0, max_deadline_s=12.0,
        tenants=tenants, admin_key=ADMIN_KEY,
        breaker_cooldown_s=1.0)
    server = NetServer(solver_config=SolverConfig(store_path=options.store),
                       net_config=net_config, grace=1.0)
    host, port = await server.start()
    serve_task = asyncio.ensure_future(server.serve_forever())

    corpus = make_corpus(options.distinct, options.seed)
    rng = random.Random(options.seed + 1)
    clients = []
    for _ in range(options.connections):
        clients.append(LpjClient(host, port))
    admin = LpjClient(host, port)
    report = {"phases": {}, "config": {
        "rps": options.rps, "requests_per_phase": options.requests,
        "shards": options.shards, "jobs_per_shard": options.jobs,
        "distinct_problems": options.distinct, "seed": options.seed,
        "connections": options.connections,
        "max_open_requests": options.open_bound,
    }}

    # -- clean phase --------------------------------------------------------
    clean = PhaseTally("clean")
    schedule = build_schedule(corpus, options.requests, options.rps, rng)
    # The coalescing probe: the same *fresh* problem offered 8 times in
    # the same instant — one leader solves, seven followers share it.
    probe_smt2, probe_certified = corpus[-1]
    for _ in range(8):
        schedule.append((0.0, solve_request(probe_smt2, name="coalesce"),
                         probe_certified))
    # The throttling probe: the noisy tenant's bucket holds 4 tokens.
    for index in range(12):
        smt2, certified = corpus[index % len(corpus)]
        schedule.append((0.05 * index,
                         solve_request(smt2, key=NOISY_KEY,
                                       name="noisy-%d" % index),
                         certified))
    await run_phase(clean, clients, schedule)
    report["phases"]["clean"] = clean.report(offered_rps=options.rps)

    # -- chaos phase --------------------------------------------------------
    chaos = PhaseTally("chaos")
    for spec in CHAOS_FAULT_SPECS:
        armed = await admin.request({"op": "admin.fault", "spec": spec,
                                     "admin_key": ADMIN_KEY})
        if armed is None or "armed" not in armed:
            chaos.malformed += 1
    schedule = build_schedule(corpus, options.requests, options.rps, rng)
    # The overload probe: a same-instant flood of *distinct* fresh
    # problems, wider than the intake bound, planted mid-phase.
    flood_at = (options.requests / float(options.rps)) * 0.5
    flood = make_corpus(options.open_bound + 16, options.seed + 7)
    for index, (smt2, certified) in enumerate(flood):
        schedule.append((flood_at,
                         solve_request(smt2, name="flood-%d" % index,
                                       deadline_s=6.0),
                         certified))

    async def mid_run_chaos():
        await asyncio.sleep((options.requests / float(options.rps)) * 0.3)
        killed = await admin.request({"op": "admin.kill-shard", "shard": 0,
                                      "admin_key": ADMIN_KEY})
        chaos_events.append(("kill-shard", killed))
        await asyncio.sleep((options.requests / float(options.rps)) * 0.4)
        restarted = await admin.request(
            {"op": "admin.restart-shard", "shard": 0,
             "admin_key": ADMIN_KEY})
        chaos_events.append(("restart-shard", restarted))

    chaos_events = []
    chaos_task = asyncio.ensure_future(mid_run_chaos())
    await run_phase(chaos, clients, schedule)
    await chaos_task
    await admin.request({"op": "admin.disarm", "admin_key": ADMIN_KEY})
    block = chaos.report(offered_rps=options.rps)
    block["faults_armed"] = list(CHAOS_FAULT_SPECS)
    block["shard_killed"] = 0
    block["events"] = [name for name, _ in chaos_events]
    block["transport_retries"] = sum(c.retries for c in clients)
    report["phases"]["chaos"] = block

    # -- metrics scrape (pre-drain, while the door still answers) -----------
    metrics_payload = await admin.request({"op": "metrics"})
    counters = {}
    if metrics_payload and isinstance(metrics_payload.get("metrics"), str):
        scraped = metrics_from_prometheus(metrics_payload["metrics"])
        for key, value in sorted(scraped.flat().items()):
            if key.startswith("net.") and not key.startswith("net.tenant"):
                counters[key] = value
    state = await admin.request({"op": "admin.state",
                                 "admin_key": ADMIN_KEY})
    report["counters"] = counters
    report["router"] = (state or {}).get("counters", {})
    report["shards"] = (state or {}).get("shards", [])

    # -- drain phase --------------------------------------------------------
    drain = PhaseTally("drain")
    drain_started = time.monotonic()
    server.initiate_shutdown()
    for index in range(8):
        smt2, certified = corpus[index % len(corpus)]
        sent = time.monotonic()
        payload = await clients[index % len(clients)].request(
            solve_request(smt2, name="late-%d" % index), timeout=5.0)
        drain.record(payload, False, time.monotonic() - sent)
    await asyncio.wait_for(serve_task, timeout=30.0)
    drain.close()
    block = drain.report()
    block["drained_in_s"] = round(time.monotonic() - drain_started, 3)
    block["all_shutdown"] = (
        drain.answers.get("unknown(shutdown)", 0) == 8)
    report["phases"]["drain"] = block

    for client in clients + [admin]:
        await client.close()

    # -- invariants ---------------------------------------------------------
    wrong = sum(len(t.wrong) for t in (clean, chaos))
    report["invariants"] = {
        "wrong_answers": wrong,
        "malformed_responses": clean.malformed + chaos.malformed,
        "unanswered": clean.unanswered + chaos.unanswered,
        "internal_errors": int(counters.get("net.internal_errors", 0)),
        "pump_errors": int(counters.get("net.pump_errors", 0)),
        "coalesced_nonzero": report["router"].get("coalesced", 0) > 0,
        "shed_nonzero": int(counters.get("net.shed", 0)) > 0,
        "drain_clean": report["phases"]["drain"]["all_shutdown"],
    }
    report["ok"] = (
        wrong == 0
        and report["invariants"]["malformed_responses"] == 0
        and report["invariants"]["unanswered"] == 0
        and report["invariants"]["internal_errors"] == 0
        and report["invariants"]["coalesced_nonzero"]
        and report["invariants"]["shed_nonzero"]
        and report["invariants"]["drain_clean"])
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="chaos load harness for the network front door")
    parser.add_argument("--rps", type=float, default=200.0,
                        help="offered request rate per phase "
                             "(default 200)")
    parser.add_argument("--requests", type=int, default=400,
                        help="scheduled requests per phase (default 400)")
    parser.add_argument("--distinct", type=int, default=24,
                        help="distinct generated problems in the pool")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=2,
                        help="workers per shard")
    parser.add_argument("--connections", type=int, default=8,
                        help="client connections")
    parser.add_argument("--open-bound", type=int, default=64,
                        help="server max_open_requests (the flood probe "
                             "exceeds it)")
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--store", default=None,
                        help="persistent store directory shared by all "
                             "shards (default: none)")
    parser.add_argument("--json", default=None,
                        help="write the report to this path")
    options = parser.parse_args(argv)

    # Chaos tears connections down on purpose; asyncio's transport layer
    # logs each torn socket ("socket.send() raised exception"), which is
    # expected noise here, not signal.
    import logging
    logging.getLogger("asyncio").setLevel(logging.CRITICAL)

    faults.disarm()
    started = time.time()
    report = asyncio.run(drive(options))
    faults.disarm()
    report["wall_s"] = round(time.time() - started, 3)
    report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime(started))
    text = json.dumps(report, indent=2, sort_keys=True)
    if options.json:
        with open(options.json, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
