"""The asyncio network front door: sockets in, exactly-one-answer out.

``repro netserve`` puts the supervised solving stack (PR 4's
``SolverService`` shards, PR 8's shared persistent store) behind a TCP
listener.  Callers are assumed adversarial and bursty — CI fleets
re-asking the same query, scripts that hang up early, clients that never
set a deadline — so the door is built robustness-first, as an
**admission ladder** every request descends until something answers it:

1. **drain** — a server that received SIGTERM answers
   ``unknown(shutdown)`` at the door;
2. **auth** — with tenants configured, an unknown API key answers
   ``unknown(unauthorized)`` (HTTP 401);
3. **quota** — each tenant holds a token bucket; an empty bucket sheds
   with ``unknown(throttled)`` (HTTP 429) before any work is accepted;
4. **intake bound** — more than ``max_open_requests`` open solves shed
   with ``unknown(overloaded)`` (HTTP 503): reject, don't buffer;
5. **parse** — malformed SMT-LIB answers ``unknown(parse-error)``;
6. **router** — coalescing, the verdict cache, shard circuit breakers
   and reroutes (:mod:`repro.serve.router`);
7. **deadline** — the caller's ``deadline_s`` rides the wire, becomes
   the shard's solver budget and the worker's ``Budget`` wall clock, and
   bounds the response wait: a request whose caller is already dead is
   answered ``unknown(deadline)`` and no layer below keeps working past
   it.

Two wire protocols share one port, sniffed from the first bytes:

* **length-prefixed JSON** — 4-byte big-endian length, then a JSON
  object ``{"op": "solve", "id": 7, "smt2": "...", "deadline_s": 2.0,
  "api_key": "..."}``.  Frames are handled concurrently per connection
  and responses echo ``id``, so clients may pipeline.
* **HTTP/1.1** — ``POST /solve`` (body: SMT-LIB text, headers
  ``X-Api-Key`` / ``X-Deadline-S``), ``POST /validate``, ``POST
  /fuzz``, ``GET /metrics`` (the PR 6 Prometheus exposition — point
  ``repro top http://host:port/metrics`` at it), ``GET /healthz``, and
  the chaos/admin surface ``POST /admin/kill-shard`` / ``/admin/
  restart-shard`` / ``/admin/fault`` / ``GET /admin/state`` guarded by
  ``X-Admin-Key``.

Fault seams (:mod:`repro.faults`): ``net.accept`` fires per connection,
``net.read`` per request read, ``net.write`` per response write,
``net.route`` inside the router.  A raise at accept/read/write drops the
*connection* (the client retries); a raise at route is caught and
answered ``unknown(route-error)`` — no seam ever leaks a traceback to
the wire or kills the server.
"""

import asyncio
import json
import time

from repro import faults as _faults
from repro.config import NetConfig, SolverConfig
from repro.obs import TelemetryAggregator, render_prometheus, write_snapshot
from repro.serve.router import ShardRouter
from repro.serve.service import SolverService
from repro.smtlib import load_problem
from repro.strings import check_model

MAX_FUZZ_N = 64
_HTTP_METHODS = (b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI",
                 b"PATC")


class TokenBucket:
    """A per-tenant token bucket: *rate* tokens/second up to *burst*."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate, burst, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = clock()

    def take(self, now, cost=1.0):
        """Spend *cost* tokens; False when the bucket cannot cover it."""
        elapsed = max(0.0, now - self.updated)
        self.updated = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens < cost:
            return False
        self.tokens -= cost
        return True


def shed_response(reason, name=None, detail=None, retry_after=None):
    """A well-formed answer produced at the door, pre-solver."""
    payload = {"status": "unknown", "reason": reason,
               "answer": "unknown(%s)" % reason}
    if name is not None:
        payload["name"] = name
    if detail is not None:
        payload["detail"] = detail
    if retry_after is not None:
        payload["retry_after_s"] = retry_after
    return payload


def result_payload(result, ticket=None):
    """JSON shape of a :class:`~repro.serve.service.ServeResult`."""
    payload = {"name": result.name, "status": result.status,
               "reason": result.reason, "answer": result.answer,
               "seconds": round(result.seconds, 6),
               "retries": result.retries}
    if result.model is not None:
        payload["model"] = dict(result.model)
    for key in ("degraded_to", "stopped_by", "budget_tripped",
                "served_from"):
        if result.stats.get(key):
            payload[key] = result.stats[key]
    if ticket is not None:
        payload["shard"] = ticket.shard
        payload["coalesced"] = ticket.coalesced
        payload["reroutes"] = ticket.reroutes
    return payload


class NetServer:
    """The front door: admission, deadline propagation, shard routing.

    Construction wires the whole stack: one shared
    :class:`TelemetryAggregator` receives worker deltas from every
    shard plus the door's own ``net.*`` counters (what ``/metrics``
    serves), and every shard solves with *solver_config*, so when its
    ``store_path`` names a persistent store, all shards share it and a
    restarted shard warm-starts from its predecessors' verdicts.
    """

    def __init__(self, solver_config=None, net_config=None, grace=2.0,
                 aggregator=None, flight_dir=None, slo_seconds=None,
                 metrics_out=None, metrics_interval=2.0,
                 max_requests_per_worker=512, pump_interval=0.004):
        self.config = net_config or NetConfig()
        self.solver_config = solver_config or SolverConfig()
        self.grace = float(grace)
        self.aggregator = aggregator or TelemetryAggregator()
        self.metrics = self.aggregator.metrics
        self.flight_dir = flight_dir
        self.slo_seconds = slo_seconds
        self.metrics_out = metrics_out
        self.metrics_interval = float(metrics_interval)
        self.max_requests_per_worker = max_requests_per_worker
        self.pump_interval = float(pump_interval)
        self.router = ShardRouter(
            self._shard_factory, shards=self.config.shards,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown=self.config.breaker_cooldown_s,
            restart_after=self.config.restart_after_s,
            metrics=self.metrics)
        self._buckets = {}          # tenant name -> TokenBucket
        self._waiters = []          # (ticket, asyncio.Future)
        self._open = 0              # admitted, unanswered solve requests
        self._connections = 0
        self._draining = False
        self._server = None
        self._stopped = None        # asyncio.Event once started
        self._tasks = []
        self._last_snapshot = 0.0
        self.started_at = time.monotonic()

    # -- wiring --------------------------------------------------------------

    def _shard_factory(self, index):
        """One shard: a full SolverService on the shared aggregator and
        solver config (persistent store included).  Also the restart
        path after a kill."""
        per_shard = max(8, self.config.max_open_requests
                        // max(1, self.config.shards))
        return SolverService(
            config=self.solver_config, jobs=self.config.jobs_per_shard,
            timeout=self.config.max_deadline_s, grace=self.grace,
            queue_limit=per_shard, aggregator=self.aggregator,
            flight_dir=self.flight_dir, slo_seconds=self.slo_seconds,
            max_requests_per_worker=self.max_requests_per_worker)

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the listener and start the pump task; returns the bound
        ``(host, port)`` (port resolves 0 to the kernel's pick)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self._tasks.append(asyncio.ensure_future(self._pump_loop()))
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.config.port = port
        return host, port

    async def serve_forever(self):
        """Run until :meth:`initiate_shutdown` completes the drain."""
        await self._stopped.wait()

    def initiate_shutdown(self):
        """SIGTERM path: stop accepting, answer queued work
        ``unknown(shutdown)``, let in-flight solves finish or die at
        their deadline, then reap every pool — without ever blocking
        the event loop.  Idempotent; safe from a signal handler."""
        if self._draining:
            return
        self._draining = True
        self.metrics.add("net.drains")
        if self._server is not None:
            self._server.close()
        self.router.begin_drain()
        self._tasks.append(asyncio.ensure_future(self._finish_drain()))

    async def _finish_drain(self):
        budget = self.config.max_deadline_s + self.grace + 2.0
        deadline = time.monotonic() + budget
        while (self.router.open_flights or self._open) \
                and time.monotonic() < deadline:
            await asyncio.sleep(self.pump_interval)
        # One beat for connection handlers to flush their last writes.
        await asyncio.sleep(self.pump_interval * 2)
        self.router.shutdown(drain=False)
        self._snapshot(force=True)
        if self._stopped is not None:
            self._stopped.set()

    async def close(self):
        """Hard teardown for tests: no drain courtesy."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        self.router.shutdown(drain=False)
        if self._stopped is not None:
            self._stopped.set()

    async def _pump_loop(self):
        """The heartbeat: drive the router, resolve finished waiters,
        keep door gauges fresh, snapshot ``--metrics-out``."""
        while not (self._stopped is not None and self._stopped.is_set()):
            try:
                self.router.pump(0.0)
            except Exception:
                # The router never raises in normal operation; a chaos
                # seam left armed process-wide must not kill the pump.
                self.metrics.add("net.pump_errors")
            if self._waiters:
                live = []
                for ticket, future in self._waiters:
                    if ticket.done:
                        if not future.done():
                            future.set_result(ticket.result)
                    elif not future.done():
                        live.append((ticket, future))
                self._waiters = live
            self.metrics.gauge("net.open_requests", self._open)
            self.metrics.gauge("net.connections", self._connections)
            self.metrics.gauge(
                "net.uptime_s", time.monotonic() - self.started_at)
            self._snapshot()
            await asyncio.sleep(self.pump_interval)

    def _snapshot(self, force=False):
        if not self.metrics_out:
            return
        now = time.monotonic()
        if force or now - self._last_snapshot >= self.metrics_interval:
            write_snapshot(self.metrics_out, self.aggregator)
            self._last_snapshot = now

    # -- admission -----------------------------------------------------------

    def _admit(self, key, cost=1.0):
        """Descend the door rungs; returns ``(tenant, shed_payload)`` —
        exactly one of the pair is None."""
        config = self.config
        if self._draining:
            self.metrics.add("net.shed")
            self.metrics.add("net.shutdown_answers")
            return None, shed_response("shutdown")
        tenant = config.tenant_for(key or "")
        if tenant is None:
            self.metrics.add("net.shed")
            self.metrics.add("net.unauthorized")
            return None, shed_response("unauthorized")
        self.metrics.add("net.tenant.%s.requests" % tenant.name)
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = TokenBucket(tenant.rps, tenant.burst)
            self._buckets[tenant.name] = bucket
        if not bucket.take(time.monotonic(), cost):
            self.metrics.add("net.shed")
            self.metrics.add("net.throttled")
            self.metrics.add("net.tenant.%s.shed" % tenant.name)
            return None, shed_response("throttled",
                                       retry_after=config.retry_after_s)
        # The intake bound counts *work* (open router flights), not
        # waiters: a coalesced follower or a verdict-cache hit costs the
        # solvers nothing and must not trip the shed.  Waiters are still
        # bounded — at a generous multiple, against pathological fan-in.
        if self.router.open_flights >= config.max_open_requests \
                or self._open >= 8 * config.max_open_requests:
            self.metrics.add("net.shed")
            self.metrics.add("net.overloaded")
            self.metrics.add("net.tenant.%s.shed" % tenant.name)
            return None, shed_response("overloaded",
                                       retry_after=config.retry_after_s)
        return tenant, None

    def _deadline(self, raw):
        """Clamp the caller's deadline into (0, max]; None means the
        caller's budget is already spent."""
        config = self.config
        if raw is None:
            return config.default_deadline_s
        try:
            seconds = float(raw)
        except (TypeError, ValueError):
            return config.default_deadline_s
        if seconds <= 0:
            return None
        return min(seconds, config.max_deadline_s)

    # -- request handling ----------------------------------------------------

    async def handle_request(self, obj):
        """One logical request (already decoded); returns the response
        payload dict.  Shared by both wire protocols."""
        op = obj.get("op", "solve")
        key = obj.get("api_key")
        if op == "health":
            return self._health()
        if op == "metrics":
            return {"metrics": self.render_metrics()}
        if op.startswith("admin."):
            return self._admin(op[len("admin."):], obj)
        if op == "validate":
            tenant, shed = self._admit(key)
            if shed is not None:
                return shed
            return self._validate(obj)
        if op == "fuzz":
            n = min(int(obj.get("n") or 8), MAX_FUZZ_N)
            tenant, shed = self._admit(key, cost=float(max(1, n)))
            if shed is not None:
                return shed
            return await self._fuzz(obj, n)
        if op == "solve":
            tenant, shed = self._admit(key)
            if shed is not None:
                return shed
            return await self._solve(obj, tenant)
        self.metrics.add("net.bad_requests")
        return shed_response("bad-request", detail="unknown op %r" % op)

    async def _solve(self, obj, tenant):
        name = str(obj.get("name") or "wire")
        smt2 = obj.get("smt2")
        if not isinstance(smt2, str) or not smt2.strip():
            self.metrics.add("net.bad_requests")
            return shed_response("bad-request", name=name,
                                 detail="missing smt2 text")
        deadline_s = self._deadline(obj.get("deadline_s"))
        if deadline_s is None:
            self.metrics.add("net.deadline_expired")
            return shed_response("deadline", name=name,
                                 detail="deadline spent before admission")
        try:
            script = load_problem(smt2)
        except Exception as exc:
            self.metrics.add("net.parse_errors")
            return shed_response("parse-error", name=name,
                                 detail=str(exc)[:200])
        self._open += 1
        try:
            try:
                ticket = self.router.submit(script.problem, name=name,
                                            timeout=deadline_s)
            except Exception:
                # The net.route seam (or a genuine router bug): answer,
                # never crash the connection.
                self.metrics.add("net.route_errors")
                return shed_response("route-error", name=name)
            result = await self._await_ticket(ticket, deadline_s)
            if result is None:
                self.metrics.add("net.deadline_expired")
                return shed_response("deadline", name=name,
                                     detail="no answer within %.3fs"
                                     % deadline_s)
            self.metrics.add("net.tenant.%s.answers" % tenant.name)
            payload = result_payload(result, ticket)
            if script.expected in ("sat", "unsat"):
                payload["expected"] = script.expected
            return payload
        finally:
            self._open -= 1

    async def _await_ticket(self, ticket, deadline_s):
        """The response-side deadline: give the router until the
        caller's deadline (plus kill grace), then stop waiting — the
        caller is gone, nobody downstream should keep serving it."""
        if ticket.done:
            return ticket.result
        future = asyncio.get_running_loop().create_future()
        self._waiters.append((ticket, future))
        try:
            return await asyncio.wait_for(future,
                                          deadline_s + self.grace + 0.5)
        except asyncio.TimeoutError:
            return None

    def _validate(self, obj):
        smt2, model = obj.get("smt2"), obj.get("model")
        if not isinstance(smt2, str) or not isinstance(model, dict):
            self.metrics.add("net.bad_requests")
            return shed_response("bad-request",
                                 detail="validate wants smt2 + model")
        try:
            script = load_problem(smt2)
        except Exception as exc:
            self.metrics.add("net.parse_errors")
            return shed_response("parse-error", detail=str(exc)[:200])
        try:
            ok = bool(check_model(script.problem, model))
        except Exception:
            ok = False
        self.metrics.add("net.validations")
        return {"valid": ok}

    async def _fuzz(self, obj, n):
        """Serve-side traffic synthesis: *n* seeded generator problems
        routed like any other request, certified witnesses cross-checked
        against the verdicts (a wrong answer here is a soundness bug)."""
        import random

        from repro.diff.generator import GenConfig, generate

        seed = int(obj.get("seed") or 0)
        max_len = min(int(obj.get("max_len") or 3), 6)
        deadline_s = self._deadline(obj.get("deadline_s"))
        if deadline_s is None:
            self.metrics.add("net.deadline_expired")
            return shed_response("deadline")
        rng = random.Random(seed)
        config = GenConfig(max_len=max_len)
        jobs = []
        self._open += n
        try:
            for index in range(n):
                generated = generate(rng, config, seed_index=index)
                try:
                    ticket = self.router.submit(
                        generated.problem, name="fuzz-%d-%d" % (seed, index),
                        timeout=deadline_s)
                except Exception:
                    self.metrics.add("net.route_errors")
                    jobs.append((generated, None))
                    continue
                jobs.append((generated, ticket))
            counts = {}
            wrong = 0
            for generated, ticket in jobs:
                if ticket is None:
                    counts["unknown(route-error)"] = \
                        counts.get("unknown(route-error)", 0) + 1
                    continue
                result = await self._await_ticket(ticket, deadline_s)
                answer = "unknown(deadline)" if result is None \
                    else result.answer
                counts[answer] = counts.get(answer, 0) + 1
                if result is not None and generated.certified \
                        and result.status == "unsat":
                    wrong += 1
        finally:
            self._open -= n
        self.metrics.add("net.fuzz_problems", n)
        if wrong:
            self.metrics.add("net.fuzz_wrong", wrong)
        return {"n": n, "seed": seed, "answers": counts, "wrong": wrong,
                "certified": sum(1 for g, _ in jobs if g.certified)}

    def _health(self):
        return {"ok": not self._draining,
                "draining": self._draining,
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "open_requests": self._open,
                "shards": self.router.shard_states()}

    def render_metrics(self):
        return render_prometheus(self.aggregator)

    # -- admin / chaos surface ----------------------------------------------

    def _admin(self, action, obj):
        admin_key = self.config.admin_key
        if admin_key is not None and obj.get("admin_key") != admin_key:
            self.metrics.add("net.unauthorized")
            return shed_response("unauthorized")
        if action == "state":
            return {"shards": self.router.shard_states(),
                    "counters": dict(self.router.counters),
                    "open_requests": self._open,
                    "draining": self._draining}
        if action == "kill-shard":
            index = int(obj.get("shard") or 0)
            if not 0 <= index < self.router.shard_count:
                return shed_response("bad-request", detail="no such shard")
            return {"killed": self.router.kill_shard(index),
                    "shard": index}
        if action == "restart-shard":
            index = int(obj.get("shard") or 0)
            if not 0 <= index < self.router.shard_count:
                return shed_response("bad-request", detail="no such shard")
            return {"restarted": self.router.restart_shard(index),
                    "shard": index}
        if action == "fault":
            spec = obj.get("spec")
            try:
                fault = _faults.arm(_faults.parse_spec(spec))
            except (TypeError, ValueError) as exc:
                return shed_response("bad-request", detail=str(exc)[:200])
            self.metrics.add("net.faults_armed")
            return {"armed": repr(fault)}
        if action == "disarm":
            _faults.disarm(obj.get("point"))
            return {"disarmed": True}
        if action == "drain":
            self.initiate_shutdown()
            return {"draining": True}
        return shed_response("bad-request",
                             detail="unknown admin action %r" % action)

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader, writer):
        self._connections += 1
        self.metrics.add("net.accepts")
        try:
            if _faults.ARMED:
                _faults.point("net.accept")
            head = await reader.readexactly(4)
            if head in _HTTP_METHODS:
                await self._serve_http(head, reader, writer)
            else:
                await self._serve_frames(head, reader, writer)
        except Exception:
            # An armed net.* seam, a torn read, a client hangup: the
            # connection is dropped, counted, and never a traceback.
            self.metrics.add("net.dropped_connections")
        finally:
            self._connections -= 1
            try:
                writer.close()
            except Exception:
                pass

    # -- length-prefixed JSON ------------------------------------------------

    async def _serve_frames(self, head, reader, writer):
        """The LPJ loop: frames dispatch concurrently, responses echo
        ``id`` and serialize through one writer lock."""
        lock = asyncio.Lock()
        pending = set()
        length = int.from_bytes(head, "big")
        try:
            while True:
                if length > self.config.max_frame_bytes:
                    await self._send_frame(
                        writer, lock,
                        shed_response("too-large",
                                      detail="%d byte frame" % length))
                    break
                if _faults.ARMED:
                    _faults.point("net.read")
                body = await reader.readexactly(length)
                try:
                    obj = json.loads(body.decode("utf-8"))
                    if not isinstance(obj, dict):
                        raise ValueError("frame is not an object")
                except (ValueError, UnicodeDecodeError) as exc:
                    self.metrics.add("net.bad_requests")
                    await self._send_frame(
                        writer, lock,
                        shed_response("bad-request",
                                      detail=str(exc)[:200]))
                    # A desynchronized stream cannot be re-framed.
                    break
                task = asyncio.ensure_future(
                    self._frame_task(obj, writer, lock))
                pending.add(task)
                task.add_done_callback(pending.discard)
                head = await reader.readexactly(4)
                length = int.from_bytes(head, "big")
        except asyncio.IncompleteReadError:
            pass                     # client hung up between frames
        finally:
            if pending:
                await asyncio.wait(pending,
                                   timeout=self.config.max_deadline_s
                                   + self.grace + 1.0)

    async def _frame_task(self, obj, writer, lock):
        rid = obj.get("id")
        try:
            payload = await self.handle_request(obj)
        except Exception as exc:
            # Belt and braces: no handler bug may drop a response.
            self.metrics.add("net.internal_errors")
            payload = shed_response("internal-error",
                                    detail=type(exc).__name__)
        if rid is not None:
            payload = dict(payload, id=rid)
        try:
            await self._send_frame(writer, lock, payload)
        except (ConnectionError, OSError, RuntimeError):
            self.metrics.add("net.dropped_connections")

    async def _send_frame(self, writer, lock, payload):
        data = json.dumps(payload, default=str).encode("utf-8")
        async with lock:
            if _faults.ARMED:
                _faults.point("net.write")
            writer.write(len(data).to_bytes(4, "big") + data)
            await writer.drain()

    # -- HTTP/1.1 ------------------------------------------------------------

    async def _serve_http(self, head, reader, writer):
        keep_alive = True
        first = head
        while keep_alive:
            request = await self._read_http(first, reader)
            if request is None:
                return
            first = None
            method, path, version, headers, body = request
            status, payload, content_type = await self._dispatch_http(
                method, path, headers, body)
            keep_alive = (version == "HTTP/1.1"
                          and headers.get("connection", "") != "close"
                          and not self._draining)
            await self._send_http(writer, status, payload, content_type,
                                  keep_alive)

    async def _read_http(self, first, reader):
        """One request head + body; *first* carries the 4 sniffed bytes
        of the first request on the connection."""
        try:
            if _faults.ARMED:
                _faults.point("net.read")
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        if first is not None:
            head = first + head
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) < 3:
            return None
        method, path, version = parts[0], parts[1], parts[2]
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > self.config.max_frame_bytes:
            return method, path, version, headers, None
        body = await reader.readexactly(length) if length else b""
        return method, path, version, headers, body

    async def _dispatch_http(self, method, path, headers, body):
        """(status, payload-or-text, content type) for one request."""
        if body is None:
            self.metrics.add("net.bad_requests")
            return 413, shed_response("too-large"), "application/json"
        key = headers.get("x-api-key")
        deadline_raw = headers.get("x-deadline-s")
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/metrics":
            return 200, self.render_metrics(), "text/plain; version=0.0.4"
        if method == "GET" and path in ("/healthz", "/health"):
            payload = self._health()
            return (200 if payload["ok"] else 503), payload, \
                "application/json"
        if method == "GET" and path == "/admin/state":
            payload = self._admin("state",
                                  {"admin_key": headers.get("x-admin-key")})
            return self._admin_status(payload), payload, "application/json"
        if method == "POST" and path.startswith("/admin/"):
            obj = self._json_body(body)
            obj["admin_key"] = headers.get("x-admin-key")
            payload = self._admin(path[len("/admin/"):], obj)
            return self._admin_status(payload), payload, "application/json"
        if method == "POST" and path == "/solve":
            content = headers.get("content-type", "")
            if "json" in content:
                obj = self._json_body(body)
            else:
                obj = {"smt2": body.decode("utf-8", "replace")}
            obj.setdefault("op", "solve")
            obj.setdefault("api_key", key)
            if deadline_raw is not None:
                obj.setdefault("deadline_s", deadline_raw)
            payload = await self.handle_request(obj)
            return self._solve_status(payload), payload, "application/json"
        if method == "POST" and path in ("/validate", "/fuzz"):
            obj = self._json_body(body)
            obj["op"] = path[1:]
            obj.setdefault("api_key", key)
            if deadline_raw is not None:
                obj.setdefault("deadline_s", deadline_raw)
            payload = await self.handle_request(obj)
            return self._solve_status(payload), payload, "application/json"
        self.metrics.add("net.bad_requests")
        return 404, shed_response("bad-request",
                                  detail="no route %s %s" % (method, path)), \
            "application/json"

    @staticmethod
    def _json_body(body):
        try:
            obj = json.loads(body.decode("utf-8")) if body else {}
            return obj if isinstance(obj, dict) else {}
        except (ValueError, UnicodeDecodeError):
            return {}

    @staticmethod
    def _solve_status(payload):
        reason = payload.get("reason")
        if reason == "unauthorized":
            return 401
        if reason == "throttled":
            return 429
        if reason in ("overloaded", "shutdown", "unavailable"):
            return 503
        if reason in ("bad-request", "too-large"):
            return 400
        return 200

    @staticmethod
    def _admin_status(payload):
        if payload.get("reason") == "unauthorized":
            return 401
        if payload.get("reason") == "bad-request":
            return 400
        return 200

    _REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
                404: "Not Found", 413: "Payload Too Large",
                429: "Too Many Requests", 503: "Service Unavailable"}

    async def _send_http(self, writer, status, payload, content_type,
                         keep_alive):
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload, default=str).encode("utf-8")
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n"
                % (status, self._REASONS.get(status, "OK"), content_type,
                   len(body), "keep-alive" if keep_alive else "close"))
        if isinstance(payload, dict) and payload.get("retry_after_s"):
            head += "Retry-After: %d\r\n" \
                % max(1, int(payload["retry_after_s"]))
        if _faults.ARMED:
            _faults.point("net.write")
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()


async def serve(server, install_signals=True):
    """Start *server*, optionally wire SIGTERM/SIGINT to the graceful
    drain, and run until drained.  Returns the bound (host, port)."""
    import signal
    host, port = await server.start()
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.initiate_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
    await server.serve_forever()
    return host, port
