"""End-to-end tests for :mod:`repro.serve.net` — real sockets, real
spawn workers, real SIGTERM.

Each test boots a full :class:`NetServer` on an ephemeral port inside
``asyncio.run`` and speaks the length-prefixed-JSON wire protocol at it.
The themes mirror the front door's admission ladder: every request —
authorized or not, parseable or not, sent before or after a shard death
or a drain — comes back as exactly one well-formed response.
"""

import asyncio
import glob
import json
import os
import select
import signal
import socket
import subprocess
import sys

from repro import faults
from repro.config import NetConfig, SolverConfig, TenantQuota
from repro.serve.net import NetServer, TokenBucket
from repro.smtlib import problem_to_smtlib
from repro.store import Store, scan_segment
from repro.strings import ProblemBuilder
from repro.logic import eq
from repro.strings import str_len


def sat_text(chars="ab"):
    builder = ProblemBuilder()
    x = builder.str_var("x")
    builder.member(x, "[%s]{2}" % chars)
    return problem_to_smtlib(builder.problem)


def unsat_text(chars="ab"):
    builder = ProblemBuilder()
    x = builder.str_var("x")
    builder.member(x, "[%s]{2}" % chars)
    builder.require_int(eq(str_len(x), 9))
    return problem_to_smtlib(builder.problem)


class Wire:
    """Minimal test client: framed JSON over one connection."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)
        return self

    async def send(self, obj):
        data = json.dumps(obj).encode("utf-8")
        self.writer.write(len(data).to_bytes(4, "big") + data)
        await self.writer.drain()

    async def recv(self, timeout=60.0):
        head = await asyncio.wait_for(self.reader.readexactly(4), timeout)
        body = await asyncio.wait_for(
            self.reader.readexactly(int.from_bytes(head, "big")), timeout)
        return json.loads(body.decode("utf-8"))

    async def rpc(self, obj, timeout=60.0):
        await self.send(obj)
        return await self.recv(timeout)

    def close(self):
        if self.writer is not None:
            self.writer.close()


def boot(store_path=None, **kwargs):
    """A NetServer with test-sized defaults (tiny pools, port 0)."""
    net_kwargs = dict(host="127.0.0.1", port=0, shards=1, jobs_per_shard=1,
                      max_deadline_s=30.0)
    net_kwargs.update(kwargs.pop("net", {}))
    return NetServer(solver_config=SolverConfig(store_path=store_path),
                     net_config=NetConfig(**net_kwargs), grace=1.0,
                     **kwargs)


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: now[0])
        assert all(bucket.take(now[0]) for _ in range(3))
        assert not bucket.take(now[0])         # burst spent
        now[0] = 1.0
        assert bucket.take(now[0])             # 2 tokens refilled
        assert bucket.take(now[0])
        assert not bucket.take(now[0])

    def test_cost_above_balance_sheds(self):
        bucket = TokenBucket(rate=1.0, burst=10, clock=lambda: 0.0)
        assert not bucket.take(0.0, cost=11.0)
        assert bucket.take(0.0, cost=10.0)


class TestSolveWire:
    def test_solve_cache_coalesce_validate_drain(self):
        async def scenario():
            server = boot(net={"shards": 2})
            host, port = await server.start()
            wire = await Wire(host, port).connect()

            first = await wire.rpc({"op": "solve", "id": 1,
                                    "smt2": sat_text(), "deadline_s": 25})
            assert first["status"] == "sat"
            assert first["id"] == 1
            assert isinstance(first["model"], dict)

            # The repeat never touches a worker.
            again = await wire.rpc({"op": "solve", "id": 2,
                                    "smt2": sat_text()})
            assert again["status"] == "sat"
            assert again["served_from"] == "router-cache"

            # Three concurrent asks of a *fresh* problem share one solve.
            fresh = unsat_text("cd")
            for rid in (10, 11, 12):
                await wire.send({"op": "solve", "id": rid, "smt2": fresh,
                                 "deadline_s": 25})
            replies = [await wire.recv() for _ in range(3)]
            assert {r["status"] for r in replies} == {"unsat"}
            assert sum(1 for r in replies if r["coalesced"]) == 2

            # The sat model round-trips through the validator.
            verdict = await wire.rpc({"op": "validate",
                                      "smt2": sat_text(),
                                      "model": first["model"]})
            assert verdict["valid"] is True

            health = await wire.rpc({"op": "health"})
            assert health["ok"] and len(health["shards"]) == 2

            # Drain: late requests answer shutdown, the server exits.
            server.initiate_shutdown()
            late = await wire.rpc({"op": "solve", "id": 99,
                                   "smt2": sat_text()})
            assert late["answer"] == "unknown(shutdown)"
            await asyncio.wait_for(server.serve_forever(), 30.0)
            wire.close()

        asyncio.run(scenario())


class TestTopOverHttp:
    def test_top_scrapes_a_live_metrics_endpoint(self):
        """``repro top http://host:port/metrics`` — the snapshot-file
        scraper pointed at a living server."""
        from repro.obs.top import scrape

        async def scenario():
            server = boot()
            host, port = await server.start()
            await asyncio.sleep(0.05)        # one pump beat for gauges
            loop = asyncio.get_running_loop()
            url = "http://%s:%d/metrics" % (host, port)
            metrics = await loop.run_in_executor(None, scrape, url)
            assert metrics is not None
            flat = metrics.flat()
            assert flat.get("net.shards_total") == 1
            # A dead endpoint degrades to None (top shows "waiting"),
            # exactly like a snapshot file that is not there yet.
            gone = await loop.run_in_executor(
                None, scrape, "http://127.0.0.1:9/metrics")
            assert gone is None
            await server.close()

        asyncio.run(scenario())


class TestAdmissionLadder:
    def test_every_rung_answers_well_formed(self):
        async def scenario():
            tenants = (TenantQuota("ci", "right-key", rps=1000, burst=1000),
                       TenantQuota("noisy", "noisy-key", rps=0.001,
                                   burst=1))
            server = boot(net={"tenants": tenants, "admin_key": "adm",
                               "max_frame_bytes": 2048})
            host, port = await server.start()
            wire = await Wire(host, port).connect()

            # unauthorized: no key / wrong key.
            shed = await wire.rpc({"op": "solve", "smt2": sat_text()})
            assert shed["answer"] == "unknown(unauthorized)"
            shed = await wire.rpc({"op": "solve", "smt2": sat_text(),
                                   "api_key": "wrong"})
            assert shed["answer"] == "unknown(unauthorized)"

            # throttled: the noisy tenant's bucket holds one token.
            ok = await wire.rpc({"op": "solve", "smt2": sat_text(),
                                 "api_key": "noisy-key",
                                 "deadline_s": 25})
            assert ok["status"] in ("sat", "unknown")
            shed = await wire.rpc({"op": "solve", "smt2": sat_text(),
                                   "api_key": "noisy-key"})
            assert shed["answer"] == "unknown(throttled)"
            assert shed["retry_after_s"] > 0

            # parse-error / spent deadline / unknown op.
            shed = await wire.rpc({"op": "solve", "smt2": "(assert",
                                   "api_key": "right-key"})
            assert shed["answer"] == "unknown(parse-error)"
            shed = await wire.rpc({"op": "solve", "smt2": sat_text(),
                                   "api_key": "right-key",
                                   "deadline_s": 0})
            assert shed["answer"] == "unknown(deadline)"
            shed = await wire.rpc({"op": "frobnicate",
                                   "api_key": "right-key"})
            assert shed["answer"] == "unknown(bad-request)"

            # admin surface: guarded, then useful.
            shed = await wire.rpc({"op": "admin.state"})
            assert shed["answer"] == "unknown(unauthorized)"
            state = await wire.rpc({"op": "admin.state",
                                    "admin_key": "adm"})
            assert state["counters"]["routed"] >= 1
            assert state["shards"][0]["alive"]

            # too-large: an oversize frame answers, then drops framing.
            big = await Wire(host, port).connect()
            data = b"x" * 4096
            big.writer.write(len(data).to_bytes(4, "big") + data)
            await big.writer.drain()
            reply = await big.recv()
            assert reply["answer"] == "unknown(too-large)"
            big.close()

            # The shed counters made it to the exported metrics.
            metrics = await wire.rpc({"op": "metrics"})
            assert "repro_net_shed_total" in metrics["metrics"]
            assert "repro_net_throttled_total" in metrics["metrics"]

            wire.close()
            await server.close()

        asyncio.run(scenario())


class TestChaos:
    def test_net_fault_drops_connection_and_retry_succeeds(self):
        async def scenario():
            server = boot(net={"admin_key": "adm"})
            host, port = await server.start()
            admin = await Wire(host, port).connect()
            armed = await admin.rpc({"op": "admin.fault",
                                     "spec": "net.read:raise:times=1",
                                     "admin_key": "adm"})
            assert "armed" in armed

            # The next read on a fresh connection eats the fault: the
            # connection drops with no response, like a torn request.
            victim = await Wire(host, port).connect()
            dropped = False
            try:
                await victim.rpc({"op": "solve", "smt2": sat_text(),
                                  "deadline_s": 25}, timeout=10.0)
            except (asyncio.IncompleteReadError, ConnectionError,
                    asyncio.TimeoutError, OSError):
                dropped = True
            victim.close()
            assert dropped

            # The retry (fault exhausted) gets a real answer.
            retry = await Wire(host, port).connect()
            answer = await retry.rpc({"op": "solve", "smt2": sat_text(),
                                      "deadline_s": 25})
            assert answer["status"] == "sat"
            retry.close()

            await admin.rpc({"op": "admin.disarm", "admin_key": "adm"})
            await admin.rpc({"op": "admin.drain", "admin_key": "adm"})
            await asyncio.wait_for(server.serve_forever(), 30.0)
            admin.close()

        try:
            asyncio.run(scenario())
        finally:
            faults.disarm()          # belt and braces for test isolation

    def test_kill_and_restart_shard_through_admin(self):
        async def scenario():
            server = boot(net={"shards": 2, "jobs_per_shard": 1,
                               "admin_key": "adm"})
            host, port = await server.start()
            wire = await Wire(host, port).connect()

            killed = await wire.rpc({"op": "admin.kill-shard", "shard": 0,
                                     "admin_key": "adm"})
            assert killed["killed"] is True

            # With one shard dark, every fingerprint still lands
            # somewhere: the ring walks past the dead slot.
            for chars in ("ab", "cd", "ef"):
                reply = await wire.rpc({"op": "solve",
                                        "smt2": sat_text(chars),
                                        "deadline_s": 25})
                assert reply["status"] == "sat"
                assert reply["shard"] == 1

            health = await wire.rpc({"op": "health"})
            alive = [s["alive"] for s in health["shards"]]
            assert alive == [False, True]

            restarted = await wire.rpc({"op": "admin.restart-shard",
                                        "shard": 0, "admin_key": "adm"})
            assert restarted["restarted"] is True
            health = await wire.rpc({"op": "health"})
            assert all(s["alive"] for s in health["shards"])

            wire.close()
            await server.close()

        asyncio.run(scenario())


class TestShardWiring:
    def test_shards_keep_the_configured_budgets(self):
        """Every shard's service solves with the configured pipeline,
        ``--max-*`` budgets included."""
        config = SolverConfig(bb_node_limit=17, smt_iteration_limit=23,
                              automata_state_limit=4099)
        server = NetServer(
            solver_config=config,
            net_config=NetConfig(host="127.0.0.1", port=0, shards=1,
                                 jobs_per_shard=1),
            grace=1.0)
        with server.router as router:
            shard_config = router._shards[0].service.config
        assert shard_config.use_caches
        assert (shard_config.bb_node_limit,
                shard_config.smt_iteration_limit,
                shard_config.automata_state_limit) == (17, 23, 4099)


class TestNetserveCli:
    def test_netserve_boots_answers_and_drains_on_sigterm(self):
        """The ``repro netserve`` glue end-to-end: a real process, a
        real socket, a real SIGTERM, exit status zero."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "netserve", "--port", "0",
             "--shards", "1", "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30.0)
            assert ready, "netserve never printed its listening line"
            banner = proc.stdout.readline()
            assert "listening on" in banner
            port = int(banner.split("listening on ")[1]
                       .split()[0].rsplit(":", 1)[1])

            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30.0) as sock:
                sock.settimeout(30.0)
                data = json.dumps({"op": "health", "id": 1}).encode()
                sock.sendall(len(data).to_bytes(4, "big") + data)
                head = sock.recv(4)
                body = b""
                want = int.from_bytes(head, "big")
                while len(body) < want:
                    body += sock.recv(want - len(body))
                reply = json.loads(body.decode())
                assert reply["ok"] is True

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60.0)
            assert proc.returncode == 0, err
            assert "drained" in out
            assert "Traceback" not in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestSigtermDrainWithStore:
    def test_drain_under_real_sigterm_with_persistent_store(self, tmp_path):
        """The PR's drain satellite: SIGTERM with the persistent store
        attached.  Late requests answer ``unknown(shutdown)``, the
        segments close cleanly (no torn tail), and the next boot
        replays the index with zero quarantined records."""
        store_dir = str(tmp_path / "store")

        async def scenario():
            server = boot(store_path=store_dir)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM,
                                    server.initiate_shutdown)
            wire = await Wire(host, port).connect()

            # Populate the store through a real worker solve.
            first = await wire.rpc({"op": "solve", "smt2": sat_text(),
                                    "deadline_s": 25})
            assert first["status"] == "sat"

            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.sleep(0)           # let the handler run

            # Queued-after-drain requests are answered, not dropped.
            for index in range(3):
                late = await wire.rpc({"op": "solve",
                                       "smt2": sat_text("cd"),
                                       "id": index})
                assert late["answer"] == "unknown(shutdown)"

            await asyncio.wait_for(server.serve_forever(), 30.0)
            wire.close()
            loop.remove_signal_handler(signal.SIGTERM)

        asyncio.run(scenario())

        # Segments closed cleanly: every record parses, no torn tail.
        segments = sorted(glob.glob(os.path.join(store_dir, "seg-*.log")))
        assert segments, "the solve never reached the store"
        total_records = 0
        for segment in segments:
            records, offset = scan_segment(segment)
            total_records += len(records)
            assert offset == os.path.getsize(segment)
        assert total_records >= 1

        # Next boot replays the index: entries present, none quarantined.
        reborn = Store(store_dir)
        reborn.refresh(force=True)
        assert len(reborn._index) >= 1
        assert reborn.counters["quarantined"] == 0
