"""One workload run in one process: ``python -m perfbench.child``.

``python -m perfbench`` starts this module with ``PYTHONHASHSEED=0`` and
reads the one JSON line it prints last.  A run pins itself to one CPU,
starts the speed probe, sets up (imports, inputs, a warm-up solve or a
booted service), then solves the workload in whole passes until
``--seconds`` is spent, at least one pass.  With ``--trace 1`` half the
time goes to untraced passes and half to traced ones: end-to-end numbers
always come from the untraced passes, per-layer numbers from the traced
ones, and the difference between the two is the tracing overhead.
Timings are reported at reference speed (``perfbench.speed``), with the
plain wall-clock values beside them under ``raw``.  Every verdict is
checked after its pass, outside the timed region.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

from perfbench import layers, speed, workloads

if __name__ == "__mp_main__" and os.environ.get(layers.WORKER_ENV) == "1":
    # A service worker of a traced run.  The spawn start method imports
    # the parent's main module under this name before the worker starts,
    # which makes this the one place benchmark code runs in a worker.
    layers.install(worker=True)

POLL_S = 0.05
"""Longest a ``repeat`` client loop blocks in one ``ShardRouter.pump``;
the pump returns as soon as a worker answers."""
CLIENTS = 2

_SEVERITY = {"ok": 0, "unknown": 1, "wrong": 2}


def judge(case, status, model):
    """``ok``/``wrong``/``unknown`` for one answer to *case*.  A SAT
    answer is right exactly when its model satisfies the original
    problem; an UNSAT answer is wrong when the instance is known sat."""
    from repro import check_model
    if status == "sat":
        ok = model is not None and check_model(case.problem, model)
        return "ok" if ok else "wrong"
    if status == "unsat":
        return "wrong" if case.expected == "sat" else "ok"
    return "unknown"


def worst(verdicts):
    return max(verdicts, key=_SEVERITY.__getitem__)


def brief(value):
    """*value* with its floats at four significant digits: per-instance
    rows keep the tail visible in a ledger of a manageable size, while
    the metrics keep every digit."""
    if isinstance(value, float):
        return float("%.4g" % value)
    if isinstance(value, dict):
        return {k: brief(v) for k, v in value.items()}
    return value


def status_of(result):
    """The answer's status, with a deadline-stopped UNKNOWN as
    ``timeout``."""
    if result.status == "unknown" \
            and result.stats.get("stopped_by") == "deadline":
        return "timeout"
    return result.status


def _passes(run_pass, budget):
    """Call *run_pass* until *budget* wall seconds are spent, at least
    once; a pass is started only if one more of the same length fits."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(run_pass())
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > budget:
            return results


def _traced_metrics(registry, hooks, walls, untraced_walls, roots_s):
    """Per-layer metrics of the traced passes, from their attributed
    *registry*.  *walls* and *untraced_walls* are the traced and untraced
    pass times, and *roots_s* the part of *walls* that span forests
    cover, all at reference speed."""
    passes = len(walls)
    metrics = layers.per_layer(registry, passes, hooks)
    metrics["trace.overhead_ratio"] = (statistics.median(walls)
                                       / statistics.median(untraced_walls)
                                       - 1.0)
    metrics["trace.unattributed_s"] = (sum(walls) - roots_s) / passes
    return metrics


class SolverRun:
    """``basic``, ``conversion`` and ``paper``: one in-process solver,
    caches cleared before every solve."""

    def __init__(self, name, seed, quick, probe):
        from repro import SolverConfig, TrauSolver
        self.probe = probe
        self.build = lambda: workloads.SOLVER_WORKLOADS[name](quick)
        cases = self.build()
        self.order = workloads.solve_order(len(cases), seed)
        self.digest = workloads.digest(cases[i].problem for i in self.order)
        self.count = len(cases)
        self.solver = TrauSolver(
            config=SolverConfig(max_rounds=workloads.MAX_ROUNDS))
        self.solver.solve(workloads.warmup_problem(),
                          timeout=workloads.SOLVE_TIMEOUT_S)

    def close(self):
        pass

    def _pass(self, traced):
        """Solve every case once, on freshly built problems:
        ``[(case, result, (start, end), attributed metrics or None)]``."""
        from repro import Metrics, Tracer, scope
        from repro.cache import clear_all
        cases = self.build()
        answers = []
        for case in (cases[i] for i in self.order):
            clear_all()
            gc.collect()
            if not traced:
                began = time.perf_counter()
                result = self.solver.solve(case.problem, timeout=case.timeout)
                answers.append((case, result, (began, time.perf_counter()),
                                None))
                continue
            tracer, metrics = Tracer(), Metrics()
            with scope(tracer, metrics):
                began = time.perf_counter()
                result = self.solver.solve(case.problem, timeout=case.timeout)
                ended = time.perf_counter()
            layers.attribute(tracer.roots, metrics)
            answers.append((case, result, (began, ended), metrics))
        return answers

    def measure(self, seconds, trace):
        from repro import Metrics
        budget = seconds / 2 if trace else seconds
        untraced = _passes(lambda: self._pass(False), budget)
        traced = []
        if trace:
            hooks = layers.install()
            try:
                traced = _passes(lambda: self._pass(True), budget)
            finally:
                hooks.remove()
        rows = {}
        walls = []
        registry = Metrics()
        attempted = failed = wrong = 0
        solved_per_pass = []
        for index, answers in enumerate(untraced + traced):
            timed = index < len(untraced)
            solved = 0
            wall = 0.0
            for case, result, (start, end), solve_metrics in answers:
                verdict = judge(case, result.status, result.model)
                attempted += 1
                failed += verdict != "ok"
                wrong += verdict == "wrong"
                solved += verdict == "ok"
                row = rows.setdefault(case.name, {
                    "name": case.name, "expected": case.expected,
                    "status": status_of(result),
                    "rounds": result.stats.get("rounds"),
                    "phase": result.stats.get("phase"),
                    "stopped_by": result.stats.get("stopped_by"),
                    "verdict": verdict, "samples": [], "raw_samples": []})
                row["verdict"] = worst((row["verdict"], verdict))
                factor = self.probe.factor(start, end)
                wall += (end - start) * factor
                if timed:
                    row["samples"].append((end - start) * factor)
                    row["raw_samples"].append(end - start)
                else:
                    layers.scale_seconds(solve_metrics, factor)
                    registry.merge(solve_metrics)
                    row["layers"] = {
                        k[len("layer."):-len("_s")]: v
                        for k, v in solve_metrics.counters.items()
                        if k.startswith("layer.")}
            walls.append(wall)
            if timed:
                solved_per_pass.append(solved)
        for row in rows.values():
            row["seconds"] = statistics.median(row.pop("samples"))
            row["raw_seconds"] = statistics.median(row.pop("raw_samples"))

        def timings(key):
            medians = [row[key] for row in rows.values()]
            out = {"wall_s": sum(medians),
                   "solve_p50_s": statistics.median(medians)}
            if "paper/phi" in rows:
                out["phi_s"] = rows["paper/phi"][key]
            return out

        metrics = timings("seconds")
        metrics.update(solved=min(solved_per_pass),
                       fail_rate=failed / attempted)
        result = {
            "instances": self.count,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "attempted": attempted, "failed": failed, "wrong": wrong,
            "metrics": metrics, "raw": timings("raw_seconds"),
        }
        if trace:
            per_layer = _traced_metrics(
                registry, hooks, walls[len(untraced):], walls[:len(untraced)],
                registry.counters.get("span.roots_s", 0.0))
            phi = rows.get("paper/phi", {}).get("layers")
            if phi:
                loop = sum(phi.get(k, 0.0) for k in ("sat", "lia", "smt"))
                per_layer["phi.loop_share"] = loop / sum(phi.values())
            result["per_layer"] = per_layer
            result["missing_targets"] = hooks.missing
        result["rows"] = [brief(rows[k]) for k in sorted(rows)]
        return result


class RepeatRun:
    """``repeat``: two closed-loop clients through ``ShardRouter(shards=1)``
    over ``SolverService(jobs=1)`` on a fresh store, then the service
    restarted on the same store and the traffic replayed."""

    def __init__(self, seed, quick, probe, workdir):
        self.probe = probe
        self.cases = workloads.repeat_corpus(quick)
        self.traffic = workloads.repeat_traffic(len(self.cases), seed, quick)
        self.digest = workloads.digest(self.cases[i].problem
                                       for i in self.traffic)
        self.count = len(self.cases)
        self.workdir = tempfile.mkdtemp(prefix="repeat-", dir=workdir)
        self.store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            self.router = self._boot(None)
        except BaseException:
            shutil.rmtree(self.workdir, ignore_errors=True)
            raise

    def _boot(self, aggregator):
        """A router over one service on :attr:`store`, answered one
        warm-up request so that its worker is up and has imported the
        solver."""
        from repro import SolverConfig
        from repro.serve.router import ShardRouter
        from repro.serve.service import SolverService

        def shard(_index):
            return SolverService(
                config=SolverConfig(max_rounds=workloads.MAX_ROUNDS),
                jobs=1, timeout=workloads.SOLVE_TIMEOUT_S,
                store_path=self.store, aggregator=aggregator)

        router = ShardRouter(shard, shards=1)
        try:
            router.wait(router.submit(workloads.warmup_problem(),
                                      name="warmup",
                                      timeout=workloads.SOLVE_TIMEOUT_S))
        except BaseException:
            router.shutdown(drain=False)
            raise
        return router

    def close(self):
        if self.router is not None:
            self.router.shutdown(drain=False)
            self.router = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _clients(self, router, tracer):
        """Replay the traffic with :data:`CLIENTS` clients that each wait
        for their reply: ``([(case index, ticket, (sent, answered))],
        (start, end))``."""
        streams = [iter(self.traffic[c::CLIENTS]) for c in range(CLIENTS)]
        waiting = {}
        done = []

        def send(client):
            index = next(streams[client], None)
            if index is not None:
                began = time.perf_counter()
                ticket = router.submit(self.cases[index].problem,
                                       name=self.cases[index].name,
                                       timeout=workloads.SOLVE_TIMEOUT_S)
                waiting[client] = (index, ticket, began)

        start = time.perf_counter()
        for client in range(CLIENTS):
            send(client)
        while waiting:
            answered = [c for c, (_, t, _) in waiting.items() if t.done]
            if not answered:
                with tracer.span("router.pump"):
                    router.pump(POLL_S)
                continue
            now = time.perf_counter()
            for client in answered:
                index, ticket, began = waiting.pop(client)
                done.append((index, ticket, (began, now)))
                send(client)
        return done, (start, time.perf_counter())

    def _pass(self, traced):
        """Both generations on one store: ``(requests, traffic intervals,
        boot seconds, worker registry, client tracer, router counters)``.
        Boots are not part of the traffic."""
        from repro.obs import NULL_TRACER, TelemetryAggregator, Tracer, scope
        aggregator = TelemetryAggregator() if traced else None
        tracer = Tracer() if traced else NULL_TRACER
        boots = []
        requests = []
        traffic = []
        counters = {}
        if traced:
            os.environ[layers.WORKER_ENV] = "1"
        try:
            for generation in (1, 2):
                if self.router is None:
                    began = time.perf_counter()
                    if generation == 1:
                        self.store = tempfile.mkdtemp(prefix="store-",
                                                      dir=self.workdir)
                    self.router = self._boot(aggregator)
                    boots.append(time.perf_counter() - began)
                with scope(tracer):
                    answered, interval = self._clients(self.router, tracer)
                requests += answered
                traffic.append(interval)
                for key, value in self.router.counters.items():
                    counters[key] = counters.get(key, 0) + value
                self.router.shutdown()
                self.router = None
        finally:
            os.environ.pop(layers.WORKER_ENV, None)
        registry = aggregator.metrics if traced else None
        return requests, traffic, boots, registry, tracer, counters

    def measure(self, seconds, trace):
        from repro import Metrics
        budget = seconds / 2 if trace else seconds
        untraced = _passes(lambda: self._pass(False), budget)
        traced = []
        if trace:
            hooks = layers.install()
            try:
                traced = _passes(lambda: self._pass(True), budget)
            finally:
                hooks.remove()
        attempted = failed = wrong = 0
        solved_per_pass = []
        rows = {}
        latencies = []
        raw_latencies = []
        walls = []
        raw_walls = []
        for index, (requests, traffic, *_) in enumerate(untraced + traced):
            timed = index < len(untraced)
            replies_of = {}
            for case_index, ticket, interval in requests:
                replies_of.setdefault(case_index, []).append(
                    (ticket.result, interval))
            solved = 0
            for case_index, replies in replies_of.items():
                case = self.cases[case_index]
                verdicts = [judge(case, r.status, r.model)
                            for r, _ in replies]
                if len({r.status for r, _ in replies} & {"sat", "unsat"}) > 1:
                    verdicts = ["wrong"] * len(replies)
                attempted += len(verdicts)
                failed += sum(v != "ok" for v in verdicts)
                wrong += verdicts.count("wrong")
                solved += verdicts.count("ok")
                # The one reply per generation that a worker solved: not
                # answered from the router cache, not a coalesced copy.
                cold = [(r, i) for r, i in replies if "elapsed_s" in r.stats
                        and r.stats.get("served_from") is None]
                row = rows.setdefault(case.name, {
                    "name": case.name, "expected": case.expected,
                    "status": status_of(replies[0][0]),
                    "requests": len(replies), "verdict": "ok",
                    "samples": []})
                row["verdict"] = worst([row["verdict"]] + verdicts)
                if cold and "rounds" not in row:
                    stats = cold[0][0].stats
                    row.update(rounds=stats.get("rounds"),
                               phase=stats.get("phase"),
                               stopped_by=stats.get("stopped_by"))
                if timed and cold:
                    reply, interval = cold[0]
                    row["samples"].append(reply.stats["elapsed_s"]
                                          * self.probe.factor(*interval))
            walls.append(sum(self.probe.seconds(*t) for t in traffic))
            raw_walls.append(sum(end - start for start, end in traffic))
            if timed:
                solved_per_pass.append(solved)
                latencies += [self.probe.seconds(*interval)
                              for _, _, interval in requests]
                raw_latencies += [end - start
                                  for _, _, (start, end) in requests]
        for row in rows.values():
            samples = row.pop("samples")
            row["seconds"] = statistics.median(samples) if samples else None
        timed_walls = walls[:len(untraced)]
        per_pass = len(untraced[0][0])

        def timings(lat, wall):
            return {"wall_s": statistics.median(wall),
                    "latency_p50_ms": 1000.0 * statistics.median(lat),
                    "throughput_rps": per_pass / statistics.median(wall)}

        metrics = timings(latencies, timed_walls)
        metrics.update(solved=min(solved_per_pass),
                       fail_rate=failed / attempted)
        raw = timings(raw_latencies, raw_walls[:len(untraced)])
        raw["boot_s"] = statistics.median(b for run in untraced
                                          for b in run[2])
        result = {
            "instances": self.count, "requests": per_pass,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "attempted": attempted, "failed": failed, "wrong": wrong,
            "metrics": metrics, "raw": raw,
            "rows": [brief(rows[k]) for k in sorted(rows)],
        }
        if trace:
            registry = Metrics()
            client = Metrics()
            hits = requests = 0
            solve_s = wait_s = 0.0
            traced_walls = walls[len(untraced):]
            raw_traced = raw_walls[len(untraced):]
            for run, wall, raw_wall in zip(traced, traced_walls, raw_traced):
                answered, _, _, worker, tracer, counters = run
                # Worker and client share the pinned CPU; the traffic's
                # mean speed scales both.
                layers.scale_seconds(worker, wall / raw_wall)
                registry.merge(worker)
                forest = Metrics()
                layers.attribute(tracer.roots, forest)
                layers.scale_seconds(forest, wall / raw_wall)
                client.merge(forest)
                hits += counters.get("cache_hits", 0)
                requests += len(answered)
                for _, ticket, (start, end) in answered:
                    stats = ticket.result.stats
                    if (ticket.coalesced or "elapsed_s" not in stats
                            or stats.get("served_from") is not None):
                        continue
                    factor = self.probe.factor(start, end)
                    solve_s += stats["elapsed_s"] * factor
                    wait_s += (end - start - stats["elapsed_s"]) * factor
            passes = len(traced)
            per_layer = _traced_metrics(
                registry, hooks, traced_walls, timed_walls,
                client.counters.get("span.roots_s", 0.0))
            submit_s = client.counters.get("layer.router.submit_s", 0.0)
            per_layer.update({
                "router.submit_s": submit_s / passes
                if hooks.available("router.submit") else None,
                "router.hit_ratio": hits / requests,
                "service.solve_s": solve_s / passes,
                "service.wait_s": wait_s / passes,
            })
            result["per_layer"] = per_layer
            result["missing_targets"] = hooks.missing
        return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time, and exit")
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.time() when the parent started this "
                             "process; set-up time counts from it")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for service stores")
    args = parser.parse_args(argv)

    speed.pin_to_one_cpu()
    probe = speed.SpeedProbe()
    probe.start()
    try:
        began = time.perf_counter()
        if args.workload == "repeat":
            run = RepeatRun(args.seed, args.quick, probe, args.workdir)
        else:
            run = SolverRun(args.workload, args.seed, args.quick, probe)
        ended = time.perf_counter()
        setup_s = time.time() - args.launched_at
        try:
            result = {} if args.setup_only else run.measure(args.seconds,
                                                            bool(args.trace))
        finally:
            run.close()
        result.update(setup_s=setup_s * probe.factor(began, ended),
                      raw_setup_s=setup_s, digest=run.digest,
                      speed=probe.summary())
    finally:
        probe.close()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
