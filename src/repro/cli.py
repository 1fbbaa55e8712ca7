"""Command-line interface: solve SMT-LIB files with the PFA solver.

Usage::

    python -m repro FILE.smt2 [--timeout S] [--solver pfa|splitting|enum]
                              [--model] [--validate]
                              [--trace] [--trace-json FILE]
                              [--profile-hot N]
                              [--max-bb-nodes N] [--max-smt-iterations N]
                              [--max-automata-states N]
                              [--inject-fault SPEC]
    python -m repro selfcheck [--trace] [--allow-unknown] [budget flags]
    python -m repro serve-batch PATH... [--pool-jobs N] [--portfolio]
                                [--timeout S] [--results-json FILE]
                                [--metrics-out FILE] [--flight-dir DIR]
                                [--slo S]
    python -m repro fuzz [--seed N] [--n N] [--max-len N]
                         [--save-failures DIR] [--lie-rate R] [--trace]
                         [--metrics-out FILE]
    python -m repro top SNAPSHOT_OR_URL [--interval S] [--iterations N]
    python -m repro netserve [--port N] [--shards N] [--jobs N]
                             [--api-key NAME=KEY[:RPS[:BURST]]]
                             [--admin-key KEY] [--store DIR]
                             [--metrics-out FILE]
    python -m repro loadgen [--rps N] [--requests N] [--json FILE]

Prints ``sat``/``unsat``/``unknown`` like an SMT solver; ``--model`` adds
a ``(model ...)`` block with the string/integer assignments.  ``--trace``
appends the per-phase span tree and metrics table (as ``;``-prefixed
SMT-LIB comments, so the output stays parseable); ``--trace-json FILE``
writes the same data as a JSON-lines event log.

Robustness knobs: the ``--max-*`` flags bound individual resource
dimensions of the unified :class:`~repro.config.Budget` (an exhausted
budget yields an UNKNOWN whose ``stopped_by`` names the tripped limit),
and ``--inject-fault SPEC`` (repeatable; also the ``REPRO_INJECT_FAULT``
environment variable) arms deterministic faults at internal seams to
exercise the degradation ladder — see :mod:`repro.faults`.

``selfcheck`` runs a handful of built-in queries through the full
pipeline and exits non-zero on any wrong status — a smoke test for CI.
With ``--allow-unknown`` an UNKNOWN answer passes as long as it is
*attributable* (its stats name the tripped budget), which is how the CI
chaos job asserts tiny budgets degrade gracefully instead of erroring.

``fuzz`` runs a differential + metamorphic fuzzing campaign through
:mod:`repro.diff`: seeded random problems are solved by TrauSolver and
the enumerative oracle, definite verdicts are cross-checked (and
checked for stability under satisfiability-preserving transforms), and
every disagreement is shrunk to a minimal ``.smt2`` reproducer under
``--save-failures DIR``.  Exits non-zero on
any disagreement.

``netserve`` puts the same supervised stack on a TCP port
(:mod:`repro.serve.net`): N ``SolverService`` shards behind a
fingerprint-hashing router with request coalescing, a verdict cache,
per-shard circuit breakers, token-bucket tenant quotas and bounded
intake at the door, and client deadlines propagated down to the worker
``Budget``.  Speaks HTTP/1.1 (``POST /solve``, ``GET /metrics``) and
length-prefixed JSON on one port; SIGTERM drains gracefully.
``loadgen`` is its chaos proof: a controlled-rate load harness that
kills a shard and arms ``net.*`` faults mid-run and asserts every
request still gets a well-formed answer (see
:mod:`repro.bench.loadgen`).

``serve-batch`` solves a directory (or list) of SMT-LIB files through
the supervised :class:`~repro.serve.service.SolverService`: a pool of
``--pool-jobs`` isolated worker processes with hard deadlines,
worker-death retries, poison-pill quarantine, and — with
``--portfolio`` — a cross-checked race between the configured pipeline
and its no-cache rung.  Every file gets exactly one answer; SIGTERM drains
gracefully (in-flight work finishes or is killed at its deadline,
queued files answer ``unknown(shutdown)``) and still exits zero.
``--request-fault 'NAME[@LABEL]=SPEC'`` arms a serve-layer fault for
one request (optionally one portfolio arm) — the chaos-soak instrument.

Telemetry: ``--metrics-out FILE`` attaches a
:class:`~repro.obs.pipeline.TelemetryAggregator` (worker-side spans and
counters are shipped back over the pool's delta protocol) and
periodically rewrites FILE as a Prometheus text-exposition snapshot —
``python -m repro top FILE`` watches it live, and the same file is what
a ``/metrics`` endpoint would serve.  ``--flight-dir DIR`` and
``--slo S`` arm the per-request flight recorder: commented-JSON black
boxes are dumped to DIR when a request degrades, blows the SLO, is
hard-killed, or is quarantined.  ``--profile-hot N`` (single-file mode)
runs the deterministic sampling profiler and prints the N hottest
(phase stack, call site) rows.
"""

import argparse
import glob
import os
import signal
import sys

from repro import faults
from repro.baselines import EnumerativeSolver, SplittingSolver
from repro.config import SolverConfig
from repro.core.solver import TrauSolver
from repro.errors import ParseError, UnsupportedConstraint
from repro.obs import Metrics, Tracer, dump_jsonl, render_report, scope
from repro.smtlib import load_problem
from repro.smtlib.printer import _escape
from repro.strings import check_model

_SOLVERS = {
    "pfa": TrauSolver,
    "splitting": SplittingSolver,
    "enum": EnumerativeSolver,
}


def format_model(problem, model):
    lines = ["(model"]
    for v in sorted(problem.string_vars(), key=lambda s: s.name):
        lines.append('  (define-fun %s () String "%s")'
                     % (v.name, _escape(model.get(v.name, ""))))
    for name in sorted(problem.int_vars()):
        value = model.get(name, 0)
        rendered = str(value) if value >= 0 else "(- %d)" % -value
        lines.append("  (define-fun %s () Int %s)" % (name, rendered))
    lines.append(")")
    return "\n".join(lines)


def _print_trace(tracer, metrics):
    """The span tree + metrics table as SMT-LIB comment lines."""
    report = render_report(tracer, metrics)
    for line in report.splitlines():
        print("; " + line if line else ";")


def _add_budget_arguments(parser):
    parser.add_argument("--max-bb-nodes", type=int, default=None, metavar="N",
                        help="bound the branch-and-bound search tree; "
                             "tripping it yields an attributable unknown")
    parser.add_argument("--max-smt-iterations", type=int, default=None,
                        metavar="N",
                        help="bound DPLL(T) iterations per solver call")
    parser.add_argument("--max-automata-states", type=int, default=None,
                        metavar="N",
                        help="bound the state count of automata products "
                             "and determinizations")


def _error_exit(exc):
    """Report an unreadable or unparsable input file, or an unwritable
    output path, on one stderr line.  Exit status 2, as argparse uses for
    bad arguments, keeps it apart from 1 (an expected-status mismatch)."""
    print("repro: error: %s" % exc, file=sys.stderr)
    return 2


def _add_store_argument(parser):
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="directory of the crash-safe persistent "
                             "verdict store, shared across runs and pool "
                             "workers (the REPRO_STORE environment variable "
                             "is the ambient default)")


def _build_config(args):
    """A SolverConfig from the CLI's robustness flags."""
    kwargs = {}
    if getattr(args, "store", None):
        # The verdict store is resolved from the config of every solve
        # (repro.store.active_store); nothing else in the process reads it.
        kwargs["store_path"] = args.store
    if getattr(args, "no_cache", False):
        kwargs["use_caches"] = False
    if args.max_bb_nodes is not None:
        kwargs["bb_node_limit"] = args.max_bb_nodes
    if args.max_smt_iterations is not None:
        kwargs["smt_iteration_limit"] = args.max_smt_iterations
    if args.max_automata_states is not None:
        kwargs["automata_state_limit"] = args.max_automata_states
    if getattr(args, "inject_fault", None):
        try:
            specs = tuple(faults.parse_spec(s) for s in args.inject_fault)
        except ValueError as exc:
            raise SystemExit("repro: bad --inject-fault spec: %s" % exc)
        kwargs["fault_specs"] = specs
    return SolverConfig(**kwargs)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "selfcheck":
        return selfcheck(argv[1:])
    if argv and argv[0] == "serve-batch":
        return serve_batch(argv[1:])
    if argv and argv[0] == "fuzz":
        return fuzz(argv[1:])
    if argv and argv[0] == "top":
        return top(argv[1:])
    if argv and argv[0] == "netserve":
        return netserve(argv[1:])
    if argv and argv[0] == "loadgen":
        return loadgen(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PFA-based string constraint solver "
                    "(PLDI 2020 reproduction)")
    parser.add_argument("file", help="SMT-LIB 2 input file ('-' for stdin)")
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument("--solver", choices=sorted(_SOLVERS), default="pfa")
    parser.add_argument("--model", action="store_true",
                        help="print a model for sat answers")
    parser.add_argument("--validate", action="store_true",
                        help="re-check sat models concretely and report")
    parser.add_argument("--trace", action="store_true",
                        help="print the span tree and metrics after the "
                             "answer (as ; comments)")
    parser.add_argument("--trace-json", metavar="FILE",
                        help="write the trace as JSON-lines to FILE "
                             "('-' for stdout)")
    parser.add_argument("--profile-hot", type=int, default=None,
                        metavar="N",
                        help="run the deterministic sampling profiler and "
                             "print the N hottest (phase, call site) rows "
                             "(as ; comments); implies span tracing")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the memoization caches")
    _add_budget_arguments(parser)
    _add_store_argument(parser)
    parser.add_argument("--inject-fault", action="append", default=[],
                        metavar="SPEC",
                        help="arm a deterministic fault at an internal seam "
                             "(repeatable); SPEC is point[:mode[:k=v,...]], "
                             "e.g. smt.session.solve:raise:after=1")
    args = parser.parse_args(argv)

    faults.arm_from_env()
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as handle:
                text = handle.read()
    except OSError as exc:
        return _error_exit(exc)
    try:
        script = load_problem(text)
    except (ParseError, UnsupportedConstraint) as exc:
        return _error_exit(exc)
    if args.solver == "pfa":
        solver = TrauSolver(config=_build_config(args))
    else:
        solver = _SOLVERS[args.solver]()

    tracing = args.trace or args.trace_json or args.profile_hot
    tracer = Tracer() if tracing else None
    metrics = Metrics() if tracing else None
    profiler = None
    with scope(tracer, metrics):
        if args.profile_hot:
            from repro.obs.profile import SamplingProfiler
            profiler = SamplingProfiler()
            with profiler:
                result = solver.solve(script.problem, timeout=args.timeout)
        else:
            result = solver.solve(script.problem, timeout=args.timeout)

    print(result.status)
    if result.status == "sat":
        if args.validate:
            ok = check_model(script.problem, result.model)
            print("; model %s" % ("validates" if ok else "FAILS validation"))
        if args.model:
            print(format_model(script.problem, result.model))
    if args.trace:
        _print_trace(tracer, metrics)
    if profiler is not None:
        for line in profiler.report(args.profile_hot).splitlines():
            print("; " + line if line else ";")
    if args.trace_json:
        if args.trace_json == "-":
            dump_jsonl(tracer, metrics, sys.stdout)
        else:
            try:
                with open(args.trace_json, "w") as handle:
                    dump_jsonl(tracer, metrics, handle)
            except OSError as exc:
                return _error_exit(exc)
    if script.expected and result.status in ("sat", "unsat") \
            and result.status != script.expected:
        print("; WARNING: expected status was %s" % script.expected)
        return 1
    return 0


# -- serve-batch -------------------------------------------------------------


def _collect_smt_files(paths):
    """Expand directories into their sorted ``*.smt2`` contents."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "*.smt2"))))
        else:
            files.append(path)
    return files


def _parse_request_faults(values):
    """``NAME[@LABEL]=SPEC`` options -> {name: {label-or-"": [spec,...]}}."""
    table = {}
    for value in values:
        target, sep, spec = value.partition("=")
        if not sep or not spec.strip():
            raise SystemExit("repro: bad --request-fault %r "
                             "(want NAME[@LABEL]=SPEC)" % value)
        name, _, label = target.partition("@")
        table.setdefault(name.strip(), {}).setdefault(
            label.strip(), []).append(spec.strip())
    return table


def serve_batch(argv=None):
    """Solve a corpus of SMT-LIB files through the supervised service."""
    from repro.serve import ServeResult, SolverService, default_portfolio

    parser = argparse.ArgumentParser(
        prog="repro serve-batch",
        description="solve SMT-LIB files through the supervised "
                    "SolverService (worker pool, backpressure, "
                    "quarantine, optional portfolio)")
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="SMT-LIB files and/or directories of *.smt2")
    parser.add_argument("--pool-jobs", type=int, default=2, metavar="N",
                        help="worker processes in the pool (default 2)")
    parser.add_argument("--portfolio", action="store_true",
                        help="race the configured pipeline and its "
                             "no-cache rung per request and cross-check "
                             "the verdicts")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-request solver budget in seconds")
    parser.add_argument("--grace", type=float, default=2.0,
                        help="seconds past the budget before a worker is "
                             "hard-killed")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="max open requests before backpressure")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries after a worker death (with backoff)")
    parser.add_argument("--quarantine-threshold", type=int, default=3,
                        metavar="K",
                        help="kills/hangs before an instance is quarantined")
    parser.add_argument("--results-json", metavar="FILE",
                        help="write one JSON row per request ('-' stdout)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="enable worker telemetry shipping and "
                             "periodically rewrite FILE as a Prometheus "
                             "text-exposition snapshot (watch it with "
                             "`python -m repro top FILE`)")
    parser.add_argument("--metrics-interval", type=float, default=2.0,
                        metavar="S",
                        help="seconds between --metrics-out rewrites "
                             "(default 2)")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="dump flight-recorder artifacts (commented "
                             "JSON) to DIR on degraded/SLO/hard-kill/"
                             "quarantine triggers")
    parser.add_argument("--slo", type=float, default=None, metavar="S",
                        help="latency SLO in seconds; a request over it "
                             "triggers a worker flight dump")
    parser.add_argument("--trace", action="store_true",
                        help="print serve spans and metrics after the run")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the memoization caches in the "
                             "workers")
    _add_budget_arguments(parser)
    _add_store_argument(parser)
    parser.add_argument("--inject-fault", action="append", default=[],
                        metavar="SPEC",
                        help="arm a solver-level fault in every request")
    parser.add_argument("--request-fault", action="append", default=[],
                        metavar="NAME[@LABEL]=SPEC",
                        help="arm a serve-layer fault for one request "
                             "(optionally one portfolio arm); repeatable")
    args = parser.parse_args(argv)

    config = _build_config(args)
    portfolio = default_portfolio(config) if args.portfolio else None
    request_faults = _parse_request_faults(args.request_fault)

    files = _collect_smt_files(args.paths)
    if not files:
        raise SystemExit("repro: no .smt2 files under %s"
                         % ", ".join(args.paths))
    parse_rows = []     # files that never reach the service
    items = []          # (name, problem) really submitted
    expected = {}
    for path in files:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            script = load_problem(open(path).read())
        except Exception as exc:
            parse_rows.append(ServeResult(name, "unknown",
                                          reason="parse-error",
                                          stats={"error": str(exc)}))
            continue
        expected[name] = script.expected
        items.append((name, script.problem))

    stop = {"flag": False}

    def _on_signal(signum, frame):
        stop["flag"] = True

    previous = {signum: signal.signal(signum, _on_signal)
                for signum in (signal.SIGTERM, signal.SIGINT)}

    tracer = Tracer() if args.trace else None
    metrics = Metrics() if args.trace else None
    aggregator = None
    if args.metrics_out or args.trace:
        from repro.obs import TelemetryAggregator
        aggregator = TelemetryAggregator()

    import time as _time
    last_snapshot = [0.0]

    def _snapshot(force=False):
        if aggregator is None or not args.metrics_out:
            return
        now = _time.monotonic()
        if force or now - last_snapshot[0] >= args.metrics_interval:
            from repro.obs import write_snapshot
            write_snapshot(args.metrics_out, aggregator, extra=metrics)
            last_snapshot[0] = now

    service = SolverService(
        config=config, portfolio=portfolio, jobs=args.pool_jobs,
        timeout=args.timeout, grace=args.grace,
        queue_limit=args.queue_limit, max_retries=args.max_retries,
        quarantine_threshold=args.quarantine_threshold,
        aggregator=aggregator, flight_dir=args.flight_dir,
        slo_seconds=args.slo, store_path=args.store)
    try:
        with scope(tracer, metrics):
            # Mirrors SolverService.run_batch, hand-rolled so the
            # --request-fault specs can ride along per submit call.
            handles = []
            for name, problem in items:
                while (not stop["flag"]
                       and service.open_requests >= service.queue_limit):
                    service.pump(0.05)
                    _snapshot()
                if stop["flag"]:
                    handles.append(ServeResult(name, "unknown",
                                               reason="shutdown"))
                    continue
                spec_map = request_faults.get(name, {})
                handles.append(service.submit(
                    problem, name=name,
                    fault_specs=tuple(spec_map.get("", ())),
                    entry_fault_specs={label: tuple(specs)
                                       for label, specs in spec_map.items()
                                       if label}))
                service.pump(0.0)
            while not stop["flag"] and service.open_requests:
                service.pump(0.05)
                _snapshot()
            # Drains in-flight work, answers the rest unknown(shutdown),
            # reaps every worker; a no-op queue-wise when all answered.
            service.shutdown(drain=True)
            results = [h if isinstance(h, ServeResult) else h.result
                       for h in handles]
        _snapshot(force=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    rows = parse_rows + results
    counts = {"sat": 0, "unsat": 0, "unknown": 0}
    incorrect = 0
    for row in rows:
        if row is None:          # a lost request — must never happen
            continue
        counts[row.status] = counts.get(row.status, 0) + 1
        mark = ""
        if row.status == "unsat" and expected.get(row.name) == "sat":
            # A validated SAT outranks a label, but an UNSAT against a
            # certified-SAT instance is a wrong verdict.
            incorrect += 1
            mark = "  INCORRECT(expected sat)"
        winner = (" [%s]" % row.winner) if row.winner else ""
        # Per-request degradation story (satellite of the telemetry PR):
        # these used to be buried inside the stats blob.
        extras = []
        for key in ("degraded_to", "stopped_by", "budget_tripped"):
            if row.stats.get(key):
                extras.append("%s=%s" % (key, row.stats[key]))
        if row.retries:
            extras.append("retries=%d" % row.retries)
        note = ("  [%s]" % " ".join(extras)) if extras else ""
        print("%-24s %-22s %6.2fs%s%s%s"
              % (row.name, row.answer, row.seconds, winner, note, mark))

    answered = sum(1 for r in rows if r is not None)
    degraded = sum(1 for r in rows
                   if r is not None and r.stats.get("degraded_to"))
    tripped = sum(1 for r in rows
                  if r is not None and r.stats.get("budget_tripped"))
    pool_counters = service.pool.counters
    print("serve-batch: answered %d/%d (sat=%d unsat=%d unknown=%d) "
          "retries=%d hard-kills=%d worker-deaths=%d quarantined=%d "
          "recycled=%d degraded=%d budget-tripped=%d"
          % (answered, len(files), counts["sat"], counts["unsat"],
             counts["unknown"],
             sum(r.retries for r in rows if r is not None),
             pool_counters["hard_kills"], pool_counters["deaths"],
             len(service._quarantined), pool_counters["recycled"],
             degraded, tripped))
    if stop["flag"]:
        print("serve-batch: drained after signal; unfinished requests "
              "answered unknown(shutdown)")

    if args.results_json:
        import json
        text = "\n".join(json.dumps(r.as_dict(), sort_keys=True,
                                    default=str)
                         for r in rows if r is not None)
        if args.results_json == "-":
            print(text)
        else:
            with open(args.results_json, "w") as handle:
                handle.write(text + "\n")
    if args.trace:
        # One table for everything: ambient serve spans plus the merged
        # worker deltas (phase histograms, solver counters).
        _print_trace(tracer, aggregator.combined(metrics)
                     if aggregator is not None else metrics)
    return 0 if (answered == len(files) and incorrect == 0) else 1


# -- selfcheck ---------------------------------------------------------------


def _selfcheck_problems():
    """Built-in queries covering both phases and both final statuses."""
    from repro.logic import eq, ge
    from repro.strings import ProblemBuilder, str_len
    from repro.logic.terms import var

    sat_conv = ProblemBuilder()
    x = sat_conv.str_var("x")
    n = sat_conv.to_num(x)
    sat_conv.require_int(eq(var(n), 10))
    sat_conv.require_int(eq(str_len(x), 5))

    unsat_re = ProblemBuilder()
    y = unsat_re.str_var("y")
    unsat_re.member(y, "[0-9]{2}")
    unsat_re.require_int(ge(str_len(y), 3))

    sat_eq = ProblemBuilder()
    u = sat_eq.str_var("u")
    sat_eq.equal(("0", u), (u, "0"))
    sat_eq.require_int(eq(str_len(u), 3))

    return [("tonum-padded", sat_conv.problem, "sat"),
            ("regex-length", unsat_re.problem, "unsat"),
            ("periodic-eq", sat_eq.problem, "sat")]


def fuzz(argv=None):
    """Differential fuzzing campaign; non-zero exit on any disagreement."""
    from repro.diff import DifferentialDriver, GenConfig, run_campaign

    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="differential + metamorphic fuzzing campaign: "
                    "seeded random problems through TrauSolver and "
                    "the enumerative oracle")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (every problem derives "
                             "deterministically from seed and index)")
    parser.add_argument("--n", type=int, default=100,
                        help="number of problems to generate")
    parser.add_argument("--max-len", type=int, default=4,
                        help="witness length cap per string variable")
    parser.add_argument("--max-constraints", type=int, default=6,
                        help="constraints per problem (before length caps)")
    parser.add_argument("--alphabet", default="ab01", metavar="CHARS",
                        help="characters generated witnesses draw from")
    parser.add_argument("--lie-rate", type=float, default=0.3,
                        help="probability an emitter perturbs its "
                             "constraint (keeps UNSAT verdicts in play)")
    parser.add_argument("--timeout", type=float, default=2.0,
                        help="per-engine solve timeout in seconds")
    parser.add_argument("--save-failures", metavar="DIR", default=None,
                        help="write a shrunk .smt2 reproducer per "
                             "disagreement under DIR")
    parser.add_argument("--no-shrink", action="store_true",
                        help="save reproducers unshrunk (faster triage "
                             "of a badly broken build)")
    parser.add_argument("--no-metamorphic", action="store_true",
                        help="skip the satisfiability-preserving "
                             "transform checks")
    parser.add_argument("--trace", action="store_true",
                        help="print the span tree and metrics after the "
                             "summary (fuzz.* counters and solver phase "
                             "timings in one table)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write a Prometheus text-exposition snapshot "
                             "of the campaign's telemetry to FILE")
    _add_store_argument(parser)
    args = parser.parse_args(argv)

    if args.store:
        # The campaign's engines build their own configs; the process
        # default makes every one of them share the persistent store.
        from repro import store as _repro_store
        _repro_store.set_default_path(args.store)
    config = GenConfig(max_len=args.max_len,
                       alphabet_chars=args.alphabet,
                       max_constraints=args.max_constraints,
                       lie_rate=args.lie_rate)
    driver = DifferentialDriver(config=config, timeout=args.timeout,
                                metamorphic=not args.no_metamorphic)
    observing = args.trace or args.metrics_out
    tracer = Tracer() if observing else None
    metrics = Metrics() if observing else None
    with scope(tracer, metrics):
        report = run_campaign(
            seed=args.seed, n=args.n, config=config, driver=driver,
            save_dir=args.save_failures, shrink=not args.no_shrink,
            progress=lambda line: print("! " + line, flush=True))
    aggregator = None
    if observing:
        # Same pipeline as the serving layer: fuzz.* counters (incl. the
        # disagreement rate) and solver-phase histograms merge into one
        # aggregator, so the trace table and the snapshot read alike.
        from repro.obs import TelemetryAggregator
        aggregator = TelemetryAggregator()
        aggregator.ingest_scope(tracer, metrics)
    for line in report.summary_lines():
        print(line)
    if args.metrics_out:
        from repro.obs import write_snapshot
        write_snapshot(args.metrics_out, aggregator)
    if args.trace:
        _print_trace(tracer, aggregator.combined())
    return 0 if report.ok else 1


def top(argv=None):
    """Live terminal view over a ``--metrics-out`` snapshot file."""
    from repro.obs.top import run_top

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="live view over a --metrics-out snapshot: RPS, "
                    "queue depth, quarantine/recycle counts, and "
                    "p50/p95/p99 per solver phase")
    parser.add_argument("snapshot", metavar="FILE_OR_URL",
                        help="the file a running serve-batch rewrites "
                             "via --metrics-out, or the /metrics URL of "
                             "a running netserve (e.g. "
                             "http://127.0.0.1:8642/metrics)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between scrapes (default 1)")
    parser.add_argument("--iterations", type=int, default=None, metavar="N",
                        help="frames to draw (default: until Ctrl-C)")
    parser.add_argument("--no-clear", action="store_true",
                        help="append frames instead of clearing the screen")
    args = parser.parse_args(argv)
    frames = run_top(args.snapshot, interval=args.interval,
                     iterations=args.iterations, clear=not args.no_clear)
    return 0 if frames else 1


def netserve(argv=None):
    """Run the asyncio network front door until SIGTERM drains it."""
    import asyncio
    import signal as _signal

    from repro.config import NetConfig, TenantQuota
    from repro.serve.net import NetServer

    parser = argparse.ArgumentParser(
        prog="repro netserve",
        description="serve solve/validate/fuzz/metrics over TCP: "
                    "HTTP/1.1 and length-prefixed JSON on one port, "
                    "multi-shard routing, admission control, deadline "
                    "propagation, graceful SIGTERM drain")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 picks an ephemeral port, "
                             "printed at startup)")
    parser.add_argument("--shards", type=int, default=2,
                        help="SolverService shards behind the router")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes per shard")
    parser.add_argument("--max-open-requests", type=int, default=256,
                        help="admitted-but-unanswered bound; beyond it "
                             "the door sheds unknown(overloaded)")
    parser.add_argument("--default-deadline", type=float, default=10.0,
                        metavar="S",
                        help="deadline for requests that name none")
    parser.add_argument("--max-deadline", type=float, default=60.0,
                        metavar="S",
                        help="cap on client-supplied deadlines")
    parser.add_argument("--no-coalesce", action="store_true",
                        help="disable identical-fingerprint coalescing "
                             "and the front-door verdict cache")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        help="consecutive shard failures before its "
                             "circuit breaker opens")
    parser.add_argument("--breaker-cooldown", type=float, default=2.0,
                        metavar="S", help="open-breaker cooldown before "
                                          "a half-open probe")
    parser.add_argument("--restart-after", type=float, default=None,
                        metavar="S",
                        help="auto-restart a dead shard after S seconds "
                             "(default: stay down until admin restart)")
    parser.add_argument("--api-key", action="append", default=[],
                        metavar="NAME=KEY[:RPS[:BURST]]",
                        help="register a tenant with a token-bucket "
                             "quota (repeatable); with none, the door "
                             "is open (anonymous tenant)")
    parser.add_argument("--admin-key", default=None,
                        help="require X-Admin-Key on /admin endpoints")
    parser.add_argument("--grace", type=float, default=2.0,
                        help="seconds past a deadline before hard kill")
    parser.add_argument("--portfolio", action="store_true",
                        help="race the configured pipeline against its "
                             "no-cache rung per request with a "
                             "cross-check")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="periodically rewrite FILE as a Prometheus "
                             "snapshot (also served at /metrics)")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="per-request flight-recorder dumps")
    parser.add_argument("--slo", type=float, default=None, metavar="S",
                        help="latency SLO arming the flight recorder")
    _add_budget_arguments(parser)
    _add_store_argument(parser)
    parser.add_argument("--inject-fault", action="append", default=[],
                        metavar="SPEC",
                        help="arm a deterministic fault (repeatable); "
                             "net.* seams live in this server")
    args = parser.parse_args(argv)

    faults.arm_from_env()
    for spec in args.inject_fault:
        try:
            faults.arm(faults.parse_spec(spec))
        except ValueError as exc:
            raise SystemExit("repro netserve: %s" % exc)
    tenants = []
    for spec in args.api_key:
        try:
            tenants.append(TenantQuota.parse(spec))
        except ValueError as exc:
            raise SystemExit("repro netserve: %s" % exc)
    net_config = NetConfig(
        host=args.host, port=args.port, shards=args.shards,
        jobs_per_shard=args.jobs,
        max_open_requests=args.max_open_requests,
        default_deadline_s=args.default_deadline,
        max_deadline_s=args.max_deadline,
        coalesce=not args.no_coalesce,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        restart_after_s=args.restart_after,
        tenants=tuple(tenants), admin_key=args.admin_key)
    args.inject_fault = []     # already armed; keep them out of the config
    server = NetServer(
        solver_config=_build_config(args), net_config=net_config,
        grace=args.grace, store_path=getattr(args, "store", None),
        portfolio=args.portfolio, flight_dir=args.flight_dir,
        slo_seconds=args.slo, metrics_out=args.metrics_out)

    async def run():
        host, port = await server.start()
        print("netserve: listening on %s:%d (%d shard(s) x %d worker(s), "
              "%s tenants)" % (host, port, args.shards, args.jobs,
                               len(tenants) or "open-door"), flush=True)
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.initiate_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        await server.serve_forever()

    asyncio.run(run())
    print("netserve: drained; all shards down, exiting cleanly",
          flush=True)
    return 0


def loadgen(argv=None):
    """Chaos load harness against an in-process NetServer."""
    from repro.bench.loadgen import main as loadgen_main
    return loadgen_main(argv)


def selfcheck(argv=None):
    """Solve the built-in queries; non-zero exit on any wrong status."""
    from repro.errors import BUDGET_REASONS

    parser = argparse.ArgumentParser(
        prog="repro selfcheck",
        description="smoke-test the solver pipeline on built-in queries")
    parser.add_argument("--trace", action="store_true",
                        help="print one span tree + metrics per query")
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the memoization caches")
    _add_budget_arguments(parser)
    _add_store_argument(parser)
    parser.add_argument("--inject-fault", action="append", default=[],
                        metavar="SPEC",
                        help="arm a deterministic fault (repeatable); "
                             "see `python -m repro --help`")
    parser.add_argument("--allow-unknown", action="store_true",
                        help="accept unknown answers whose stats name the "
                             "tripped budget (attributable unknowns); "
                             "unattributed unknowns still fail")
    args = parser.parse_args(argv)

    faults.arm_from_env()
    config = _build_config(args)
    failures = 0
    for name, problem, expected in _selfcheck_problems():
        tracer = Tracer() if args.trace else None
        metrics = Metrics() if args.trace else None
        with scope(tracer, metrics):
            result = TrauSolver(config=config).solve(
                problem, timeout=args.timeout)
        stats = result.stats
        reason = stats.get("budget_tripped") or stats.get("stopped_by")
        ok = result.status == expected
        note = ""
        if not ok and result.status == "unknown" and args.allow_unknown:
            ok = reason in BUDGET_REASONS
            note = "  [%s]" % (("stopped_by=%s" % reason) if ok
                               else "unattributed unknown")
        if stats.get("degraded_to"):
            note += "  [degraded_to=%s]" % stats["degraded_to"]
        failures += 0 if ok else 1
        print("%-14s %-7s expected=%-7s %s  (%.3fs)%s"
              % (name, result.status, expected, "ok" if ok else "FAIL",
                 stats.get("elapsed_s", 0.0), note))
        if args.trace:
            _print_trace(tracer, metrics)
    print("selfcheck: %s"
          % ("ok" if failures == 0 else "%d failure(s)" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
