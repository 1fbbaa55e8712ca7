"""Tests for the cross-process telemetry pipeline (PR 6).

Three layers, bottom up:

* the mergeable :class:`~repro.obs.metrics.Histogram` and the delta
  encode/decode/aggregate path (:mod:`repro.obs.pipeline`);
* the Prometheus exposition round trip (render -> lint -> parse back)
  and the flight recorder / sampling profiler / ``repro top`` views;
* the acceptance path: a real spawn-worker :class:`SolverService` whose
  aggregator must account for every worker-side span exactly once, and
  an injected fault whose flight dump names the faulted phase.

The JSONL losslessness property (satellite 3) runs under hypothesis:
arbitrary nested span forests with unicode attributes plus
counter/gauge/histogram records must survive dump -> load -> replay ->
re-dump byte-identically.
"""

import glob
import io
import os

from hypothesis import given, settings, strategies as st

from repro.logic import eq
from repro.obs import (
    FlightRecorder, Metrics, SamplingProfiler, TelemetryAggregator, Tracer,
    decode_metrics, dump_jsonl, encode_metrics, lint_prometheus, load_jsonl,
    metrics_from_prometheus, metrics_from_records, read_flight,
    render_prometheus, request_entry, scope, telemetry_delta,
    tracer_from_records, write_snapshot,
)
from repro.obs.metrics import BUCKET_BOUNDS, Histogram
from repro.obs.pipeline import phase_histograms, span_records
from repro.obs.top import render_top, run_top
from repro.serve import SolverService
from repro.strings import ProblemBuilder, str_len


def sat_problem(chars="ab"):
    builder = ProblemBuilder()
    x = builder.str_var("x")
    builder.member(x, "[%s]{2}" % chars)
    return builder.problem


def unsat_problem():
    builder = ProblemBuilder()
    x = builder.str_var("x")
    builder.member(x, "[ab]{2}")
    builder.require_int(eq(str_len(x), 9))
    return builder.problem


# -- histogram ----------------------------------------------------------------


class TestHistogram:
    def test_quantiles_interpolate_and_clamp(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004, 0.1, 2.0):
            h.observe(v)
        assert h.count == 5
        assert h.minimum == 0.001 and h.maximum == 2.0
        # quantiles are bracketed by the observed extremes (clamping)
        assert h.minimum <= h.p50 <= h.p95 <= h.p99 <= h.maximum

    def test_merge_equals_union(self):
        a, b, union = Histogram(), Histogram(), Histogram()
        for i, v in enumerate((0.01, 0.5, 3.0, 40.0, 0.002)):
            (a if i % 2 else b).observe(v)
            union.observe(v)
        a.merge(b)
        assert a.to_dict() == union.to_dict()
        assert a.quantile(0.5) == union.quantile(0.5)

    def test_dict_round_trip(self):
        h = Histogram()
        for v in (1e-7, 0.3, 12.0, 99999.0):
            h.observe(v)
        clone = Histogram.from_dict(h.to_dict())
        assert clone.to_dict() == h.to_dict()
        assert (clone.count, clone.total) == (h.count, h.total)

    def test_cumulative_buckets_end_at_count(self):
        h = Histogram()
        for v in (0.1, 0.2, 5.0):
            h.observe(v)
        rows = h.cumulative_buckets()
        assert rows[-1] == (float("inf"), 3)
        cumulative = [n for _, n in rows]
        assert cumulative == sorted(cumulative)

    def test_bounds_are_strictly_increasing(self):
        assert all(lo < hi for lo, hi in
                   zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]))


# -- delta protocol -----------------------------------------------------------


class TestDeltaProtocol:
    def _scope(self):
        tracer, metrics = Tracer(), Metrics()
        with tracer.span("solve"):
            with tracer.span("round"):
                pass
            with tracer.span("round"):
                pass
        metrics.add("smt.calls", 3)
        metrics.gauge("worker.rss_bytes", 1024)
        metrics.observe("flatten.lia_vars", 17)
        return tracer, metrics

    def test_encode_decode_round_trip(self):
        _, metrics = self._scope()
        clone = decode_metrics(encode_metrics(metrics))
        assert clone.counters == metrics.counters
        assert clone.gauges == metrics.gauges
        assert clone.histograms["flatten.lia_vars"].to_dict() \
            == metrics.histograms["flatten.lia_vars"].to_dict()

    def test_phase_histograms_one_observation_per_span(self):
        tracer, _ = self._scope()
        phases = phase_histograms(tracer)
        assert phases.histograms["phase.solve_s"].count == 1
        assert phases.histograms["phase.round_s"].count == 2

    def test_delta_carries_bounded_spans(self):
        tracer, metrics = self._scope()
        delta = telemetry_delta(tracer, metrics)
        assert delta["counters"]["smt.calls"] == 3
        assert "phase.round_s" in delta["histograms"]
        names = [r["name"] for r in delta["spans"] if r["type"] == "span"]
        assert names == ["solve", "round", "round"]

    def test_span_records_truncate_at_cap(self):
        tracer = Tracer()
        for i in range(20):
            with tracer.span("s%d" % i):
                pass
        records = span_records(tracer, cap=5)
        assert len(records) == 6
        assert records[-1]["name"] == "telemetry.truncated"

    def test_aggregator_ingest_is_exactly_once(self):
        agg = TelemetryAggregator(clock=lambda: 0.0)
        for worker in (101, 101, 202):
            tracer, metrics = self._scope()
            agg.ingest(telemetry_delta(tracer, metrics), worker=worker)
        assert agg.ingested == 3
        assert agg.per_worker == {"101": 2, "202": 1}
        assert agg.metrics.counters["smt.calls"] == 9
        phases = dict(agg.phase_stats())
        assert phases["round"].count == 6
        view = agg.combined()
        assert view.gauges["telemetry.deltas"] == 3
        assert view.gauges["telemetry.deltas.worker.101"] == 2
        # combined() is a fresh view: rendering twice must not double
        assert agg.combined().counters["smt.calls"] == 9

    def test_ingest_scope_matches_delta_path(self):
        direct, via_scope = TelemetryAggregator(), TelemetryAggregator()
        tracer, metrics = self._scope()
        direct.ingest(telemetry_delta(tracer, metrics, spans=False))
        tracer2, metrics2 = self._scope()
        via_scope.ingest_scope(tracer2, metrics2)
        assert direct.metrics.counters == via_scope.metrics.counters
        assert sorted(direct.metrics.histograms) \
            == sorted(via_scope.metrics.histograms)


# -- prometheus exposition ----------------------------------------------------


class TestPrometheus:
    def _registry(self):
        m = Metrics()
        m.add("serve.answers", 12)
        m.add("serve.answers.sat", 7)
        m.gauge("serve.queue_depth", 3)
        for v in (0.01, 0.02, 0.5, 1.5):
            m.observe("phase.solve_s", v)
        return m

    def test_render_lints_clean(self):
        text = render_prometheus(self._registry())
        assert lint_prometheus(text) == []
        assert "# TYPE repro_serve_answers_total counter" in text
        assert 'repro_phase_solve_s_bucket{le="+Inf"} 4' in text

    def test_parse_back_reconstructs_registry(self):
        original = self._registry()
        clone = metrics_from_prometheus(render_prometheus(original))
        assert clone.counters == original.counters
        assert clone.gauges == original.gauges
        hist = clone.histograms["phase.solve_s"]
        want = original.histograms["phase.solve_s"]
        assert hist.to_dict() == want.to_dict()
        assert (hist.minimum, hist.maximum) == (want.minimum, want.maximum)

    def test_aggregator_and_extra_render(self):
        agg = TelemetryAggregator(clock=lambda: 0.0)
        tracer, metrics = Tracer(), Metrics()
        with tracer.span("solve"):
            pass
        metrics.add("smt.calls")
        agg.ingest_scope(tracer, metrics)
        extra = Metrics()
        extra.gauge("serve.queue_depth", 5)
        text = render_prometheus(agg, extra=extra)
        assert lint_prometheus(text) == []
        assert "repro_serve_queue_depth 5" in text
        assert "repro_smt_calls_total 1" in text

    def test_lint_catches_breakage(self):
        text = render_prometheus(self._registry())
        broken = text.replace('le="+Inf"} 4', 'le="+Inf"} 3')
        assert any("+Inf" in p or "count" in p
                   for p in lint_prometheus(broken))

    def test_write_snapshot_atomic(self, tmp_path):
        path = tmp_path / "m.prom"
        write_snapshot(str(path), self._registry())
        assert lint_prometheus(path.read_text()) == []
        assert not glob.glob(str(tmp_path / "*.tmp*"))


# -- flight recorder ----------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=3)
        for i in range(7):
            rec.push({"name": "r%d" % i})
        assert [e["name"] for e in rec.ring] == ["r4", "r5", "r6"]

    def test_dump_and_read_back(self, tmp_path):
        rec = FlightRecorder(str(tmp_path), source="service")
        rec.push(request_entry("good", verdict="sat", elapsed=0.1))
        rec.push(request_entry("bad", verdict="unknown", elapsed=9.9,
                               stats={"degraded_to": "no-cache",
                                      "irrelevant": 1}))
        path = rec.dump("degraded", detail="degraded to no-cache")
        assert os.path.basename(path).startswith("flight-service-pid")
        body = read_flight(path)
        assert body["trigger"] == "degraded"
        assert body["request"]["name"] == "bad"
        assert body["request"]["stats"] == {"degraded_to": "no-cache"}
        assert [e["name"] for e in body["recent"]] == ["good"]

    def test_directory_none_returns_text(self):
        rec = FlightRecorder()
        rec.push({"name": "only"})
        text = rec.dump("slo", detail="too slow")
        assert text.startswith("# repro flight recorder")
        assert read_flight(text)["detail"] == "too slow"


# -- sampling profiler --------------------------------------------------------


def _busy(n):
    total = 0
    for i in range(n):
        total += len(str(i))
    return total


class TestSamplingProfiler:
    def _run(self):
        profiler = SamplingProfiler(every=101)
        tracer = Tracer()
        with scope(tracer, Metrics()):
            with profiler:
                with tracer.span("alpha"):
                    _busy(4000)
                with tracer.span("beta"):
                    _busy(400)
        return profiler

    def test_deterministic_across_runs(self):
        a, b = self._run(), self._run()
        assert a.events == b.events
        assert a.samples == b.samples
        assert a.by_key == b.by_key

    def test_attributes_samples_to_phases(self):
        profiler = self._run()
        assert profiler.samples > 0
        totals = profiler.phase_totals()
        assert totals.get("alpha", 0) > totals.get("beta", 0)
        assert any("alpha" in phase for phase, _, _, _ in profiler.hot())

    def test_report_and_dict_forms(self):
        profiler = self._run()
        text = profiler.report(top=3)
        assert text.startswith("profile: %d samples" % profiler.samples)
        doc = profiler.to_dict(top=3)
        assert doc["every"] == 101
        assert len(doc["hot"]) <= 3
        assert abs(sum(r["share"] for r in doc["hot"])) <= 1.01

    def test_restores_previous_profile_hook(self):
        import sys
        before = sys.getprofile()
        with SamplingProfiler():
            pass
        assert sys.getprofile() is before


# -- repro top ----------------------------------------------------------------


class TestTop:
    def _metrics(self):
        m = Metrics()
        m.add("serve.answers", 10)
        m.add("serve.answers.sat", 6)
        m.add("serve.answers.unsat", 4)
        m.add("serve.requests", 10)
        m.gauge("telemetry.uptime_s", 5.0)
        m.gauge("telemetry.workers", 2)
        m.gauge("telemetry.deltas", 10)
        for v in (0.1, 0.2, 0.3):
            m.observe("phase.solve_s", v)
        return m

    def test_render_top_frame(self):
        frame = render_top(self._metrics(), source="m.prom")
        assert "repro top -- m.prom" in frame
        assert "answers 10 (sat=6 unsat=4 unknown=0)" in frame
        assert "workers 2" in frame
        lines = frame.splitlines()
        assert any(line.startswith("solve") and " 3 " in line
                   for line in lines)

    def test_run_top_over_snapshot_file(self, tmp_path):
        path = tmp_path / "m.prom"
        write_snapshot(str(path), self._metrics())
        out = io.StringIO()
        frames = run_top(str(path), interval=0.0, iterations=2, out=out,
                         clear=False)
        assert frames == 2
        assert "repro top" in out.getvalue()
        assert "rps" in out.getvalue()

    def test_run_top_waits_for_missing_snapshot(self, tmp_path):
        out = io.StringIO()
        frames = run_top(str(tmp_path / "nope.prom"), interval=0.0,
                         iterations=1, out=out, clear=False)
        assert frames == 1
        assert "waiting for snapshot" in out.getvalue()


# -- acceptance: real spawn workers -------------------------------------------


class TestServicePipeline:
    def test_aggregator_accounts_for_every_worker_span(self):
        agg = TelemetryAggregator()
        with SolverService(jobs=2, timeout=20, aggregator=agg) as service:
            results = service.run_batch([
                ("s1", sat_problem()),
                ("u1", unsat_problem()),
                ("s2", sat_problem("cd")),
            ])
        assert [r.status for r in results] == ["sat", "unsat", "sat"]
        # one delta per request, each ingested exactly once
        assert agg.ingested >= 3
        view = agg.combined()
        assert view.counters["serve.answers"] == 3
        assert view.counters["serve.requests"] == 3
        phases = dict(agg.phase_stats())
        # the acceptance contract: aggregated histogram counts equal the
        # sum of the workers' in-process span counts — every request runs
        # exactly one worker-side `solve` span and the parent observes
        # exactly one `serve.request` span.
        assert phases["solve"].count == 3
        assert phases["serve.request"].count == 3
        # worker-side sub-phases crossed the process boundary too
        assert "smt.solve" in phases or "overapprox" in phases
        text = render_prometheus(agg)
        assert lint_prometheus(text) == []
        # ...and the exposition round-trips the same counts
        parsed = metrics_from_prometheus(text)
        assert parsed.histograms["phase.solve_s"].count == 3

    def test_injected_fault_leaves_flight_dump_naming_phase(self, tmp_path):
        agg = TelemetryAggregator()
        with SolverService(jobs=1, timeout=20, aggregator=agg,
                           flight_dir=str(tmp_path)) as service:
            handle = service.submit(
                sat_problem(), name="faulty",
                fault_specs=("smt.session.solve:raise:times=1",))
            result = service.wait(handle)
        assert result.status == "sat"
        assert result.stats.get("degraded_to")
        assert "degraded_to" in result.as_dict()
        dumps = glob.glob(str(tmp_path / "flight-*degraded*.json"))
        assert dumps, "degradation must leave a flight dump"
        body = read_flight(dumps[0])
        assert body["trigger"] == "degraded"
        assert body["request"]["name"] == "faulty"
        assert body["request"].get("spans"), "dump must carry span records"
        import json
        assert "smt.session.solve" in json.dumps(body["request"]), \
            "dump must name the faulted phase"

    def test_worker_metrics_round_trip_through_jsonl(self):
        # records produced in a *spawned worker* survive the JSONL path
        agg = TelemetryAggregator()
        with SolverService(jobs=1, timeout=20, aggregator=agg) as service:
            service.run_batch([("s1", sat_problem())])
        merged = agg.combined()
        text = dump_jsonl(Tracer(), merged)
        records = load_jsonl(io.StringIO(text))
        clone = metrics_from_records(records)
        assert clone.counters == merged.counters
        assert {n: h.to_dict() for n, h in clone.histograms.items()} \
            == {n: h.to_dict() for n, h in merged.histograms.items()}


# -- property: JSONL round trip is lossless -----------------------------------


_names = st.text(min_size=1, max_size=10).filter(str.strip)
_values = st.one_of(
    st.integers(-10 ** 9, 10 ** 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=10),
    st.booleans(),
)
_attrs = st.dictionaries(_names, _values, max_size=3)
_events = st.lists(st.tuples(_names, _attrs), max_size=2)
_node = st.recursive(
    st.tuples(_names, _attrs, _events, st.just([])),
    lambda children: st.tuples(_names, _attrs, _events,
                               st.lists(children, max_size=3)),
    max_leaves=12)
_forest = st.lists(_node, min_size=1, max_size=3)
_observations = st.lists(
    st.floats(min_value=1e-9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8)


def _grow(tracer, nodes):
    for name, attrs, events, children in nodes:
        with tracer.span(name) as span:
            span.attrs.update(attrs)
            for event_name, event_attrs in events:
                span.events.append((event_name, dict(event_attrs)))
            _grow(tracer, children)


class TestJsonlLossless:
    @settings(max_examples=60, deadline=None)
    @given(forest=_forest,
           counters=st.dictionaries(_names, st.integers(1, 10 ** 9),
                                    max_size=4),
           gauges=st.dictionaries(
               _names, st.floats(allow_nan=False, allow_infinity=False),
               max_size=4),
           histograms=st.dictionaries(_names, _observations, max_size=3))
    def test_dump_load_replay_redump_identical(self, forest, counters,
                                               gauges, histograms):
        tracer, metrics = Tracer(), Metrics()
        _grow(tracer, forest)
        for name, value in counters.items():
            metrics.add(name, value)
        for name, value in gauges.items():
            metrics.gauge(name, value)
        for name, values in histograms.items():
            for value in values:
                metrics.observe(name, value)

        text = dump_jsonl(tracer, metrics)
        records = load_jsonl(io.StringIO(text))
        replay_tracer = tracer_from_records(records)
        replay_metrics = metrics_from_records(records)
        assert dump_jsonl(replay_tracer, replay_metrics) == text
