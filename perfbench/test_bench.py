"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest
perfbench/`` from the repository root (outside the tier-1 test paths)."""

import copy
import io
import json
import subprocess
import sys

import pytest

from perfbench import cli, compare, layers
from perfbench.workloads import NAMES


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    """One ``--quick --trace`` run of all four workloads: its output and
    its ledger."""
    path = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--quick", "--trace",
         "--json", str(path)],
        cwd=cli.ROOT, capture_output=True, text=True, timeout=120)
    with open(path) as handle:
        return done, json.load(handle)


def test_quick_run_passes_and_prints_every_metric(quick_ledger):
    done, ledger = quick_ledger
    assert done.returncode == 0, done.stderr
    spec = compare.load_spec()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert "  %s " % metric["name"] in done.stdout, metric["name"]
    assert [run["workload"] for run in ledger["runs"]] == list(NAMES)
    assert all(run["wrong"] == 0 for run in ledger["runs"])


def test_single_workload_ends_with_the_benchmark_json_line():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "paper",
         "--quick"], cwd=cli.ROOT, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    names = [m["name"] for m in compare.load_spec()["end_to_end"]]
    assert list(last["metrics"]) == names
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_input_digests_depend_on_the_seed_only(workload, tmp_path):
    def digest(seed):
        return cli.launch(workload, seed, 0.0, False, True, str(tmp_path),
                          setup_only=True)["digest"]
    first = digest(0)
    assert digest(0) == first
    assert digest(1) != first


def _slower(ledger, factor):
    slow = copy.deepcopy(ledger)
    for run in slow["runs"]:
        run["metrics"]["wall_s"] *= factor
    return slow


def test_compare_flags_a_wall_regression_and_passes_itself(quick_ledger):
    _, ledger = quick_ledger
    spec = compare.load_spec()
    slower = _slower(ledger, 1.2)
    assert compare.report(ledger, ledger, spec, out=io.StringIO()) == 0
    assert compare.report(ledger, slower, spec, out=io.StringIO()) == 1
    rows, _ = compare.compare(ledger, slower, spec)
    regressed = {(w, name) for w, name, *_, verdict in rows
                 if verdict == "regressed"}
    assert regressed == {(w, "wall_s") for w in NAMES}


def test_compare_refuses_different_inputs(quick_ledger):
    _, ledger = quick_ledger
    other = copy.deepcopy(ledger)
    other["runs"][0]["digest"] = "0" * 16
    out = io.StringIO()
    assert compare.report(ledger, other, compare.load_spec(), out=out) == 2
    assert "input digests differ" in out.getvalue()


def test_run_length_is_fixed_by_the_benchmark_json():
    spec = compare.load_spec()
    args = cli.parse_args(["--seconds", str(spec["run_seconds"])], spec)
    assert args.seconds == spec["run_seconds"]
    assert cli.parse_args(["--quick"], spec).seconds == 0
    with pytest.raises(SystemExit):
        cli.parse_args(["--seconds", str(spec["run_seconds"] + 1)], spec)


def test_spread_is_unresolved_beyond_the_bound():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "per_layer": []}

    def ledger(values):
        return {"runs": [{"workload": "basic", "digest": "d",
                          "metrics": {"wall_s": v}} for v in values]}

    steady = ledger([1.0, 1.01, 0.99, 1.0, 1.02])
    noisy = ledger([1.0, 1.5, 0.7, 1.3, 0.8])
    rows, _ = compare.compare(steady, noisy, spec)
    assert rows[0][-1] == "unresolved"
    rows, _ = compare.compare(steady, ledger([1.3, 1.31, 1.29, 1.3]), spec)
    assert rows[0][-1] == "regressed"


class _Span:
    def __init__(self, name, duration, children=(), **attrs):
        self.name = name
        self.duration = duration
        self.children = list(children)
        self.attrs = attrs


def test_attribution_tiles_the_root_into_layer_self_times():
    from repro.obs import Metrics
    lia = _Span("lia.check", 0.5, status="sat", perfbench=True)
    smt = _Span("smt.solve", 2.0, [_Span("sat.search", 1.0, perfbench=True),
                                   lia])
    root = _Span("solve", 4.0, [
        _Span("overapprox", 0.5, [_Span("emptiness", 0.25)],
              status="unsat"),
        _Span("round", 3.0, [smt, _Span("brand-new", 0.25)])])
    metrics = Metrics()
    layers.attribute([root], metrics)
    seconds = {k: v for k, v in metrics.counters.items()
               if k.startswith("layer.")}
    assert seconds == {"layer.solve_s": 1.5, "layer.overapprox_s": 0.5,
                       "layer.smt_s": 0.5, "layer.sat_s": 1.0,
                       "layer.lia_s": 0.5}
    assert sum(seconds.values()) == metrics.counters["span.roots_s"]
    assert metrics.counters["overapprox.decided"] == 1
    assert metrics.counters["lia.accepted"] == 1


def test_missing_trace_targets_read_none(monkeypatch):
    from repro.obs import Metrics
    from repro.sat.solver import SatSolver
    original = SatSolver.__dict__["solve"]
    monkeypatch.setitem(layers.TARGETS, "sat.search",
                        ("repro.sat.gone:SatSolver.solve",
                         "repro.kernels.sat:Vanished.solve"))
    hooks = layers.install()
    try:
        assert SatSolver.__dict__["solve"] is original
        assert len(hooks.missing) == 2
        metrics = layers.per_layer(Metrics(), 1, hooks)
        assert metrics["sat.search_s"] is None
        assert metrics["sat.calls"] is None
        assert metrics["lia.check_s"] == 0
    finally:
        hooks.remove()
    from repro.lia.branch_bound import IntegerSolver
    assert "check" in IntegerSolver.__dict__
    assert not hasattr(IntegerSolver.check, "__wrapped__")
