"""Metric definitions and ledger comparison.

``python -m perfbench --against OLD.json`` prints one row per workload
and metric: both medians over the ledgers' runs, the relative change,
the bound, and a verdict: ``ok``, ``regressed`` (worse by more than the
bound), or ``unresolved`` (the metric's own run-to-run spread exceeds its
bound, and not every new run beats every old one).  Per-layer metrics
have no bound and are shown for information.  A ``regressed`` row makes
the exit status 1; ledgers that ran different inputs (their input
digests differ) are not compared, and the status is 2.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LEDGER_ONLY = {
    # End-to-end metrics that BENCHMARK.json cannot list, because each
    # applies to some workloads only or is 0 when all is well.
    # ``--against`` gates on them with these bounds; README "Measured
    # spreads" has the run-to-run spreads behind them.
    "solve_p50_s": {"unit": "s", "better": "lower", "bound": 0.10},
    "phi_s": {"unit": "s", "better": "lower", "bound": 0.10},
    "latency_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "throughput_rps": {"unit": "req/s", "better": "higher", "bound": 0.10},
    "fail_rate": {"unit": "ratio", "better": "lower", "bound": 0.0},
}
LEDGER_ONLY_LAYERS = {
    # Per-layer metrics that only ``repeat`` (or only ``paper``) exercises.
    "store.get_s": {"unit": "s", "better": "lower"},
    "store.put_s": {"unit": "s", "better": "lower"},
    "store.verdict_hit_ratio": {"unit": "ratio", "better": "higher"},
    "router.submit_s": {"unit": "s", "better": "lower"},
    "router.hit_ratio": {"unit": "ratio", "better": "higher"},
    "service.wait_s": {"unit": "s", "better": "lower"},
    "service.solve_s": {"unit": "s", "better": "lower"},
    "phi.loop_share": {"unit": "ratio", "better": "lower"},
}


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_tables(spec):
    """``(end-to-end, per-layer)``: name -> unit/better[/bound], the
    BENCHMARK.json's metrics first."""
    end_to_end = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
                  for m in spec["end_to_end"]}
    end_to_end.update(LEDGER_ONLY)
    per_layer = {m["name"]: {k: m[k] for k in ("unit", "better")}
                 for m in spec["per_layer"]}
    per_layer.update(LEDGER_ONLY_LAYERS)
    return end_to_end, per_layer


def spread(values):
    """Run-to-run spread as a share of the median: the interquartile
    distance from four runs on, the range below that, 0 for one run."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    if middle == 0:
        return 0.0 if width == 0 else float("inf")
    return abs(width / middle)


def _worse_by(old, new, better):
    """How much worse *new* is than *old*, as a share of *old*."""
    if old == new:
        return 0.0
    if old == 0:
        return float("inf") if (new > old) == (better == "lower") \
            else float("-inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def _values(runs, workload, section, name):
    return [run[section][name] for run in runs
            if run["workload"] == workload
            and run.get(section, {}).get(name) is not None]


def compare(old, new, spec):
    """Rows ``[(workload, metric, old median, new median, change, bound,
    unit, verdict)]`` and the workloads whose input digests differ."""
    end_to_end, per_layer = metric_tables(spec)
    rows = []
    refused = []
    workloads = [w for w in dict.fromkeys(r["workload"] for r in new["runs"])
                 if any(r["workload"] == w for r in old["runs"])]
    for workload in workloads:
        digests = {r["digest"] for r in old["runs"] + new["runs"]
                   if r["workload"] == workload}
        if len(digests) > 1:
            refused.append(workload)
            continue
        for section, table in (("metrics", end_to_end),
                               ("per_layer", per_layer)):
            for name, meta in table.items():
                before = _values(old["runs"], workload, section, name)
                after = _values(new["runs"], workload, section, name)
                if not before or not after:
                    continue
                old_median = statistics.median(before)
                new_median = statistics.median(after)
                worse = _worse_by(old_median, new_median, meta["better"])
                bound = meta.get("bound")
                if bound is None:
                    verdict = "info"
                elif (max(spread(before), spread(after)) > bound
                      and not all(_worse_by(b, a, meta["better"]) < 0
                                  for b in before for a in after)):
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok"
                rows.append((workload, name, old_median, new_median,
                             worse, bound, meta["unit"], verdict))
    return rows, refused


def render(rows):
    lines = ["%-10s %-24s %14s %14s %8s %6s  %s"
             % ("workload", "metric", "old", "new", "worse", "bound",
                "verdict")]
    for workload, name, old, new, worse, bound, unit, verdict in rows:
        lines.append("%-10s %-24s %14s %14s %+7.1f%% %6s  %s" % (
            workload, name, "%.6g %s" % (old, unit), "%.6g %s" % (new, unit),
            100 * worse, "-" if bound is None else "%g%%" % (100 * bound),
            verdict))
    return "\n".join(lines)


def report(old, new, spec, out=sys.stdout):
    """Print the comparison; returns the exit status (0, 1 or 2)."""
    rows, refused = compare(old, new, spec)
    for workload in refused:
        out.write("perfbench: %s ran different inputs in the two ledgers "
                  "(input digests differ); not compared\n" % workload)
    if refused:
        return 2
    out.write(render(rows) + "\n")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


def load(path):
    with open(path) as handle:
        return json.load(handle)
