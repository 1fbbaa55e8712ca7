"""``python -m perfbench``: run the workloads, print every metric, keep a
ledger.

Each run of a workload is a child process (``perfbench.child``) with
``PYTHONHASHSEED=0``, preceded by set-up-only children so that the
reported set-up time is a median.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics
of BENCHMARK.json (end-to-end, or per-layer with ``--trace``), medians
over the runs made.  Exit status: 0, 1 on a wrong verdict or a
``regressed`` comparison row, 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from perfbench import compare
from perfbench.workloads import NAMES

ROOT = compare.ROOT
SETUP_PROBES = 8
"""Set-up-only children per run; with the measured child's own set-up
they give the nine samples whose median is ``setup_s``."""
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer)."""


def child_env():
    """The parent's environment with the hash seed pinned, the solver
    sources on the path, and no ``REPRO_*`` settings leaking in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def launch(workload, seed, seconds, trace, quick, workdir,
           setup_only=False):
    """Run one child; returns its JSON result."""
    command = [sys.executable, "-m", "perfbench.child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--workdir", workdir]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    command += ["--launched-at", repr(time.time())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: child ran past %.0f s" % (workload,
                                                       CHILD_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("%s: child exited with status %d"
                         % (workload, done.returncode))
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, quick, workdir):
    """One run: set-up probes, then the measured child."""
    probes = 0 if quick else SETUP_PROBES
    setups = [launch(workload, seed, seconds, trace, quick, workdir,
                     setup_only=True) for _ in range(probes)]
    run = launch(workload, seed, seconds, trace, quick, workdir)
    setups.append({"setup_s": run.pop("setup_s"),
                   "raw_setup_s": run.pop("raw_setup_s")})
    run["metrics"]["setup_s"] = statistics.median(s["setup_s"]
                                                  for s in setups)
    run["raw"]["setup_s"] = statistics.median(s["raw_setup_s"]
                                              for s in setups)
    run.update(workload=workload, seed=seed, trace=bool(trace))
    return run


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(args):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "hash_seed": "0", "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick}


def _show(value, unit):
    if value is None:
        return "null"
    if isinstance(value, float) and not value.is_integer():
        return "%.6g %s" % (value, unit)
    return "%d %s" % (value, unit)


def render_run(run, tables):
    end_to_end, per_layer = tables
    lines = ["%s  seed %d  %d instances  %d passes%s  digest %s" % (
        run["workload"], run["seed"], run["instances"],
        run["passes"]["untraced"],
        " + %d traced" % run["passes"]["traced"] if run["trace"] else "",
        run["digest"])]
    for name, meta in end_to_end.items():
        if name in run["metrics"]:
            lines.append("  %-26s %s" % (name, _show(run["metrics"][name],
                                                     meta["unit"])))
    lines.append("  verdicts: %d attempted, %d failed, %d wrong" % (
        run["attempted"], run["failed"], run["wrong"]))
    for name, meta in per_layer.items():
        if name in run.get("per_layer", {}):
            lines.append("  %-26s %s" % (name, _show(run["per_layer"][name],
                                                     meta["unit"])))
    if run.get("missing_targets"):
        lines.append("  missing trace targets: %s"
                     % ", ".join(run["missing_targets"]))
    return "\n".join(lines)


def summary(runs, spec, trace):
    """The closing JSON object: BENCHMARK.json's metrics, medians over
    *runs*."""
    section, names = (("per_layer", spec["per_layer"]) if trace
                      else ("metrics", spec["end_to_end"]))
    metrics = {}
    for meta in names:
        values = [run[section][meta["name"]] for run in runs
                  if run.get(section, {}).get(meta["name"]) is not None]
        metrics[meta["name"]] = {
            "value": statistics.median(values) if values else None,
            "unit": meta["unit"]}
    return {"correct": not any(run["wrong"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the inputs (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json, "
                             "which fixes how long a run measures (one "
                             "pass with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced passes and report the "
                             "per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="reduced inputs, one pass each")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each in a new child")
    parser.add_argument("--json", metavar="OUT",
                        help="write the ledger of this invocation to OUT")
    parser.add_argument("--against", metavar="OLD",
                        help="compare with an earlier ledger")
    args = parser.parse_args(argv)
    if args.seconds not in (None, spec["run_seconds"]):
        parser.error("--seconds must be %d, run_seconds of BENCHMARK.json"
                     % spec["run_seconds"])
    args.seconds = 0.0 if args.quick else float(spec["run_seconds"])
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def main(argv=None):
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perfbench: no solver sources at %s\n"
                         % os.path.join(ROOT, "src", "repro"))
        return 2
    spec = compare.load_spec()
    args = parse_args(argv, spec)
    tables = compare.metric_tables(spec)
    old = compare.load(args.against) if args.against else None
    workloads = [args.workload] if args.workload else list(NAMES)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runs = []
    try:
        for workload in workloads:
            for _ in range(args.runs):
                run = run_workload(workload, args.seed, args.seconds,
                                   args.trace, args.quick, workdir)
                print(render_run(run, tables), flush=True)
                runs.append(run)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = {"env": environment(args), "runs": runs}
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
    status = 1 if any(run["wrong"] for run in runs) else 0
    if old is not None:
        status = max(status, compare.report(old, ledger, spec))
    if len(workloads) == 1:
        print(json.dumps(summary(runs, spec, args.trace)))
    return status
