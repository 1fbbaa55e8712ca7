"""``repro top`` — a live terminal view over a telemetry snapshot file.

The serving layer periodically rewrites its ``--metrics-out`` snapshot
(atomically, via :func:`repro.obs.prometheus.write_snapshot`); ``repro
top`` scrapes that file exactly the way a Prometheus server would scrape
``/metrics``, so the view works on any live run, needs no socket, and
exercises the same exposition text the CI linter validates.  Rates
(RPS) come from differencing consecutive scrapes, falling back to
``serve.answers / telemetry.uptime_s`` on the first frame.

:func:`render_top` is a pure snapshot-to-text function (what the tests
pin down); :func:`run_top` adds the clear-screen redraw loop.
"""

import os
import time

from repro.obs.prometheus import metrics_from_prometheus

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_seconds(value):
    if value is None:
        return "      -"
    if value >= 100:
        return "%7.1f" % value
    return "%7.3f" % value


def phase_rows(metrics):
    """``[(phase name, Histogram)]`` from ``phase.<name>_s`` histograms,
    ordered by total time descending."""
    rows = [(name[len("phase."):-len("_s")], hist)
            for name, hist in metrics.histograms.items()
            if name.startswith("phase.") and name.endswith("_s")]
    rows.sort(key=lambda row: (-row[1].total, row[0]))
    return rows


def render_top(metrics, source="", rps=None, max_phases=15):
    """One frame of the top view for a scraped registry."""
    counters, gauges = metrics.counters, metrics.gauges

    def c(name):
        return counters.get(name, 0)

    def g(name, default=0):
        return gauges.get(name, default)

    uptime = g("telemetry.uptime_s", 0.0)
    answers = c("serve.answers")
    if rps is None and uptime > 0:
        rps = answers / uptime
    # First scrape with no uptime yet: there is nothing to diff against
    # and nothing to divide by, so show "--" rather than a made-up 0.00.
    rps_text = "--" if rps is None else "%.2f" % rps
    lines = []
    title = "repro top"
    if source:
        title += " -- %s" % source
    lines.append("%s    uptime %6.1fs    workers %d    deltas %d"
                 % (title, uptime, g("telemetry.workers"),
                    g("telemetry.deltas")))
    lines.append(
        "answers %d (sat=%d unsat=%d unknown=%d)    rps %s    "
        "requests %d"
        % (answers, c("serve.answers.sat"), c("serve.answers.unsat"),
           c("serve.answers.unknown"), rps_text, c("serve.requests")))
    lines.append(
        "queue %d  inflight %d  open %d  retries %d  deaths %d  "
        "hard-kills %d"
        % (g("serve.queue_depth"), g("serve.inflight"),
           g("serve.open_requests"), c("serve.retries"),
           c("serve.worker_deaths"), c("serve.hard_kills")))
    lines.append(
        "quarantined %d  rejected %d  recycled %d  spawned %d"
        % (c("serve.quarantined"), c("serve.rejected"),
           g("serve.pool.recycled"), g("serve.pool.spawned")))
    rows = phase_rows(metrics)
    if rows:
        lines.append("")
        lines.append("%-28s %7s %9s %7s %7s %7s"
                     % ("phase", "count", "total_s", "p50", "p95", "p99"))
        for name, hist in rows[:max_phases]:
            lines.append("%-28s %7d %9.3f %s %s %s"
                         % (name[:28], hist.count, hist.total,
                            _fmt_seconds(hist.p50), _fmt_seconds(hist.p95),
                            _fmt_seconds(hist.p99)))
        if len(rows) > max_phases:
            lines.append("... %d more phases" % (len(rows) - max_phases))
    return "\n".join(lines)


def scrape(path):
    """Read + parse one snapshot; returns a Metrics registry or None
    when the source is not there yet (the run has not flushed, or the
    server is not up).  *path* is a snapshot file, or an ``http(s)://``
    URL — typically a ``repro netserve`` ``/metrics`` endpoint, which
    serves the same Prometheus exposition the snapshot file holds."""
    if path.startswith(("http://", "https://")):
        import urllib.error
        import urllib.request
        try:
            with urllib.request.urlopen(path, timeout=5.0) as response:
                text = response.read().decode("utf-8", "replace")
        except (urllib.error.URLError, OSError, ValueError):
            return None
    else:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError:
            return None
    return metrics_from_prometheus(text)


def run_top(path, interval=1.0, iterations=None, out=None, clear=True):
    """Redraw loop: scrape *path* every *interval* seconds and render.

    *iterations* bounds the loop (None = until interrupted); returns the
    number of frames drawn.  Frames are written to *out* (stdout by
    default); *clear* prepends the ANSI clear-screen sequence.
    """
    import sys
    out = out or sys.stdout
    frames = 0
    previous = None          # (answers, monotonic time) for the RPS diff
    while iterations is None or frames < iterations:
        metrics = scrape(path)
        now = time.monotonic()
        if metrics is None:
            body = "repro top -- %s\n(waiting for snapshot...)" % path
        else:
            rps = None
            answers = metrics.counters.get("serve.answers", 0)
            if previous is not None and now > previous[1]:
                rps = max(0, answers - previous[0]) / (now - previous[1])
            previous = (answers, now)
            try:
                age = time.time() - os.path.getmtime(path)
                source = "%s (age %.1fs)" % (path, age)
            except OSError:
                source = path
            body = render_top(metrics, source=source, rps=rps)
        out.write((_CLEAR if clear else "") + body + "\n")
        out.flush()
        frames += 1
        if iterations is not None and frames >= iterations:
            break
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            break
    return frames
