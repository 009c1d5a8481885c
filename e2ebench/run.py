#!/usr/bin/env python3
"""End-to-end benchmark of the bbrsweep entry points.

Builds bbrsweep and its traced twin (e2e_trace) from the checkout, then
runs one workload of e2ebench/workloads.json repeatedly for --seconds:

  python3 e2ebench/run.py --workload grid-local --seed 42 --seconds 30
  python3 e2ebench/run.py --workload all             # every workload
  python3 e2ebench/run.py --workload all --trace 1   # per-layer ledgers

--trace 0 launches the real bbrsweep processes with tracing off and
reports the end-to-end metrics, each the mean of the faster half of the
run's repetitions (see fast_mean). On fleet workloads the fleet starts
once the coordinator logs its seeded queue, so setup_s is launch -> plan
built and queue seeded; on grid-local it is launch -> the line bbrsweep
logs just before it plans. Set-up is also repeated alone, by set-up-only
repetitions stopped at that point, and setup_s is taken over every set-up
sample of the run. Each repetition gets a fresh directory, deleted once
it is judged. --trace 1
alternates those untraced repetitions with traced ones of e2e_trace, which
makes the same library calls and times each one, and reports the per-layer
metrics plus a ledger whose rows sum to the traced wall clock. Every CSV,
traced or not, is checked byte for byte against a reference: the recorded
digest for its seed (digests.json) when there is one, else a single-process
run of the same plan and seed (fleet workloads) or the run's first
repetition (grid-local). A repetition that exits non-zero, times out,
leaves a process behind or fails the byte check counts all of its cells as
failed; rows whose status is "failed" count one by one.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": cells, "failed": cells, "metrics": {...}}
The exit code is 0 when every cell was correct, 1 when the correctness gate
failed, and 2 when the benchmark cannot run at all (e.g. no source tree).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CONFIG_PATH = os.path.join(BENCH_DIR, "workloads.json")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

# Hard limit for one invocation after the build (each must end within 180 s).
RUN_BUDGET_S = 165.0
MIN_REPS = 3
MAX_REPS = 30
# Set-up-only repetitions per run, how many run before each full
# repetition (the host's speed drifts over seconds, so they are spread over
# the run), and the share of --seconds they may use.
SETUP_REPS = 16
SETUP_BURST = 4
SETUP_SHARE = 0.2
# Ledger rows must sum to the traced wall within this many seconds.
LEDGER_TOLERANCE_S = 1e-6

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_cells_ratio": "ratio",
}

# The per-layer metrics of the result line: the ones measured on every
# workload (none reads a constant 0 where a layer is unused) that an
# optimisation can move. The ledger prints the full set (queue.*, fleet.*,
# sweep.* and per-engine figures included).
PER_LAYER = {
    "plan.build_s": "s",
    "engine.busy_s": "s",
    "exec.overhead_s": "s",
    "exec.overhead_us_per_cell": "us",
    "output.write_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run (missing tree, failed build)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build():
    """Configure once, then build bbrsweep and e2e_trace; returns paths."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "bbrsweep.cc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("no bbrmodel source tree around e2ebench/ "
                             "(missing %s)" % needed)
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bbrsweep",
                  "e2e_trace", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build step failed: " + " ".join(step))
    return os.path.join(out, "repo", "bbrsweep"), os.path.join(out, "e2e_trace")


# ----------------------------------------------------------------- inputs --

def load_config():
    with open(CONFIG_PATH) as f:
        return json.load(f)


def load_digests():
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def reduced_buffers(config):
    spec = config["reduced_buffers"]
    lo, hi, n = spec["from_bdp"], spec["to_bdp"], spec["points"]
    return ",".join(repr(lo + i * (hi - lo) / (n - 1)) for i in range(n))


def expand(template, config, plan, seed, fields=None):
    """Fill a command template of workloads.json; `fields` maps the other
    brace tokens ("csv", "queue", "dir", "threads", ...) to values."""
    values = {"{%s}" % k: str(v) for k, v in (fields or {}).items()}
    values.update({"{seed}": str(seed), "{buffers}": reduced_buffers(config)})
    argv = []
    for token in template:
        if token == "{plan}":
            argv.extend(expand(config["plans"][plan]["args"], config, plan,
                               seed, fields))
        elif token.startswith("{") and token not in values:
            raise BenchError("workloads.json: no value for " + token)
        else:
            argv.append(values.get(token, token))
    return argv


# ------------------------------------------------------------ correctness --

def sha256(data):
    return hashlib.sha256(data).hexdigest()


def failed_cells(csv_bytes, cells, reference=None):
    """Cells of one CSV that count as failed, and why (None when clean).

    Against a reference digest any differing byte fails every cell. The
    rows must be the header plus one row per cell; a row whose status is
    "failed" counts alone."""
    if reference is not None and sha256(csv_bytes) != reference:
        return cells, "CSV differs from the reference"
    lines = csv_bytes.decode("utf-8", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != cells + 1 or not lines[0].startswith("task,"):
        return cells, "CSV has %d lines, want %d" % (len(lines), cells + 1)
    header = lines[0].split(",")
    status_col = header.index("status") if "status" in header else -1
    failed = 0
    for row in lines[1:]:
        fields = row.split(",")
        if status_col < 0 or len(fields) <= status_col:
            return cells, "malformed CSV row"
        if fields[status_col] == "failed":
            failed += 1
    return failed, ("%d row(s) failed" % failed) if failed else None


# ------------------------------------------------------------- processes --

class StderrWatch(threading.Thread):
    """Drains one process's stderr and notes when a marker first appears;
    `settled` is set then, or at end of file if it never does."""

    def __init__(self, fd, marker):
        super().__init__(daemon=True)
        self.fd = fd
        self.marker = marker.encode() if marker else None
        self.seen_at = None
        self.settled = threading.Event()
        self.tail = b""

    def run(self):
        while True:
            chunk = os.read(self.fd, 65536)
            if not chunk:
                break
            now = time.monotonic()
            self.tail = (self.tail + chunk)[-8192:]
            if self.seen_at is None and self.marker and self.marker in self.tail:
                self.seen_at = now
                self.settled.set()
        os.close(self.fd)
        self.settled.set()


def run_group(commands, marker, timeout_s, cwd, setup_only=False):
    """Launch the first command in a new process group; once its stderr
    shows `marker` (the plan is built and seeded), launch the others into
    the same group, or with `setup_only` kill the group instead. Wait for
    all of them; returns wall, set-up time (launch to marker), CPU time and
    peak RSS of every process, and the failure reason (None for a clean
    run)."""
    procs, watches = [], []
    pgid = None
    timed_out = threading.Event()

    def kill_group():
        timed_out.set()
        if pgid is not None:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    timer = threading.Timer(timeout_s, kill_group)
    start = time.monotonic()
    timer.start()
    for argv in commands[:1] if setup_only else commands:
        if watches:
            watches[0].settled.wait()
            if watches[0].seen_at is None or timed_out.is_set():
                break
        read_fd, write_fd = os.pipe()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=write_fd,
                                process_group=pgid or 0)
        os.close(write_fd)
        if pgid is None:
            pgid = proc.pid
        watch = StderrWatch(read_fd, marker if not watches else None)
        watch.start()
        procs.append(proc)
        watches.append(watch)
    if setup_only:
        watches[0].settled.wait()
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    cpu_s, rss_kb, codes = 0.0, 0, []
    for proc in procs:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
        cpu_s += usage.ru_utime + usage.ru_stime
        rss_kb = max(rss_kb, usage.ru_maxrss)
    end = time.monotonic()
    timer.cancel()

    # Hygiene: nothing of the group may outlive the run. A straggler gets
    # 2 s to exit, then SIGKILL, and the run waits until it is gone.
    stray = False
    for attempt in range(700):
        try:
            os.killpg(pgid, signal.SIGKILL if attempt >= 200 else 0)
        except ProcessLookupError:
            break
        stray = True
        time.sleep(0.01)
    for watch in watches:
        watch.join(5.0)

    problem = None
    if marker is not None and watches[0].seen_at is None:
        problem = "set-up marker never appeared"
    elif timed_out.is_set():
        problem = "timed out after %.0f s" % timeout_s
    elif setup_only:
        pass  # killed on purpose: exit codes and the group's wind-down say nothing
    elif stray:
        problem = "a process of the run outlived it"
    elif any(code not in (0, 3) for code in codes):
        problem = "exit codes %s" % codes
    if problem:
        log("  rep failed: %s" % problem)
        for watch in watches:
            log("  stderr tail: %s" % watch.tail[-400:].decode(errors="replace"))
    seen = watches[0].seen_at
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "setup_s": (seen - start) if seen is not None else None,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "problem": problem,
    }


class RunDirs:
    """A fresh directory per repetition under the build directory, deleted
    as soon as the repetition is judged (untimed), so every repetition
    starts from the same file-system state: queue files left behind make
    the next repetitions' file creation slower and slower."""

    def __init__(self, workload):
        self.base = os.path.join(build_dir(), "runs",
                                 "%s-%d" % (workload, os.getpid()))
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        self.made = 0

    def fresh(self):
        self.made += 1
        path = os.path.join(self.base, "rep%03d" % self.made)
        os.makedirs(path)
        return path

    def remove(self, path):
        """Delete one repetition's directory; False when that fails
        (something was still writing into it)."""
        try:
            shutil.rmtree(path)
            return True
        except OSError as err:
            log("  could not remove %s: %s" % (path, err))
            return False

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


# --------------------------------------------------------------- workload --

class Workload:
    def __init__(self, name, config, seed, bbrsweep, tracer):
        self.name = name
        self.config = config
        self.spec = config["workloads"][name]
        self.plan = self.spec["plan"]
        self.cells = config["plans"][self.plan]["cells"]
        self.seed = seed
        self.programs = {"bbrsweep": bbrsweep, "e2e_trace": tracer}
        self.dirs = RunDirs(name)
        self.reference = load_digests().get(self.plan, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0

    def argv(self, template, **paths):
        fields = {k: self.spec[k] for k in ("threads", "workers")
                  if k in self.spec}
        fields.update(paths)
        argv = expand(template, self.config, self.plan, self.seed, fields)
        argv[0] = self.programs.get(argv[0], argv[0])
        return argv

    def prepare(self):
        """Settle the reference digest before anything is timed."""
        if self.reference is not None or self.name == "grid-local":
            return
        path = self.dirs.fresh()
        csv = os.path.join(path, "ref.csv")
        subprocess.run(self.argv(self.config["reference"], csv=csv),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            with open(csv, "rb") as f:
                self.reference = sha256(f.read())
        except OSError:
            log("  the single-process reference run wrote no CSV")
            self.reference = "no reference"  # every repetition fails
        self.dirs.remove(path)

    def finish(self, path, csv, problem):
        """Count one repetition's cells as attempted and failed, then
        delete its directory. A directory that cannot be deleted fails the
        repetition."""
        self.attempted += self.cells
        failed = self.cells
        if problem is None:
            try:
                with open(csv, "rb") as f:
                    data = f.read()
            except OSError:
                data, problem = None, "no CSV written"
        if problem is None:
            if self.reference is None:
                failed, why = failed_cells(data, self.cells)
                if why is None or failed < self.cells:
                    self.reference = sha256(data)
            else:
                failed, why = failed_cells(data, self.cells, self.reference)
            if why:
                log("  rep %s: %s" % (os.path.basename(path), why))
        if not self.dirs.remove(path):
            failed = self.cells
        self.failed += failed

    def setup_rep(self, timeout_s):
        """Launch the first command alone and stop the run once set-up is
        done; a failed set-up fails the plan's cells."""
        path = self.dirs.fresh()
        argv = self.argv(self.spec["commands"][0],
                         csv=os.path.join(path, "out.csv"),
                         queue=os.path.join(path, "q"))
        result = run_group([argv], self.spec["setup_marker"], timeout_s,
                           path, setup_only=True)
        if not self.dirs.remove(path) or result["problem"] is not None:
            self.attempted += self.cells
            self.failed += self.cells
            result["problem"] = result["problem"] or "undeletable directory"
        return result

    def untraced_rep(self, timeout_s):
        path = self.dirs.fresh()
        csv = os.path.join(path, "out.csv")
        commands = [self.argv(t, csv=csv, queue=os.path.join(path, "q"))
                    for t in self.spec["commands"]]
        result = run_group(commands, self.spec["setup_marker"], timeout_s, path)
        self.finish(path, csv, result["problem"])
        return result

    def traced_rep(self, timeout_s):
        path = self.dirs.fresh()
        result = run_group([self.argv(self.spec["trace"], dir=path)], None,
                           timeout_s, path)
        spans = None
        if result["problem"] is None:
            try:
                with open(os.path.join(path, "spans.txt")) as f:
                    spans = parse_spans(f.read())
                spans["csv_bytes"] = os.path.getsize(os.path.join(path, "out.csv"))
            except OSError:
                spans, result["problem"] = None, "no spans or CSV written"
        self.finish(path, os.path.join(path, "out.csv"), result["problem"])
        return result, spans


# ---------------------------------------------------------------- ledger --

def parse_spans(text):
    spans = {"marks": {}, "counts": {}, "workers": [], "calls": []}
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        if f[0] == "mark":
            spans["marks"][f[1]] = float(f[2])
        elif f[0] == "count":
            spans["counts"][f[1]] = int(f[2])
        elif f[0] == "worker":
            w = {"slot": int(f[1])}
            for key, value in zip(f[2::2], f[3::2]):
                w[key] = float(value)
            spans["workers"].append(w)
        elif f[0] == "call":
            spans["calls"].append({"proc": int(f[1]), "thread": int(f[2]),
                                   "engine": f[3], "cells": int(f[4]),
                                   "start": float(f[5]), "end": float(f[6])})
    return spans


ENGINES = ("fluid", "packet", "reduced")


def ledger(spans, launch, exit_):
    """One traced repetition as ledger rows (layer, self seconds, note)
    summing to the traced wall, plus its per-layer metrics."""
    m, counts, calls = spans["marks"], spans["counts"], spans["calls"]
    cells = counts["cells"]
    slots = counts["threads"]
    wall = exit_ - launch
    busy = {e: sum(c["end"] - c["start"] for c in calls if c["engine"] == e)
            for e in ENGINES}
    total_busy = sum(busy.values())
    rows = [("plan.build", m["plan_built"] - m["start"], "ExecutionPlan::dense")]
    metrics = {"plan.build_s": m["plan_built"] - m["start"]}

    if "sweep_start" in m:  # single process
        run_s = m["sweep_end"] - m["sweep_start"]
        exec_start, exec_end = m["sweep_start"], m["sweep_end"]
        rows += [("engine." + e, busy[e] / slots, "runner calls / %d threads" % slots)
                 for e in ENGINES if busy[e] > 0]
        rows.append(("sweep", run_s - total_busy / slots,
                     "run_tasks outside runner calls: scheduling, idle threads"))
        rows.append(("output.write", m["output_end"] - m["sweep_end"],
                     "SweepResult::write_csv"))
        last_end = {}
        for c in calls:
            key = (c["proc"], c["thread"])
            last_end[key] = max(last_end.get(key, 0.0), c["end"])
        metrics.update({
            "sweep.run_s": run_s,
            "sweep.busy_ratio": total_busy / (slots * run_s),
            "sweep.tail_s": m["sweep_end"] - min(last_end.values()),
            "output.write_s": m["output_end"] - m["sweep_end"],
        })
    else:  # coordinator + forked workers
        exec_start, exec_end = m["seed_counted"], m["done_seen"]
        per_slot = slots // len(spans["workers"])
        start_slots = wait_slots = lag_slots = 0.0
        first_cell, done_lag, drains = [], [], []
        for w in spans["workers"]:
            run_end = min(w["run_end"], exec_end)
            own = [c for c in calls if c["proc"] == w["slot"] + 1]
            own_busy = sum(c["end"] - c["start"] for c in own)
            start_slots += per_slot * (w["run_start"] - exec_start)
            wait_slots += per_slot * (run_end - w["run_start"]) - own_busy
            lag_slots += per_slot * (exec_end - run_end)
            drains.append(w["run_end"] - w["run_start"])
            if own:
                first_cell.append(min(c["start"] for c in own) - w["run_start"])
                done_lag.append(w["run_end"] - max(c["end"] for c in own))
        rows.append(("queue.seed", m["seeded"] - m["plan_built"],
                     "WorkQueue::seed"))
        rows.append(("fleet.start", start_slots / slots,
                     "fork, queue attach, plan load in each worker"))
        rows += [("engine." + e, busy[e] / slots, "runner calls / %d slots" % slots)
                 for e in ENGINES if busy[e] > 0]
        rows.append(("queue.wait", wait_slots / slots,
                     "run_worker outside runner calls: claim, publish, poll"))
        rows.append(("queue.coordinator_lag", lag_slots / slots,
                     "worker done -> coordinator poll sees the plan complete"))
        rows.append(("output.collect", m["output_end"] - m["final_counted"],
                     "collect_csv"))
        rows.append(("fleet.stop", m["reaped"] - m["output_end"],
                     "workers see the plan done, exit, are reaped"))
        collect_s = m["output_end"] - m["final_counted"]
        metrics.update({
            "queue.seed_s": m["seeded"] - m["plan_built"],
            "queue.seed_us_per_cell": (m["seeded"] - m["plan_built"]) / cells * 1e6,
            "queue.drain_s": max(drains),
            "queue.wait_s": wait_slots / slots,
            "queue.wait_us_per_cell": wait_slots / cells * 1e6,
            "queue.first_cell_s": first_cell,
            "queue.done_lag_s": done_lag,
            "queue.coordinator_lag_s":
                exec_end - max(w["run_end"] for w in spans["workers"]),
            "queue.collect_s": collect_s,
            "queue.collect_us_per_cell": collect_s / cells * 1e6,
            "fleet.start_s": start_slots / slots,
            "output.write_s": collect_s,
        })
        metrics["queue.files_seeded"] = counts["files_seeded"]
        metrics["queue.files_final"] = counts["files_final"]

    attributed = sum(seconds for _, seconds, _ in rows)
    unattributed = wall - attributed
    rows.append(("unattributed_s", unattributed,
                 "process launch and exit, fleet process management and the "
                 "benchmark's own file counts"))
    exec_s = exec_end - exec_start
    metrics.update({
        "engine.busy_s": total_busy,
        "exec.overhead_s": exec_s - total_busy / slots,
        "exec.overhead_us_per_cell": (exec_s * slots - total_busy) / cells * 1e6,
        "output.bytes": spans["csv_bytes"],
        "unattributed_s": unattributed,
        "trace.wall_s": wall,
    })
    for e in ENGINES:
        own = [c for c in calls if c["engine"] == e]
        metrics["engine.%s.busy_s" % e] = busy[e]
        metrics["engine.%s.cells" % e] = sum(c["cells"] for c in own)
        metrics["engine.%s.calls" % e] = len(own)
        unit, scale = ("cell_us", 1e6) if e == "reduced" else ("cell_ms", 1e3)
        metrics["engine.%s.%s" % (e, unit)] = [
            (c["end"] - c["start"]) / c["cells"] * scale for c in own]
    return rows, metrics


def tail_percentile(n):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for permille in (900, 990, 999):
        if n * (1000 - permille) >= 10 * 1000:
            best = permille / 10.0
    return best


def percentile(values, p):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def fast_mean(values):
    """Mean of the faster (smaller) half of a run's repetitions. On a
    shared host a repetition's time is the program's own cost plus
    interference, which only ever adds: file-system calls in particular
    cost one of two levels, so repetitions fall in two groups and a
    median flips between them from run to run. The faster half's mean
    tracks the program's cost and is steadier than the median."""
    ordered = sorted(values)
    return statistics.mean(ordered[:max(1, len(ordered) // 2)])


def summarize(samples):
    """p50, tail percentile (or None) and count of a sample list."""
    n = len(samples)
    if n == 0:
        return None, None, 0
    tail = tail_percentile(n)
    return (statistics.median(samples),
            (tail, percentile(samples, tail)) if tail else None, n)


def format_ledger(name, rows, wall, overhead_pct, pooled):
    lines = ["ledger %s: traced wall %.4f s (the median traced rep)" % (name, wall),
             "  %-24s %10s %7s  %s" % ("layer", "self_s", "share", "what")]
    total = 0.0
    for layer, seconds, note in rows:
        total += seconds
        lines.append("  %-24s %10.4f %6.1f%%  %s" %
                     (layer, seconds, 100.0 * seconds / wall, note))
    lines.append("  %-24s %10.4f %6.1f%%" % ("sum", total, 100.0 * total / wall))
    lines.append("  trace.overhead_pct %+.2f%% (traced vs untraced wall_s, "
                 "each the mean of the faster half of its repetitions)"
                 % overhead_pct)
    lines.append("  per-layer metrics (p50 [tail percentile] over n samples):")
    for key in sorted(pooled):
        p50, tail, n = summarize(pooled[key])
        if n == 0:
            lines.append("    %-30s n/a (layer not used)" % key)
            continue
        tail_text = " p%g=%.6g" % tail if tail else ""
        lines.append("    %-30s p50=%.6g%s n=%d" % (key, p50, tail_text, n))
    return "\n".join(lines)


# ------------------------------------------------------------------- runs --

def measure(workload, seconds, trace, deadline):
    """Repeat the workload for `seconds` (at least MIN_REPS times, never
    past `deadline`); returns the result line's metrics and a report.
    In untraced runs, before each repetition set-up is also repeated alone,
    SETUP_BURST times, until SETUP_REPS such repetitions or SETUP_SHARE
    of `seconds` are used up."""
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    setup_time = 0.0

    def setup_burst():
        nonlocal setup_time
        burst = []
        while (not trace and len(burst) < SETUP_BURST and
               len(setups) < SETUP_REPS and
               setup_time < SETUP_SHARE * seconds and
               time.monotonic() + 10.0 < deadline):
            began = time.monotonic()
            burst.append(workload.setup_rep(deadline - began))
            setup_time += time.monotonic() - began
        setups.extend(burst)
        if burst:
            log("  set-up only: %s s" % " ".join(
                "%.4f" % r["setup_s"] for r in burst if r["problem"] is None))

    def more():
        reps = len(untraced) + len(traced)
        if reps >= MAX_REPS:
            return False
        enough = time.monotonic() - start >= seconds and (
            len(untraced) >= MIN_REPS if not trace else
            min(len(untraced), len(traced)) >= MIN_REPS)
        if enough:
            return False
        last = max([r["wall_s"] for r in untraced] +
                   [r["wall_s"] for r, _ in traced] + [0.0])
        return time.monotonic() + 1.5 * last + 2.0 < deadline

    while more():
        timeout = max(5.0, deadline - time.monotonic())
        if trace and len(traced) < len(untraced):
            traced.append(workload.traced_rep(timeout))
        else:
            setup_burst()
            untraced.append(workload.untraced_rep(timeout))
            r = untraced[-1]
            log("  rep %d: wall %.3f s, setup %.4f s, cpu %.2f s" %
                (len(untraced), r["wall_s"], r["setup_s"] or float("nan"),
                 r["cpu_s"]))

    clean = [r for r in untraced if r["problem"] is None]
    metrics, report = {}, ""
    if clean:
        wall = fast_mean(r["wall_s"] for r in clean)
        setup = [r["setup_s"] for r in clean + setups if r["problem"] is None]
        metrics = {
            "wall_s": wall,
            "cells_per_s": workload.cells / wall,
            "setup_s": fast_mean(setup),
            "cpu_s": fast_mean(r["cpu_s"] for r in clean),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in clean),
        }
    attempted = max(workload.attempted, 1)
    metrics["ok_cells_ratio"] = (attempted - workload.failed) / attempted
    if not trace:
        return metrics, report

    ok_traced = [(r, s) for r, s in traced if s is not None]
    if not ok_traced or "wall_s" not in metrics:
        return {}, "no clean traced repetition"
    per_rep = [ledger(s, r["start"], r["end"]) for r, s in ok_traced]
    traced_wall = fast_mean(r["wall_s"] for r, _ in ok_traced)
    overhead = 100.0 * (traced_wall - metrics["wall_s"]) / metrics["wall_s"]
    pooled = {}
    for _, rep_metrics in per_rep:
        for key, value in rep_metrics.items():
            pooled.setdefault(key, []).extend(
                value if isinstance(value, list) else [value])
    layer = {key: statistics.median(pooled[key])
             for key in PER_LAYER if key in pooled}
    layer["trace.overhead_pct"] = overhead
    walls = [r["wall_s"] for r, _ in ok_traced]
    mid = sorted(range(len(walls)), key=walls.__getitem__)[len(walls) // 2]
    rows = per_rep[mid][0]
    report = format_ledger(workload.name, rows, walls[mid], overhead, pooled)
    return layer, report


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    })


def run_workload(name, config, args, tools, deadline):
    workload = Workload(name, config, args.seed, *tools)
    try:
        workload.prepare()
        metrics, report = measure(workload, args.seconds, args.trace, deadline)
    finally:
        workload.dirs.close()
    units = PER_LAYER if args.trace else END_TO_END
    correct = (workload.failed == 0 and all(k in metrics for k in units))
    return workload, metrics, report, units, correct


def record_digests(config, seeds, bbrsweep):
    digests = load_digests()
    for plan in config["plans"]:
        for seed in seeds:
            path = os.path.join(build_dir(), "digest.csv")
            argv = expand(config["reference"], config, plan, seed,
                          {"csv": path})
            argv[0] = bbrsweep
            subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            with open(path, "rb") as f:
                digests.setdefault(plan, {})[str(seed)] = sha256(f.read())
            os.remove(path)
            log("recorded %s seed %d" % (plan, seed))
    with open(DIGESTS_PATH, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    config = load_config()
    config_names = list(config["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=config_names + ["all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="record reference CSV digests for seeds "
                             "like 0-10,42 into digests.json, then exit")
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = config["default_seed"]
        bbrsweep, tracer = build()
        if args.record_digests:
            record_digests(config, parse_seeds(args.record_digests), bbrsweep)
            return 0
        deadline = time.monotonic() + RUN_BUDGET_S
        names = config_names if args.workload == "all" else [args.workload]
        if len(names) > 1:
            deadline += RUN_BUDGET_S * (len(names) - 1)
        all_correct = True
        for name in names:
            log("workload %s, seed %d, trace %d" % (name, args.seed, args.trace))
            workload, metrics, report, units, correct = run_workload(
                name, config, args, (bbrsweep, tracer), deadline)
            all_correct = all_correct and correct
            if report:
                print(report, file=sys.stderr if len(names) == 1 else sys.stdout)
            if len(names) > 1:
                print("%s: correct=%s attempted=%d failed=%d" %
                      (name, correct, workload.attempted, workload.failed))
                for key in units:
                    if key in metrics:
                        print("  %-28s %14.6g %s" % (key, metrics[key], units[key]))
            else:
                print(result_line(correct, max(workload.attempted, 1),
                                  workload.failed, metrics, units))
        return 0 if all_correct else 1
    except BenchError as err:
        log("e2ebench: %s" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
