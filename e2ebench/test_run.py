#!/usr/bin/env python3
"""Tests of the benchmark harness itself (no build needed):

  python3 e2ebench/test_run.py
"""

import hashlib
import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

HEADER = ("task,backend,discipline,mix,flows,buffer_bdp,min_rtt_s,max_rtt_s,"
          "seed,jain,loss_pct,occupancy_pct,utilization_pct,jitter_ms,"
          "status,error")


def csv_bytes(statuses):
    rows = [HEADER]
    for i, status in enumerate(statuses):
        metrics = "0.9,1,2,3,4" if status == "ok" else ",,,,"
        error = "" if status == "ok" else "boom"
        rows.append("%d,fluid,drop-tail,BBRv1,10,1,0.03,0.04,7,%s,%s,%s" %
                    (i, metrics, status, error))
    return ("\n".join(rows) + "\n").encode()


LOCAL_SPANS = """\
mark start 100.0
mark plan_built 100.01
count cells 4
count threads 2
mark sweep_start 100.02
mark sweep_end 102.02
mark output_end 102.05
count failed_cells 0
call 0 0 fluid 2 100.03 101.03
call 0 1 packet 1 100.03 101.53
call 0 0 packet 1 101.04 101.94
mark end 102.06
"""

FLEET_SPANS = """\
mark start 200.0
mark plan_built 200.1
count cells 4
mark seeded 201.1
count files_seeded 6
count threads 4
mark seed_counted 201.15
mark forked 201.16
mark done_seen 203.5
count files_final 8
mark final_counted 203.52
mark output_end 203.7
count failed_cells 0
mark reaped 203.72
worker 0 attach 201.16 loaded 201.3 run_start 201.31 run_end 203.2 completed 2 failed 0
call 1 0 reduced 1 201.4 201.9
call 1 1 reduced 1 201.5 202.6
worker 1 attach 201.17 loaded 201.35 run_start 201.36 run_end 203.3 completed 2 failed 0
call 2 0 reduced 1 201.45 202.0
call 2 1 reduced 1 201.5 203.0
mark end 203.73
"""


class DigestGate(unittest.TestCase):
    def test_identical_bytes_pass(self):
        data = csv_bytes(["ok"] * 5)
        ref = hashlib.sha256(data).hexdigest()
        self.assertEqual(run.failed_cells(data, 5, ref), (0, None))

    def test_one_byte_flip_fails_every_cell(self):
        data = csv_bytes(["ok"] * 5)
        ref = hashlib.sha256(data).hexdigest()
        for offset in (0, len(data) // 2, len(data) - 2):
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            failed, why = run.failed_cells(bytes(flipped), 5, ref)
            self.assertEqual(failed, 5)
            self.assertIsNotNone(why)

    def test_missing_row_fails_every_cell(self):
        self.assertEqual(run.failed_cells(csv_bytes(["ok"] * 4), 5)[0], 5)


class FailedRows(unittest.TestCase):
    def test_failed_status_rows_count_one_by_one(self):
        data = csv_bytes(["ok", "failed", "ok", "failed", "failed"])
        failed, why = run.failed_cells(data, 5)
        self.assertEqual(failed, 3)
        self.assertIn("3 row(s) failed", why)

    def test_failed_rows_count_when_the_digest_matches(self):
        data = csv_bytes(["failed", "ok"])
        ref = hashlib.sha256(data).hexdigest()
        self.assertEqual(run.failed_cells(data, 2, ref)[0], 1)


class MetricNames(unittest.TestCase):
    def test_harness_metric_names(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, NAME)

    def test_ledger_metric_names(self):
        for text in (LOCAL_SPANS, FLEET_SPANS):
            spans = run.parse_spans(text)
            spans["csv_bytes"] = 10
            rows, metrics = run.ledger(spans, 99.99, 204.0)
            for name in list(metrics) + [row[0] for row in rows]:
                self.assertRegex(name, NAME)
            for name in run.PER_LAYER:
                if name != "trace.overhead_pct":
                    self.assertIn(name, metrics)

    def test_benchmark_json_matches_the_harness(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["name"], NAME)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        config = run.load_config()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(config["workloads"]))


class OneDefinition(unittest.TestCase):
    def test_traced_runs_take_threads_workers_and_plan_from_the_workload(self):
        config = run.load_config()
        for name, spec in config["workloads"].items():
            workload = run.Workload.__new__(run.Workload)
            workload.config, workload.spec = config, spec
            workload.plan, workload.seed = spec["plan"], 7
            workload.programs = {}
            plan_args = run.expand(config["plans"][spec["plan"]]["args"],
                                   config, spec["plan"], 7)
            traced = workload.argv(spec["trace"], dir="D")
            untraced = [workload.argv(t, csv="C", queue="Q")
                        for t in spec["commands"]]

            def flag(argv, name):
                return argv[argv.index(name) + 1]

            self.assertEqual(flag(traced, "--threads"),
                             flag(untraced[-1], "--threads"), name)
            if "workers" in spec:
                self.assertEqual(flag(traced, "--workers"),
                                 flag(untraced[-1], "--workers"), name)
            for argv in [traced] + untraced[:1]:
                joined = " ".join(argv)
                self.assertIn(" ".join(plan_args), joined, name)
                self.assertEqual(flag(argv, "--seed"), "7", name)

    def test_unfilled_tokens_are_an_error(self):
        config = run.load_config()
        with self.assertRaises(run.BenchError):
            run.expand(["bbrsweep", "{queue}"], config, "grid", 1)


class LedgerSums(unittest.TestCase):
    def check(self, text, launch, exit_):
        spans = run.parse_spans(text)
        spans["csv_bytes"] = 10
        rows, metrics = run.ledger(spans, launch, exit_)
        total = sum(seconds for _, seconds, _ in rows)
        self.assertAlmostEqual(total, exit_ - launch,
                               delta=run.LEDGER_TOLERANCE_S)
        self.assertEqual(rows[-1][0], "unattributed_s")
        self.assertGreaterEqual(metrics["unattributed_s"], 0.0)
        return rows, metrics

    def test_single_process_rows_sum_to_wall(self):
        rows, metrics = self.check(LOCAL_SPANS, 99.98, 102.10)
        by_layer = dict((r[0], r[1]) for r in rows)
        self.assertAlmostEqual(by_layer["engine.fluid"], 0.5)
        self.assertAlmostEqual(by_layer["engine.packet"], 1.2)
        self.assertAlmostEqual(by_layer["sweep"], 2.0 - 1.7)
        self.assertAlmostEqual(metrics["sweep.tail_s"], 102.02 - 101.53)

    def test_fleet_rows_sum_to_wall(self):
        rows, metrics = self.check(FLEET_SPANS, 199.95, 203.80)
        by_layer = dict((r[0], r[1]) for r in rows)
        self.assertAlmostEqual(by_layer["engine.reduced"], 3.65 / 4)
        self.assertAlmostEqual(metrics["queue.coordinator_lag_s"], 0.2)
        self.assertAlmostEqual(metrics["queue.drain_s"], 1.94)
        self.assertEqual(metrics["queue.files_seeded"], 6)


def gone(pid):
    """True once a process has exited (a zombie awaiting its reaper
    counts: it runs no code and holds no files)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class Hygiene(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()

    def tearDown(self):
        run.shutil.rmtree(self.dir)

    def test_a_straggler_fails_the_run_and_is_killed(self):
        script = "sleep 30 & echo $! > pid; echo 'seeded q' >&2"
        result = run.run_group([["bash", "-c", script]], "seeded ", 20.0,
                               self.dir)
        self.assertEqual(result["problem"], "a process of the run outlived it")
        with open(os.path.join(self.dir, "pid")) as f:
            self.assertTrue(gone(int(f.read())))

    def test_a_timeout_kills_the_group(self):
        result = run.run_group([["sleep", "30"]], None, 0.3, self.dir)
        self.assertTrue(result["problem"].startswith("timed out"))
        self.assertLess(result["wall_s"], 10.0)

    def test_setup_only_stops_the_run_at_the_marker(self):
        script = "echo 'seeded q' >&2; sleep 30"
        result = run.run_group([["bash", "-c", script], ["false"]], "seeded ",
                               20.0, self.dir, setup_only=True)
        self.assertIsNone(result["problem"])
        self.assertLess(result["setup_s"], result["wall_s"])
        self.assertLess(result["wall_s"], 10.0)


class Estimators(unittest.TestCase):
    def test_fast_mean_averages_the_faster_half(self):
        self.assertEqual(run.fast_mean([5.0, 1.0, 4.0, 2.0]), 1.5)
        self.assertEqual(run.fast_mean([9.0, 3.0, 1.0]), 1.0)
        self.assertEqual(run.fast_mean([2.5]), 2.5)


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.tail_percentile(99))
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)


if __name__ == "__main__":
    unittest.main()
