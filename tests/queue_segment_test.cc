// Tests of the segment queue layout (bbrm-queue-layout=2) and the
// backlog-driven fleet autoscaler: packed pending segments claimed by one
// rename, per-worker append-only result logs with hash-sealed records,
// the O(1) counters view cross-checked against the exact store census,
// crash recovery mid-segment, torn-tail truncation, byte-identity of the
// streaming collectors with the single-process run and with the legacy
// per-cell layout, and the pure scale-up/scale-down decision function.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/require.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "orchestrator/execution_plan.h"
#include "orchestrator/fleet.h"
#include "orchestrator/work_queue.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// A fast, deterministic, pure-function-of-the-spec runner standing in
/// for an expensive simulation (same shape as the orchestrator tests').
sweep::Runner synthetic_runner(std::atomic<std::size_t>* calls = nullptr) {
  return sweep::make_runner("synthetic",
                            [calls](const sweep::SweepTask& task) {
            if (calls != nullptr) calls->fetch_add(1);
            metrics::AggregateMetrics m;
            m.jain = 1.0;
            m.loss_pct = task.spec.buffer_bdp;
            m.occupancy_pct = static_cast<double>(task.spec.seed % 1000);
            m.utilization_pct = 100.0;
            m.jitter_ms = 0.25;
            m.mean_rate_pps = {task.spec.capacity_pps, 1.0 / 3.0};
            m.aux = {static_cast<double>(task.index)};
            return m;
          });
}

scenario::ExperimentSpec small_base() {
  scenario::ExperimentSpec base;
  base.capacity_pps = mbps_to_pps(20.0);
  base.duration_s = 0.5;
  return base;
}

/// A plan of `buffers * 2` cells (two mixes per buffer point).
ExecutionPlan plan_of(std::size_t buffers) {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp.clear();
  for (std::size_t i = 0; i < buffers; ++i) {
    grid.buffers_bdp.push_back(0.25 * static_cast<double>(i + 1));
  }
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv1,
                                     scenario::CcaKind::kReno)};
  return ExecutionPlan::dense(grid, small_base(), 42);
}

struct Reference {
  std::string csv;
  std::string json;
};

Reference reference_bytes(const ExecutionPlan& plan,
                          const sweep::SweepOptions& options) {
  std::ostringstream csv, json;
  const auto result = execute(plan, options);
  result.write_csv(csv);
  result.write_json(json);
  return {csv.str(), json.str()};
}

WorkerConfig segment_worker(const std::string& id, std::size_t batch = 4,
                            double poll_s = 0.01) {
  WorkerConfig config;
  config.worker_id = id;
  config.batch = batch;
  config.poll_s = poll_s;
  return config;
}

std::size_t count_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

// ---- segment store lifecycle ----------------------------------------------

TEST(SegmentQueue, SeedPacksSegmentsAndWritesCounters) {
  const auto plan = plan_of(6);  // 12 cells
  WorkQueue queue(scratch_dir("sq_seed"), 60.0);
  queue.seed(plan, /*batch=*/1, /*segment_cells=*/4);

  EXPECT_EQ(queue.layout(), QueueLayout::kSegment);
  ASSERT_TRUE(queue.plan_header().has_value());
  EXPECT_EQ(queue.plan_header()->cells, plan.size());
  EXPECT_EQ(queue.plan_header()->runner, plan.runner_name());

  // 12 cells in 4-cell segments: three pending entries, not twelve.
  std::size_t pending_entries = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "pending")) {
    (void)entry;
    ++pending_entries;
  }
  EXPECT_EQ(pending_entries, 3u);
  EXPECT_TRUE(fs::exists(fs::path(queue.dir()) / "counters"));

  const auto counters = queue.counters();
  EXPECT_EQ(counters.layout, QueueLayout::kSegment);
  EXPECT_EQ(counters.total, plan.size());
  EXPECT_EQ(counters.segment_cells, 4u);
  EXPECT_EQ(counters.pending, plan.size());
  EXPECT_EQ(counters.done, 0u);
  EXPECT_EQ(counters.active, 0u);
}

TEST(SegmentQueue, DrainCollectsByteIdenticallyWithFewFiles) {
  const auto plan = plan_of(6);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  WorkQueue queue(scratch_dir("sq_drain"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  const auto report =
      run_worker(queue, plan, worker_options, segment_worker("worker-a"));
  EXPECT_EQ(report.completed, plan.size());

  std::ostringstream csv, json;
  EXPECT_EQ(collect_csv(queue, plan, csv), 0u);
  EXPECT_EQ(collect_json(queue, plan, json), 0u);
  EXPECT_EQ(csv.str(), reference.csv)
      << "segment-store collection must be byte-identical to run_sweep";
  EXPECT_EQ(json.str(), reference.json);

  // The whole drained queue holds O(cells/segment) entries: plan, probe,
  // counters, one result log, one stats file, one publish checkpoint —
  // never a per-cell file.
  EXPECT_LE(count_files(queue.dir()), 8u);
  std::size_t result_logs = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "results")) {
    EXPECT_EQ(entry.path().extension(), ".rlog");
    ++result_logs;
  }
  EXPECT_EQ(result_logs, 1u);
}

TEST(SegmentQueue, ConcurrentWorkersSplitSegmentsExactlyOnce) {
  const auto plan = plan_of(25);  // 50 cells
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);
  calls.store(0);

  WorkQueue queue(scratch_dir("sq_trio"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  for (const char* id : {"worker-a", "worker-b", "worker-c"}) {
    workers.emplace_back([&, id] {
      total.fetch_add(
          run_worker(queue, plan, worker_options, segment_worker(id))
              .completed);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(total.load(), plan.size());
  EXPECT_EQ(calls.load(), plan.size())
      << "every cell simulates exactly once across segment claims";
  std::ostringstream csv;
  collect_csv(queue, plan, csv);
  EXPECT_EQ(csv.str(), reference.csv);
  EXPECT_EQ(queue.done_count(), plan.size());
}

TEST(SegmentQueue, SigkilledWorkerMidSegmentOnlyReEnqueuesUnpublished) {
  const auto plan = plan_of(6);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  const std::string dir = scratch_dir("sq_sigkill");
  WorkQueue queue(dir, /*lease_s=*/0.1, /*skew_margin_s=*/0.05);
  queue.seed(plan, 1, /*segment_cells=*/4);

  // A real SIGKILL mid-segment: the child drains slowly and dies after
  // publishing at least one record, so its segment is part published in
  // its result log, part abandoned under the claim.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      sweep::SweepOptions slow = options;
      slow.threads = 1;
      slow.runner =
          sweep::make_runner("synthetic", [](const sweep::SweepTask& task) {
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
            return synthetic_runner().run_one(task);
          });
      run_worker(queue, plan, slow, segment_worker("victim"));
    } catch (...) {
    }
    ::_exit(0);
  }
  while (queue.done_count() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  const std::size_t done_at_kill = queue.done_count();
  ASSERT_GE(done_at_kill, 1u);
  ASSERT_LT(done_at_kill, plan.size());

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  queue.recover_expired();
  const auto progress = queue.progress();
  EXPECT_EQ(progress.done, done_at_kill)
      << "published log records must never be re-enqueued";
  EXPECT_EQ(progress.active, 0u);
  EXPECT_EQ(progress.pending, plan.size() - done_at_kill);

  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  run_worker(queue, plan, worker_options, segment_worker("survivor"));
  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "a SIGKILL mid-segment must not change a byte";
  EXPECT_EQ(json.str(), reference.json);
}

// ---- splits stay segments -------------------------------------------------

/// The pending entries of a queue, by file name, each with its members.
std::map<std::string, std::vector<std::size_t>> pending_entries(
    const std::string& dir) {
  std::map<std::string, std::vector<std::size_t>> entries;
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "pending")) {
    const std::string name = entry.path().filename().string();
    std::vector<std::size_t> members;
    if (entry.path().extension() == ".batch") {
      std::ifstream in(entry.path());
      std::string line;
      std::getline(in, line);  // the "batch" header
      while (std::getline(in, line)) members.push_back(std::stoul(line));
    } else {
      members.push_back(std::stoul(name.substr(0, name.find('.'))));
    }
    entries[name] = members;
  }
  return entries;
}

std::vector<std::size_t> range_of(std::size_t from, std::size_t to) {
  std::vector<std::size_t> out;
  for (std::size_t i = from; i < to; ++i) out.push_back(i);
  return out;
}

void publish_synthetic(const WorkQueue& queue, const ExecutionPlan& plan,
                       std::size_t index, const std::string& worker) {
  sweep::TaskResult result;
  result.task = plan.cell(index);
  result.metrics = synthetic_runner().run_one(result.task);
  queue.publish(result, worker);
}

TEST(SegmentQueue, RecoveredSegmentReturnsAsOnePendingEntry) {
  const auto plan = plan_of(32);  // 64 cells: one 63-cell segment + 1
  const std::string dir = scratch_dir("sq_recover_split");
  WorkQueue queue(dir, /*lease_s=*/60.0);
  queue.seed(plan, 1, /*segment_cells=*/63);
  auto claim = queue.try_claim_batch("victim", 63);
  ASSERT_TRUE(claim.has_value());
  ASSERT_EQ(claim->indices, range_of(0, 63));
  for (std::size_t i = 0; i < 10; ++i) {
    publish_synthetic(queue, plan, i, "victim");
  }
  const auto before = pending_entries(dir);
  ASSERT_EQ(before.size(), 1u);  // the 1-cell tail segment

  // The victim dies: backdate its claim far past the lease.
  const auto active = fs::path(dir) / "active" / claim->active_name;
  fs::last_write_time(active, fs::last_write_time(active) -
                                  std::chrono::seconds(600));
  EXPECT_EQ(queue.recover_expired(), 53u);

  auto after = pending_entries(dir);
  for (const auto& [name, members] : before) after.erase(name);
  ASSERT_EQ(after.size(), 1u)
      << "the unpublished members return as one segment, not 53 files";
  EXPECT_EQ(after.begin()->second, range_of(10, 63));
  EXPECT_EQ(queue.progress().pending, plan.size() - 10);
  EXPECT_EQ(queue.progress().active, 0u);
}

TEST(SegmentQueue, TrimAndReleaseReturnTailsAsOnePendingEntryEach) {
  const auto plan = plan_of(32);
  const std::string dir = scratch_dir("sq_trim_split");
  WorkQueue queue(dir, 60.0);
  queue.seed(plan, 1, /*segment_cells=*/63);
  auto claim = queue.try_claim_batch("worker-a", 63);
  ASSERT_TRUE(claim.has_value());
  const auto before = pending_entries(dir);

  queue.trim(*claim, 10);
  EXPECT_EQ(claim->indices, range_of(0, 10));
  auto trimmed = pending_entries(dir);
  for (const auto& [name, members] : before) trimmed.erase(name);
  ASSERT_EQ(trimmed.size(), 1u);
  EXPECT_EQ(trimmed.begin()->second, range_of(10, 63));

  for (std::size_t i = 0; i < 3; ++i) {
    publish_synthetic(queue, plan, i, "worker-a");
  }
  queue.release(*claim);
  auto released = pending_entries(dir);
  for (const auto& [name, members] : before) released.erase(name);
  released.erase(trimmed.begin()->first);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released.begin()->second, range_of(3, 10));
  const auto progress = queue.progress();
  EXPECT_EQ(progress.done, 3u);
  EXPECT_EQ(progress.active, 0u);
  EXPECT_EQ(progress.pending, plan.size() - 3);
}

// ---- the default-flag fast path -------------------------------------------

TEST(DefaultFastPath, SegmentSizeIsBoundedMonotoneAndSmallForTheGrid) {
  std::size_t previous = 0;
  for (std::size_t cells = 0; cells <= 200000; cells += 7) {
    const std::size_t k = segment_cells_for(cells);
    ASSERT_GE(k, 1u) << cells;
    ASSERT_LE(k, 512u) << cells;
    ASSERT_GE(k, previous) << "K must never shrink as the plan grows";
    previous = k;
  }
  EXPECT_LE(segment_cells_for(196), 5u)
      << "the paper grid must stay in small claims (worker RSS)";
  EXPECT_EQ(segment_cells_for(4000), 63u);
  EXPECT_EQ(segment_cells_for(50000), 512u);
  EXPECT_EQ(segment_cells_for(10000000), 512u);
}

TEST(DefaultFastPath, CompletionPollTightensAsThePlanNearsItsEnd) {
  // Nothing seen yet: back off from the floor, capped at the ceiling.
  EXPECT_DOUBLE_EQ(completion_poll_s(100, 0, 0.0, 0.5), 0.01);
  EXPECT_DOUBLE_EQ(completion_poll_s(100, 0, 0.4, 0.5), 0.1);
  EXPECT_DOUBLE_EQ(completion_poll_s(100, 0, 10.0, 0.5), 0.5);
  // 100 cells/s: 90 left is 0.9 s away, 2 left only 20 ms.
  EXPECT_DOUBLE_EQ(completion_poll_s(90, 10, 0.1, 0.5), 0.225);
  EXPECT_DOUBLE_EQ(completion_poll_s(2, 98, 0.98, 0.5), 0.01);
  // A ceiling under the floor wins.
  EXPECT_DOUBLE_EQ(completion_poll_s(100, 0, 0.0, 0.002), 0.002);
}

TEST(DefaultFastPath, DefaultConfigClaimsWholeSegmentsAndBatchesFluid) {
  // Real fluid cells through the default backend runner, which batches
  // them: the plan is seeded the way `bbrsweep coordinator`
  // seeds it and drained with a default WorkerConfig.
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp.clear();
  for (std::size_t i = 1; i <= 40; ++i) {
    grid.buffers_bdp.push_back(0.2 * static_cast<double>(i));
  }
  grid.flow_counts = {2};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::homogeneous_mix(scenario::CcaKind::kBbrv2)};
  scenario::ExperimentSpec base = small_base();
  base.duration_s = 0.1;
  const auto plan = ExecutionPlan::dense(grid, base, 42);
  ASSERT_EQ(plan.size(), 80u);
  const auto reference = reference_bytes(plan, sweep::SweepOptions{});

  WorkQueue queue(scratch_dir("sq_default_fast"), 60.0);
  const std::size_t k = segment_cells_for(plan.size());
  queue.seed(plan, 1, k);
  const std::size_t segments = (plan.size() + k - 1) / k;
  EXPECT_EQ(pending_entries(queue.dir()).size(), segments);

  auto& registry = obs::Registry::global();
  const auto claims_before = registry.counter("queue.claims").value();
  const auto batched_before = registry.counter("sweep.batched_cells").value();
  WorkerConfig config;
  config.worker_id = "worker-default";
  sweep::SweepOptions options;
  options.threads = 2;
  const auto report = run_worker(queue, plan, options, config);
  EXPECT_EQ(report.completed, plan.size());
  EXPECT_EQ(registry.counter("queue.claims").value() - claims_before,
            segments)
      << "one claim per segment: nothing was trimmed back to pending";
  EXPECT_GT(registry.counter("sweep.batched_cells").value() - batched_before,
            0u)
      << "fluid cells of a claim must run through the batch engine";

  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv);
  EXPECT_EQ(json.str(), reference.json);
}

TEST(DefaultFastPath, IdleWorkersDoNotSleepOutALongPoll) {
  const auto plan = plan_of(3);
  sweep::SweepOptions options;
  // Slow enough that some claim loops run dry while peers still hold the
  // last cells — the idle wait is what this test times.
  options.runner =
      sweep::make_runner("synthetic", [](const sweep::SweepTask& task) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return synthetic_runner().run_one(task);
      });
  options.threads = 2;
  WorkQueue queue(scratch_dir("sq_prompt_exit"), 60.0);
  queue.seed(plan, 1, segment_cells_for(plan.size()));

  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  for (const char* id : {"worker-a", "worker-b"}) {
    workers.emplace_back([&, id] {
      WorkerConfig config;
      config.worker_id = id;
      config.poll_s = 30.0;
      total.fetch_add(run_worker(queue, plan, options, config).completed);
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_EQ(total.load(), plan.size());
  EXPECT_LT(elapsed_s, 5.0)
      << "the tail must not sleep out a full 30 s poll";
}

// ---- layout stamp + legacy compatibility ----------------------------------

TEST(SegmentQueue, MixedLayoutReseedIsRejectedBothWays) {
  const auto plan = plan_of(6);
  {
    WorkQueue queue(scratch_dir("sq_mix_a"), 60.0);
    queue.seed(plan);  // per-cell
    EXPECT_THROW(queue.seed(plan, 1, /*segment_cells=*/4),
                 PreconditionError)
        << "a per-cell queue must reject a segment re-seed";
  }
  {
    WorkQueue queue(scratch_dir("sq_mix_b"), 60.0);
    queue.seed(plan, 1, /*segment_cells=*/4);
    EXPECT_THROW(queue.seed(plan), PreconditionError)
        << "a segment queue must reject a per-cell re-seed";
    queue.seed(plan, 1, /*segment_cells=*/4);  // same layout re-seeds fine
  }
}

TEST(SegmentQueue, LegacyPerCellQueueStillDrainsAndMatches) {
  const auto plan = plan_of(6);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  WorkQueue queue(scratch_dir("sq_legacy"), 60.0);
  queue.seed(plan);  // no stamp: the pre-segment layout
  EXPECT_EQ(queue.layout(), QueueLayout::kPerCell);

  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  run_worker(queue, plan, worker_options, segment_worker("worker-a", 1));

  // The census-backed counters fallback agrees with progress(), so status
  // callers need not branch on the layout.
  const auto counters = queue.counters();
  const auto progress = queue.progress();
  EXPECT_EQ(counters.layout, QueueLayout::kPerCell);
  EXPECT_EQ(counters.done, progress.done);
  EXPECT_EQ(counters.pending, progress.pending);
  EXPECT_EQ(counters.total, plan.size());

  std::ostringstream csv;
  collect_csv(queue, plan, csv);
  EXPECT_EQ(csv.str(), reference.csv)
      << "the legacy layout must keep collecting byte-identically";
}

TEST(SegmentQueue, FailedCellsLandPerCellAndReseedRetriesThem) {
  const auto plan = plan_of(6);
  WorkQueue queue(scratch_dir("sq_failed"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);

  // Drain one segment with its first cell failing, the way a worker
  // would: claim, publish per cell, finish.
  auto claim = queue.try_claim_batch("worker-a", 4);
  ASSERT_TRUE(claim.has_value());
  ASSERT_EQ(claim->indices.size(), 4u);
  sweep::TaskResult failed;
  failed.task = plan.cell(claim->indices.front());
  failed.ok = false;
  failed.error = "boom with detail";
  queue.publish(failed, "worker-a");
  for (std::size_t k = 1; k < claim->indices.size(); ++k) {
    sweep::TaskResult result;
    result.task = plan.cell(claim->indices[k]);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result, "worker-a");
  }
  queue.finish(*claim);

  ASSERT_TRUE(queue.result_ok(0).has_value());
  EXPECT_FALSE(*queue.result_ok(0));
  const auto loaded = queue.load_result(plan.cell(0));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->ok);
  EXPECT_EQ(loaded->error, "boom with detail");
  EXPECT_TRUE(fs::exists(fs::path(queue.dir()) / "failed" / "0000000000.cell"))
      << "failed cells stay per-cell files so a re-seed can drop them";
  EXPECT_EQ(queue.counters().failed, 1u);
  EXPECT_EQ(queue.done_count(), 4u);

  // Re-seeding drops the failure and re-enqueues only that cell for
  // another attempt — same contract as the per-cell layout.
  queue.seed(plan, 1, /*segment_cells=*/4);
  EXPECT_FALSE(queue.result_ok(0).has_value());
  const auto progress = queue.progress();
  EXPECT_EQ(progress.done, 3u);
  EXPECT_EQ(progress.pending, plan.size() - 3);
}

// ---- result log robustness ------------------------------------------------

TEST(SegmentQueue, TornLogTailIsIgnoredByReadersAndTruncatedByTheWriter) {
  const auto plan = plan_of(6);
  const std::string dir = scratch_dir("sq_torn");
  const std::size_t half = plan.size() / 2;
  {
    WorkQueue queue(dir, 60.0);
    queue.seed(plan, 1, /*segment_cells=*/4);
    for (std::size_t i = 0; i < half; ++i) {
      sweep::TaskResult result;
      result.task = plan.cell(i);
      result.metrics = synthetic_runner().run_one(result.task);
      queue.publish(result, "w1");
    }
  }  // dtor flushes w1's checkpoint

  // A crash mid-append leaves a torn record at the log's tail.
  const auto log = fs::path(dir) / "results" / "w1.rlog";
  const auto sealed_bytes = fs::file_size(log);
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    out << "torn tail";
  }

  // A fresh reader must not consume the torn bytes...
  {
    WorkQueue reader(dir, 60.0);
    EXPECT_EQ(reader.done_count(), half);
  }

  // ...and the writer's next attach validates from the checkpoint,
  // truncates the tear, and appends cleanly after it.
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);
  {
    WorkQueue writer(dir, 60.0);
    sweep::TaskResult result;
    result.task = plan.cell(half);
    result.metrics = synthetic_runner().run_one(result.task);
    result.ok = true;
    writer.publish(result, "w1");
    EXPECT_GE(fs::file_size(log), sealed_bytes);
    EXPECT_EQ(writer.done_count(), half + 1);
    for (std::size_t i = half + 1; i < plan.size(); ++i) {
      sweep::TaskResult rest;
      rest.task = plan.cell(i);
      rest.metrics = synthetic_runner().run_one(rest.task);
      writer.publish(rest, "w1");
    }
    std::ostringstream csv;
    collect_csv(writer, plan, csv);
    EXPECT_EQ(csv.str(), reference.csv)
        << "a torn tail must cost at most the unsealed record, never a "
           "published one";
  }
}

TEST(SegmentQueue, CountersAgreeWithTheExactCensusThroughoutADrain) {
  const auto plan = plan_of(6);
  WorkQueue queue(scratch_dir("sq_counters"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);

  for (std::size_t i = 0; i < plan.size(); ++i) {
    sweep::TaskResult result;
    result.task = plan.cell(i);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result, "w1");
    // The deep-verification invariant `bbrsweep status --deep` enforces:
    // the cheap view never lags the store, and on a clean single-writer
    // drain it is exact.
    const auto counters = queue.counters();
    EXPECT_EQ(counters.done, queue.done_count());
    EXPECT_EQ(counters.total, plan.size());
    EXPECT_EQ(counters.done + counters.pending + counters.active,
              plan.size());
  }
}

// ---- streaming collect while the fleet drains -----------------------------

/// The first `rows` lines after the header of a CSV document, header
/// included.
std::string csv_prefix(const std::string& csv, std::size_t rows) {
  std::size_t end = 0;
  for (std::size_t i = 0; i <= rows; ++i) end = csv.find('\n', end) + 1;
  return csv.substr(0, end);
}

TEST(StreamingCollect, RowsStreamWhileWorkersDrainAndMatchRunSweep) {
  const auto plan = plan_of(25);  // 50 cells
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  // Cells from index 20 on wait for the gate, so the drain holds still
  // with exactly cells 0..19 published.
  constexpr std::size_t kGateIndex = 20;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  const sweep::Runner synthetic = synthetic_runner();
  sweep::SweepOptions worker_options;
  worker_options.threads = 2;
  worker_options.runner =
      sweep::make_runner("gated", [&](const sweep::SweepTask& task) {
        if (task.index >= kGateIndex) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          gate_cv.wait(lock, [&] { return gate_open; });
        }
        return synthetic.run_one(task);
      });
  const auto open_gate = [&] {
    {
      std::lock_guard<std::mutex> lock(gate_mutex);
      gate_open = true;
    }
    gate_cv.notify_all();
  };

  WorkQueue queue(scratch_dir("sc_stream"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  std::ostringstream csv;
  ResultCollector collector(queue, plan, csv);
  EXPECT_EQ(collector.advance(), 0u);
  EXPECT_EQ(csv.str(), csv_prefix(reference.csv, 0)) << "header only";

  std::thread worker([&] {
    run_worker(queue, plan, worker_options, segment_worker("worker-a"));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (queue.done_count() < kGateIndex &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t done_mid_drain = queue.done_count();
  const std::size_t streamed = collector.advance();
  open_gate();
  worker.join();
  ASSERT_EQ(done_mid_drain, kGateIndex);
  EXPECT_EQ(streamed, kGateIndex);
  EXPECT_EQ(collector.rows(), kGateIndex);
  EXPECT_EQ(csv.str(), csv_prefix(reference.csv, kGateIndex))
      << "the rows of the published leading cells stream mid-drain";

  EXPECT_EQ(collector.finish(), 0u);
  EXPECT_EQ(collector.rows(), plan.size());
  EXPECT_EQ(csv.str(), reference.csv)
      << "a streamed collect must be byte-identical to run_sweep";
}

TEST(StreamingCollect, AFailedCellHoldsTheStreamUntilFinish) {
  const auto plan = plan_of(6);  // 12 cells
  const auto publish_ok = [&](const WorkQueue& queue, std::size_t i,
                              const std::string& worker) {
    sweep::TaskResult result;
    result.task = plan.cell(i);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result, worker);
  };
  const auto publish_failed = [&](const WorkQueue& queue, std::size_t i) {
    sweep::TaskResult result;
    result.task = plan.cell(i);
    result.ok = false;
    result.error = "boom";
    queue.publish(result, "w1");
  };

  {
    WorkQueue queue(scratch_dir("sc_failed"), 60.0);
    queue.seed(plan, 1, /*segment_cells=*/4);
    std::ostringstream csv;
    ResultCollector collector(queue, plan, csv);
    publish_ok(queue, 0, "w1");
    publish_failed(queue, 1);
    for (std::size_t i = 2; i < plan.size(); ++i) publish_ok(queue, i, "w1");
    EXPECT_EQ(collector.advance(), 1u);
    EXPECT_EQ(collector.advance(), 0u) << "the failed cell holds the stream";
    EXPECT_EQ(collector.finish(), 1u);
    std::ostringstream after;
    EXPECT_EQ(collect_csv(queue, plan, after), 1u);
    EXPECT_EQ(csv.str(), after.str());
  }
  {
    // Failed cells are resolved only in finish(): an ok record a late
    // duplicate run publishes before then still wins.
    WorkQueue queue(scratch_dir("sc_late_ok"), 60.0);
    queue.seed(plan, 1, /*segment_cells=*/4);
    std::ostringstream csv;
    ResultCollector collector(queue, plan, csv);
    publish_failed(queue, 0);
    for (std::size_t i = 1; i < plan.size(); ++i) publish_ok(queue, i, "w1");
    EXPECT_EQ(collector.advance(), 0u);
    publish_ok(queue, 0, "w2");
    EXPECT_EQ(collector.advance(), plan.size());
    EXPECT_EQ(collector.finish(), 0u);
    sweep::SweepOptions options;
    options.runner = synthetic_runner();
    EXPECT_EQ(csv.str(), reference_bytes(plan, options).csv);
  }
}

TEST(StreamingCollect, FinishOnAnIncompleteQueueThrows) {
  const auto plan = plan_of(6);
  WorkQueue queue(scratch_dir("sc_incomplete"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  for (std::size_t i = 0; i < 5; ++i) {
    sweep::TaskResult result;
    result.task = plan.cell(i);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result, "w1");
  }
  std::ostringstream csv;
  ResultCollector collector(queue, plan, csv);
  EXPECT_EQ(collector.advance(), 5u);
  try {
    collector.finish();
    ADD_FAILURE() << "finish() must require every cell";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("no result for cell " +
                                         std::to_string(plan.cell(5).index)),
              std::string::npos)
        << e.what();
  }
  std::ostringstream json;
  EXPECT_THROW(collect_json(queue, plan, json), PreconditionError);
}

// ---- publish checkpoint cadence -------------------------------------------

TEST(SegmentQueue, ClaimFinishLeavesTheCheckpointToItsCadence) {
  const auto plan = plan_of(128);  // 256 cells = 64 claims of 4
  const std::string dir = scratch_dir("sq_cadence");
  const auto checkpoint = fs::path(dir) / "workers" / "w1.pub";
  WorkQueue queue(dir, 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  for (std::size_t claims = 1; claims <= 64; ++claims) {
    auto claim = queue.try_claim_batch("w1", 4);
    ASSERT_TRUE(claim.has_value());
    ASSERT_EQ(claim->indices.size(), 4u);
    for (const std::size_t index : claim->indices) {
      sweep::TaskResult result;
      result.task = plan.cell_by_index(index);
      result.metrics = synthetic_runner().run_one(result.task);
      queue.publish(result, "w1");
    }
    queue.finish(*claim);
    if (claims == 1) {
      std::ifstream in(checkpoint);
      std::string first;
      std::getline(in, first);
      EXPECT_EQ(first, "records=0")
          << "finishing a claim must not rewrite the checkpoint";
    }
    // The checkpoint is advisory: the tail scan past it keeps the cheap
    // view exact.
    EXPECT_EQ(queue.counters().done, queue.done_count()) << claims;
  }
  EXPECT_EQ(queue.done_count(), plan.size());
  WorkQueue reader(dir, 60.0);
  EXPECT_EQ(reader.counters().done, plan.size());
  EXPECT_EQ(reader.done_count(), plan.size());
}

// ---- streaming collect memory ---------------------------------------------

// ASan's quarantine holds freed memory back, so under ASan the peak RSS
// measures the quarantine, not the collect. There the collect's peak live
// heap is read from the sanitizer's allocator instead.
#if defined(__SANITIZE_ADDRESS__)
#define BBRM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BBRM_TEST_ASAN 1
#endif
#endif

#ifdef BBRM_TEST_ASAN
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

/// Discards everything written to it: the collectors' output sink when
/// only their memory behavior is under test. Under ASan it also samples
/// the live heap at every write (the collect writes once per row).
struct NullBuffer : std::streambuf {
  std::size_t peak_heap_bytes = 0;

  int overflow(int c) override {
    sample();
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    sample();
    return n;
  }
  void sample() {
#ifdef BBRM_TEST_ASAN
    peak_heap_bytes = std::max(peak_heap_bytes,
                               __sanitizer_get_current_allocated_bytes());
#endif
  }
};

std::size_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(6)));
    }
  }
  return 0;
}

TEST(SegmentQueue, CollectPeakMemoryStaysFlatFrom1kTo100kCells) {
  // Publish straight into the result logs (no claims — collect only reads
  // results), then measure the peak-RSS delta the 100k-cell collect adds
  // over the 1k one. The collectors decode logs through a bounded window
  // and hold one row at a time, so the delta must stay far under the
  // ~10 MB the 100k result log itself occupies times any buffering
  // factor; a collector that accumulated decoded results would add
  // tens of MB here.
  const auto drain_into_null = [](const ExecutionPlan& plan,
                                  const std::string& dir) {
    WorkQueue queue(dir, 60.0);
    queue.seed(plan, 1, /*segment_cells=*/1024);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      sweep::TaskResult result;
      result.task = plan.cell(i);
      result.metrics = synthetic_runner().run_one(result.task);
      queue.publish(result, "bulk");
    }
    NullBuffer sink;
    std::ostream out(&sink);
    ASSERT_EQ(collect_csv(queue, plan, out), 0u);
  };

  const auto small = plan_of(500);  // 1k cells
  ASSERT_EQ(small.size(), 1000u);
  drain_into_null(small, scratch_dir("sq_rss_1k"));
  const std::size_t hwm_after_small = vm_hwm_kb();
  ASSERT_GT(hwm_after_small, 0u);

  const auto big = plan_of(50000);  // 100k cells
  ASSERT_EQ(big.size(), 100000u);
  {
    const std::string dir = scratch_dir("sq_rss_100k");
    WorkQueue queue(dir, 60.0);
    queue.seed(big, 1, /*segment_cells=*/1024);
    for (std::size_t i = 0; i < big.size(); ++i) {
      sweep::TaskResult result;
      result.task = big.cell(i);
      result.metrics = synthetic_runner().run_one(result.task);
      queue.publish(result, "bulk");
    }
    // Everything above (plan expansion, seed, publishes) is in the
    // baseline; only the collect below may raise the high-water mark.
    NullBuffer sink;
    std::ostream out(&sink);
#ifdef BBRM_TEST_ASAN
    const std::size_t heap_before_collect =
        __sanitizer_get_current_allocated_bytes();
    ASSERT_EQ(collect_csv(queue, big, out), 0u);
    const std::size_t delta_kb =
        (std::max(sink.peak_heap_bytes, heap_before_collect) -
         heap_before_collect) /
        1024u;
#else
    const std::size_t hwm_before_collect = vm_hwm_kb();
    ASSERT_EQ(collect_csv(queue, big, out), 0u);
    const std::size_t delta_kb = vm_hwm_kb() - hwm_before_collect;
#endif
    EXPECT_LT(delta_kb, 32u * 1024u)
        << "a 100k-cell collect must stream, not buffer, its results";
  }
}

// ---- fleet autoscaling ----------------------------------------------------

TEST(Autoscale, DesiredSizeStepsWithinTheBandOneSlotAtATime) {
  AutoscalePolicy policy;
  policy.min_workers = 1;
  policy.max_workers = 4;
  ScaleInputs inputs;

  // Below the floor always grows toward it, whatever the load says.
  inputs.pending = 0;
  EXPECT_EQ(desired_fleet_size(policy, inputs, 0), 1u);

  // No backlog drains toward the floor one step at a time.
  EXPECT_EQ(desired_fleet_size(policy, inputs, 4), 3u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 1), 1u);

  // A backlog with no measured rate yet grows (workers warming up must
  // not deadlock the fleet at its floor) — capped at max.
  inputs.pending = 100;
  inputs.cells_per_s = 0.0;
  EXPECT_EQ(desired_fleet_size(policy, inputs, 1), 2u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 4), 4u);

  // A drain time over the up-threshold grows by exactly one.
  inputs.pending = 1000;
  inputs.cells_per_s = 10.0;  // 100 s backlog > 20 s
  EXPECT_EQ(desired_fleet_size(policy, inputs, 2), 3u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 4), 4u);

  // Under the down-threshold shrinks by one, floored at min.
  inputs.pending = 10;  // 1 s backlog < 4 s
  EXPECT_EQ(desired_fleet_size(policy, inputs, 3), 2u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 1), 1u);

  // In the hysteresis band the fleet holds steady.
  inputs.pending = 100;  // 10 s backlog within [4, 20]
  EXPECT_EQ(desired_fleet_size(policy, inputs, 2), 2u);
}

TEST(Autoscale, GatherInputsSumsLiveRatesAndIgnoresDeadWorkers) {
  const auto plan = plan_of(6);
  WorkQueue queue(scratch_dir("sq_gather"), /*lease_s=*/60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);

  // One claimed segment: 4 active cells, 8 pending.
  const auto claim = queue.try_claim_batch("live-w", 4);
  ASSERT_TRUE(claim.has_value());

  WorkerStats live;
  live.worker_id = "live-w";
  live.completed = 4;
  live.cells_per_s = 2.5;  // lifetime average, dragged down by startup
  live.window_cells_per_s = 4.0;  // current throughput
  queue.write_worker_stats(live);
  WorkerStats dead;
  dead.worker_id = "dead-w";
  dead.completed = 1;
  dead.cells_per_s = 100.0;
  dead.window_cells_per_s = 100.0;
  queue.write_worker_stats(dead);
  // Age the dead worker's heartbeat past the lease.
  const auto stats_file =
      fs::path(queue.dir()) / "workers" / "dead-w.stats";
  fs::last_write_time(stats_file, fs::last_write_time(stats_file) -
                                      std::chrono::hours(1));

  const auto inputs = gather_scale_inputs(queue);
  EXPECT_EQ(inputs.active, 4u);
  EXPECT_EQ(inputs.pending, plan.size() - 4);
  EXPECT_DOUBLE_EQ(inputs.cells_per_s, 4.0)
      << "the sliding-window rate (not the lifetime average) sizes the "
         "fleet, and a dead worker's stale rate must not suppress a "
         "scale-up";
}

}  // namespace
}  // namespace bbrmodel::orchestrator
