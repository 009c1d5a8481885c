// Tests of the orchestrator spine: the ExecutionPlan (single canonical
// cell set behind dense, adaptive, and ad-hoc sweeps; deterministic byte
// serialization) and the durable file-based WorkQueue (atomic-rename
// claims, leases with expiry and heartbeat, crash-safe re-enqueue,
// streaming collection byte-identical to the single-process run).
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "adaptive/policy.h"
#include "adaptive/refiner.h"
#include "common/hash.h"
#include "common/require.h"
#include "common/units.h"
#include "orchestrator/execution_plan.h"
#include "orchestrator/fleet.h"
#include "orchestrator/work_queue.h"
#include "scenario/spec_codec.h"
#include "sweep/merge.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// A fast, deterministic, pure-function-of-the-spec runner (named so it
/// could cache) standing in for an expensive simulation.
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

sweep::ParameterGrid small_grid() {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid, sweep::Backend::kPacket};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp = {1.0, 2.0, 3.0};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv1,
                                     scenario::CcaKind::kReno)};
  return grid;
}

scenario::ExperimentSpec small_base() {
  scenario::ExperimentSpec base;
  base.capacity_pps = mbps_to_pps(20.0);
  base.duration_s = 0.5;
  return base;
}

// ---- ExecutionPlan --------------------------------------------------------

TEST(ExecutionPlan, DenseMatchesGridExpansion) {
  const auto grid = small_grid();
  const auto plan = ExecutionPlan::dense(grid, small_base(), 7, "backend");
  const auto tasks = grid.expand(small_base(), 7);
  ASSERT_EQ(plan.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(plan.cell(i).index, tasks[i].index);
    EXPECT_EQ(plan.cell(i).backend, tasks[i].backend);
    EXPECT_EQ(plan.cell(i).spec.seed, tasks[i].spec.seed);
    EXPECT_EQ(plan.cell(i).mix_label, tasks[i].mix_label);
  }
  EXPECT_EQ(plan.runner_name(), "backend");
}

TEST(ExecutionPlan, ExecuteMatchesRunSweepByteForByte) {
  const auto grid = small_grid();
  sweep::SweepOptions options;
  options.runner = synthetic_runner();

  std::ostringstream via_plan, via_run_sweep;
  execute(ExecutionPlan::dense(grid, small_base(), options.base_seed),
          options)
      .write_csv(via_plan);
  sweep::run_sweep(grid, small_base(), options).write_csv(via_run_sweep);
  EXPECT_EQ(via_plan.str(), via_run_sweep.str());
}

TEST(ExecutionPlan, ShardedExecutionMergesByteIdentically) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();

  std::ostringstream full;
  execute(plan, options).write_csv(full);

  std::vector<std::string> shards;
  for (std::size_t k = 0; k < 3; ++k) {
    sweep::SweepOptions sharded = options;
    sharded.shard = {k, 3};
    std::ostringstream out;
    execute(plan, sharded).write_csv(out);
    shards.push_back(out.str());
  }
  EXPECT_EQ(sweep::merge_csv(shards), full.str());
}

TEST(ExecutionPlan, SerializeParsesBackByteIdentically) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42,
                                         "parking-lot");
  const std::string bytes = plan.serialize();
  const auto parsed = ExecutionPlan::parse(bytes);
  EXPECT_EQ(parsed.serialize(), bytes);
  EXPECT_EQ(parsed.runner_name(), "parking-lot");
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(parsed.cell(i).index, plan.cell(i).index);
    EXPECT_EQ(parsed.cell(i).backend, plan.cell(i).backend);
    EXPECT_EQ(parsed.cell(i).mix_label, plan.cell(i).mix_label);
    EXPECT_EQ(scenario::canonical_spec_string(parsed.cell(i).spec),
              scenario::canonical_spec_string(plan.cell(i).spec));
  }
}

TEST(ExecutionPlan, ParseRejectsMalformedDocuments) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string bytes = plan.serialize();
  EXPECT_THROW(ExecutionPlan::parse("not a plan"), PreconditionError);
  EXPECT_THROW(ExecutionPlan::parse(bytes.substr(0, bytes.size() / 2)),
               PreconditionError);
  EXPECT_THROW(ExecutionPlan::parse(bytes + "trailing junk\n"),
               PreconditionError);
  // Length lies are precondition failures, never a huge allocation.
  const auto lie = [&](const std::string& field, const std::string& value) {
    std::string damaged = bytes;
    const auto at = damaged.find("\n" + field + "=") + field.size() + 2;
    damaged.replace(at, damaged.find('\n', at) - at, value);
    return damaged;
  };
  EXPECT_THROW(ExecutionPlan::parse(lie("delta-bytes", "99999999999999")),
               PreconditionError);
  EXPECT_THROW(ExecutionPlan::parse(lie("base-bytes", "99999999999999")),
               PreconditionError);
  EXPECT_THROW(ExecutionPlan::parse(lie("cells", "999999999999999")),
               PreconditionError);
  // A count that fits the bytes left but not that many records is a lie
  // too: it is refused before anything is reserved for it.
  const std::size_t left = bytes.size() - bytes.find("\nbase-bytes=") - 1;
  try {
    ExecutionPlan::parse(lie("cells", std::to_string(left / 4)));
    ADD_FAILURE() << "a count of a quarter of the bytes left must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot fit"), std::string::npos)
        << e.what();
  }
  // Other format versions are refused by name.
  std::string v1 = bytes;
  v1.replace(0, ExecutionPlan::kVersionLine.size(), "bbrm-plan=1");
  try {
    ExecutionPlan::parse(v1);
    ADD_FAILURE() << "a bbrm-plan=1 document must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("bbrm-plan=1"), std::string::npos)
        << e.what();
  }
  // A damaged base spec is framing the whole plan depends on: parse
  // rejects it.
  std::string bad_base = bytes;
  bad_base.replace(bad_base.find("\nbuffer_bdp="), 12, "\nbuffer_bdq=");
  EXPECT_THROW(ExecutionPlan::parse(bad_base), PreconditionError);
}

TEST(ExecutionPlan, ParseDefersSpecDecodingToEachCellsFirstAccess) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  ASSERT_GE(plan.size(), 4u);
  const std::string bytes = plan.serialize();
  // Damage one cell's delta without moving a byte of framing: an unknown
  // field name of the same length (every cell's seed differs from the
  // base's, so each delta holds a seed line).
  const std::size_t bad = 2;
  std::string damaged = bytes;
  std::size_t at = 0;
  for (std::size_t i = 0; i <= bad; ++i) at = damaged.find("\ncell=", at + 1);
  at = damaged.find("\nseed=", at);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(at, damaged.find("\ncell=", at));
  damaged.replace(at, 6, "\nseex=");

  const auto parsed = ExecutionPlan::parse(damaged);  // framing is intact
  ASSERT_EQ(parsed.size(), plan.size());
  const std::size_t bad_index = plan.cell(bad).index;
  try {
    parsed.cell_by_index(bad_index);
    ADD_FAILURE() << "a malformed spec must throw at its first access";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("cell " +
                                         std::to_string(bad_index)),
              std::string::npos)
        << e.what();
  }
  // It keeps throwing, and every other cell still decodes.
  EXPECT_THROW(parsed.cell(bad), PreconditionError);
  EXPECT_THROW(parsed.cells(), PreconditionError);
  EXPECT_THROW(parsed.serialize(), PreconditionError);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i == bad) continue;
    EXPECT_EQ(scenario::canonical_spec_string(parsed.cell(i).spec),
              scenario::canonical_spec_string(plan.cell(i).spec));
    EXPECT_EQ(parsed.describe_cell(plan.cell(i).index),
              plan.describe_cell(plan.cell(i).index));
  }
}

TEST(ExecutionPlan, ConcurrentFirstAccessDecodesEachCellOnce) {
  // Claim loops race for the same cells of a parsed plan; the TSan job
  // runs this test.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string bytes = plan.serialize();
  for (int round = 0; round < 4; ++round) {
    const auto parsed = ExecutionPlan::parse(bytes);
    std::vector<std::string> seen[4];
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < parsed.size(); ++k) {
          // Threads walk the cells in different orders, so each cell is
          // first touched by whichever thread gets there first.
          const std::size_t i = t % 2 == 0 ? k : parsed.size() - 1 - k;
          const sweep::SweepTask& cell =
              parsed.cell_by_index(plan.cell(i).index);
          seen[t].push_back(scenario::canonical_spec_string(cell.spec));
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < 4; ++t) {
      ASSERT_EQ(seen[t].size(), plan.size());
      for (std::size_t k = 0; k < plan.size(); ++k) {
        const std::size_t i = t % 2 == 0 ? k : plan.size() - 1 - k;
        EXPECT_EQ(seen[t][k], scenario::canonical_spec_string(plan.cell(i).spec));
      }
    }
    EXPECT_EQ(parsed.serialize(), bytes);
  }
}

TEST(ExecutionPlan, SerializedBytesArePinned) {
  // Plan bytes feed the queue's resume byte-compare, and the specs they
  // decode to feed the cell cache keys (canonical spec bytes), so any
  // codec change that moves a byte must fail here. The plan constants are
  // the bbrm-plan=2 (base spec plus deltas) bytes; the spec constants are
  // the canonical bytes every bbrm-plan=1 document held verbatim, which
  // the decoded cells must still reproduce.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string bytes = plan.serialize();
  EXPECT_EQ(bytes.size(), 2281u);
  EXPECT_EQ(fnv1a64(bytes), 0x77efd2c3d8c931b2ULL);
  const auto parsed = ExecutionPlan::parse(bytes);
  std::string specs;
  for (const auto& cell : parsed.cells()) {
    specs += scenario::canonical_spec_string(cell.spec);
  }
  EXPECT_EQ(specs.size(), 11324u);
  EXPECT_EQ(fnv1a64(specs), 0xfb712a584d7c4a8aULL);
  EXPECT_EQ(parsed.serialize(), bytes);
}

TEST(ExecutionPlan, DecodedCellsKeepTheirCanonicalBytes) {
  // Dense, adaptive and per-flow-RTT plans: every parsed cell has the
  // canonical spec bytes (so the cache key and describe_cell) of the
  // cell that was serialized.
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kReduced};
  grid.disciplines = {net::Discipline::kDropTail, net::Discipline::kRed};
  grid.buffers_bdp = {0.25, 2.0, 4.0, 6.0};
  grid.flow_counts = {2, 4};
  grid.rtt_ranges = {{0.030, 0.040}, {0.010, 0.080}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::homogeneous_mix(scenario::CcaKind::kBbrv2)};
  adaptive::RefinementPolicy policy;
  policy.max_depth = 2;
  scenario::ExperimentSpec rtts = small_base();
  rtts.mix = scenario::homogeneous(scenario::CcaKind::kBbrv1, 3);
  std::vector<sweep::SweepTask> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    // Lengths and signs vary: -0.0 and 0.0 encode differently.
    rtts.flow_rtts_s.assign(i + 1, 0.02 * static_cast<double>(i + 1));
    if (i == 2) rtts.flow_rtts_s[0] = -0.0;
    if (i == 3) rtts.flow_rtts_s.clear();
    tasks.push_back(sweep::make_task(i, sweep::Backend::kFluid, rtts, 42));
  }
  const ExecutionPlan plans[] = {
      ExecutionPlan::dense(grid, small_base(), 42),
      ExecutionPlan::adaptive(grid, small_base(), policy, {}),
      ExecutionPlan::from_tasks(std::move(tasks), "backend"),
  };
  for (const auto& plan : plans) {
    ASSERT_GE(plan.size(), 4u);
    const auto parsed = ExecutionPlan::parse(plan.serialize());
    ASSERT_EQ(parsed.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(scenario::canonical_spec_string(parsed.cell(i).spec),
                scenario::canonical_spec_string(plan.cell(i).spec));
      EXPECT_EQ(parsed.describe_cell(plan.cell(i).index),
                plan.describe_cell(plan.cell(i).index));
    }
  }
}

TEST(ExecutionPlan, EmptyPlanRoundTrips) {
  const auto plan = ExecutionPlan::from_tasks({}, "backend");
  const auto parsed = ExecutionPlan::parse(plan.serialize());
  EXPECT_TRUE(parsed.empty());
  EXPECT_EQ(parsed.serialize(), plan.serialize());
}

TEST(ExecutionPlan, AdHocTasksRequireIncreasingIndices) {
  auto tasks = small_grid().expand(small_base(), 42);
  std::swap(tasks[0], tasks[1]);
  EXPECT_THROW(ExecutionPlan::from_tasks(std::move(tasks)),
               PreconditionError);
}

TEST(ExecutionPlan, UncacheableSpecsCannotSerialize) {
  scenario::ExperimentSpec spec = small_base();
  spec.mix = scenario::homogeneous(scenario::CcaKind::kBbrv2, 2);
  spec.bbr_init = [](std::size_t) { return core::BbrInit{}; };
  const auto plan = ExecutionPlan::from_tasks(
      {sweep::make_task(0, sweep::Backend::kFluid, spec, 42)});
  EXPECT_THROW(plan.serialize(), PreconditionError);
}

TEST(ExecutionPlan, AdaptiveSourceMatchesRunAdaptiveSweep) {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kReduced};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp = {0.25, 2.0, 4.0, 6.0};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1)};
  adaptive::RefinementPolicy policy;
  policy.max_depth = 2;

  sweep::SweepOptions options;
  std::ostringstream via_plan, via_adaptive;
  execute(ExecutionPlan::adaptive(grid, small_base(), policy, options),
          options)
      .write_csv(via_plan);
  adaptive::run_adaptive_sweep(grid, small_base(), policy, options)
      .write_csv(via_adaptive);
  EXPECT_EQ(via_plan.str(), via_adaptive.str());
  EXPECT_GT(via_plan.str().size(), 0u);
}

TEST(ExecutionPlan, DescribeCellNamesCoordinatesAndSpecKey) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string description = plan.describe_cell(1);
  EXPECT_NE(description.find("backend=fluid"), std::string::npos);
  EXPECT_NE(description.find("flows=4"), std::string::npos);
  EXPECT_NE(description.find(
                "spec=" + scenario::canonical_spec_hash(plan.cell(1).spec)),
            std::string::npos);
  EXPECT_THROW(plan.describe_cell(plan.size() + 10), PreconditionError);
}

// ---- merge diagnostics ----------------------------------------------------

TEST(MergeContext, MissingCellsAreNamedWithCoordinates) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.shard = {0, 2};
  std::ostringstream shard0;
  execute(plan, options).write_csv(shard0);

  sweep::MergeContext context;
  context.expected_cells = plan.size();
  context.describe = [&](std::size_t i) { return plan.describe_cell(i); };
  try {
    sweep::merge_csv({shard0.str()}, context);
    FAIL() << "an incomplete union must throw";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("missing 6 of 12 cell(s)"), std::string::npos)
        << message;
    EXPECT_NE(message.find("task 1 (backend="), std::string::npos)
        << message;
    EXPECT_NE(message.find("spec="), std::string::npos) << message;
  }
}

TEST(MergeContext, ExpectedCellsDetectsMissingTail) {
  // Without a plan, a merge can only check contiguity — a missing *tail*
  // shard is invisible. The expected count closes that hole.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  auto result = execute(plan, options);

  // Drop the last row by serializing a truncated task list.
  auto tasks = plan.cells();
  tasks.pop_back();
  std::ostringstream truncated;
  execute(ExecutionPlan::from_tasks(std::move(tasks)), options)
      .write_csv(truncated);

  EXPECT_NO_THROW(sweep::merge_csv({truncated.str()}))
      << "contiguous-but-short unions pass without an expected count";
  sweep::MergeContext context;
  context.expected_cells = plan.size();
  EXPECT_THROW(sweep::merge_csv({truncated.str()}, context),
               PreconditionError);
}

// ---- WorkQueue ------------------------------------------------------------

TEST(WorkQueue, SeedClaimCompleteLifecycle) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42,
                                         "synthetic");
  WorkQueue queue(scratch_dir("wq_lifecycle"), /*lease_s=*/60.0);
  EXPECT_FALSE(queue.has_plan());
  queue.seed(plan);
  EXPECT_TRUE(queue.has_plan());
  EXPECT_EQ(queue.load_plan().serialize(), plan.serialize());

  auto progress = queue.progress();
  EXPECT_EQ(progress.pending, plan.size());
  EXPECT_EQ(progress.active, 0u);
  EXPECT_EQ(progress.done, 0u);

  // Claims come lowest-index first, and a claimed cell cannot be claimed
  // again — the second worker gets the next one.
  const auto first = queue.try_claim("worker-a");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0u);
  const auto second = queue.try_claim("worker-b");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 1u);
  progress = queue.progress();
  EXPECT_EQ(progress.pending, plan.size() - 2);
  EXPECT_EQ(progress.active, 2u);

  // Renewal works while held.
  EXPECT_TRUE(queue.renew(*first, "worker-a"));
  EXPECT_FALSE(queue.renew(*first, "worker-b"))
      << "a worker cannot renew someone else's lease";

  // Complete publishes the result and releases the claim.
  sweep::TaskResult result;
  result.task = plan.cell_by_index(*first);
  result.metrics = synthetic_runner().run_one(result.task);
  queue.complete(result, "worker-a");
  progress = queue.progress();
  EXPECT_EQ(progress.active, 1u);
  EXPECT_EQ(progress.done, 1u);
  EXPECT_FALSE(queue.renew(*first, "worker-a"))
      << "a completed cell has no lease left";

  const auto loaded = queue.load_result(result.task);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ok);
  EXPECT_EQ(loaded->metrics.loss_pct, result.metrics.loss_pct);
  EXPECT_EQ(loaded->metrics.mean_rate_pps, result.metrics.mean_rate_pps);
  EXPECT_FALSE(queue.load_result(plan.cell_by_index(2)).has_value())
      << "unfinished cells have no result";
}

TEST(WorkQueue, EmptyQueueClaimsReturnNothing) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_empty"), 60.0);
  EXPECT_FALSE(queue.try_claim("worker-a").has_value())
      << "an unseeded queue has nothing to claim";
  queue.seed(plan);
  std::size_t claimed = 0;
  while (queue.try_claim("worker-a").has_value()) ++claimed;
  EXPECT_EQ(claimed, plan.size());
  EXPECT_FALSE(queue.try_claim("worker-a").has_value());
  EXPECT_EQ(queue.recover_expired(), 0u)
      << "fresh leases must not be recovered";
}

TEST(WorkQueue, FailedCellsRoundTripStatusAndError) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_failed"), 60.0);
  queue.seed(plan);

  sweep::TaskResult failed;
  failed.task = plan.cell(0);
  failed.ok = false;
  failed.error = "boom with detail";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  failed.metrics.jain = failed.metrics.loss_pct = nan;
  queue.complete(failed, "worker-a");

  const auto loaded = queue.load_result(plan.cell(0));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->ok);
  EXPECT_EQ(loaded->error, "boom with detail");
  EXPECT_TRUE(std::isnan(loaded->metrics.jain));
}

TEST(WorkQueue, SeedIsIdempotentAndRejectsDifferentPlans) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_reseed"), 60.0);
  queue.seed(plan);

  // Claim one cell and finish another, then re-seed: neither may be
  // re-enqueued, the rest must stay pending exactly once.
  const auto claimed = queue.try_claim("worker-a");
  ASSERT_TRUE(claimed.has_value());
  const auto finished = queue.try_claim("worker-b");
  ASSERT_TRUE(finished.has_value());
  sweep::TaskResult done;
  done.task = plan.cell_by_index(*finished);
  done.metrics = synthetic_runner().run_one(done.task);
  queue.complete(done, "worker-b");

  queue.seed(plan);
  const auto progress = queue.progress();
  EXPECT_EQ(progress.pending, plan.size() - 2);
  EXPECT_EQ(progress.active, 1u);
  EXPECT_EQ(progress.done, 1u);

  const auto other = ExecutionPlan::dense(small_grid(), small_base(), 43);
  EXPECT_THROW(queue.seed(other), PreconditionError)
      << "a different plan must never corrupt an existing queue";
}

TEST(WorkQueue, OlderPlanFormatIsRefusedByName) {
  // A queue directory seeded by a bbrm-plan=1 build cannot be resumed:
  // workers and re-seeding coordinators both refuse it, naming the
  // version and asking for a fresh directory.
  const std::string dir = scratch_dir("wq_plan_v1");
  fs::create_directories(dir);
  {
    std::ofstream out(fs::path(dir) / "plan.bbrplan", std::ios::binary);
    out << "bbrm-queue-layout=2\nbbrm-plan=1\nrunner=backend\ncells=0\n";
  }
  WorkQueue queue(dir, 60.0);
  ASSERT_TRUE(queue.has_plan());
  const auto expect_refusal = [](const auto& action) {
    try {
      action();
      ADD_FAILURE() << "a bbrm-plan=1 queue must be refused";
    } catch (const PreconditionError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("bbrm-plan=1"), std::string::npos) << message;
      EXPECT_NE(message.find("fresh"), std::string::npos) << message;
    }
  };
  expect_refusal([&] { queue.load_plan(); });
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  expect_refusal([&] { queue.seed(plan, 1, 4); });
}

TEST(WorkQueue, WaitForPlanSeesTheSeedWithinMilliseconds) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_plan_wait"), 60.0);
  // A zero limit checks once.
  EXPECT_FALSE(queue.wait_for_plan(0.0, 0.5));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.wait_for_plan(0.05, 0.5));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));

  std::chrono::steady_clock::time_point seeded;
  std::thread coordinator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    seeded = std::chrono::steady_clock::now();
    queue.seed(plan, 1, 4);
  });
  // The --poll ceiling (0.5 s) is not the latency: polls start at 10 ms.
  EXPECT_TRUE(queue.wait_for_plan(10.0, 0.5));
  const auto seen = std::chrono::steady_clock::now();
  coordinator.join();
  EXPECT_LT(seen - seeded, std::chrono::milliseconds(100));
}

TEST(Fleet, StartedBeforeItsCoordinatorSpawnsWorkersPromptly) {
  // The fleet's "worker" is a script that only marks its start, so the
  // test times plan-wait plus spawn alone. It exits without progress, and
  // with one strike allowed the fleet stands down by itself afterwards.
  const std::string dir = scratch_dir("fleet_early");
  const fs::path marker = fs::path(::testing::TempDir()) / "fleet_early.mark";
  const fs::path script = fs::path(::testing::TempDir()) / "fleet_early.sh";
  fs::remove(marker);
  {
    std::ofstream out(script);
    out << "#!/bin/sh\n: > '" << marker.string() << "'\n";
  }
  fs::permissions(script, fs::perms::owner_all);

  FleetOptions options;
  options.queue_dir = dir;
  options.workers = 1;
  options.self_path = script.string();
  options.poll_s = 0.5;
  options.plan_wait_s = 10.0;
  options.max_strikes = 1;
  options.quiet = true;
  FleetReport report;
  std::thread fleet([&] { report = run_fleet(options); });

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(fs::exists(marker)) << "spawned before any plan existed";
  const auto seeding = std::chrono::steady_clock::now();
  WorkQueue(dir, 60.0).seed(
      ExecutionPlan::dense(small_grid(), small_base(), 42), 1, 4);
  while (!fs::exists(marker) &&
         std::chrono::steady_clock::now() - seeding <
             std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto spawned = std::chrono::steady_clock::now();
  fleet.join();
  EXPECT_TRUE(fs::exists(marker));
  EXPECT_LT(spawned - seeding, std::chrono::milliseconds(100));
  EXPECT_GE(report.spawned, 1u);
  EXPECT_FALSE(report.completed);
}

TEST(WorkQueue, ExpiredLeaseIsReEnqueuedAndFreshOnesAreNot) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_expiry"), /*lease_s=*/0.05);
  queue.seed(plan);

  // Worker A claims a cell and dies silently (no heartbeat, no result).
  const auto lost = queue.try_claim("worker-a");
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(queue.recover_expired(), 0u) << "the lease is still fresh";

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(queue.recover_expired(), 1u);
  EXPECT_EQ(queue.progress().active, 0u);
  EXPECT_EQ(queue.progress().pending, plan.size());

  // The recovered cell is claimable again; worker A's late renewal fails.
  const auto reclaimed = queue.try_claim("worker-b");
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(*reclaimed, *lost);
  EXPECT_FALSE(queue.renew(*lost, "worker-a"));
}

TEST(WorkQueue, CrashAfterPublishDropsTheStaleClaimWithoutReEnqueue) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_after_publish"), 0.05);
  queue.seed(plan);

  const auto index = queue.try_claim("worker-a");
  ASSERT_TRUE(index.has_value());
  // Publish under a different id: worker-a's claim file survives, exactly
  // as if it crashed between publishing and releasing.
  sweep::TaskResult result;
  result.task = plan.cell_by_index(*index);
  result.metrics = synthetic_runner().run_one(result.task);
  queue.complete(result, "worker-b");
  EXPECT_EQ(queue.progress().active, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(queue.recover_expired(), 0u)
      << "a published cell must not go back to pending";
  const auto progress = queue.progress();
  EXPECT_EQ(progress.active, 0u) << "the stale claim is dropped";
  EXPECT_EQ(progress.done, 1u);
}

// ---- batched claims + lease robustness ------------------------------------

TEST(WorkQueueBatch, BatchedSeedClaimsWholeChunksAsOneUnit) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42,
                                         "synthetic");
  WorkQueue queue(scratch_dir("wq_batch_seed"), 60.0);
  queue.seed(plan, /*batch=*/4);

  // 12 cells chunk into 3 pending batch files, but progress counts cells.
  EXPECT_EQ(queue.progress().pending, plan.size());
  std::size_t entries = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "pending")) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 3u);

  // One claim takes the whole lowest chunk; the single-cell API refuses
  // (and releases) rather than silently stranding members.
  const auto claim = queue.try_claim_batch("worker-a", 4);
  ASSERT_TRUE(claim.has_value());
  EXPECT_TRUE(claim->batch);
  EXPECT_EQ(claim->indices, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(queue.progress().active, 4u);
  EXPECT_TRUE(queue.renew(*claim));

  for (const std::size_t index : claim->indices) {
    sweep::TaskResult result;
    result.task = plan.cell_by_index(index);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result);
  }
  queue.finish(*claim);
  auto progress = queue.progress();
  EXPECT_EQ(progress.done, 4u);
  EXPECT_EQ(progress.active, 0u);
  EXPECT_FALSE(queue.renew(*claim)) << "a finished batch has no lease";

  EXPECT_THROW(queue.try_claim("worker-a"), PreconditionError);
  EXPECT_EQ(queue.progress().active, 0u)
      << "the refused batch claim must be released, not stranded";
}

TEST(WorkQueueBatch, CoalescedSinglesClaimAsOneUnitAndTrimReturnsTheTail) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_batch_coalesce"), 60.0);
  queue.seed(plan);  // singles

  auto claim = queue.try_claim_batch("worker-a", 3);
  ASSERT_TRUE(claim.has_value());
  EXPECT_TRUE(claim->batch);
  EXPECT_EQ(claim->indices, (std::vector<std::size_t>{0, 1, 2}));
  // The three cells fold into exactly one leased claim file.
  std::size_t active_entries = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "active")) {
    (void)entry;
    ++active_entries;
  }
  EXPECT_EQ(active_entries, 1u);
  EXPECT_EQ(queue.progress().active, 3u);

  // Trimming hands the tail back as claimable singles.
  queue.trim(*claim, 2);
  EXPECT_EQ(claim->indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(queue.progress().active, 2u);
  EXPECT_EQ(queue.progress().pending, plan.size() - 2);

  // Releasing the claim re-enqueues only the unpublished member.
  sweep::TaskResult result;
  result.task = plan.cell_by_index(0);
  result.metrics = synthetic_runner().run_one(result.task);
  queue.publish(result);
  queue.release(*claim);
  const auto progress = queue.progress();
  EXPECT_EQ(progress.done, 1u);
  EXPECT_EQ(progress.active, 0u);
  EXPECT_EQ(progress.pending, plan.size() - 1);
}

TEST(WorkQueueBatch, ExpiredBatchReEnqueuesOnlyUnfinishedMembers) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_batch_expiry"), /*lease_s=*/0.05,
                  /*skew_margin_s=*/0.0);
  queue.seed(plan);

  const auto claim = queue.try_claim_batch("worker-a", 4);
  ASSERT_TRUE(claim.has_value());
  ASSERT_EQ(claim->indices.size(), 4u);
  for (const std::size_t index : {claim->indices[0], claim->indices[1]}) {
    sweep::TaskResult result;
    result.task = plan.cell_by_index(index);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(queue.recover_expired(), 2u)
      << "published members stay done; only the unfinished re-enqueue";
  const auto progress = queue.progress();
  EXPECT_EQ(progress.done, 2u);
  EXPECT_EQ(progress.active, 0u);
  EXPECT_EQ(progress.pending, plan.size() - 2);
  EXPECT_FALSE(queue.renew(*claim));
}

TEST(WorkQueue, SkewMarginDelaysLeaseExpiry) {
  // The same active files, two recovery policies: a margin of lease/4
  // would have been blown by the sleep, so the wide margin must hold the
  // lease while the zero margin recovers it.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string dir = scratch_dir("wq_skew");
  WorkQueue with_margin(dir, /*lease_s=*/0.05, /*skew_margin_s=*/10.0);
  WorkQueue no_margin(dir, /*lease_s=*/0.05, /*skew_margin_s=*/0.0);
  EXPECT_EQ(with_margin.skew_margin_s(), 10.0);
  EXPECT_EQ(no_margin.skew_margin_s(), 0.0);

  with_margin.seed(plan);
  ASSERT_TRUE(with_margin.try_claim("worker-a").has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(with_margin.recover_expired(), 0u)
      << "a lease inside the skew margin must not be stolen";
  EXPECT_EQ(no_margin.recover_expired(), 1u);

  // The default margin derives from the lease.
  WorkQueue defaulted(scratch_dir("wq_skew_default"), 60.0);
  EXPECT_EQ(defaulted.skew_margin_s(), 15.0);
}

TEST(WorkQueue, FailedResultsAreReEnqueuedOnReseed) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_retry_failed"), 60.0);
  queue.seed(plan);

  // Cell 0 fails (a timeout, say); cell 1 succeeds.
  const auto failed_cell = queue.try_claim("worker-a");
  ASSERT_TRUE(failed_cell.has_value());
  sweep::TaskResult failed;
  failed.task = plan.cell_by_index(*failed_cell);
  failed.ok = false;
  failed.error = "timeout after 1 s";
  queue.complete(failed, "worker-a");
  const auto ok_cell = queue.try_claim("worker-a");
  ASSERT_TRUE(ok_cell.has_value());
  sweep::TaskResult ok;
  ok.task = plan.cell_by_index(*ok_cell);
  ok.metrics = synthetic_runner().run_one(ok.task);
  queue.complete(ok, "worker-a");
  EXPECT_EQ(queue.progress().done, 2u);

  // Re-seeding (a coordinator restart) must re-attempt the transient
  // failure instead of serving the memoized NaN row forever — and must
  // not touch the finished cell.
  queue.seed(plan);
  const auto progress = queue.progress();
  EXPECT_EQ(progress.done, 1u);
  EXPECT_EQ(progress.pending, plan.size() - 1);
  EXPECT_FALSE(queue.result_ok(*failed_cell).has_value())
      << "the failed result file must be dropped";
  EXPECT_EQ(queue.result_ok(*ok_cell), std::optional<bool>(true));
}

TEST(WorkQueue, PeerClaimedBacklogEntriesAreSkippedIndividually) {
  // Two queue handles on one directory model two worker processes with
  // independently cached claim backlogs. A peer's claim leaves a stale
  // entry in ours; the failed rename must drop just that entry — and a
  // release must come back as a claimable candidate without a relist.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string dir = scratch_dir("wq_stale_backlog");
  WorkQueue ours(dir, 60.0);
  WorkQueue peer(dir, 60.0);
  ours.seed(plan);

  EXPECT_EQ(ours.try_claim("worker-a"), std::optional<std::size_t>(0));
  EXPECT_EQ(peer.try_claim("worker-b"), std::optional<std::size_t>(1));
  // Our backlog still lists cell 1; the stale entry is skipped and the
  // next-lowest cell claimed.
  EXPECT_EQ(ours.try_claim("worker-a"), std::optional<std::size_t>(2));

  // The peer's release surfaces the cell to its own backlog in sorted
  // position: the very next claim takes it, lowest-index first.
  peer.release(1, "worker-b");
  EXPECT_EQ(peer.try_claim("worker-b"), std::optional<std::size_t>(1));
}

TEST(WorkQueue, WorkerStatsRoundTripThroughTheQueueDir) {
  WorkQueue queue(scratch_dir("wq_stats"), 60.0);
  WorkerStats stats;
  stats.worker_id = "w-1";
  stats.completed = 7;
  stats.failed = 2;
  stats.in_flight = 3;
  stats.elapsed_s = 2.0;
  stats.cells_per_s = 3.5;
  queue.write_worker_stats(stats);
  WorkerStats other = stats;
  other.worker_id = "w-2";
  other.completed = 11;
  queue.write_worker_stats(other);

  const auto all = queue.read_worker_stats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].worker_id, "w-1");
  EXPECT_EQ(all[0].completed, 7u);
  EXPECT_EQ(all[0].failed, 2u);
  EXPECT_EQ(all[0].in_flight, 3u);
  EXPECT_EQ(all[0].cells_per_s, 3.5);
  EXPECT_GE(all[0].heartbeat_age_s, 0.0);
  EXPECT_LT(all[0].heartbeat_age_s, 30.0);
  EXPECT_EQ(all[1].worker_id, "w-2");
  EXPECT_EQ(all[1].completed, 11u);
}

// ---- run_worker + streaming collection ------------------------------------

/// The reference bytes every queue-driven run must reproduce.
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

/// Single-cell worker shorthand: claim one cell at a time, fast polls.
WorkerConfig worker_config(const std::string& id, std::size_t max_cells = 0,
                           double poll_s = 0.01) {
  WorkerConfig config;
  config.worker_id = id;
  config.max_cells = max_cells;
  config.poll_s = poll_s;
  return config;
}

TEST(RunWorker, DrainsTheQueueAndCollectsByteIdentically) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  WorkQueue queue(scratch_dir("wq_drain"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  const auto report =
      run_worker(queue, plan, worker_options, worker_config("worker-a"));
  EXPECT_EQ(report.completed, plan.size());
  EXPECT_EQ(report.failed, 0u);

  std::ostringstream csv, json;
  EXPECT_EQ(collect_csv(queue, plan, csv), 0u);
  EXPECT_EQ(collect_json(queue, plan, json), 0u);
  EXPECT_EQ(csv.str(), reference.csv)
      << "queue-driven CSV must be byte-identical to the in-process run";
  EXPECT_EQ(json.str(), reference.json);
}

TEST(RunWorker, DeadWorkerMidCellIsRecoveredAndOutputStaysByteIdentical) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  // A generous lease (no timing games): the dead worker's claim is
  // expired deterministically by backdating its heartbeat mtime below.
  WorkQueue queue(scratch_dir("wq_dead_worker"), /*lease_s=*/60.0);
  queue.seed(plan);

  // Worker A claims a cell and dies mid-simulation: no heartbeat, no
  // result, its claim file left behind. Backdate the claim file far past
  // the lease so recovery triggers on the next scan — a short lease plus
  // a real sleep here was flaky, because under load worker B's own
  // heartbeats could also fall behind a 50 ms lease.
  const auto abandoned = queue.try_claim("worker-a");
  ASSERT_TRUE(abandoned.has_value());
  std::size_t backdated = 0;
  for (const auto& entry : fs::directory_iterator(fs::path(queue.dir()) / "active")) {
    if (entry.path().filename().string().find(".worker-a.") ==
        std::string::npos) {
      continue;
    }
    fs::last_write_time(entry.path(),
                        fs::last_write_time(entry.path()) -
                            std::chrono::duration_cast<
                                fs::file_time_type::duration>(
                                std::chrono::seconds(600)));
    ++backdated;
  }
  ASSERT_EQ(backdated, 1u);

  // A surviving worker drains the whole plan, re-enqueueing the expired
  // cell along the way.
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  const auto report =
      run_worker(queue, plan, worker_options, worker_config("worker-b"));
  EXPECT_EQ(report.completed, plan.size());

  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "a crash + re-enqueue must not change a byte";
  EXPECT_EQ(json.str(), reference.json);
}

TEST(RunWorker, ConcurrentWorkersSplitTheCellsExactlyOnce) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);
  calls.store(0);

  WorkQueue queue(scratch_dir("wq_concurrent"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  for (const char* id : {"worker-a", "worker-b", "worker-c"}) {
    workers.emplace_back([&, id] {
      total.fetch_add(
          run_worker(queue, plan, worker_options, worker_config(id)).completed);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(total.load(), plan.size());
  EXPECT_EQ(calls.load(), plan.size())
      << "every cell simulates exactly once across all workers";
  std::ostringstream csv;
  collect_csv(queue, plan, csv);
  EXPECT_EQ(csv.str(), reference.csv);
}

TEST(RunWorker, MaxCellsStopsEarly) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_maxcells"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 1;
  const auto report =
      run_worker(queue, plan, options, worker_config("worker-a", /*max_cells=*/3));
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(queue.progress().done, 3u);
}

TEST(RunWorker, MaxCellsIsExactUnderConcurrentClaimLoops) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_maxcells_mt"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 4;  // the cap is a shared budget, not per-loop
  const auto report =
      run_worker(queue, plan, options, worker_config("worker-a", /*max_cells=*/3));
  EXPECT_EQ(report.completed, 3u)
      << "concurrent claim loops must not overshoot --max-cells";
  EXPECT_EQ(queue.progress().done, 3u);
}

TEST(RunWorker, ClaimLoopErrorsSurfaceInsteadOfTerminating) {
  // A queue seeded with cells the plan does not know (a reused dir, a
  // stray file) must fail with the loud lookup error on the caller's
  // thread, not std::terminate inside a worker thread.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_bad_cell"), 60.0);
  queue.seed(plan);

  std::ofstream(fs::path(queue.dir()) / "pending" / "0000000999.cell")
      << "queued\n";

  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 2;
  EXPECT_THROW(run_worker(queue, plan, options, worker_config("worker-a")),
               PreconditionError)
      << "claiming a cell the plan cannot resolve must propagate";
}

TEST(Collect, IncompleteQueueThrowsNamingTheMissingCell) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_incomplete"), 60.0);
  queue.seed(plan);
  std::ostringstream out;
  EXPECT_THROW(collect_csv(queue, plan, out), PreconditionError);
}

// ---- batched run_worker ----------------------------------------------------

/// A 50-cell plan: enough cells that three batch-4 workers interleave
/// chunk claims, trims, and the final ragged chunk.
ExecutionPlan fifty_cell_plan() {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp.clear();
  for (int i = 0; i < 25; ++i) {
    grid.buffers_bdp.push_back(0.5 * (i + 1));
  }
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv1,
                                     scenario::CcaKind::kReno)};
  return ExecutionPlan::dense(grid, small_base(), 42);
}

TEST(RunWorker, ThreeBatchedWorkersDrainFiftyCellsExactlyOnce) {
  const auto plan = fifty_cell_plan();
  ASSERT_EQ(plan.size(), 50u);
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);
  calls.store(0);

  WorkQueue queue(scratch_dir("wq_batched_trio"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  for (const char* id : {"worker-a", "worker-b", "worker-c"}) {
    workers.emplace_back([&, id] {
      WorkerConfig config;
      config.worker_id = id;
      config.batch = 4;
      config.poll_s = 0.01;
      config.stats = true;
      total.fetch_add(
          run_worker(queue, plan, worker_options, config).completed);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(total.load(), plan.size());
  EXPECT_EQ(calls.load(), plan.size())
      << "every cell simulates exactly once across the batched workers";
  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "batched claims must not change a byte of the merged output";
  EXPECT_EQ(json.str(), reference.json);

  // Every worker left a stats file the status view can aggregate.
  const auto stats = queue.read_worker_stats();
  ASSERT_EQ(stats.size(), 3u);
  std::size_t stats_total = 0;
  for (const auto& s : stats) stats_total += s.completed;
  EXPECT_EQ(stats_total, plan.size());
}

TEST(RunWorker, BatchedMaxCellsStaysExact) {
  const auto plan = fifty_cell_plan();
  WorkQueue queue(scratch_dir("wq_batched_budget"), 60.0);
  queue.seed(plan, /*batch=*/8);  // pre-chunked coarser than the budget
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 4;
  WorkerConfig config;
  config.worker_id = "worker-a";
  config.batch = 4;
  config.max_cells = 6;  // not a multiple of either batch size
  config.poll_s = 0.01;
  const auto report = run_worker(queue, plan, options, config);
  EXPECT_EQ(report.completed, 6u)
      << "oversized batch claims must be trimmed back to the budget";
  EXPECT_EQ(queue.progress().done, 6u);
  EXPECT_EQ(queue.progress().active, 0u);
}

TEST(RunWorker, SigkilledWorkerMidBatchOnlyReEnqueuesUnfinishedCells) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);

  const std::string dir = scratch_dir("wq_sigkill_batch");
  WorkQueue queue(dir, /*lease_s=*/0.1, /*skew_margin_s=*/0.05);
  queue.seed(plan);

  // A real SIGKILL mid-batch: the child drains slowly with batch-4
  // claims and is killed after publishing at least one cell, so its batch
  // is part published, part abandoned.
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
      WorkerConfig config;
      config.worker_id = "victim";
      config.batch = 4;
      config.poll_s = 0.01;
      run_worker(queue, plan, slow, config);
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

  // After the lease (+ margin) runs out, recovery re-enqueues exactly the
  // unpublished cells — the published ones stay done.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  queue.recover_expired();
  auto progress = queue.progress();
  EXPECT_EQ(progress.done, done_at_kill)
      << "published cells must never be re-enqueued";
  EXPECT_EQ(progress.active, 0u);
  EXPECT_EQ(progress.pending, plan.size() - done_at_kill);

  // A surviving batched worker finishes the plan; the merged output is
  // byte-identical to the single-process run.
  WorkerConfig survivor;
  survivor.worker_id = "survivor";
  survivor.batch = 4;
  survivor.poll_s = 0.01;
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  run_worker(queue, plan, worker_options, survivor);
  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "a SIGKILL mid-batch must not change a byte";
  EXPECT_EQ(json.str(), reference.json);
}

}  // namespace
}  // namespace bbrmodel::orchestrator
