#include "adaptive/refiner.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/csv.h"
#include "common/number.h"
#include "common/require.h"
#include "orchestrator/execution_plan.h"
#include "scenario/spec_codec.h"

namespace bbrmodel::adaptive {

namespace {

using sweep::Backend;
using sweep::ParameterGrid;
using sweep::RttRange;

/// Internal working cell: coordinates by axis position (categoricals) or
/// value (numerics), triage state, and the canonical identity that keys
/// and orders everything.
struct Cell {
  std::size_t backend_i = 0;
  std::size_t disc_i = 0;
  std::size_t mix_i = 0;
  std::size_t flows = 0;
  double buffer = 0.0;
  RttRange rtt;
  std::size_t depth = 0;
  double score = 0.0;
  scenario::ExperimentSpec spec;  ///< resolved; seed = base seed
  bool ok = false;
  metrics::AggregateMetrics metrics;
};

/// Deterministic map keyed by cell identity (backend + canonical spec
/// bytes): iteration order IS the plan order.
using CellMap = std::map<std::string, Cell>;

Cell make_cell(const ParameterGrid& grid,
               const scenario::ExperimentSpec& base, std::size_t backend_i,
               std::size_t disc_i, std::size_t mix_i, std::size_t flows,
               double buffer, const RttRange& rtt, std::size_t depth,
               double score) {
  Cell cell;
  cell.backend_i = backend_i;
  cell.disc_i = disc_i;
  cell.mix_i = mix_i;
  cell.flows = flows;
  cell.buffer = buffer;
  cell.rtt = rtt;
  cell.depth = depth;
  cell.score = score;
  cell.spec = base;
  cell.spec.mix = grid.mixes[mix_i].make(flows);
  cell.spec.discipline = grid.disciplines[disc_i];
  cell.spec.buffer_bdp = buffer;
  cell.spec.min_rtt_s = rtt.min_s;
  cell.spec.max_rtt_s = rtt.max_s;
  cell.spec.flow_rtts_s = sweep::rtt_samples(rtt, flows);
  return cell;
}

std::string cell_id(const ParameterGrid& grid, const Cell& cell) {
  return to_string(grid.backends[cell.backend_i]) + "\n" +
         scenario::canonical_spec_string(cell.spec);
}

/// Cells that differ only along `axis` share a neighborhood key; finite
/// differences are taken between adjacent members of one neighborhood.
std::string neighborhood_key(const Cell& cell, RefineAxis axis) {
  std::string key = std::to_string(cell.backend_i) + "|" +
                    std::to_string(cell.disc_i) + "|" +
                    std::to_string(cell.mix_i);
  if (axis != RefineAxis::kBuffer) key += "|b=" + exact_number(cell.buffer);
  if (axis != RefineAxis::kFlows) key += "|n=" + std::to_string(cell.flows);
  if (axis != RefineAxis::kRtt) {
    key += "|r=" + exact_number(cell.rtt.min_s) + ":" +
           exact_number(cell.rtt.max_s) + ":" + to_string(cell.rtt.dist);
  }
  return key;
}

/// Position of a cell along `axis` (RTT ranges sort by midpoint).
double axis_position(const Cell& cell, RefineAxis axis) {
  switch (axis) {
    case RefineAxis::kBuffer:
      return cell.buffer;
    case RefineAxis::kFlows:
      return static_cast<double>(cell.flows);
    case RefineAxis::kRtt:
      return 0.5 * (cell.rtt.min_s + cell.rtt.max_s);
  }
  return 0.0;
}

/// Normalized variation between two triaged cells: the max over the
/// policy's metric set of |Δmetric| / scale. Metrics that are NaN on
/// either side (failed triage, absent aux) are skipped.
double pair_variation(const Cell& a, const Cell& b,
                      const RefinementPolicy& policy) {
  double variation = 0.0;
  for (const RefineMetric metric : policy.metrics) {
    const double va = metric_value(metric, a.metrics);
    const double vb = metric_value(metric, b.metrics);
    if (!std::isfinite(va) || !std::isfinite(vb)) continue;
    variation = std::max(variation,
                         std::abs(vb - va) / metric_scale(metric, policy));
  }
  return variation;
}

double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// New cells splitting the interval (a, b) along `axis` into `factor`
/// parts; empty when the interval is already at the policy's floor.
std::vector<Cell> subdivide_pair(const ParameterGrid& grid,
                                 const scenario::ExperimentSpec& base,
                                 const Cell& a, const Cell& b,
                                 RefineAxis axis,
                                 const RefinementPolicy& policy,
                                 std::size_t depth, double score) {
  const std::size_t factor = policy.subdivision_for(axis);
  std::vector<Cell> cells;
  const auto emit = [&](std::size_t flows, double buffer,
                        const RttRange& rtt) {
    cells.push_back(make_cell(grid, base, a.backend_i, a.disc_i, a.mix_i,
                              flows, buffer, rtt, depth, score));
  };

  switch (axis) {
    case RefineAxis::kBuffer: {
      const double width = b.buffer - a.buffer;
      if (width / static_cast<double>(factor) < policy.min_buffer_step) break;
      for (std::size_t j = 1; j < factor; ++j) {
        const double t =
            static_cast<double>(j) / static_cast<double>(factor);
        emit(a.flows, lerp(a.buffer, b.buffer, t), a.rtt);
      }
      break;
    }
    case RefineAxis::kFlows: {
      if (b.flows - a.flows <= policy.min_flows_step) break;
      std::size_t last = a.flows;
      for (std::size_t j = 1; j < factor; ++j) {
        const double t =
            static_cast<double>(j) / static_cast<double>(factor);
        const auto flows = static_cast<std::size_t>(std::llround(
            lerp(static_cast<double>(a.flows),
                 static_cast<double>(b.flows), t)));
        if (flows <= last || flows >= b.flows) continue;  // integer floor
        emit(flows, a.buffer, a.rtt);
        last = flows;
      }
      break;
    }
    case RefineAxis::kRtt: {
      if (a.rtt.dist != b.rtt.dist) break;  // cannot interpolate shapes
      const double width = axis_position(b, axis) - axis_position(a, axis);
      if (width / static_cast<double>(factor) < policy.min_rtt_step_s) break;
      for (std::size_t j = 1; j < factor; ++j) {
        const double t =
            static_cast<double>(j) / static_cast<double>(factor);
        RttRange rtt;
        rtt.min_s = lerp(a.rtt.min_s, b.rtt.min_s, t);
        rtt.max_s = lerp(a.rtt.max_s, b.rtt.max_s, t);
        rtt.dist = a.rtt.dist;
        emit(a.flows, a.buffer, rtt);
      }
      break;
    }
  }
  return cells;
}

/// Score every neighborhood and collect the subdivision candidates of one
/// round, keyed by identity. Deterministic: cells iterate in key order and
/// every neighborhood sorts by axis position.
CellMap collect_candidates(const ParameterGrid& grid,
                           const scenario::ExperimentSpec& base,
                           const CellMap& cells,
                           const RefinementPolicy& policy,
                           std::size_t depth) {
  static const RefineAxis kAxes[] = {RefineAxis::kBuffer, RefineAxis::kFlows,
                                     RefineAxis::kRtt};
  CellMap candidates;
  for (const RefineAxis axis : kAxes) {
    std::map<std::string, std::vector<const Cell*>> neighborhoods;
    for (const auto& [id, cell] : cells) {
      neighborhoods[neighborhood_key(cell, axis)].push_back(&cell);
    }
    for (auto& [key, members] : neighborhoods) {
      std::sort(members.begin(), members.end(),
                [&](const Cell* x, const Cell* y) {
                  return axis_position(*x, axis) < axis_position(*y, axis);
                });
      for (std::size_t i = 1; i < members.size(); ++i) {
        const Cell& a = *members[i - 1];
        const Cell& b = *members[i];
        if (!a.ok || !b.ok) continue;
        const double variation = pair_variation(a, b, policy);
        if (variation < policy.threshold) continue;
        for (Cell& cell :
             subdivide_pair(grid, base, a, b, axis, policy, depth,
                            variation)) {
          std::string id = cell_id(grid, cell);
          if (cells.count(id) != 0) continue;  // already evaluated
          auto [it, inserted] = candidates.emplace(std::move(id),
                                                   std::move(cell));
          if (!inserted) {  // flagged via two axes: keep the larger score
            it->second.score = std::max(it->second.score, variation);
          }
        }
      }
    }
  }
  return candidates;
}

}  // namespace

std::vector<sweep::SweepTask> RefinementPlan::tasks(
    std::uint64_t base_seed) const {
  std::vector<sweep::SweepTask> out;
  out.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(sweep::make_task(i, cells[i].backend, cells[i].spec,
                                   base_seed, cells[i].mix_label));
  }
  return out;
}

std::vector<std::string> RefinementPlan::csv_header() {
  return {"cell",      "backend", "discipline", "mix",
          "flows",     "buffer_bdp", "min_rtt_s", "max_rtt_s",
          "rtt_dist",  "depth",   "score"};
}

void RefinementPlan::write_csv(std::ostream& out) const {
  CsvWriter csv(out, csv_header());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RefinedCell& c = cells[i];
    csv.number(static_cast<double>(i))
        .field(sweep::to_string(c.backend))
        .field(net::to_string(c.discipline))
        .field(c.mix_label)
        .number(static_cast<double>(c.flows))
        .number(c.buffer_bdp)
        .number(c.rtt.min_s)
        .number(c.rtt.max_s)
        .field(sweep::to_string(c.rtt.dist))
        .number(static_cast<double>(c.depth))
        .number(c.score)
        .end_row();
  }
}

GridRefiner::GridRefiner(sweep::ParameterGrid grid,
                         scenario::ExperimentSpec base,
                         RefinementPolicy policy)
    : grid_(std::move(grid)),
      base_(std::move(base)),
      policy_(std::move(policy)) {
  BBRM_REQUIRE_MSG(grid_.cardinality() > 0, "the coarse grid is empty");
  BBRM_REQUIRE_MSG(scenario::spec_cacheable(base_),
                   "adaptive refinement keys cells by canonical spec bytes; "
                   "specs with a custom bbr_init cannot be refined");
}

void GridRefiner::set_triage(sweep::Runner runner) {
  triage_ = std::move(runner);
}

void GridRefiner::set_triage_transform(
    std::function<void(scenario::ExperimentSpec&)> f) {
  triage_transform_ = std::move(f);
}

RefinementPlan GridRefiner::plan(const sweep::SweepOptions& exec) const {
  const RefinementPolicy policy = policy_.clamped(grid_.cardinality());
  const sweep::Runner triage = triage_ ? triage_ : sweep::reduced_runner();

  RefinementPlan plan;
  CellMap cells;
  std::size_t next_triage_index = 0;

  // Run one batch of not-yet-triaged cells (identity order) through the
  // engine, then fold the metrics back into the cell map.
  const auto evaluate = [&](const std::vector<std::string>& ids) {
    std::vector<sweep::SweepTask> tasks;
    tasks.reserve(ids.size());
    for (const std::string& id : ids) {
      scenario::ExperimentSpec spec = cells.at(id).spec;
      if (triage_transform_) triage_transform_(spec);
      tasks.push_back(sweep::make_task(
          next_triage_index++, grid_.backends[cells.at(id).backend_i],
          std::move(spec), exec.base_seed));
    }
    sweep::SweepOptions triage_exec;
    triage_exec.threads = exec.threads;
    triage_exec.base_seed = exec.base_seed;
    triage_exec.runner = triage;
    triage_exec.timeout_s = exec.timeout_s;
    triage_exec.max_attempts = exec.max_attempts;
    triage_exec.cache = exec.cache;
    triage_exec.progress = exec.progress;
    const auto result = sweep::run_tasks(tasks, triage_exec);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Cell& cell = cells.at(ids[i]);
      cell.metrics = result.row(i).metrics;
      cell.ok = result.row(i).ok;
      if (!cell.ok) ++plan.triage_failures;
    }
  };

  // Coarse pass: the full cartesian grid.
  {
    std::vector<std::string> ids;
    for (std::size_t be = 0; be < grid_.backends.size(); ++be) {
      for (std::size_t di = 0; di < grid_.disciplines.size(); ++di) {
        for (std::size_t bu = 0; bu < grid_.buffers_bdp.size(); ++bu) {
          for (std::size_t fl = 0; fl < grid_.flow_counts.size(); ++fl) {
            for (std::size_t rt = 0; rt < grid_.rtt_ranges.size(); ++rt) {
              for (std::size_t mi = 0; mi < grid_.mixes.size(); ++mi) {
                Cell cell = make_cell(grid_, base_, be, di, mi,
                                      grid_.flow_counts[fl],
                                      grid_.buffers_bdp[bu],
                                      grid_.rtt_ranges[rt], /*depth=*/0,
                                      /*score=*/0.0);
                std::string id = cell_id(grid_, cell);
                if (cells.emplace(id, std::move(cell)).second) {
                  ids.push_back(std::move(id));
                }
              }
            }
          }
        }
      }
    }
    // Identity order for triage seeding (map order, not insertion order).
    std::sort(ids.begin(), ids.end());
    plan.coarse_cells = ids.size();
    evaluate(ids);
  }

  // Refinement rounds: score → subdivide → triage the new cells.
  for (std::size_t round = 1; round <= policy.max_depth; ++round) {
    CellMap candidates =
        collect_candidates(grid_, base_, cells, policy, round);
    if (candidates.empty()) break;

    // Budget: accept highest-variation first (identity breaks ties), drop
    // the rest — deterministically.
    std::vector<const std::string*> order;
    order.reserve(candidates.size());
    for (const auto& [id, cell] : candidates) order.push_back(&id);
    std::sort(order.begin(), order.end(),
              [&](const std::string* x, const std::string* y) {
                const double sx = candidates.at(*x).score;
                const double sy = candidates.at(*y).score;
                if (sx != sy) return sx > sy;
                return *x < *y;
              });
    std::vector<std::string> accepted;
    for (const std::string* id : order) {
      if (cells.size() + accepted.size() < policy.max_cells) {
        accepted.push_back(*id);
      } else {
        ++plan.dropped_cells;
      }
    }
    if (accepted.empty()) break;  // budget exhausted
    for (const std::string& id : accepted) {
      cells.emplace(id, std::move(candidates.at(id)));
    }
    std::sort(accepted.begin(), accepted.end());
    evaluate(accepted);
    plan.rounds = round;
  }

  plan.cells.reserve(cells.size());
  for (const auto& [id, cell] : cells) {
    RefinedCell out;
    out.backend = grid_.backends[cell.backend_i];
    out.discipline = grid_.disciplines[cell.disc_i];
    out.mix_label = grid_.mixes[cell.mix_i].label;
    out.flows = cell.flows;
    out.buffer_bdp = cell.buffer;
    out.rtt = cell.rtt;
    out.depth = cell.depth;
    out.score = cell.score;
    out.spec = cell.spec;
    plan.cells.push_back(std::move(out));
  }
  return plan;
}

sweep::SweepResult run_plan_tasks(const RefinementPlan& plan,
                                  const sweep::SweepOptions& options) {
  // Materialize + execute through the orchestrator spine: the refined
  // cell set becomes an ExecutionPlan exactly like a dense grid does, so
  // adaptive sweeps inherit sharding, caching, and the queue path.
  return orchestrator::execute(
      orchestrator::ExecutionPlan::from_refinement(plan, options.base_seed),
      options);
}

sweep::SweepResult run_adaptive_sweep(const sweep::ParameterGrid& grid,
                                      const scenario::ExperimentSpec& base,
                                      const RefinementPolicy& policy,
                                      const sweep::SweepOptions& options) {
  GridRefiner refiner(grid, base, policy);
  if (options.triage) refiner.set_triage(options.triage);
  return run_plan_tasks(refiner.plan(options), options);
}

}  // namespace bbrmodel::adaptive
