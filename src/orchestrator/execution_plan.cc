#include "orchestrator/execution_plan.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>

#include "adaptive/refiner.h"
#include "common/csv.h"
#include "common/number.h"
#include "common/parse.h"
#include "common/require.h"
#include "scenario/spec_codec.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {

namespace {

constexpr std::string_view kVersionLine = "bbrm-plan=1";

sweep::Backend parse_backend_name(std::string_view name) {
  const auto backend = sweep::backend_from_name(std::string(name));
  BBRM_REQUIRE_MSG(backend.has_value(), "execution plan: unknown backend '" +
                                            std::string(name) + "'");
  return *backend;
}

/// Line-by-line reader over a plan document. Every field it hands out
/// views the document — nothing is copied until a value is decoded.
class PlanReader {
 public:
  explicit PlanReader(std::string_view bytes) : rest_(bytes) {}

  std::optional<std::string_view> line() { return next_line(rest_); }

  /// The value of a "key=value" line that must come next — plan parsing
  /// must reject shuffled or truncated documents, not misread them.
  std::string_view field(std::string_view key) {
    const auto text = line();
    BBRM_REQUIRE_MSG(text.has_value(), "execution plan: truncated before '" +
                                           std::string(key) + "'");
    BBRM_REQUIRE_MSG(text->size() > key.size() &&
                         text->substr(0, key.size()) == key &&
                         (*text)[key.size()] == '=',
                     "execution plan: expected '" + std::string(key) +
                         "=...', got '" + std::string(*text) + "'");
    return text->substr(key.size() + 1);
  }

  std::size_t size_field(std::string_view key, const char* what) {
    return static_cast<std::size_t>(
        parse_u64(field(key), std::string("execution plan ") + what));
  }

  /// The next `n` raw bytes, or nullopt when fewer remain.
  std::optional<std::string_view> take(std::size_t n) {
    if (n > rest_.size()) return std::nullopt;
    const std::string_view bytes = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return bytes;
  }

  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

/// The version line and the runner/cells header fields.
ExecutionPlan::Header read_header(PlanReader& in) {
  const auto line = in.line();
  BBRM_REQUIRE_MSG(line == kVersionLine,
                   "execution plan: expected version line '" +
                       std::string(kVersionLine) + "'");
  ExecutionPlan::Header header;
  header.runner = in.field("runner");
  header.cells = in.size_field("cells", "count");
  return header;
}

}  // namespace

/// The document a plan was parsed from, kept for the specs it has not
/// decoded yet. It is never moved once the views point into it.
struct ExecutionPlan::Undecoded {
  std::string document;
  std::vector<std::string_view> specs;  ///< per cell, into `document`
  std::unique_ptr<std::atomic<bool>[]> ready;  ///< per cell: spec decoded
  std::atomic<bool> all_ready{false};
  std::mutex mutex;  ///< held while a spec decodes
};

ExecutionPlan::ExecutionPlan() = default;
ExecutionPlan::~ExecutionPlan() = default;
ExecutionPlan::ExecutionPlan(ExecutionPlan&& other) noexcept = default;
ExecutionPlan& ExecutionPlan::operator=(ExecutionPlan&& other) noexcept =
    default;

ExecutionPlan::ExecutionPlan(const ExecutionPlan& other)
    : cells_(other.cells()), runner_name_(other.runner_name_) {}

ExecutionPlan& ExecutionPlan::operator=(const ExecutionPlan& other) {
  if (this != &other) *this = ExecutionPlan(other);
  return *this;
}

ExecutionPlan::ExecutionPlan(std::vector<sweep::SweepTask> cells,
                             std::string runner_name)
    : cells_(std::move(cells)), runner_name_(std::move(runner_name)) {
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    BBRM_REQUIRE_MSG(cells_[i - 1].index < cells_[i].index,
                     "execution plan cells must have strictly increasing "
                     "task indices");
  }
}

const sweep::SweepTask& ExecutionPlan::decoded(std::size_t position) const {
  sweep::SweepTask& task = cells_[position];
  if (undecoded_ == nullptr) return task;
  Undecoded& lazy = *undecoded_;
  if (lazy.ready[position].load(std::memory_order_acquire)) return task;
  std::lock_guard<std::mutex> lock(lazy.mutex);
  if (!lazy.ready[position].load(std::memory_order_relaxed)) {
    try {
      task.spec = scenario::parse_canonical_spec(lazy.specs[position]);
    } catch (const PreconditionError& e) {
      throw PreconditionError("execution plan: malformed spec of cell " +
                              std::to_string(task.index) + ": " + e.what());
    }
    lazy.ready[position].store(true, std::memory_order_release);
  }
  return task;
}

const std::vector<sweep::SweepTask>& ExecutionPlan::cells() const {
  if (undecoded_ != nullptr &&
      !undecoded_->all_ready.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < cells_.size(); ++i) decoded(i);
    undecoded_->all_ready.store(true, std::memory_order_release);
  }
  return cells_;
}

ExecutionPlan ExecutionPlan::dense(const sweep::ParameterGrid& grid,
                                   const scenario::ExperimentSpec& base,
                                   std::uint64_t base_seed,
                                   std::string runner_name) {
  return ExecutionPlan(grid.expand(base, base_seed), std::move(runner_name));
}

ExecutionPlan ExecutionPlan::adaptive(const adaptive::GridRefiner& refiner,
                                      const sweep::SweepOptions& exec,
                                      std::string runner_name) {
  return from_refinement(refiner.plan(exec), exec.base_seed,
                         std::move(runner_name));
}

ExecutionPlan ExecutionPlan::adaptive(const sweep::ParameterGrid& grid,
                                      const scenario::ExperimentSpec& base,
                                      const adaptive::RefinementPolicy& policy,
                                      const sweep::SweepOptions& exec,
                                      std::string runner_name) {
  adaptive::GridRefiner refiner(grid, base, policy);
  if (exec.triage) refiner.set_triage(exec.triage);
  return adaptive(refiner, exec, std::move(runner_name));
}

ExecutionPlan ExecutionPlan::from_refinement(
    const adaptive::RefinementPlan& plan, std::uint64_t base_seed,
    std::string runner_name) {
  return ExecutionPlan(plan.tasks(base_seed), std::move(runner_name));
}

ExecutionPlan ExecutionPlan::from_tasks(std::vector<sweep::SweepTask> tasks,
                                        std::string runner_name) {
  return ExecutionPlan(std::move(tasks), std::move(runner_name));
}

const sweep::SweepTask& ExecutionPlan::cell(std::size_t position) const {
  BBRM_REQUIRE(position < cells_.size());
  return decoded(position);
}

const sweep::SweepTask& ExecutionPlan::cell_by_index(
    std::size_t task_index) const {
  const auto it = std::lower_bound(
      cells_.begin(), cells_.end(), task_index,
      [](const sweep::SweepTask& t, std::size_t i) { return t.index < i; });
  BBRM_REQUIRE_MSG(it != cells_.end() && it->index == task_index,
                   "execution plan has no cell with task index " +
                       std::to_string(task_index));
  return decoded(static_cast<std::size_t>(it - cells_.begin()));
}

std::string ExecutionPlan::describe_cell(std::size_t task_index) const {
  const sweep::SweepTask& t = cell_by_index(task_index);
  std::string out = "backend=" + sweep::to_string(t.backend) +
                    " discipline=" + net::to_string(t.spec.discipline) +
                    " mix=" + t.mix_label +
                    " flows=" + std::to_string(t.spec.mix.flows.size()) +
                    " buffer_bdp=" + csv_number(t.spec.buffer_bdp) +
                    " rtt_s=" + csv_number(t.spec.min_rtt_s) + ":" +
                    csv_number(t.spec.max_rtt_s) +
                    " spec=" + scenario::canonical_spec_hash(t.spec);
  return out;
}

std::string ExecutionPlan::serialize() const {
  cells();  // decode whatever is still undecoded
  std::string out(kVersionLine);
  out += "\nrunner=";
  out += runner_name_;
  out += "\ncells=";
  append_u64(out, cells_.size());
  out += '\n';
  std::string spec;  // one buffer reused by every cell
  for (const auto& cell : cells_) {
    BBRM_REQUIRE_MSG(cell.mix_label.find('\n') == std::string::npos,
                     "mix labels must be single-line");
    spec.clear();
    scenario::append_canonical_spec(spec, cell.spec);
    if (&cell == &cells_.front()) {
      // Plan cells have near-equal sizes: size the document once.
      out.reserve(out.size() + cells_.size() * (spec.size() + 128));
    }
    out += "cell=";
    append_u64(out, cell.index);
    out += "\nbackend=";
    out += sweep::to_string(cell.backend);
    out += "\nmix=";
    out += cell.mix_label;
    out += "\nspec-bytes=";
    append_u64(out, spec.size());
    out += '\n';
    out += spec;  // canonical bytes end in '\n' themselves
  }
  return out;
}

ExecutionPlan ExecutionPlan::parse(std::string bytes) {
  auto lazy = std::make_unique<Undecoded>();
  lazy->document = std::move(bytes);
  PlanReader in(lazy->document);
  Header header = read_header(in);
  // Every cell takes more than one byte, so a count beyond the bytes left
  // is a length lie: reject it before reserving for it.
  BBRM_REQUIRE_MSG(header.cells <= in.rest().size(),
                   "execution plan: " + std::to_string(header.cells) +
                       " cells cannot fit in the " +
                       std::to_string(in.rest().size()) + " bytes left");

  // Framing only: each spec body is kept as a view and decoded on first
  // access (see decoded()).
  std::vector<sweep::SweepTask> cells;
  cells.reserve(header.cells);
  lazy->specs.reserve(header.cells);
  for (std::size_t i = 0; i < header.cells; ++i) {
    sweep::SweepTask& task = cells.emplace_back();
    task.index = in.size_field("cell", "cell index");
    task.backend = parse_backend_name(in.field("backend"));
    task.mix_label = in.field("mix");
    const std::size_t spec_bytes = in.size_field("spec-bytes", "spec size");
    const auto spec = in.take(spec_bytes);
    BBRM_REQUIRE_MSG(spec.has_value(),
                     "execution plan: truncated spec bytes of cell " +
                         std::to_string(task.index));
    lazy->specs.push_back(*spec);
  }
  const auto line = in.line();
  BBRM_REQUIRE_MSG(!line || line->empty(),
                   "execution plan: trailing bytes after the last cell");
  ExecutionPlan plan(std::move(cells), std::move(header.runner));
  lazy->ready = std::make_unique<std::atomic<bool>[]>(plan.size());
  plan.undecoded_ = std::move(lazy);
  return plan;
}

ExecutionPlan::Header ExecutionPlan::peek_header(std::string_view bytes) {
  PlanReader in(bytes);
  return read_header(in);
}

sweep::SweepResult execute(const ExecutionPlan& plan,
                           const sweep::SweepOptions& options) {
  sweep::SweepOptions exec = options;
  exec.refine = nullptr;  // the plan is final; never re-plan
  exec.shard = {};        // applied below, not inside run_tasks
  if (!exec.runner && !plan.runner_name().empty()) {
    exec.runner = sweep::runner_by_name(plan.runner_name());
  }
  if (options.shard.count == 1 && options.shard.index == 0) {
    // The common unsharded path runs the plan's cells in place — no copy
    // of every spec just to pass them through.
    return sweep::run_tasks(plan.cells(), exec);
  }
  return sweep::run_tasks(
      sweep::filter_shard(plan.cells(), options.shard), exec);
}

}  // namespace bbrmodel::orchestrator
