#include "orchestrator/execution_plan.h"

#include <algorithm>
#include <atomic>
#include <deque>
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

/// The shortest framing a cell record can have (one-digit index, empty
/// backend and mix, empty delta): parse bounds the cell count by it.
constexpr std::string_view kMinimalRecord =
    "cell=0\nbackend=\nmix=\ndelta-bytes=0\n";

/// A line of a hostile document, cut short enough for an error message.
std::string excerpt(std::string_view line) {
  constexpr std::size_t kMax = 64;
  return line.size() <= kMax ? std::string(line)
                             : std::string(line.substr(0, kMax)) + "...";
}

sweep::Backend parse_backend_name(std::string_view name) {
  const auto backend = sweep::backend_from_name(std::string(name));
  BBRM_REQUIRE_MSG(backend.has_value(), "execution plan: unknown backend '" +
                                            excerpt(name) + "'");
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
  BBRM_REQUIRE_MSG(line == ExecutionPlan::kVersionLine,
                   "execution plan: expected version line '" +
                       std::string(ExecutionPlan::kVersionLine) + "', got '" +
                       excerpt(line.value_or("")) + "'");
  ExecutionPlan::Header header;
  header.runner = in.field("runner");
  header.cells = in.size_field("cells", "count");
  return header;
}

}  // namespace

/// The document a plan was parsed from and the framing parse() found in
/// it. A cell becomes a SweepTask only on its first access (decoded()), so
/// loading a plan costs one scan of its framing, not a task per cell. The
/// document is never moved once the views point into it.
struct ExecutionPlan::Undecoded {
  /// One cell record's framing; `mix` and `delta` view `document`.
  struct Record {
    std::size_t index = 0;
    sweep::Backend backend = sweep::Backend::kFluid;
    std::string_view mix;
    std::string_view delta;
  };
  std::string document;
  scenario::ExperimentSpec base;  ///< decoded at parse
  std::vector<Record> records;
  /// Per record: its decoded task, null until the first access.
  std::unique_ptr<std::atomic<const sweep::SweepTask*>[]> tasks;
  std::deque<sweep::SweepTask> decoded;  ///< stable storage behind `tasks`
  std::atomic<bool> all_ready{false};    ///< cells_ holds every cell
  std::mutex mutex;  ///< held while a cell decodes or cells_ fills
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

std::size_t ExecutionPlan::size() const {
  return undecoded_ != nullptr ? undecoded_->records.size() : cells_.size();
}

const sweep::SweepTask& ExecutionPlan::decoded(std::size_t position) const {
  if (undecoded_ == nullptr) return cells_[position];
  Undecoded& lazy = *undecoded_;
  if (const auto* task = lazy.tasks[position].load(std::memory_order_acquire)) {
    return *task;
  }
  std::lock_guard<std::mutex> lock(lazy.mutex);
  if (const auto* task = lazy.tasks[position].load(std::memory_order_relaxed)) {
    return *task;
  }
  const Undecoded::Record& record = lazy.records[position];
  sweep::SweepTask task;
  task.index = record.index;
  task.backend = record.backend;
  task.mix_label = record.mix;
  task.spec = lazy.base;
  try {
    scenario::apply_spec_delta(task.spec, record.delta);
  } catch (const PreconditionError& e) {
    throw PreconditionError("execution plan: malformed spec of cell " +
                            std::to_string(task.index) + ": " + e.what());
  }
  const sweep::SweepTask& stored = lazy.decoded.emplace_back(std::move(task));
  lazy.tasks[position].store(&stored, std::memory_order_release);
  return stored;
}

const std::vector<sweep::SweepTask>& ExecutionPlan::cells() const {
  if (undecoded_ != nullptr &&
      !undecoded_->all_ready.load(std::memory_order_acquire)) {
    // Cells handed out earlier stay where they are; the vector is a copy.
    std::vector<sweep::SweepTask> all;
    all.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) all.push_back(decoded(i));
    std::lock_guard<std::mutex> lock(undecoded_->mutex);
    if (!undecoded_->all_ready.load(std::memory_order_relaxed)) {
      cells_ = std::move(all);
      undecoded_->all_ready.store(true, std::memory_order_release);
    }
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
  BBRM_REQUIRE(position < size());
  return decoded(position);
}

const sweep::SweepTask& ExecutionPlan::cell_by_index(
    std::size_t task_index) const {
  const auto find = [task_index](const auto& cells) {
    const auto it = std::lower_bound(
        cells.begin(), cells.end(), task_index,
        [](const auto& cell, std::size_t i) { return cell.index < i; });
    BBRM_REQUIRE_MSG(it != cells.end() && it->index == task_index,
                     "execution plan has no cell with task index " +
                         std::to_string(task_index));
    return static_cast<std::size_t>(it - cells.begin());
  };
  return decoded(undecoded_ != nullptr ? find(undecoded_->records)
                                       : find(cells_));
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
  std::string out;
  append_serialized(out);
  return out;
}

void ExecutionPlan::append_serialized(std::string& out) const {
  const std::size_t n = size();
  out += kVersionLine;
  out += "\nrunner=";
  out += runner_name_;
  out += "\ncells=";
  append_u64(out, n);
  out += "\nbase-bytes=";
  const scenario::ExperimentSpec* base = n > 0 ? &cell(0).spec : nullptr;
  std::string spec;  // the base, then one delta buffer for every cell
  if (base != nullptr) scenario::append_canonical_spec(spec, *base);
  append_u64(out, spec.size());
  out += '\n';
  out += spec;  // canonical bytes end in '\n' themselves
  const std::size_t records_at = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    const sweep::SweepTask& task = cell(i);
    BBRM_REQUIRE_MSG(task.mix_label.find('\n') == std::string::npos,
                     "mix labels must be single-line");
    spec.clear();
    scenario::append_spec_delta(spec, *base, task.spec);
    out += "cell=";
    append_u64(out, task.index);
    out += "\nbackend=";
    out += sweep::to_string(task.backend);
    out += "\nmix=";
    out += task.mix_label;
    out += "\ndelta-bytes=";
    append_u64(out, spec.size());
    out += '\n';
    out += spec;
    if (i == 1) {
      // Plan records have near-equal sizes (the first one's delta is
      // empty): size the document once from the first two.
      out.reserve(out.size() + (n - 2) * (out.size() - records_at));
    }
  }
}

ExecutionPlan ExecutionPlan::parse(std::string bytes, std::size_t start) {
  auto lazy = std::make_unique<Undecoded>();
  lazy->document = std::move(bytes);
  BBRM_REQUIRE_MSG(start <= lazy->document.size(),
                   "execution plan: starts past the end of its document");
  PlanReader in(std::string_view(lazy->document).substr(start));
  Header header = read_header(in);
  // Every cell record takes at least kMinimalRecord's bytes, so a count
  // beyond that many records in the bytes left is a length lie: reject it
  // before reserving for it.
  BBRM_REQUIRE_MSG(header.cells <= in.rest().size() / kMinimalRecord.size(),
                   "execution plan: " + std::to_string(header.cells) +
                       " cells cannot fit in the " +
                       std::to_string(in.rest().size()) + " bytes left");
  const std::size_t base_bytes = in.size_field("base-bytes", "base size");
  const auto base = in.take(base_bytes);
  BBRM_REQUIRE_MSG(base.has_value(),
                   "execution plan: truncated base spec bytes");
  if (header.cells == 0) {
    BBRM_REQUIRE_MSG(base->empty(),
                     "execution plan: an empty plan has no base spec");
  } else {
    try {
      lazy->base = scenario::parse_canonical_spec(*base);
    } catch (const PreconditionError& e) {
      throw PreconditionError(
          std::string("execution plan: malformed base spec: ") + e.what());
    }
  }

  // Framing only: each record keeps views of its mix label and delta, and
  // becomes a task on first access (see decoded()).
  lazy->records.reserve(header.cells);
  for (std::size_t i = 0; i < header.cells; ++i) {
    Undecoded::Record& record = lazy->records.emplace_back();
    record.index = in.size_field("cell", "cell index");
    BBRM_REQUIRE_MSG(i == 0 || lazy->records[i - 1].index < record.index,
                     "execution plan cells must have strictly increasing "
                     "task indices");
    record.backend = parse_backend_name(in.field("backend"));
    record.mix = in.field("mix");
    const std::size_t delta_bytes = in.size_field("delta-bytes", "delta size");
    const auto delta = in.take(delta_bytes);
    BBRM_REQUIRE_MSG(delta.has_value(),
                     "execution plan: truncated delta bytes of cell " +
                         std::to_string(record.index));
    record.delta = *delta;
  }
  BBRM_REQUIRE_MSG(in.rest().empty(),
                   "execution plan: trailing bytes after the last cell");
  lazy->tasks = std::make_unique<std::atomic<const sweep::SweepTask*>[]>(
      header.cells);
  ExecutionPlan plan;
  plan.runner_name_ = std::move(header.runner);
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
