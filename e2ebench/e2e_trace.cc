// e2e_trace — the traced twin of one benchmark workload.
//
// Rebuilds a workload from the same public library calls `bbrsweep` makes
// and times each call from outside, so the benchmark can split wall clock
// into per-layer rows without spans inside the program:
//
//   local   ExecutionPlan::dense -> execute (= run_sweep) -> write_csv
//   fleet   ExecutionPlan::dense -> WorkQueue::seed -> W forked workers
//           each calling run_worker (bbrsweep's worker flag defaults) ->
//           coordinator poll of counters()/done_count() -> collect_csv
//
// The thread and worker counts and the plan's axis flags come from the
// command line, which e2ebench/run.py builds from the same workloads.json
// entry as the untraced bbrsweep command lines. Plan flags are the subset
// of bbrsweep's the workloads use; any other flag is an error.
//
// Every engine call goes through a wrapper of backend_runner() that keeps
// its name, batchability and preferred batch and records (thread, engine,
// cells, start, end) with steady_clock. Records stay in memory; each
// process writes them out once at the end. All times are CLOCK_MONOTONIC
// seconds, comparable across the forked workers and the Python harness.
//
//   e2e_trace local --threads 4 --seed 42 --dir RUN
//   e2e_trace fleet --workers 2 --threads 2 --seed 42 --dir RUN \
//             --backends reduced --mixes bbrv1,bbrv2 --buffers 0.01,...
//
// Writes RUN/out.csv (byte-compared by the harness) and RUN/spans.txt:
//   mark <name> <t>                   parent timeline (file counts sit
//                                     between *_counted marks and their
//                                     predecessors: tracing overhead)
//   count <name> <n>                  parent counts
//   worker <slot> <name> <t|n> ...    one line per worker process
//   call <proc> <thread> <engine> <cells> <start> <end>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "common/units.h"
#include "orchestrator/execution_plan.h"
#include "orchestrator/work_queue.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"

namespace {

using namespace bbrmodel;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Call {
  int thread = 0;
  const char* engine = "";
  std::size_t cells = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Every runner call of this process, appended under one mutex (calls
/// last microseconds to seconds; the lock is not what gets measured).
std::mutex g_calls_mutex;
std::vector<Call> g_calls;
std::atomic<int> g_next_thread{0};

int thread_number() {
  thread_local const int id = g_next_thread.fetch_add(1);
  return id;
}

const char* engine_of(sweep::Backend backend) {
  switch (backend) {
    case sweep::Backend::kFluid: return "fluid";
    case sweep::Backend::kPacket: return "packet";
    case sweep::Backend::kReduced: return "reduced";
  }
  return "other";
}

void record(const char* engine, std::size_t cells, double start) {
  const double end = now_s();
  const int thread = thread_number();
  std::lock_guard<std::mutex> lock(g_calls_mutex);
  g_calls.push_back({thread, engine, cells, start, end});
}

/// backend_runner() with every run_one/run_batch call timed.
sweep::Runner timed_backend_runner() {
  const sweep::Runner inner = sweep::backend_runner();
  sweep::Runner timed = inner;
  timed.run_one = [inner](const sweep::SweepTask& task) {
    const double start = now_s();
    auto metrics = inner.run_one(task);
    record(engine_of(task.backend), 1, start);
    return metrics;
  };
  if (inner.run_batch) {
    timed.run_batch = [inner](const std::vector<const sweep::SweepTask*>& b) {
      const double start = now_s();
      auto metrics = inner.run_batch(b);
      record(b.empty() ? "other" : engine_of(b.front()->backend), b.size(),
             start);
      return metrics;
    };
  }
  return timed;
}

void write_calls(std::ostream& out, int proc) {
  std::lock_guard<std::mutex> lock(g_calls_mutex);
  char line[160];
  for (const Call& c : g_calls) {
    std::snprintf(line, sizeof line, "call %d %d %s %zu %.9f %.9f\n", proc,
                  c.thread, c.engine, c.cells, c.start, c.end);
    out << line;
  }
}

std::string fmt_time(double t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9f", t);
  return buf;
}

std::size_t count_files(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

struct Args {
  bool fleet = false;
  std::size_t threads = 0;  // per process
  std::size_t workers = 0;  // fleet only
  std::uint64_t seed = 42;
  fs::path dir;
  sweep::ParameterGrid grid;  // the paper's Figs. 6-10 grid by default
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_trace: %s\nusage: e2e_trace local|fleet --threads N "
               "[--workers W] --seed S --dir DIR [--backends LIST] "
               "[--mixes LIST] [--buffers LIST]\n",
               why.c_str());
  std::exit(2);
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> tokens;
  std::stringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) tokens.push_back(token);
  return tokens;
}

std::size_t parse_count(const std::string& value) {
  const auto n = try_parse_u64(value);
  if (!n || *n == 0) usage("bad count: " + value);
  return static_cast<std::size_t>(*n);
}

/// Homogeneous mixes only: the benchmark's plans use no other kind.
sweep::MixSpec parse_mix(const std::string& name) {
  for (const auto kind :
       {scenario::CcaKind::kBbrv1, scenario::CcaKind::kBbrv2,
        scenario::CcaKind::kCubic, scenario::CcaKind::kReno}) {
    std::string label = scenario::to_string(kind);
    for (char& c : label) c = static_cast<char>(std::tolower(c));
    if (label == name) return sweep::homogeneous_mix(kind);
  }
  usage("unsupported mix: " + name);
}

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  if (mode != "local" && mode != "fleet") usage("unknown mode: " + mode);
  args.fleet = mode == "fleet";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--threads") {
      args.threads = parse_count(value);
    } else if (arg == "--workers") {
      args.workers = parse_count(value);
    } else if (arg == "--seed") {
      const auto seed = try_parse_u64(value);
      if (!seed) usage("bad seed: " + value);
      args.seed = *seed;
    } else if (arg == "--dir") {
      args.dir = value;
    } else if (arg == "--backends") {
      args.grid.backends.clear();
      for (const auto& token : split(value)) {
        const auto backend = sweep::backend_from_name(token);
        if (!backend) usage("bad backend: " + token);
        args.grid.backends.push_back(*backend);
      }
    } else if (arg == "--mixes") {
      args.grid.mixes.clear();
      for (const auto& token : split(value)) {
        args.grid.mixes.push_back(parse_mix(token));
      }
    } else if (arg == "--buffers") {
      args.grid.buffers_bdp.clear();
      for (const auto& token : split(value)) {
        const auto v = try_parse_double(token);
        if (!v) usage("bad buffer: " + token);
        args.grid.buffers_bdp.push_back(*v);
      }
    } else {
      usage("unsupported option: " + arg);
    }
  }
  if (args.dir.empty()) usage("--dir is required");
  if (args.threads == 0) usage("--threads is required");
  if (args.fleet != (args.workers > 0)) {
    usage("--workers is required in fleet mode and only there");
  }
  return args;
}

int run_local(const orchestrator::ExecutionPlan& plan, const Args& args,
              std::ostream& spans) {
  sweep::SweepOptions options;  // bbrsweep --threads N --seed S
  options.threads = args.threads;
  options.base_seed = args.seed;
  options.runner = timed_backend_runner();
  spans << "count threads " << args.threads << "\n";
  spans << "mark sweep_start " << fmt_time(now_s()) << "\n";
  const sweep::SweepResult result = orchestrator::execute(plan, options);
  spans << "mark sweep_end " << fmt_time(now_s()) << "\n";
  std::ofstream csv(args.dir / "out.csv", std::ios::binary);
  result.write_csv(csv);
  csv.close();
  spans << "mark output_end " << fmt_time(now_s()) << "\n";
  spans << "count failed_cells " << result.failed() << "\n";
  write_calls(spans, 0);
  return csv ? 0 : 1;
}

/// One forked worker: attach like `bbrsweep worker` does (adopt the
/// stored lease, load the plan from disk), drain, write its records.
[[noreturn]] void worker_child(const fs::path& queue_dir, std::size_t threads,
                               int slot, const fs::path& out_path) {
  int code = 0;
  try {
    const double attach = now_s();
    const std::string dir = queue_dir.string();
    orchestrator::WorkQueue queue(
        dir, orchestrator::WorkQueue::stored_lease_s(dir).value_or(60.0),
        orchestrator::WorkQueue::stored_skew_margin_s(dir).value_or(-1.0));
    const auto plan = queue.load_plan();
    const double loaded = now_s();

    sweep::SweepOptions run;  // worker flag defaults + --threads N
    run.threads = threads;
    run.runner = timed_backend_runner();
    // WorkerConfig's own defaults differ from the CLI's: take bbrsweep
    // worker's flag defaults (--poll 0.5, --batch 1, --batch-cells 1).
    orchestrator::WorkerConfig config;
    config.worker_id = orchestrator::sanitize_worker_id(
        "e2e-" + std::to_string(::getppid()) + "-local-" +
        std::to_string(slot));
    config.poll_s = 0.5;
    config.batch = 1;
    config.batch_cells = 1;
    config.stats = true;
    config.metrics = true;
    const double run_start = now_s();
    const auto report = orchestrator::run_worker(queue, plan, run, config);
    const double run_end = now_s();

    std::ofstream out(out_path);
    out << "worker " << slot << " attach " << fmt_time(attach) << " loaded "
        << fmt_time(loaded) << " run_start " << fmt_time(run_start)
        << " run_end " << fmt_time(run_end) << " completed "
        << report.completed << " failed " << report.failed << "\n";
    write_calls(out, slot + 1);
    out.close();
    if (!out) code = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_trace worker %d: %s\n", slot, e.what());
    code = 1;
  }
  std::fflush(nullptr);
  ::_exit(code);
}

int run_fleet(const orchestrator::ExecutionPlan& plan, const Args& args,
              std::ostream& spans) {
  const int workers = static_cast<int>(args.workers);
  const fs::path queue_dir = args.dir / "q";
  orchestrator::WorkQueue queue(queue_dir.string());  // coordinator defaults
  queue.seed(plan, /*batch=*/1, /*segment_cells=*/0);
  spans << "mark seeded " << fmt_time(now_s()) << "\n";
  spans << "count files_seeded " << count_files(queue_dir) << "\n";
  spans << "count threads " << args.workers * args.threads << "\n";
  spans << "mark seed_counted " << fmt_time(now_s()) << "\n";

  std::vector<pid_t> children;
  for (int slot = 0; slot < workers; ++slot) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      worker_child(queue_dir, args.threads, slot,
                   args.dir / ("worker" + std::to_string(slot) + ".txt"));
    }
    children.push_back(pid);
  }
  spans << "mark forked " << fmt_time(now_s()) << "\n";

  // The default (non-quiet) coordinator watch loop, minus the printing.
  while (true) {
    const auto counters = queue.counters();
    const auto stats = queue.read_worker_stats();
    (void)stats;
    if (counters.done >= plan.size() && queue.done_count() >= plan.size()) {
      break;
    }
    queue.recover_expired();
    std::this_thread::sleep_for(std::chrono::duration<double>(0.5));
  }
  spans << "mark done_seen " << fmt_time(now_s()) << "\n";
  spans << "count files_final " << count_files(queue_dir) << "\n";
  spans << "mark final_counted " << fmt_time(now_s()) << "\n";

  std::ofstream csv(args.dir / "out.csv", std::ios::binary);
  const std::size_t failed = orchestrator::collect_csv(queue, plan, csv);
  csv.close();
  spans << "mark output_end " << fmt_time(now_s()) << "\n";
  spans << "count failed_cells " << failed << "\n";

  int code = csv ? 0 : 1;
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      code = 1;
    }
  }
  spans << "mark reaped " << fmt_time(now_s()) << "\n";
  for (int slot = 0; slot < workers; ++slot) {
    std::ifstream in(args.dir / ("worker" + std::to_string(slot) + ".txt"));
    spans << in.rdbuf();
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) try {
  const double start = now_s();
  const Args args = parse(argc, argv);
  std::ostringstream spans;
  spans << "mark start " << fmt_time(start) << "\n";

  scenario::ExperimentSpec base;  // bbrsweep's base spec
  base.capacity_pps = mbps_to_pps(100.0);
  const auto plan = orchestrator::ExecutionPlan::dense(args.grid, base,
                                                       args.seed, "backend");
  spans << "mark plan_built " << fmt_time(now_s()) << "\n";
  spans << "count cells " << plan.size() << "\n";

  const int code =
      args.fleet ? run_fleet(plan, args, spans) : run_local(plan, args, spans);
  spans << "mark end " << fmt_time(now_s()) << "\n";
  std::ofstream out(args.dir / "spans.txt");
  out << spans.str();
  out.close();
  return out && code == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "e2e_trace: %s\n", e.what());
  return 1;
}
