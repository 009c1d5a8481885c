#include "orchestrator/work_queue.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/atomic_io.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/number.h"
#include "common/parse.h"
#include "common/require.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sweep/cell_cache.h"
#include "sweep/thread_pool.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {

namespace fs = std::filesystem;

namespace {

/// Cell file names are zero-padded so lexicographic directory order is
/// numeric order — claims go lowest-index first without parsing.
std::string index_name(std::size_t index) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%010zu", index);
  return buffer;
}

/// The numeric prefix of a queue file name ("0000000042.worker.cell").
std::optional<std::size_t> parse_index_name(const std::string& name) {
  const auto dot = name.find('.');
  if (dot == std::string::npos || dot == 0) return std::nullopt;
  const auto v = try_parse_u64(name.substr(0, dot));
  if (!v) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

bool has_extension(const std::string& name, const char* ext) {
  const std::string suffix = ext;
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

void require_worker_id(const std::string& worker_id) {
  BBRM_REQUIRE_MSG(!worker_id.empty(), "worker id must be non-empty");
  for (char c : worker_id) {
    BBRM_REQUIRE_MSG(
        std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-',
        "worker ids must match [A-Za-z0-9_-] (they become file names): '" +
            worker_id + "'");
  }
}

/// Update a file's mtime by rewriting its first byte in place. Unlike
/// setting an explicit timestamp, the write is stamped by the filesystem's
/// own clock — on a network mount that is the one clock every participant
/// shares, which is what makes lease expiry immune to cross-host skew.
/// kMissing (the file is gone — the claim was lost) must be told apart
/// from kFailed (a transient EMFILE/EIO with the file still present):
/// only the former means someone else owns the work now.
enum class Touch { kOk, kMissing, kFailed };

Touch touch_by_write(const std::string& path) {
  // bbrlint:allow(atomic-io-required: in-place one-byte rewrite is the
  // mtime heartbeat touch — content never changes, so no reader can see a
  // torn file, and a rename would break the lease's inode identity)
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return errno == ENOENT ? Touch::kMissing : Touch::kFailed;
  }
  char first = 0;
  bool ok = std::fread(&first, 1, 1, file) == 1;
  ok = ok && std::fseek(file, 0, SEEK_SET) == 0;
  ok = ok && std::fwrite(&first, 1, 1, file) == 1;
  ok = (std::fclose(file) == 0) && ok;
  return ok ? Touch::kOk : Touch::kFailed;
}

constexpr const char* kBatchHeader = "batch";

/// Batch file names carry their member count as a second token —
/// "0000000042.b8.batch" pending, "0000000042.b8.worker.batch" active —
/// so counting the cells of a directory never has to open the files
/// (progress() and `bbrsweep status` poll these counts continuously).
std::string batch_count_token(std::size_t count) {
  return "b" + std::to_string(count);
}

/// The member count a batch file's name advertises, or nullopt when the
/// name lacks the token (not one of ours).
std::optional<std::size_t> batch_count_from_name(const std::string& name) {
  const auto first = name.find('.');
  if (first == std::string::npos) return std::nullopt;
  const auto second = name.find('.', first + 1);
  if (second == std::string::npos || second <= first + 2 ||
      name[first + 1] != 'b') {
    return std::nullopt;
  }
  const auto v =
      try_parse_u64(name.substr(first + 2, second - first - 2));
  if (!v || *v == 0) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

/// The on-disk payload of a batch entry: "batch\n" then one ascending
/// member index per line. Shared by pending batches and active manifests.
std::string encode_batch(const std::vector<std::size_t>& indices) {
  std::string out = kBatchHeader;
  out += '\n';
  for (const std::size_t index : indices) {
    out += std::to_string(index);
    out += '\n';
  }
  return out;
}

/// nullopt on any damage — a batch whose members cannot be recovered must
/// be loud at the call sites that need them, never silently empty.
std::optional<std::vector<std::size_t>> decode_batch(
    const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;
  if (!std::getline(in, line) || line != kBatchHeader) return std::nullopt;
  std::vector<std::size_t> indices;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto v = try_parse_u64(line);
    if (!v) return std::nullopt;
    indices.push_back(static_cast<std::size_t>(*v));
  }
  if (indices.empty()) return std::nullopt;
  return indices;
}

/// The members a batch file under `path` covers — nullopt when the file
/// vanished (a peer claimed, finished, or recovered it between a
/// directory listing and this read; a benign race the caller skips).
/// Bytes that exist but cannot be decoded are loud: a silently ignored
/// damaged batch would strand its cells in no state at all.
std::optional<std::vector<std::size_t>> read_batch_members_if_present(
    const std::string& path) {
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  auto members = decode_batch(*bytes);
  BBRM_REQUIRE_MSG(members.has_value(),
                   "queue batch file " + path +
                       " is damaged; its cells cannot be recovered "
                       "without it");
  return members;
}

/// Count the cells of one queue state directory: one per ".cell" entry
/// plus every member a ".batch" entry covers — from the count token in
/// its name, so this stays one readdir with zero file opens however
/// often progress displays poll it.
std::size_t count_cells(const std::string& dir) {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (has_extension(name, ".cell")) {
      ++count;
    } else if (has_extension(name, ".batch")) {
      if (const auto advertised = batch_count_from_name(name)) {
        count += *advertised;
        continue;
      }
      // Foreign name (hand-made file): fall back to reading it. An
      // undecodable one still counts as one entry — under-reporting to
      // zero would hide the damage the claim/recover paths report
      // loudly.
      const auto bytes = read_text_file(entry.path().string());
      const auto members =
          bytes ? decode_batch(*bytes)
                : std::optional<std::vector<std::size_t>>{};
      count += members ? members->size() : 1;
    }
  }
  return count;
}

std::string stats_field(const std::map<std::string, std::string>& fields,
                        const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

double parse_stat_double(const std::string& text) {
  return try_parse_double(text).value_or(0.0);
}

/// Segment-layout stamp: the first line of plan.bbrplan when the queue
/// stores results in per-worker logs. Its absence means the legacy
/// per-cell layout, so pre-stamp queue directories keep draining; its
/// presence makes a legacy binary's plan parse fail loudly instead of
/// misreading the document. Seeding byte-compares the whole plan file, so
/// mixing layouts in one directory is rejected for free.
constexpr std::string_view kLayoutStamp = "bbrm-queue-layout=2\n";

bool has_layout_stamp(std::string_view bytes) {
  return bytes.substr(0, kLayoutStamp.size()) == kLayoutStamp;
}

/// Result-log record framing. One record is
///
///   u32 magic  u32 error_len  u32 payload_len  u32 flags(bit0=ok)
///   u64 index  error bytes  payload bytes  u64 fnv1a64
///
/// all little-endian, hashed over everything after the magic — a crash
/// mid-append leaves a torn tail that fails the hash (or the length) and
/// is simply not consumed: the claim was never finished, so the cell
/// re-enqueues and the record is re-appended. The payload is the same
/// exact-number CSV encode_cell_metrics emits for per-cell result files
/// and the cell cache, so every layout decodes through one codec.
constexpr std::uint32_t kLogMagic = 0x32515242u;  // "BQR2"
constexpr std::size_t kLogHeaderBytes = 24;
constexpr std::uint32_t kMaxLogField = 16u << 20;
/// Rewrite the publish checkpoint after this many unflushed records (and
/// when the WorkQueue is destroyed): the checkpoint is an accelerator for
/// O(1) status, so the only cost of staleness is a tail scan of at most
/// this many records per log, never a wrong count.
constexpr std::uint64_t kCheckpointEvery = 256;

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::string encode_log_record(std::size_t index, bool ok,
                              const std::string& error,
                              const std::string& payload) {
  std::string out;
  out.reserve(kLogHeaderBytes + error.size() + payload.size() + 8);
  put_u32(out, kLogMagic);
  put_u32(out, static_cast<std::uint32_t>(error.size()));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, ok ? 1u : 0u);
  put_u64(out, static_cast<std::uint64_t>(index));
  out += error;
  out += payload;
  put_u64(out, fnv1a64_bytes(out.data() + 4, out.size() - 4));
  return out;
}

/// One decoded record; `error` and `payload` view the bytes it was
/// decoded from.
struct LogRecord {
  std::size_t index = 0;
  bool ok = true;
  std::string_view error;
  std::string_view payload;
};

/// Decode one record from the front of `data`. nullopt = incomplete or
/// damaged bytes (a torn tail); the caller stops consuming there. The
/// second member is the record's total length.
std::optional<std::pair<LogRecord, std::size_t>> decode_log_record(
    const char* data, std::size_t size) {
  if (size < kLogHeaderBytes + 8) return std::nullopt;
  if (get_u32(data) != kLogMagic) return std::nullopt;
  const std::uint32_t error_len = get_u32(data + 4);
  const std::uint32_t payload_len = get_u32(data + 8);
  const std::uint32_t flags = get_u32(data + 12);
  if (error_len > kMaxLogField || payload_len > kMaxLogField) {
    return std::nullopt;
  }
  const std::size_t total = kLogHeaderBytes + error_len + payload_len + 8;
  if (size < total) return std::nullopt;
  const std::uint64_t hash =
      fnv1a64_bytes(data + 4, kLogHeaderBytes - 4 + error_len + payload_len);
  if (hash != get_u64(data + total - 8)) return std::nullopt;
  LogRecord record;
  record.index = static_cast<std::size_t>(get_u64(data + 16));
  record.ok = (flags & 1u) != 0;
  record.error = std::string_view(data + kLogHeaderBytes, error_len);
  record.payload =
      std::string_view(data + kLogHeaderBytes + error_len, payload_len);
  return std::make_pair(std::move(record), total);
}

/// Count the valid records of a log from byte `from` on. `valid_end` is
/// where the last complete record ends — the writer truncates torn bytes
/// past it before re-appending, readers just stop there. Used by the
/// cheap counters path (tails past checkpoints are bounded by
/// kCheckpointEvery records) and by writer reopen.
struct LogScan {
  std::uint64_t records = 0;
  std::uint64_t valid_end = 0;
};

LogScan scan_log_records(const std::string& path, std::uint64_t from) {
  LogScan scan;
  scan.valid_end = from;
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size <= from) return scan;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return scan;
  std::string bytes;
  if (std::fseek(file, static_cast<long>(from), SEEK_SET) == 0) {
    bytes.resize(static_cast<std::size_t>(size - from));
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file));
  }
  std::fclose(file);
  std::size_t off = 0;
  while (auto record = decode_log_record(bytes.data() + off,
                                         bytes.size() - off)) {
    ++scan.records;
    off += record->second;
  }
  scan.valid_end = from + off;
  return scan;
}

/// workers/<id>.pub: "records=N\nbytes=B\n". Advisory — a reader always
/// tail-scans the log past `bytes`, so a missing or stale checkpoint only
/// costs read time.
std::optional<std::pair<std::uint64_t, std::uint64_t>> read_checkpoint(
    const std::string& path) {
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  std::istringstream in(*bytes);
  std::string line;
  std::optional<std::uint64_t> records, covered;
  while (std::getline(in, line)) {
    if (line.rfind("records=", 0) == 0) {
      records = try_parse_u64(line.substr(8));
    } else if (line.rfind("bytes=", 0) == 0) {
      covered = try_parse_u64(line.substr(6));
    }
  }
  if (!records || !covered) return std::nullopt;
  return std::make_pair(*records, *covered);
}

/// <dir>/counters: the seed-time totals that make status O(1) —
/// "format=2\ntotal=N\nsegment-cells=K\n".
struct StoredCounters {
  std::size_t total = 0;
  std::size_t segment_cells = 0;
};

std::optional<StoredCounters> read_stored_counters(const std::string& path) {
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  std::istringstream in(*bytes);
  std::string line;
  StoredCounters counters;
  bool have_total = false;
  while (std::getline(in, line)) {
    if (line.rfind("total=", 0) == 0) {
      if (const auto v = try_parse_u64(line.substr(6))) {
        counters.total = static_cast<std::size_t>(*v);
        have_total = true;
      }
    } else if (line.rfind("segment-cells=", 0) == 0) {
      counters.segment_cells = static_cast<std::size_t>(
          try_parse_u64(line.substr(14)).value_or(0));
    }
  }
  if (!have_total) return std::nullopt;
  return counters;
}

/// The text body of a per-cell result file (layout 1 results/, layout 2
/// failed/): status and error lines, then the shared metrics codec.
std::string encode_result_file(const sweep::TaskResult& result) {
  std::string bytes = "status=";
  bytes += result.ok ? "ok" : "failed";
  bytes += "\nerror=";
  bytes += result.error;  // single-line by the engine's contract
  bytes += '\n';
  bytes += sweep::encode_cell_metrics(result.metrics);
  return bytes;
}

/// Parse a per-cell result file back into a TaskResult. nullopt when the
/// file is absent or damaged.
std::optional<sweep::TaskResult> load_result_file(
    const std::string& path, const sweep::SweepTask& task, bool row_only) {
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  std::string_view rest = *bytes;
  const auto status = next_line(rest);
  if (!status || status->substr(0, 7) != "status=") return std::nullopt;
  const auto error = next_line(rest);
  if (!error || error->substr(0, 6) != "error=") return std::nullopt;
  auto metrics = sweep::decode_cell_metrics(rest, row_only);
  if (!metrics) return std::nullopt;

  sweep::TaskResult result;
  result.task = task;
  result.metrics = std::move(*metrics);
  result.ok = status->substr(7) == "ok";
  result.error = error->substr(6);
  return result;
}

/// Status-only peek at a per-cell result file.
std::optional<bool> result_file_ok(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string status;
  if (!std::getline(in, status) || status.rfind("status=", 0) != 0) {
    return std::nullopt;
  }
  return status.substr(7) == "ok";
}

/// The first `limit` bytes of a file (enough for layout stamps and plan
/// headers) — never the whole document.
std::optional<std::string> read_file_prefix(const std::string& path,
                                            std::size_t limit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes(limit, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(limit));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace

std::string sanitize_worker_id(std::string id) {
  for (char& c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
        c != '_') {
      c = '-';
    }
  }
  return id;
}

std::string default_worker_id() {
  char host[64] = "host";
  ::gethostname(host, sizeof host - 1);
  host[sizeof host - 1] = '\0';
  return sanitize_worker_id(std::string(host) + "-" +
                            std::to_string(::getpid()));
}

std::size_t segment_cells_for(std::size_t cells) {
  constexpr std::size_t kClaimUnits = 64;
  constexpr std::size_t kMaxSegment = 512;
  return std::clamp<std::size_t>((cells + kClaimUnits - 1) / kClaimUnits, 1,
                                 kMaxSegment);
}

double completion_poll_s(std::size_t remaining, std::size_t progressed,
                         double elapsed_s, double ceiling_s) {
  const double floor_s = std::min(0.01, ceiling_s);
  const double next_s =
      progressed == 0
          ? 0.25 * elapsed_s
          : 0.25 * static_cast<double>(remaining) * elapsed_s /
                static_cast<double>(progressed);
  return std::clamp(next_s, floor_s, ceiling_s);
}

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CompletionWait::CompletionWait(const WorkQueue& queue, std::size_t plan_size,
                               double ceiling_s)
    : queue_(queue), plan_size_(plan_size), ceiling_s_(ceiling_s) {
  BBRM_REQUIRE_MSG(ceiling_s_ > 0.0, "poll interval must be positive");
}

bool CompletionWait::poll() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (complete_) return true;
  }
  const std::size_t done = queue_.done_count();
  const double now = steady_now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!anchor_) first_s_ = now;
  // The rate anchor trails the observations until the count first moves,
  // so start-up dead time (workers still launching) never dilutes it.
  if (!anchor_ || anchor_->second == done) anchor_.emplace(now, done);
  gap_s_ = now - last_.first;
  last_ = {now, done};
  if (done >= plan_size_) {
    complete_ = true;
    cv_.notify_all();
  }
  return complete_;
}

double CompletionWait::interval_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return interval_locked();
}

double CompletionWait::interval_locked() const {
  if (!anchor_) return completion_poll_s(plan_size_, 0, 0.0, ceiling_s_);
  const std::size_t remaining =
      plan_size_ > last_.second ? plan_size_ - last_.second : 0;
  const std::size_t progressed =
      last_.second > anchor_->second ? last_.second - anchor_->second : 0;
  const double since = progressed > 0 ? anchor_->first : first_s_;
  // A rate estimated from the first few cells can be far too low; letting
  // the interval at most double per poll gives the estimate time to
  // settle before a long sleep is trusted.
  return std::min(completion_poll_s(remaining, progressed,
                                    last_.first - since, ceiling_s_),
                  std::max(2.0 * gap_s_, std::min(0.01, ceiling_s_)));
}

bool CompletionWait::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (complete_) return true;
  const std::uint64_t seen = generation_;
  const auto woken = [&] { return complete_ || generation_ != seen; };
  if (polling_) {
    // A sibling is the poller: sleep until it sees completion or work
    // changes hands, at most one ceiling (then retry claims).
    cv_.wait_for(lock, std::chrono::duration<double>(ceiling_s_), woken);
    return complete_;
  }
  polling_ = true;
  if (!dirty_) {
    cv_.wait_for(lock, std::chrono::duration<double>(interval_locked()),
                 woken);
  }
  dirty_ = false;
  lock.unlock();
  bool complete = false;
  try {
    complete = poll();
  } catch (...) {
    lock.lock();
    polling_ = false;
    throw;
  }
  lock.lock();
  polling_ = false;
  return complete;
}

void CompletionWait::notify() {
  std::lock_guard<std::mutex> lock(mutex_);
  dirty_ = true;
  ++generation_;
  cv_.notify_all();
}

WorkQueue::WorkQueue(std::string dir, double lease_s, double skew_margin_s)
    : dir_(std::move(dir)),
      lease_s_(lease_s),
      skew_margin_s_(skew_margin_s < 0.0 ? lease_s / 4.0 : skew_margin_s) {
  BBRM_REQUIRE_MSG(!dir_.empty(), "queue directory must be non-empty");
  BBRM_REQUIRE_MSG(std::isfinite(lease_s_) && lease_s_ > 0.0,
                   "lease must be positive and finite");
  // NaN slips past every < comparison and would turn lease + margin into
  // NaN, making recovery steal every healthy lease; inf would disable
  // recovery entirely.
  BBRM_REQUIRE_MSG(std::isfinite(skew_margin_s_),
                   "skew margin must be finite");
  // Best-effort creation: observers (`bbrsweep status` on a read-only
  // replica) must be able to attach; writers hit the real error on their
  // first write, with the path in the message.
  std::error_code ec;
  fs::create_directories(pending_dir(), ec);
  fs::create_directories(active_dir(), ec);
  fs::create_directories(results_dir(), ec);
  fs::create_directories(workers_dir(), ec);
  fs::create_directories(failed_dir(), ec);
}

WorkQueue::~WorkQueue() {
  // Flush publish checkpoints and close the cached log handles. Never
  // throws: a checkpoint that cannot be written is advisory, and the log
  // bytes themselves were flushed at every publish.
  try {
    flush_published();
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    for (auto& [worker, pub] : publishers_) {
      if (pub.append != nullptr) std::fclose(pub.append);
      pub.append = nullptr;
    }
  }
  std::lock_guard<std::mutex> lock(result_mutex_);
  for (auto& log : logs_) {
    if (log.read != nullptr) std::fclose(log.read);
    log.read = nullptr;
  }
}

std::string WorkQueue::pending_dir() const {
  return (fs::path(dir_) / "pending").string();
}
std::string WorkQueue::active_dir() const {
  return (fs::path(dir_) / "active").string();
}
std::string WorkQueue::results_dir() const {
  return (fs::path(dir_) / "results").string();
}
std::string WorkQueue::workers_dir() const {
  return (fs::path(dir_) / "workers").string();
}
std::string WorkQueue::plan_path() const {
  return (fs::path(dir_) / "plan.bbrplan").string();
}
std::string WorkQueue::probe_path() const {
  return (fs::path(dir_) / "probe").string();
}
std::string WorkQueue::pending_path(std::size_t index) const {
  return (fs::path(pending_dir()) / (index_name(index) + ".cell")).string();
}
std::string WorkQueue::pending_batch_path(std::size_t index,
                                          std::size_t count) const {
  return (fs::path(pending_dir()) /
          (index_name(index) + "." + batch_count_token(count) + ".batch"))
      .string();
}
std::string WorkQueue::active_path(std::size_t index,
                                   const std::string& worker_id) const {
  return (fs::path(active_dir()) /
          (index_name(index) + "." + worker_id + ".cell"))
      .string();
}
std::string WorkQueue::active_batch_path(std::size_t index,
                                         const std::string& worker_id,
                                         std::size_t count) const {
  return (fs::path(active_dir()) /
          (index_name(index) + "." + batch_count_token(count) + "." +
           worker_id + ".batch"))
      .string();
}
std::string WorkQueue::result_path(std::size_t index) const {
  return (fs::path(results_dir()) / (index_name(index) + ".cell")).string();
}
std::string WorkQueue::failed_dir() const {
  return (fs::path(dir_) / "failed").string();
}
std::string WorkQueue::counters_path() const {
  return (fs::path(dir_) / "counters").string();
}
std::string WorkQueue::failed_path(std::size_t index) const {
  return (fs::path(failed_dir()) / (index_name(index) + ".cell")).string();
}
std::string WorkQueue::log_path(const std::string& worker_id) const {
  return (fs::path(results_dir()) / (worker_id + ".rlog")).string();
}
std::string WorkQueue::checkpoint_path(const std::string& worker_id) const {
  return (fs::path(workers_dir()) / (worker_id + ".pub")).string();
}

QueueLayout WorkQueue::layout() const {
  std::lock_guard<std::mutex> lock(layout_mutex_);
  if (layout_) return *layout_;
  const auto prefix =
      read_file_prefix(plan_path(), kLayoutStamp.size());
  if (!prefix) {
    // No plan yet: report (but never cache) the legacy default — the
    // seed that eventually lands decides the real answer.
    return QueueLayout::kPerCell;
  }
  layout_ = has_layout_stamp(*prefix) ? QueueLayout::kSegment
                                      : QueueLayout::kPerCell;
  return *layout_;
}

std::optional<std::size_t> WorkQueue::plan_size_hint() const {
  // 4 KiB covers the stamp plus the three header lines of any plan; a
  // million-cell document never gets read for its size.
  const auto prefix = read_file_prefix(plan_path(), 4096);
  if (!prefix) return std::nullopt;
  std::string_view header = *prefix;
  if (has_layout_stamp(header)) header.remove_prefix(kLayoutStamp.size());
  try {
    return ExecutionPlan::peek_header(header).cells;
  } catch (...) {
    return std::nullopt;
  }
}

std::size_t WorkQueue::segment_cells() const {
  if (layout() != QueueLayout::kSegment) return 0;
  const auto stored = read_stored_counters(counters_path());
  return stored ? stored->segment_cells : 0;
}

std::optional<fs::file_time_type> WorkQueue::probe_now() const {
  // Rate limit: within lease/4 of the last probe write, extrapolate the
  // cached mtime by locally elapsed time instead of writing again — a
  // coordinator watch loop and N polling workers must not turn "now" into
  // continuous write traffic on the shared mount. The extrapolation error
  // is only the clocks' *rate* drift over that window (microseconds, not
  // the cross-host offset the skew margin exists for), so expiry math is
  // unaffected even with --skew-margin 0.
  const auto steady = std::chrono::steady_clock::now();
  const double window_s = std::max(0.01, lease_s_ / 4.0);
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    if (probe_value_ &&
        std::chrono::duration<double>(steady - probe_at_).count() <
            window_s) {
      return *probe_value_ +
             std::chrono::duration_cast<fs::file_time_type::duration>(
                 steady - probe_at_);
    }
  }
  // Any successful write re-stamps the mtime; concurrent probers all write
  // "now" within their own write latency, so the race is harmless.
  {
    // bbrlint:allow(atomic-io-required: the probe file exists only for its
    // filesystem mtime — no reader ever parses its content)
    std::ofstream out(probe_path(), std::ios::trunc);
    out << "probe\n";
    if (!out) return std::nullopt;
  }
  std::error_code ec;
  const auto t = fs::last_write_time(probe_path(), ec);
  if (ec) return std::nullopt;
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_value_ = t;
    probe_at_ = steady;
  }
  return t;
}

void WorkQueue::seed(const ExecutionPlan& plan, std::size_t batch,
                     std::size_t segment_cells) const {
  BBRM_REQUIRE_MSG(batch >= 1, "batch size must be at least 1");
  const bool segment = segment_cells > 0;
  // A segment is a claim unit: the existing batch machinery already gives
  // one pending file, one atomic-rename claim, and one recovery manifest
  // per group of cells, so the segment layout reuses it wholesale and
  // only the result side changes representation.
  const std::size_t chunk = segment ? segment_cells : batch;
  std::string bytes;
  {
    obs::Span span("serialize", "queue");
    bytes = plan.serialize();
    span.arg("bytes", static_cast<std::uint64_t>(bytes.size()));
  }
  if (segment) bytes.insert(0, kLayoutStamp);
  if (fs::exists(plan_path())) {
    const std::string stored = read_text_file(plan_path()).value_or("");
    BBRM_REQUIRE_MSG(
        has_layout_stamp(stored) == segment,
        "queue directory " + dir_ + " uses the " +
            (has_layout_stamp(stored) ? "segment" : "per-cell") +
            " result layout; re-seed it the same way or use a fresh "
            "directory (layouts cannot mix in one queue)");
    BBRM_REQUIRE_MSG(stored == bytes,
                     "queue directory " + dir_ +
                         " already holds a different plan; seeding would "
                         "corrupt it (use a fresh directory)");
  } else {
    write_file_atomically(plan_path(), bytes, "queue plan");
  }
  {
    std::lock_guard<std::mutex> lock(layout_mutex_);
    layout_ = segment ? QueueLayout::kSegment : QueueLayout::kPerCell;
  }
  if (segment) {
    // Seed-time totals for O(1) status: `bbrsweep status` and the
    // coordinator watch line read this one file plus the publish
    // checkpoints, never a readdir of pending/ or results/.
    write_file_atomically(counters_path(),
                          "format=2\ntotal=" +
                              std::to_string(plan.size()) +
                              "\nsegment-cells=" +
                              std::to_string(segment_cells) + "\n",
                          "queue counters");
  }
  // Record the lease parameters so workers can adopt them instead of
  // guessing — a participant with a shorter lease than the heartbeat
  // cadence of the others would keep stealing live claims.
  write_file_atomically((fs::path(dir_) / "lease").string(),
                        exact_number(lease_s_) + "\n" +
                            exact_number(skew_margin_s_) + "\n",
                        "queue lease");

  // Resume-aware enqueue: skip cells that are already pending or being
  // worked on (batch entries cover every member they list). One scan of
  // each state dir beats N existence probes.
  std::set<std::size_t> unavailable;
  for (const std::string& state : {pending_dir(), active_dir()}) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(state, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      const auto index = parse_index_name(name);
      if (!index) continue;
      if (has_extension(name, ".cell")) {
        unavailable.insert(*index);
      } else if (has_extension(name, ".batch")) {
        // A batch a peer claims or finishes mid-scan reads as absent;
        // its members re-enqueue at worst as benign duplicates
        // (deterministic runners republish identical bytes).
        const auto members =
            read_batch_members_if_present(entry.path().string());
        if (!members) continue;
        for (const std::size_t member : *members) {
          unavailable.insert(member);
        }
      }
    }
  }

  std::vector<std::size_t> todo;
  if (segment) {
    // One index refresh and one failed/ listing answer "published?" for
    // every cell — no per-cell filesystem probes on resume.
    std::lock_guard<std::mutex> lock(result_mutex_);
    refresh_result_index_locked();
    std::set<std::size_t> failed_cells;
    for (const std::size_t index : list_failed()) {
      failed_cells.insert(index);
    }
    for (const auto& cell : plan.cells()) {
      if (unavailable.count(cell.index) != 0) continue;
      if (result_index_.count(cell.index) != 0) continue;  // done ok
      if (failed_cells.count(cell.index) != 0) {
        // A failed result must not be memoized forever: drop it and
        // re-enqueue the cell so the next run re-attempts the task.
        std::error_code ec;
        fs::remove(failed_path(cell.index), ec);
      }
      todo.push_back(cell.index);
    }
  } else {
    for (const auto& cell : plan.cells()) {
      if (unavailable.count(cell.index) != 0) continue;
      const auto ok = result_ok(cell.index);
      if (ok.has_value()) {
        if (*ok) continue;
        // A failed result must not be memoized forever: drop it and
        // re-enqueue the cell so the next run re-attempts the task.
        std::error_code ec;
        fs::remove(result_path(cell.index), ec);
      }
      todo.push_back(cell.index);
    }
  }
  for (std::size_t start = 0; start < todo.size(); start += chunk) {
    const std::size_t n = std::min(chunk, todo.size() - start);
    if (n == 1) {
      write_file_atomically(pending_path(todo[start]), "queued\n",
                            "queue cell");
    } else {
      const std::vector<std::size_t> members(
          todo.begin() + static_cast<std::ptrdiff_t>(start),
          todo.begin() + static_cast<std::ptrdiff_t>(start + n));
      write_file_atomically(pending_batch_path(members.front(), n),
                            encode_batch(members), "queue batch");
    }
  }
}

bool WorkQueue::has_plan() const { return fs::exists(plan_path()); }

std::optional<double> WorkQueue::stored_lease_s(const std::string& dir) {
  std::ifstream in((fs::path(dir) / "lease").string());
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  const auto v = try_parse_double(line);
  if (!v || !std::isfinite(*v) || *v <= 0.0) return std::nullopt;
  return v;
}

std::optional<double> WorkQueue::stored_skew_margin_s(
    const std::string& dir) {
  std::ifstream in((fs::path(dir) / "lease").string());
  std::string line;
  if (!std::getline(in, line) || !std::getline(in, line)) {
    return std::nullopt;  // pre-skew lease files hold one line
  }
  const auto v = try_parse_double(line);
  if (!v || !std::isfinite(*v) || *v < 0.0) return std::nullopt;
  return v;
}

ExecutionPlan WorkQueue::load_plan() const {
  BBRM_REQUIRE_MSG(has_plan(), "queue " + dir_ + " has no plan yet");
  obs::Span span("plan-load", "queue");
  std::string bytes = read_text_file(plan_path()).value_or("");
  if (has_layout_stamp(bytes)) bytes.erase(0, kLayoutStamp.size());
  // The plan keeps the document and decodes each spec on first use, so a
  // worker pays only for the cells it claims.
  ExecutionPlan plan = ExecutionPlan::parse(std::move(bytes));
  span.arg("cells", static_cast<std::uint64_t>(plan.size()));
  return plan;
}

std::optional<std::size_t> WorkQueue::try_claim(
    const std::string& worker_id) const {
  auto claim = try_claim_batch(worker_id, 1);
  if (!claim) return std::nullopt;
  if (claim->batch) {
    release(*claim);  // don't strand the members behind a lease
    BBRM_REQUIRE_MSG(false,
                     "try_claim is the single-cell API; this queue holds "
                     "batch entries — claim them with try_claim_batch");
  }
  return claim->indices.front();
}

std::optional<Claim> WorkQueue::try_claim_batch(
    const std::string& worker_id, std::size_t max_cells) const {
  require_worker_id(worker_id);
  if (max_cells == 0) max_cells = 1;
  // Pop cached candidates first; one directory listing refills the
  // backlog when it runs dry. Stale candidates (claimed by a peer since
  // the listing) just fail their rename and are dropped individually, so
  // a full drain costs one readdir per refill, not one per cell — and a
  // peer's re-seed or recovery never forces a full relist. Two refreshes
  // bound the call when peers are racing us for the last cells.
  for (int refresh = 0; refresh < 2; ++refresh) {
    Claim claim;
    std::vector<std::string> single_paths;  // active files to coalesce
    while (claim.indices.size() < max_cells) {
      std::string name;
      {
        std::lock_guard<std::mutex> lock(claim_mutex_);
        if (claim_backlog_.empty()) break;
        name = std::move(claim_backlog_.back());
        claim_backlog_.pop_back();
      }
      const auto index = parse_index_name(name);
      if (!index) continue;
      if (has_extension(name, ".batch")) {
        if (!claim.indices.empty()) {
          // Don't mix a pre-chunked batch into coalesced singles; put it
          // back at its sorted position (a concurrent release/recover
          // may have inserted lower names behind our back, so a plain
          // push_back could break the order backlog_insert relies on)
          // and return what we have.
          backlog_insert({std::move(name)});
          break;
        }
        // The active name keeps the pending name's stem (count token
        // included) and inserts the worker before the extension.
        const std::string to =
            (fs::path(active_dir()) /
             (name.substr(0, name.size() - 6) + "." + worker_id + ".batch"))
                .string();
        std::error_code ec;
        fs::rename((fs::path(pending_dir()) / name).string(), to, ec);
        if (ec) continue;  // stale entry: a peer won it; drop just this one
        // rename preserves the pending file's old mtime, so a recoverer
        // statting in this window can judge the fresh claim expired and
        // recover it. The touch stamps the lease; if it (or the read)
        // finds the manifest already gone, the claim was lost — the
        // members are back in pending, so just move on. A touch that
        // failed with the file still present keeps the claim (the next
        // heartbeat re-stamps it); abandoning would strand the entry.
        if (touch_by_write(to) == Touch::kMissing) continue;
        auto members = read_batch_members_if_present(to);
        if (!members) continue;
        claim.indices = std::move(*members);
        claim.active_name = fs::path(to).filename().string();
        claim.batch = true;
        return claim;
      }
      if (!has_extension(name, ".cell")) continue;
      const std::string to = active_path(*index, worker_id);
      std::error_code ec;
      fs::rename((fs::path(pending_dir()) / name).string(), to, ec);
      if (ec) continue;  // stale entry: a peer won it; drop just this one
      // Stamp the lease; a *missing* file means a recoverer judged the
      // stale pre-claim mtime expired and took the cell back in the
      // rename→touch window — it is pending again, so let it go. A
      // transient write failure keeps the claim (the heartbeat will
      // re-stamp); abandoning would strand the cell in active/.
      if (touch_by_write(to) == Touch::kMissing) continue;
      claim.indices.push_back(*index);
      single_paths.push_back(to);
    }
    if (claim.indices.size() == 1) {
      claim.active_name = fs::path(single_paths.front()).filename().string();
      return claim;
    }
    if (claim.indices.size() > 1) {
      // Coalesce the singles into one leased unit: write the manifest
      // first (from here on recovery sees the batch), then fold the
      // per-cell claim files into it. A crash in between leaves both — a
      // benign double-recovery that re-enqueues each member once.
      const std::string manifest = active_batch_path(
          claim.indices.front(), worker_id, claim.indices.size());
      write_file_atomically(manifest, encode_batch(claim.indices),
                            "queue batch claim");
      for (const std::string& path : single_paths) {
        std::error_code ec;
        fs::remove(path, ec);
      }
      claim.active_name = fs::path(manifest).filename().string();
      claim.batch = true;
      return claim;
    }
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(pending_dir(), ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (has_extension(name, ".cell") || has_extension(name, ".batch")) {
        names.push_back(name);
      }
    }
    if (names.empty()) return std::nullopt;
    // Reverse-sorted: pop_back claims lowest indices first (zero-padded
    // names make lexicographic order numeric order).
    std::sort(names.begin(), names.end(), std::greater<std::string>());
    std::lock_guard<std::mutex> lock(claim_mutex_);
    claim_backlog_ = std::move(names);
  }
  return std::nullopt;
}

void WorkQueue::trim(Claim& claim, std::size_t keep) const {
  if (keep == 0 || claim.indices.size() <= keep) return;
  BBRM_REQUIRE_MSG(claim.batch, "single-cell claims cannot be trimmed");
  const std::vector<std::size_t> surplus(
      claim.indices.begin() + static_cast<std::ptrdiff_t>(keep),
      claim.indices.end());
  std::vector<std::size_t> kept(
      claim.indices.begin(),
      claim.indices.begin() + static_cast<std::ptrdiff_t>(keep));
  // Re-enqueue the surplus *before* shrinking the manifest: if this
  // worker dies in between, recovery re-enqueues the surplus again from
  // the fat manifest (a benign duplicate) — the reverse order could
  // strand cells in no state at all.
  std::vector<std::string> requeued = requeue(surplus);
  // The manifest moves to a name advertising the kept count (progress
  // counts cells from names alone). A crash between the write and the
  // remove leaves both manifests — recovery re-enqueues from each, a
  // benign duplication.
  std::string trimmed_name = claim.active_name;
  if (batch_count_from_name(trimmed_name)) {
    const auto first = trimmed_name.find('.');
    const auto second = trimmed_name.find('.', first + 1);
    trimmed_name = trimmed_name.substr(0, first + 1) +
                   batch_count_token(keep) + trimmed_name.substr(second);
  }
  write_file_atomically((fs::path(active_dir()) / trimmed_name).string(),
                        encode_batch(kept), "queue batch claim");
  if (trimmed_name != claim.active_name) {
    std::error_code ec;
    fs::remove((fs::path(active_dir()) / claim.active_name).string(), ec);
  }
  // Mutate the claim only now that every write landed: a throw above
  // leaves it covering all members, so the caller's release() can still
  // return every unpublished cell.
  claim.active_name = std::move(trimmed_name);
  claim.indices = std::move(kept);
  backlog_insert(std::move(requeued));
}

bool WorkQueue::renew(std::size_t index, const std::string& worker_id) const {
  return touch_by_write(active_path(index, worker_id)) == Touch::kOk;
}

bool WorkQueue::renew(const Claim& claim) const {
  return touch_by_write(
             (fs::path(active_dir()) / claim.active_name).string()) ==
         Touch::kOk;
}

void WorkQueue::publish(const sweep::TaskResult& result) const {
  publish(result, std::string());
}

void WorkQueue::publish(const sweep::TaskResult& result,
                        const std::string& worker_id) const {
  if (layout() == QueueLayout::kPerCell) {
    write_file_atomically(result_path(result.task.index),
                          encode_result_file(result), "queue result");
    return;
  }
  if (!result.ok) {
    // Failures stay per-cell files: they are rare (O(failures), not
    // O(cells), directory entries), and the re-seed retry contract needs
    // to *drop* them — an append-only log cannot un-write a record.
    write_file_atomically(failed_path(result.task.index),
                          encode_result_file(result), "queue failed cell");
    return;
  }
  const std::string id =
      worker_id.empty() ? default_worker_id() : worker_id;
  const std::string record =
      encode_log_record(result.task.index, result.ok, result.error,
                        sweep::encode_cell_metrics(result.metrics));
  std::lock_guard<std::mutex> lock(publish_mutex_);
  PubState& pub = open_publisher_locked(id);
  const bool wrote =
      std::fwrite(record.data(), 1, record.size(), pub.append) ==
          record.size() &&
      std::fflush(pub.append) == 0;
  if (!wrote) {
    // The tail may be torn. Drop the handle: the next publish re-opens,
    // re-validates from the checkpoint, and truncates the damage before
    // appending again.
    std::fclose(pub.append);
    pub.append = nullptr;
    BBRM_REQUIRE_MSG(false, "queue result log append failed for worker " +
                                id + " (" + log_path(id) + ")");
  }
  pub.records += 1;
  pub.bytes += record.size();
  pub.unflushed += 1;
  if (pub.unflushed >= kCheckpointEvery) write_checkpoint_locked(id, pub);
}

void WorkQueue::complete(const sweep::TaskResult& result,
                         const std::string& worker_id) const {
  publish(result, worker_id);
  // Release the claim. ENOENT is fine: an expired lease may already have
  // been re-enqueued or reclaimed — the published bytes are identical
  // either way, so the race is benign.
  std::error_code ec;
  fs::remove(active_path(result.task.index, worker_id), ec);
}

void WorkQueue::finish(const Claim& claim) const {
  // No checkpoint rewrite here: publish() rewrites it every
  // kCheckpointEvery records and the destructor at exit, and readers
  // tail-scan past it, so counters stay exact without a durable write per
  // claim.
  std::error_code ec;
  fs::remove((fs::path(active_dir()) / claim.active_name).string(), ec);
}

void WorkQueue::release(std::size_t index,
                        const std::string& worker_id) const {
  std::error_code ec;
  fs::rename(active_path(index, worker_id), pending_path(index), ec);
  // ENOENT: the lease already expired and was recovered — nothing to do.
  if (!ec) backlog_insert({index_name(index) + ".cell"});
}

void WorkQueue::release(const Claim& claim) const {
  if (!claim.batch) {
    // Reconstruct the worker id from the claim file name
    // ("<index>.<worker>.cell") so the single-cell path stays one rename.
    const std::string name = claim.active_name;
    const auto first = name.find('.');
    const auto last = name.rfind('.');
    BBRM_REQUIRE_MSG(first != std::string::npos && last > first + 1,
                     "malformed claim name: " + name);
    release(claim.indices.front(), name.substr(first + 1, last - first - 1));
    return;
  }
  std::vector<std::size_t> unpublished;
  {
    std::optional<std::unique_lock<std::mutex>> result_lock;
    for (const std::size_t index : claim.indices) {
      if (!result_published(index, result_lock)) unpublished.push_back(index);
    }
  }
  std::vector<std::string> requeued = requeue(unpublished);
  finish(claim);
  backlog_insert(std::move(requeued));
}

std::vector<std::string> WorkQueue::requeue(
    const std::vector<std::size_t>& members) const {
  std::vector<std::string> names;
  if (layout() == QueueLayout::kSegment && members.size() > 1) {
    // Pending entries hold disjoint cells outside crash windows, so the
    // (first member, count) name cannot collide with a different live
    // entry; a crash-window duplicate re-runs benignly (deterministic
    // runners publish identical bytes, and the first record wins).
    const std::string path =
        pending_batch_path(members.front(), members.size());
    write_file_atomically(path, encode_batch(members), "queue batch");
    names.push_back(fs::path(path).filename().string());
    return names;
  }
  for (const std::size_t index : members) {
    write_file_atomically(pending_path(index), "queued\n", "queue cell");
    names.push_back(index_name(index) + ".cell");
  }
  return names;
}

/// Has a result for `index` landed, in whichever representation this
/// queue uses? `result_lock` implements refresh-once-per-sweep: the first
/// segment-layout query takes result_mutex_ and refreshes the log index,
/// later queries under the same optional are map lookups plus one
/// failed-file stat. Callers reset the optional before touching any path
/// that could publish.
bool WorkQueue::result_published(
    std::size_t index,
    std::optional<std::unique_lock<std::mutex>>& result_lock) const {
  if (layout() == QueueLayout::kPerCell) {
    return fs::exists(result_path(index));
  }
  if (!result_lock) {
    result_lock.emplace(result_mutex_);
    refresh_result_index_locked();
  }
  return result_index_.count(index) != 0 || fs::exists(failed_path(index));
}

void WorkQueue::backlog_insert(std::vector<std::string> names) const {
  if (names.empty()) return;
  std::lock_guard<std::mutex> lock(claim_mutex_);
  for (auto& name : names) {
    // The backlog is reverse-sorted (pop_back = lowest index first).
    const auto it =
        std::lower_bound(claim_backlog_.begin(), claim_backlog_.end(), name,
                         std::greater<std::string>());
    if (it != claim_backlog_.end() && *it == name) continue;
    claim_backlog_.insert(it, std::move(name));
  }
}

std::size_t WorkQueue::done_count() const {
  if (layout() == QueueLayout::kPerCell) {
    return count_cells(results_dir());
  }
  // Exact: |distinct ok indices in the logs| + |failed cells without an
  // ok record|. The refresh is incremental — each call stats the logs and
  // reads only bytes appended since the last call.
  std::lock_guard<std::mutex> lock(result_mutex_);
  refresh_result_index_locked();
  std::size_t done = result_index_.size();
  for (const std::size_t index : list_failed()) {
    if (result_index_.count(index) == 0) ++done;
  }
  return done;
}

QueueCounters WorkQueue::counters() const {
  QueueCounters c;
  c.layout = layout();
  if (c.layout == QueueLayout::kPerCell) {
    // Legacy layout has no cheap path: fall back to the directory census
    // plus the plan header for the total.
    const QueueProgress p = progress();
    c.pending = p.pending;
    c.active = p.active;
    c.done = p.done;
    c.total = plan_size_hint().value_or(p.pending + p.active + p.done);
    return c;
  }
  const auto stored = read_stored_counters(counters_path());
  BBRM_REQUIRE_MSG(stored.has_value(),
                   "queue " + dir_ +
                       " uses the segment layout but its counters file is "
                       "missing or damaged (" +
                       counters_path() + ")");
  c.total = stored->total;
  c.segment_cells = stored->segment_cells;
  // Done = checkpoints + bounded tail scans. Logs are discovered through
  // workers/<id>.pub (written when a log opens), so no results/ readdir
  // happens here; duplicate re-publishes after a lease loss may overcount
  // until the next exact done_count() — callers gate completion on the
  // exact count, never on this.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(workers_dir(), ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".pub") {
      continue;
    }
    const std::string worker = entry.path().stem().string();
    const auto checkpoint = read_checkpoint(entry.path().string());
    const std::uint64_t records = checkpoint ? checkpoint->first : 0;
    const std::uint64_t covered = checkpoint ? checkpoint->second : 0;
    c.done += static_cast<std::size_t>(
        records + scan_log_records(log_path(worker), covered).records);
  }
  for (const auto& entry : fs::directory_iterator(failed_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    if (has_extension(entry.path().filename().string(), ".cell")) {
      ++c.failed;
    }
  }
  c.done += c.failed;
  // Active cells from claim names alone (the batch count token); members
  // already published still count, so done + active can briefly exceed
  // total for in-flight segments — pending clamps rather than wrap.
  for (const auto& entry : fs::directory_iterator(active_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (has_extension(name, ".cell")) {
      ++c.active;
    } else if (has_extension(name, ".batch")) {
      c.active += batch_count_from_name(name).value_or(1);
    }
  }
  c.pending = c.total > c.done + c.active ? c.total - c.done - c.active : 0;
  return c;
}

std::size_t WorkQueue::recover_expired() const {
  // "Now" comes from the queue filesystem's own clock (a fresh probe
  // write), never this host's — comparing two mtimes stamped by the same
  // authority is what makes expiry robust to cross-host clock skew. The
  // skew margin absorbs what residual scatter remains. When the probe
  // cannot be written (full disk, read-only queue root) recovery falls
  // back to the local clock: degraded precision, but crashed workers'
  // cells still re-enqueue instead of recovery silently going dead. The
  // probe write happens lazily, on the first live claim found — idle
  // workers polling an empty queue must not write the shared mount every
  // tick.
  std::optional<fs::file_time_type> now_ref;
  const double expiry_s = lease_s_ + skew_margin_s_;
  std::size_t recovered = 0;
  std::vector<std::string> requeued;
  std::optional<std::unique_lock<std::mutex>> result_lock;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(active_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool is_batch = has_extension(name, ".batch");
    if (!is_batch && !has_extension(name, ".cell")) continue;
    const auto index = parse_index_name(name);
    if (!index) continue;
    const auto mtime = entry.last_write_time(ec);
    if (ec) continue;
    if (!now_ref) {
      now_ref = probe_now().value_or(fs::file_time_type::clock::now());
    }
    const double age_s =
        std::chrono::duration<double>(*now_ref - mtime).count();
    if (age_s <= expiry_s) continue;
    if (is_batch) {
      // Re-enqueue only the members whose result never landed; published
      // ones are done, only the claim is stale. A manifest that vanished
      // since the listing was finished (or recovered) by its owner —
      // nothing left to do.
      const auto members =
          read_batch_members_if_present(entry.path().string());
      if (!members) continue;
      std::vector<std::size_t> unpublished;
      for (const std::size_t member : *members) {
        if (!result_published(member, result_lock)) {
          unpublished.push_back(member);
        }
      }
      for (std::string& name : requeue(unpublished)) {
        requeued.push_back(std::move(name));
      }
      recovered += unpublished.size();
      fs::remove(entry.path(), ec);
      continue;
    }
    if (result_published(*index, result_lock)) {
      // The worker died (or lost its lease) after publishing: the work is
      // done, only the claim is stale.
      fs::remove(entry.path(), ec);
      continue;
    }
    fs::rename(entry.path(), pending_path(*index), ec);
    if (!ec) {  // a concurrent recoverer may have won; fine
      requeued.push_back(index_name(*index) + ".cell");
      ++recovered;
    }
  }
  // The re-enqueued cells were not in the cached claim backlog (it was
  // listed before they came back); insert them at their sorted positions
  // so the next claim picks them up without a full relist. Peer processes
  // converge the slower way — their stale backlogs drain and refresh on
  // empty.
  backlog_insert(std::move(requeued));
  return recovered;
}

QueueProgress WorkQueue::progress() const {
  QueueProgress p;
  p.pending = count_cells(pending_dir());
  p.done = done_count();
  std::optional<std::unique_lock<std::mutex>> result_lock;
  // A batch publishes per member, so its manifest keeps covering cells
  // whose results already landed — counting those as active would push
  // done+active+pending past the plan size for the whole life of every
  // in-flight batch. Active entries are bounded by in-flight claims (not
  // plan size), so reading the few manifests here stays cheap; singles
  // still count as claimed even when published (a visible stale claim is
  // a crash artifact recovery will drop).
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(active_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (has_extension(name, ".cell")) {
      ++p.active;
    } else if (has_extension(name, ".batch")) {
      // Display path: tolerate damage like count_cells does (an
      // undecodable manifest counts as one entry) — a status view must
      // not crash where the claim/recover paths will report loudly.
      const auto bytes = read_text_file(entry.path().string());
      if (!bytes) continue;  // finished/recovered since the listing
      const auto members = decode_batch(*bytes);
      if (!members) {
        ++p.active;
        continue;
      }
      for (const std::size_t member : *members) {
        if (!result_published(member, result_lock)) ++p.active;
      }
    }
  }
  return p;
}

const WorkQueue::ResultLoc* WorkQueue::find_result_locked(
    std::size_t index) const {
  // Records are first-wins, so an indexed cell never changes: only a miss
  // pays for the readdir + per-log stat of a refresh.
  auto it = result_index_.find(index);
  if (it == result_index_.end()) {
    refresh_result_index_locked();
    it = result_index_.find(index);
  }
  return it == result_index_.end() ? nullptr : &it->second;
}

std::optional<bool> WorkQueue::result_ok(std::size_t index) const {
  if (layout() == QueueLayout::kPerCell) {
    return result_file_ok(result_path(index));
  }
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    if (const ResultLoc* loc = find_result_locked(index)) return loc->ok != 0;
  }
  return result_file_ok(failed_path(index));
}

std::optional<sweep::TaskResult> WorkQueue::load_result(
    const sweep::SweepTask& task, bool row_only) const {
  if (layout() == QueueLayout::kPerCell) {
    return load_result_file(result_path(task.index), task, row_only);
  }
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    const ResultLoc* loc = find_result_locked(task.index);
    if (loc != nullptr) {
      // One positioned read of one record into a reused buffer — streaming
      // collects hold a single record in memory, never a segment's worth
      // of decoded results.
      LogState& log = logs_[loc->log];
      if (log.read == nullptr) {
        log.read = std::fopen(
            (fs::path(results_dir()) / log.name).string().c_str(), "rb");
      }
      record_buffer_.resize(loc->bytes);
      if (log.read != nullptr &&
          ::pread(::fileno(log.read), record_buffer_.data(), loc->bytes,
                  static_cast<off_t>(loc->offset)) ==
              static_cast<ssize_t>(loc->bytes)) {
        if (const auto decoded = decode_log_record(record_buffer_.data(),
                                                   record_buffer_.size())) {
          auto metrics =
              sweep::decode_cell_metrics(decoded->first.payload, row_only);
          if (metrics) {
            sweep::TaskResult result;
            result.task = task;
            result.metrics = std::move(*metrics);
            result.ok = decoded->first.ok;
            result.error = decoded->first.error;
            return result;
          }
        }
      }
      return std::nullopt;  // indexed but unreadable: damage stays loud
    }
  }
  return load_result_file(failed_path(task.index), task, row_only);
}

void WorkQueue::refresh_result_index_locked() const {
  // Adopt logs that appeared since the last refresh. Discovery is one
  // results/ readdir; per log, one stat decides whether any new bytes
  // exist at all.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(results_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!has_extension(name, ".rlog")) continue;
    if (log_ids_.count(name) != 0) continue;
    log_ids_[name] = static_cast<std::uint32_t>(logs_.size());
    LogState log;
    log.name = name;
    logs_.push_back(std::move(log));
  }
  constexpr std::size_t kChunk = std::size_t{1} << 22;  // 4 MiB window
  for (std::uint32_t id = 0; id < logs_.size(); ++id) {
    LogState& log = logs_[id];
    const std::string path = (fs::path(results_dir()) / log.name).string();
    std::error_code size_ec;
    const auto size = fs::file_size(path, size_ec);
    if (size_ec || size <= log.consumed) continue;
    if (log.read == nullptr) log.read = std::fopen(path.c_str(), "rb");
    if (log.read == nullptr) continue;
    if (std::fseek(log.read, static_cast<long>(log.consumed), SEEK_SET) !=
        0) {
      continue;
    }
    // Bounded window: decode records chunk by chunk so a collect of a
    // 100k-cell log never buffers the whole file (the RSS-flat contract
    // of streaming collects). A record spanning the window boundary
    // carries over and the window grows only until it completes.
    std::string window;
    while (log.consumed < size) {
      const std::uint64_t unread = size - (log.consumed + window.size());
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, unread));
      if (want > 0) {
        const std::size_t base = window.size();
        window.resize(base + want);
        const std::size_t got =
            std::fread(window.data() + base, 1, want, log.read);
        window.resize(base + got);
        if (got == 0) break;  // I/O error or concurrent truncate
      }
      std::size_t off = 0;
      while (const auto record = decode_log_record(window.data() + off,
                                                   window.size() - off)) {
        ResultLoc loc;
        loc.log = id;
        loc.ok = record->first.ok ? 1 : 0;
        loc.offset = log.consumed + off;
        loc.bytes = static_cast<std::uint32_t>(record->second);
        result_index_.emplace(record->first.index, loc);  // first wins
        off += record->second;
      }
      window.erase(0, off);
      log.consumed += off;
      if (off == 0 && want == 0) break;  // torn/damaged tail: stop here
    }
  }
}

std::vector<std::size_t> WorkQueue::list_failed() const {
  std::vector<std::size_t> indices;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(failed_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!has_extension(name, ".cell")) continue;
    if (const auto index = parse_index_name(name)) {
      indices.push_back(*index);
    }
  }
  return indices;
}

WorkQueue::PubState& WorkQueue::open_publisher_locked(
    const std::string& worker_id) const {
  require_worker_id(worker_id);
  PubState& pub = publishers_[worker_id];
  if (pub.append != nullptr) return pub;
  const std::string path = log_path(worker_id);
  // Validate the tail before appending: trust the checkpoint for the
  // bytes it covers, scan what follows, and truncate anything torn by a
  // previous crash of this worker id. A checkpoint claiming more bytes
  // than exist (log replaced underneath it) is discarded and the whole
  // log rescans.
  std::uint64_t records = 0;
  std::uint64_t covered = 0;
  if (const auto checkpoint = read_checkpoint(checkpoint_path(worker_id))) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec && checkpoint->second <= size) {
      records = checkpoint->first;
      covered = checkpoint->second;
    }
  }
  const LogScan scan = scan_log_records(path, covered);
  {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec && size > scan.valid_end) {
      fs::resize_file(path, scan.valid_end, ec);
    }
  }
  // bbrlint:allow(atomic-io-required: per-worker result log is append-only
  // by design — records are checksum-framed and readers skip torn tails, so
  // crash-mid-append is recoverable without rename-per-record cost)
  pub.append = std::fopen(path.c_str(), "ab");
  BBRM_REQUIRE_MSG(pub.append != nullptr,
                   "cannot open queue result log " + path);
  pub.records = records + scan.records;
  pub.bytes = scan.valid_end;
  pub.unflushed = 0;
  // Write the checkpoint at open even when empty: workers/<id>.pub is how
  // the cheap counters path discovers logs without a results/ readdir.
  write_checkpoint_locked(worker_id, pub);
  return pub;
}

void WorkQueue::write_checkpoint_locked(const std::string& worker_id,
                                        PubState& pub) const {
  try {
    write_file_atomically(checkpoint_path(worker_id),
                          "records=" + std::to_string(pub.records) +
                              "\nbytes=" + std::to_string(pub.bytes) + "\n",
                          "queue publish checkpoint");
    pub.unflushed = 0;
  } catch (...) {
    // Advisory: readers tail-scan past whatever the last good checkpoint
    // covered, so a checkpoint that cannot land costs read time, not
    // correctness. The log append already succeeded — don't undo it.
  }
}

void WorkQueue::flush_published() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  for (auto& [worker, pub] : publishers_) {
    if (pub.append != nullptr && pub.unflushed > 0) {
      write_checkpoint_locked(worker, pub);
    }
  }
}

void WorkQueue::write_worker_stats(const WorkerStats& stats) const {
  require_worker_id(stats.worker_id);
  std::string bytes = "worker=" + stats.worker_id + "\n";
  bytes += "completed=" + std::to_string(stats.completed) + "\n";
  bytes += "failed=" + std::to_string(stats.failed) + "\n";
  bytes += "in_flight=" + std::to_string(stats.in_flight) + "\n";
  bytes += "elapsed_s=" + exact_number(stats.elapsed_s) + "\n";
  bytes += "cells_per_s=" + exact_number(stats.cells_per_s) + "\n";
  bytes +=
      "window_cells_per_s=" + exact_number(stats.window_cells_per_s) + "\n";
  write_file_atomically(
      (fs::path(workers_dir()) / (stats.worker_id + ".stats")).string(),
      bytes, "worker stats");
}

namespace {

/// One stats file's fields (heartbeat age is the caller's concern).
std::optional<WorkerStats> parse_worker_stats(const std::string& path,
                                              const std::string& fallback_id) {
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  std::map<std::string, std::string> fields;
  std::istringstream in(*bytes);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    fields[line.substr(0, eq)] = line.substr(eq + 1);
  }
  WorkerStats stats;
  stats.worker_id = stats_field(fields, "worker");
  if (stats.worker_id.empty()) stats.worker_id = fallback_id;
  stats.completed = static_cast<std::size_t>(
      try_parse_u64(stats_field(fields, "completed")).value_or(0));
  stats.failed = static_cast<std::size_t>(
      try_parse_u64(stats_field(fields, "failed")).value_or(0));
  stats.in_flight = static_cast<std::size_t>(
      try_parse_u64(stats_field(fields, "in_flight")).value_or(0));
  stats.elapsed_s = parse_stat_double(stats_field(fields, "elapsed_s"));
  stats.cells_per_s = parse_stat_double(stats_field(fields, "cells_per_s"));
  // Files written before the sliding window existed lack the field; the
  // lifetime average is the best available estimate there.
  stats.window_cells_per_s =
      fields.count("window_cells_per_s") != 0
          ? parse_stat_double(stats_field(fields, "window_cells_per_s"))
          : stats.cells_per_s;
  return stats;
}

}  // namespace

std::vector<WorkerStats> WorkQueue::read_worker_stats() const {
  // Probe-relative ages, falling back to the local clock when the probe
  // cannot be written — an age of 0 would make long-dead workers look
  // freshly alive in status views.
  const auto now_ref =
      probe_now().value_or(fs::file_time_type::clock::now());
  std::vector<WorkerStats> all;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(workers_dir(), ec)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != ".stats") {
      continue;
    }
    auto stats = parse_worker_stats(entry.path().string(),
                                    entry.path().stem().string());
    if (!stats) continue;
    const auto mtime = entry.last_write_time(ec);
    if (!ec) {
      stats->heartbeat_age_s = std::max(
          0.0, std::chrono::duration<double>(now_ref - mtime).count());
    }
    all.push_back(std::move(*stats));
  }
  std::sort(all.begin(), all.end(),
            [](const WorkerStats& a, const WorkerStats& b) {
              return a.worker_id < b.worker_id;
            });
  return all;
}

std::optional<WorkerStats> WorkQueue::read_worker_stats(
    const std::string& worker_id) const {
  return parse_worker_stats(
      (fs::path(workers_dir()) / (worker_id + ".stats")).string(),
      worker_id);
}

void WorkQueue::remove_worker_stats(const std::string& worker_id) const {
  std::error_code ec;
  fs::remove((fs::path(workers_dir()) / (worker_id + ".stats")).string(),
             ec);
}

void WorkQueue::write_worker_metrics(const std::string& worker_id,
                                     const std::string& rendered) const {
  require_worker_id(worker_id);
  write_file_atomically(
      (fs::path(workers_dir()) / (worker_id + ".metrics")).string(),
      rendered, "worker metrics");
}

std::vector<std::pair<std::string, std::string>>
WorkQueue::read_worker_metrics() const {
  std::vector<std::pair<std::string, std::string>> all;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(workers_dir(), ec)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != ".metrics") {
      continue;
    }
    auto text = read_text_file(entry.path().string());
    if (!text) continue;
    all.emplace_back(entry.path().stem().string(), std::move(*text));
  }
  std::sort(all.begin(), all.end());
  return all;
}

RateWindow::RateWindow(double window_s)
    : window_s_(window_s > 0.0 ? window_s : 30.0) {}

void RateWindow::sample(double t_s, std::size_t completed) {
  samples_.emplace_back(t_s, completed);
  // Keep exactly one sample at or beyond the window's trailing edge: it
  // anchors the difference so rate() spans the full window, while
  // anything older only stretches the denominator into history.
  while (samples_.size() >= 2 &&
         samples_[1].first <= t_s - window_s_) {
    samples_.erase(samples_.begin());
  }
}

double RateWindow::rate() const {
  if (samples_.size() < 2) return 0.0;
  const double dt = samples_.back().first - samples_.front().first;
  if (dt <= 0.0) return 0.0;
  const std::size_t dc = samples_.back().second - samples_.front().second;
  return static_cast<double>(dc) / dt;
}

namespace {

/// Hot-path metric handles, resolved once (registry lookups take a lock).
struct QueueMetrics {
  obs::Counter& claims = obs::Registry::global().counter("queue.claims");
  obs::Counter& cells_claimed =
      obs::Registry::global().counter("queue.cells_claimed");
  obs::Counter& cells_published =
      obs::Registry::global().counter("queue.cells_published");
  obs::Histogram& claim_latency_s =
      obs::Registry::global().histogram("queue.claim_latency_s");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics metrics;
  return metrics;
}

}  // namespace

WorkerReport run_worker(const WorkQueue& queue, const ExecutionPlan& plan,
                        const sweep::SweepOptions& options,
                        const WorkerConfig& config) {
  require_worker_id(config.worker_id);
  BBRM_REQUIRE_MSG(config.poll_s > 0.0, "poll interval must be positive");
  const std::string& worker_id = config.worker_id;
  const std::size_t max_cells = config.max_cells;
  // The claim cap: an explicit batch, else one whole seed-time segment
  // (one cell on a per-cell layout queue, which records no segment size).
  const std::size_t claim_cells =
      config.batch != 0 ? config.batch
                        : std::max<std::size_t>(1, queue.segment_cells());

  // One options template per claimed unit: tasks go through the ordinary
  // engine path, so caching, timeout, and retry behave exactly as in a
  // single-process sweep. Parallelism comes from concurrent claim loops,
  // not from the per-unit pool; batch_cells decides whether the cells of
  // a unit run one at a time or grouped through a batch-capable runner.
  sweep::SweepOptions cell_options = options;
  cell_options.threads = 1;
  cell_options.shard = {};
  cell_options.refine = nullptr;
  cell_options.progress = nullptr;
  cell_options.batch_cells = config.batch_cells;
  if (!cell_options.runner) {
    cell_options.runner = plan.runner_name().empty()
                              ? sweep::backend_runner()
                              : sweep::runner_by_name(plan.runner_name());
  }
  // Which cells of a claim go through one grouped run_tasks call — the
  // ones run_tasks would batch (see sweep::SweepOptions::batch_cells);
  // every other cell runs and publishes on its own, so a crash mid-claim
  // loses at most the cell (or batch) in progress.
  const sweep::Runner& runner = cell_options.runner;
  const std::size_t requested = cell_options.batch_cells == 0
                                    ? runner.preferred_batch
                                    : cell_options.batch_cells;
  const bool batching = runner.run_batch && requested > 1 &&
                        cell_options.timeout_s <= 0.0;

  const auto started = std::chrono::steady_clock::now();
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> in_flight_cells{0};

  // Heartbeat: one background thread renews every in-flight lease well
  // inside the expiry window, so long cells survive short leases — one
  // touch per claimed *unit*, however many cells it batches. The same
  // cadence refreshes this worker's stats file when asked to.
  std::mutex mutex;
  std::map<std::string, Claim> in_flight;  // by active_name
  bool stop = false;
  std::condition_variable cv;
  // The rate window feeds `window_cells_per_s` (current throughput, what
  // gather_scale_inputs sizes fleets from); sampled from the claim loops
  // and the heartbeat thread, so it needs its own lock.
  std::mutex rate_mutex;
  RateWindow rate_window;
  const auto snapshot_stats = [&] {
    WorkerStats stats;
    stats.worker_id = worker_id;
    stats.completed = completed.load();
    stats.failed = failed.load();
    stats.in_flight = in_flight_cells.load();
    stats.elapsed_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    stats.cells_per_s = stats.elapsed_s > 0.0
                            ? static_cast<double>(stats.completed) /
                                  stats.elapsed_s
                            : 0.0;
    {
      std::lock_guard<std::mutex> lock(rate_mutex);
      rate_window.sample(stats.elapsed_s, stats.completed);
      stats.window_cells_per_s = rate_window.rate();
    }
    return stats;
  };
  // Stats are advisory: a failed write (full disk, unwritable workers/)
  // must never take the worker down — least of all from the heartbeat
  // thread, where an uncaught exception would std::terminate with every
  // in-flight claim still held.
  const auto write_stats = [&] {
    if (!config.stats) return;
    try {
      queue.write_worker_stats(snapshot_stats());
      if (config.metrics) {
        queue.write_worker_metrics(
            worker_id,
            obs::render_metrics(obs::Registry::global().snapshot()));
      }
    } catch (...) {
    }
  };
  // Per-publish refresh, throttled to ~1/s so fast drains do not double
  // their write traffic: the fleet's strike budget reads `completed` to
  // tell a productive crash from a broken slot, so a kill between
  // heartbeat ticks must still find recent credit in the stats file.
  std::atomic<std::int64_t> last_stats_ms{0};
  const auto write_stats_throttled = [&] {
    if (!config.stats) return;
    const std::int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    std::int64_t last = last_stats_ms.load();
    if (now_ms - last < 1000) return;
    if (!last_stats_ms.compare_exchange_strong(last, now_ms)) return;
    write_stats();
  };
  // Report in before doing anything: the slot exists (for status views
  // and the fleet's progress attribution) even if this worker dies
  // before its first heartbeat tick.
  write_stats();
  std::thread heartbeat([&] {
    const auto interval = std::chrono::duration<double>(
        std::max(0.01, queue.lease_s() / 4.0));
    std::unique_lock<std::mutex> lock(mutex);
    while (!cv.wait_for(lock, interval, [&] { return stop; })) {
      const std::map<std::string, Claim> snapshot = in_flight;
      lock.unlock();
      {
        obs::Span span("lease-renew", "queue");
        span.arg("claims", static_cast<std::uint64_t>(snapshot.size()));
        for (const auto& [name, claim] : snapshot) {
          (void)name;
          queue.renew(claim);  // a lost lease is benign; see .h
        }
      }
      write_stats();
      lock.lock();
    }
  });

  // max_cells is a publish *budget*: a loop reserves its slots before it
  // claims (and returns unused slots on a short or failed claim), so
  // concurrent loops cannot overshoot the cap by claiming simultaneously.
  std::atomic<std::size_t> budget{0};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  const std::size_t loops = std::max<std::size_t>(
      1, options.threads != 0 ? options.threads
                              : sweep::ThreadPool::hardware_threads());

  // Idle loops wait here together: one polls the plan's completion, the
  // others sleep until it is seen or a sibling finishes a claim.
  CompletionWait completion(queue, plan.size(), config.poll_s);
  // Lease recovery keeps the poll cadence however often idle loops wake;
  // the first empty claim recovers at once.
  std::atomic<std::int64_t> last_recover_ms{-1};
  const auto recovery_due = [&] {
    const std::int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    std::int64_t last = last_recover_ms.load();
    if (last >= 0 && static_cast<double>(now_ms - last) <
                         1000.0 * config.poll_s) {
      return false;
    }
    return last_recover_ms.compare_exchange_strong(last, now_ms);
  };
  const auto publish_row = [&](const sweep::TaskResult& row) {
    queue.publish(row, worker_id);
    queue_metrics().cells_published.add();
    in_flight_cells.fetch_sub(1);
    completed.fetch_add(1);
    if (!row.ok) failed.fetch_add(1);
    // A kill mid-claim must still find this cell's credit in the stats
    // file (throttled, so fast drains keep their write budget for
    // results).
    write_stats_throttled();
  };

  const auto claim_loop = [&] {
    while (!abort.load()) {
      std::size_t reserved = claim_cells;
      if (max_cells != 0) {
        std::size_t spent = budget.load();
        while (true) {
          if (spent >= max_cells) return;  // budget exhausted
          const std::size_t take = std::min(claim_cells, max_cells - spent);
          if (budget.compare_exchange_weak(spent, spent + take)) {
            reserved = take;
            break;
          }
        }
      }
      const auto claim_start = std::chrono::steady_clock::now();
      std::optional<Claim> claim;
      {
        obs::Span span("claim", "queue");
        claim = queue.try_claim_batch(worker_id, reserved);
        if (!claim && recovery_due()) {
          // Nothing pending: a crashed peer may be holding expired leases.
          obs::Span recover_span("recover", "queue");
          queue.recover_expired();
          claim = queue.try_claim_batch(worker_id, reserved);
        }
        if (claim) {
          span.arg("cells", static_cast<std::uint64_t>(claim->indices.size()));
        }
      }
      if (claim) {
        queue_metrics().claims.add();
        queue_metrics().cells_claimed.add(claim->indices.size());
        queue_metrics().claim_latency_s.observe(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          claim_start)
                .count());
      }
      if (!claim) {
        if (max_cells != 0) budget.fetch_sub(reserved);  // nothing to spend
        obs::Span span("idle", "queue");
        if (completion.wait()) return;
        continue;
      }
      // `charged` tracks the budget slots this claim still holds, so the
      // failure path can give back exactly what was never published.
      std::size_t charged = reserved;
      std::size_t published = 0;
      bool registered = false;
      try {
        // A pending entry is claimed whole by one rename and may exceed
        // the reservation; give the surplus back so the claim cap and
        // --max-cells stay exact.
        if (claim->indices.size() > reserved) {
          queue.trim(*claim, reserved);
        } else if (claim->indices.size() < reserved) {
          if (max_cells != 0) {
            budget.fetch_sub(reserved - claim->indices.size());
          }
          charged = claim->indices.size();
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          in_flight[claim->active_name] = *claim;
        }
        registered = true;
        in_flight_cells.fetch_add(claim->indices.size());
        // run_tasks wants strictly increasing task indices; a claim's
        // members may be coalesced singles in any order.
        std::vector<std::size_t> ordered(claim->indices);
        std::sort(ordered.begin(), ordered.end());
        std::vector<sweep::SweepTask> grouped;
        for (const std::size_t index : ordered) {
          const sweep::SweepTask& cell = plan.cell_by_index(index);
          if (batching && runner.can_batch(cell)) {
            grouped.push_back(cell);
            continue;
          }
          const auto result = sweep::run_tasks({cell}, cell_options);
          obs::Span span("append", "queue");
          publish_row(result.row(0));
          ++published;
        }
        if (!grouped.empty()) {
          // Lockstep batches form exactly as in a plain run_sweep (bitwise
          // identical to the cell-at-a-time path, just faster).
          const auto result = sweep::run_tasks(grouped, cell_options);
          obs::Span span("append", "queue");
          span.arg("cells", static_cast<std::uint64_t>(grouped.size()));
          for (std::size_t k = 0; k < grouped.size(); ++k) {
            publish_row(result.row(k));
            ++published;
          }
        }
        queue.finish(*claim);
        completion.notify();
        write_stats_throttled();
      } catch (...) {
        // Give the unfinished members back right away (and stop
        // heartbeating the unit): peers must not wait out a lease for
        // work this worker knows it abandoned — including when the
        // failure struck in trim() or the bookkeeping above, before any
        // member ran. Runner failures never land here — they are
        // reported rows; this is lookup/publish breakage.
        if (registered) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            in_flight.erase(claim->active_name);
          }
          in_flight_cells.fetch_sub(claim->indices.size() - published);
        }
        if (max_cells != 0) budget.fetch_sub(charged - published);
        queue.release(*claim);
        throw;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        in_flight.erase(claim->active_name);
      }
    }
  };

  // Exceptions must surface as the loud error they were written to be,
  // not as std::terminate from a detached thread: capture the first one,
  // wind the other loops down, and rethrow on the caller's thread.
  const auto guarded_loop = [&] {
    try {
      claim_loop();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
        abort.store(true);
      }
      completion.notify();  // idle siblings must see the abort now
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) workers.emplace_back(guarded_loop);
  for (auto& w : workers) w.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    stop = true;
  }
  cv.notify_all();
  heartbeat.join();
  write_stats();
  if (first_error) std::rethrow_exception(first_error);

  return {completed.load(), failed.load()};
}

ResultCollector::ResultCollector(const WorkQueue& queue,
                                 const ExecutionPlan& plan, std::ostream& csv)
    : queue_(queue), plan_(plan) {
  csv_.emplace(csv, sweep::SweepResult::csv_header());
}

ResultCollector::ResultCollector(const WorkQueue& queue,
                                 const ExecutionPlan& plan, JsonWriter& rows)
    : queue_(queue), plan_(plan), json_(&rows) {}

bool ResultCollector::write_next(bool all) {
  const sweep::SweepTask& cell = plan_.cell(next_);
  const auto result = queue_.load_result(cell, /*row_only=*/true);
  if (!all && (!result || !result->ok)) return false;
  BBRM_REQUIRE_MSG(result.has_value(),
                   "queue " + queue_.dir() + " has no result for cell " +
                       std::to_string(cell.index) + " (" +
                       plan_.describe_cell(cell.index) + ")");
  if (!result->ok) ++failed_;
  if (csv_) {
    sweep::write_result_csv_row(*csv_, *result);
  } else {
    sweep::write_result_json_row(*json_, *result);
  }
  ++next_;
  return true;
}

std::size_t ResultCollector::advance() {
  const std::size_t start = next_;
  while (next_ < plan_.size() && write_next(/*all=*/false)) {
  }
  return next_ - start;
}

std::size_t ResultCollector::finish() {
  while (next_ < plan_.size()) write_next(/*all=*/true);
  return failed_;
}

std::size_t collect_csv(const WorkQueue& queue, const ExecutionPlan& plan,
                        std::ostream& out) {
  return ResultCollector(queue, plan, out).finish();
}

std::size_t collect_json(const WorkQueue& queue, const ExecutionPlan& plan,
                         std::ostream& out) {
  // The envelope's totals precede the rows, so count failures first —
  // status lines only, not a second full metrics decode of every cell.
  std::size_t failed = 0;
  for (const auto& cell : plan.cells()) {
    const auto ok = queue.result_ok(cell.index);
    BBRM_REQUIRE_MSG(ok.has_value(),
                     "queue " + queue.dir() + " has no result for cell " +
                         std::to_string(cell.index) + " (" +
                         plan.describe_cell(cell.index) + ")");
    if (!*ok) ++failed;
  }
  sweep::write_sweep_json(out, plan.size(), failed, [&](JsonWriter& j) {
    ResultCollector(queue, plan, j).finish();
  });
  return failed;
}

}  // namespace bbrmodel::orchestrator
