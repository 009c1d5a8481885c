// Durable, file-based work queue: any number of worker processes on any
// machines drain one ExecutionPlan cooperatively.
//
// The queue is a directory on a filesystem the participants share (local
// disk for multi-process runs, NFS/EFS-style mounts for multi-machine
// ones — rename atomicity and reasonably coherent mtimes are the only
// requirements):
//
//   <dir>/plan.bbrplan            the serialized ExecutionPlan (layout 2
//                                 prefixes it with "bbrm-queue-layout=2")
//   <dir>/pending/<index>.cell    one file per unclaimed cell
//   <dir>/pending/<index>.bK.batch   one file per unclaimed K-cell batch
//                                 (first member's index; members listed
//                                 one per line inside; K in the name so
//                                 progress counts without opening files)
//   <dir>/active/<index>.<worker>.cell        a claimed cell (lease)
//   <dir>/active/<index>.bK.<worker>.batch    a claimed batch (one lease
//                                             for all members)
//   <dir>/results/<index>.cell    layout 1: a finished cell
//   <dir>/results/<worker>.rlog   layout 2: one append-only binary log of
//                                 finished cells per worker (framed
//                                 records, hash-sealed tails)
//   <dir>/failed/<index>.cell     layout 2: a *failed* cell (rare; kept
//                                 per-cell so re-seeding can drop it)
//   <dir>/counters                layout 2: total/segment size, written
//                                 once at seed (O(1) status)
//   <dir>/workers/<id>.pub        layout 2: per-worker publish checkpoint
//                                 (records + log bytes covered), rewritten
//                                 every 256 records and at exit, never per
//                                 claim — an accelerator, not an
//                                 authority: readers tail-scan each log
//                                 past its checkpoint (at most 256
//                                 records), so counts stay exact
//   <dir>/workers/<id>.stats      per-worker progress (heartbeat mtime)
//   <dir>/probe                   mtime reference for lease expiry
//
// Two result layouts share the claim protocol. Layout 1 (per-cell,
// legacy) publishes one `results/<index>.cell` per finished cell — O(cells)
// file creates and readdirs, fine up to ~10^5 cells. Layout 2 (segment)
// seeds pending work as K-cell segment files (the existing batch entries;
// a segment is still claimed by one rename), appends finished cells to a
// per-worker binary log, and keeps `bbrsweep status` O(1) through the
// counters file plus per-worker checkpoints — the filesystem holds
// O(cells/K) entries however big the plan. The layout is stamped into
// plan.bbrplan at seed time and detected by everyone else from the stamp,
// so old queue directories keep draining with the per-cell code paths and
// mixed-layout re-seeding fails the plan byte-compare loudly.
//
// Mutual exclusion comes from rename(2): a worker claims a pending entry
// by renaming it into active/ under the worker's name — the filesystem
// guarantees exactly one renamer wins, and the loser simply moves on. A
// pending entry is one cell or one batch of K cells; either way the claim
// is a single rename, which is what lets fast runners (the closed-form
// reduced theory) drain large plans without the queue itself becoming the
// bottleneck. Batches are claimed, leased, released, and recovered as one
// unit, but results publish per cell, so a crash mid-batch only
// re-enqueues the unfinished members.
//
// A lease is the active file's mtime plus the queue's lease duration.
// Workers heartbeat by *writing* a byte back into their active files (not
// by setting an explicit timestamp), so on a network mount the mtime
// comes from the filesystem's own clock. Expiry likewise never consults
// this host's wall clock: recovery touches the queue's probe file the
// same way and compares mtime deltas against lease + a skew margin
// (default lease/4), so cross-host clock skew cannot expire a healthy
// worker's lease. Anyone (worker or coordinator) may re-enqueue an
// expired entry — that is the whole crash story. A worker that lost its
// lease but finishes anyway publishes bytes identical to the re-run
// (runners are deterministic), so every race here is benign: results are
// published by atomic rename and double-completion rewrites the same
// bytes.
//
// Results stream out one cell at a time — a worker holds at most its
// in-flight cells in memory, and the collector (ResultCollector) emits the
// final CSV/JSON row by row through the same emitters a single-process
// SweepResult uses, so the merged output is byte-identical to `run_sweep`
// by construction. The collect streams while the fleet drains: the
// coordinator writes the rows of the leading published cells on every
// completion-wait wake-up, so only the last few rows remain once the plan
// completes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "orchestrator/execution_plan.h"

namespace bbrmodel {
class JsonWriter;
}  // namespace bbrmodel

namespace bbrmodel::orchestrator {

/// How a queue directory stores results (see the layout table above).
enum class QueueLayout {
  kPerCell = 1,  ///< one results/<index>.cell per finished cell (legacy)
  kSegment = 2,  ///< per-worker result logs + counters file
};

/// The O(1) status view of a segment-layout queue: totals from the
/// seed-time counters file, done from the per-worker publish checkpoints
/// (plus a bounded tail scan of each log past its checkpoint), active from
/// the in-flight claim names, pending derived. `done` counts published
/// records, so a benign double-completion (a lease steal where both
/// workers finish) can transiently overcount — completion decisions use
/// the exact done_count(), displays use this. On a per-cell-layout queue
/// counters() falls back to the directory census, so callers need not
/// branch.
struct QueueCounters {
  std::size_t total = 0;    ///< plan size (0 when unknown)
  std::size_t done = 0;     ///< published cells (records + failed files)
  std::size_t failed = 0;   ///< of done, cells whose task failed
  std::size_t active = 0;   ///< cells covered by live claims
  std::size_t pending = 0;  ///< total - done - active (clamped at 0)
  std::size_t segment_cells = 0;  ///< seed-time segment size (layout 2)
  QueueLayout layout = QueueLayout::kPerCell;
};

/// Queue directory census, from one pass over the three state dirs.
/// Counts are cells, not files: a pending batch contributes every member
/// it lists, an active batch only the members whose result has not been
/// published yet — so done + active + pending never exceeds the plan,
/// except transiently while a batch is being trimmed or recovered (the
/// crash-safe ordering re-enqueues members *before* shrinking the
/// manifest that still lists them, so a concurrent census can briefly
/// count those members twice).
struct QueueProgress {
  std::size_t pending = 0;
  std::size_t active = 0;
  std::size_t done = 0;
};

/// One claimed unit of work: a single cell or a whole batch. The member
/// indices are ascending; `active_name` is the claim file under active/
/// that carries the unit's lease.
struct Claim {
  std::vector<std::size_t> indices;
  std::string active_name;
  bool batch = false;
};

/// One worker's progress snapshot, written to workers/<id>.stats on every
/// heartbeat tick and read back by `bbrsweep status` / the coordinator's
/// watch line. The stats file's mtime is the worker's last heartbeat;
/// `heartbeat_age_s` is filled on read, probe-relative (skew-safe).
struct WorkerStats {
  std::string worker_id;
  std::size_t completed = 0;   ///< cells this worker published
  std::size_t failed = 0;      ///< of those, cells whose task failed
  std::size_t in_flight = 0;   ///< cells currently claimed by this worker
  double elapsed_s = 0.0;      ///< run_worker wall clock so far
  double cells_per_s = 0.0;    ///< completed / elapsed (lifetime average)
  /// Throughput over the trailing RateWindow (current rate, the one the
  /// dashboard and autoscaler should trust). Falls back to the lifetime
  /// average when reading stats files written before this field existed.
  double window_cells_per_s = 0.0;
  double heartbeat_age_s = 0.0;  ///< seconds since the last stats write
};

/// Trailing-window throughput estimator behind WorkerStats'
/// `window_cells_per_s`. A lifetime average (`completed / elapsed`)
/// underreports a worker that idled through a long startup or backlog
/// gap and overreports one that just stalled — `gather_scale_inputs`
/// sizing a fleet off it reacts minutes late. sample() records the
/// cumulative completed count at elapsed time `t_s`; rate() differences
/// the newest sample against the oldest retained one. One sample older
/// than `window_s` is kept as the anchor, so the estimate always spans
/// the full window once enough history exists (and degrades gracefully
/// to the lifetime average before that).
class RateWindow {
 public:
  explicit RateWindow(double window_s = 30.0);

  /// Record cumulative `completed` at monotonically nondecreasing `t_s`.
  void sample(double t_s, std::size_t completed);

  /// Cells/s over the retained span; 0 before time has advanced.
  double rate() const;

 private:
  double window_s_;
  std::vector<std::pair<double, std::size_t>> samples_;
};

class WorkQueue {
 public:
  /// Attach to a queue directory (created on demand). `lease_s` is how
  /// long a claimed entry may go without a heartbeat before any
  /// participant may re-enqueue it; it bounds the recovery latency after
  /// a worker crash. `skew_margin_s` is the extra slack recovery grants
  /// on top of the lease before declaring it expired, absorbing cross-host
  /// clock skew in the mtimes participants stamp; negative picks the
  /// default of lease/4.
  explicit WorkQueue(std::string dir, double lease_s = 60.0,
                     double skew_margin_s = -1.0);

  /// Flushes publish checkpoints and closes cached log handles. The
  /// destructor never throws; a checkpoint that cannot be written is
  /// recovered by the next reader's tail scan.
  ~WorkQueue();
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  const std::string& dir() const { return dir_; }
  double lease_s() const { return lease_s_; }
  double skew_margin_s() const { return skew_margin_s_; }

  /// Coordinator: publish the plan and this queue's lease parameters,
  /// then enqueue every cell that is not already claimed or finished —
  /// as single-cell entries, or chunked into `batch`-cell batch files
  /// claimable by one rename each. Cells whose stored result is *failed*
  /// are re-enqueued (the result file is dropped): a transient failure
  /// must be re-attempted on the next run, never served forever.
  /// Idempotent — re-seeding after a coordinator crash resumes the run;
  /// seeding a *different* plan into a non-empty queue throws
  /// (byte-compared against the stored plan, which also rejects mixing
  /// layouts in one directory — the layout stamp is part of the bytes).
  ///
  /// `segment_cells` > 0 selects the segment layout: pending work is
  /// chunked into segments of that many cells (superseding `batch`),
  /// results go to per-worker logs, and status is O(1) through the
  /// counters file. 0 keeps the legacy per-cell layout with `batch`-cell
  /// chunking. `bbrsweep coordinator` always seeds the segment layout,
  /// sized by segment_cells_for() unless --segment-cells overrides it.
  void seed(const ExecutionPlan& plan, std::size_t batch = 1,
            std::size_t segment_cells = 0) const;

  bool has_plan() const;
  ExecutionPlan load_plan() const;

  /// The stored layout, detected from the plan file's stamp. kPerCell
  /// before a plan exists (and for every pre-stamp directory).
  QueueLayout layout() const;

  /// The stored plan's cell count from its header lines alone — no full
  /// parse of a million specs. nullopt when no plan is stored.
  std::optional<std::size_t> plan_size_hint() const;

  /// The seed-time segment size from the counters file; 0 on a per-cell
  /// layout queue (or before a plan is seeded). The default claim cap.
  std::size_t segment_cells() const;

  /// The lease duration / skew margin the seeding coordinator recorded in
  /// `dir`, if any. Workers adopt them unless explicitly overridden —
  /// mismatched per-process leases would let one participant steal
  /// another's live claims (benign for correctness, wasteful for
  /// compute).
  static std::optional<double> stored_lease_s(const std::string& dir);
  static std::optional<double> stored_skew_margin_s(const std::string& dir);

  /// Worker: claim the lowest-index pending cell by atomic rename.
  /// nullopt when nothing is pending (work may still be active
  /// elsewhere). `worker_id` must be filesystem-safe ([A-Za-z0-9_-]).
  /// Single-cell API: throws when the queue was seeded with batches (use
  /// try_claim_batch, which handles both).
  std::optional<std::size_t> try_claim(const std::string& worker_id) const;

  /// Worker: claim up to `max_cells` cells as one leased unit with a
  /// single heartbeat file. A pending batch entry is claimed whole by one
  /// rename (even when it holds more than `max_cells` members — trim()
  /// gives the surplus back); pending singles are claimed individually
  /// and coalesced into one batch manifest. nullopt when nothing is
  /// pending.
  std::optional<Claim> try_claim_batch(const std::string& worker_id,
                                       std::size_t max_cells) const;

  /// Give the tail of an oversized claim back to the queue: members past
  /// `keep` are re-enqueued (as one pending segment entry on the segment
  /// layout, as singles on the per-cell one) and the claim's manifest
  /// shrinks to the kept members (the owning worker is baked into the
  /// claim). Needed when a claimed entry exceeds a worker's claim cap or
  /// its remaining --max-cells budget.
  void trim(Claim& claim, std::size_t keep) const;

  /// Heartbeat: refresh the lease on a cell this worker claimed. Returns
  /// false when the lease is no longer held (expired and re-enqueued or
  /// reclaimed) — the computation may finish anyway; publishing a result
  /// twice is benign.
  bool renew(std::size_t index, const std::string& worker_id) const;

  /// Heartbeat a whole claim unit (one touch regardless of batch size).
  bool renew(const Claim& claim) const;

  /// Publish one finished cell without touching the claim — the per-cell
  /// half of batch completion, so a crash mid-batch loses only the
  /// unpublished members. Per-cell layout: an atomic rename into
  /// results/. Segment layout: one framed, hash-sealed append to
  /// `worker_id`'s result log (failed cells go to per-cell files under
  /// failed/ so a re-seed can drop and retry them); the no-worker
  /// overload logs under this process's default worker id.
  void publish(const sweep::TaskResult& result) const;
  void publish(const sweep::TaskResult& result,
               const std::string& worker_id) const;

  /// Publish a finished cell (atomic rename) and release the claim —
  /// single-cell convenience equal to publish() + finish().
  void complete(const sweep::TaskResult& result,
                const std::string& worker_id) const;

  /// Drop a claim whose members were all published.
  void finish(const Claim& claim) const;

  /// Return a claimed cell to pending without a result — a worker
  /// abandoning work it knows it cannot finish (e.g. an exception on its
  /// way to complete()), so peers need not wait out the lease.
  void release(std::size_t index, const std::string& worker_id) const;

  /// Release a whole claim: members without a published result go back to
  /// pending (one segment entry on the segment layout, singles on the
  /// per-cell one), published ones are left done, and the claim file is
  /// dropped.
  void release(const Claim& claim) const;

  /// Number of *distinct* finished cells — the completion check worker
  /// loops poll with. Per-cell layout: one directory count. Segment
  /// layout: the incremental result index (each log byte is read once per
  /// process, then only growth), exact even under benign double
  /// completion.
  std::size_t done_count() const;

  /// The O(1) status view (see QueueCounters). Segment layout: reads the
  /// counters file, the workers/ checkpoints (+ bounded log tails), and
  /// the in-flight claim names — never pending/ or the result logs in
  /// full. Per-cell layout: falls back to the directory census with the
  /// total taken from the plan header.
  QueueCounters counters() const;

  /// Re-enqueue every active entry whose lease expired (probe-relative
  /// mtime delta > lease + skew margin); stale claims whose result was
  /// already published are simply dropped, and an expired batch
  /// re-enqueues only its unpublished members (as one segment entry on the
  /// segment layout). Returns how many cells went back to pending.
  std::size_t recover_expired() const;

  /// Counts for progress displays and completion checks (done counts
  /// result files; completion = done >= plan.size()).
  QueueProgress progress() const;

  /// Read one finished cell back, joining the stored status/metrics with
  /// the plan's task coordinates. nullopt when the cell has no result yet
  /// or the file is damaged. `row_only` decodes just what a result row
  /// prints (the scalar metrics; see sweep::decode_cell_metrics), as the
  /// collectors do.
  std::optional<sweep::TaskResult> load_result(const sweep::SweepTask& task,
                                               bool row_only = false) const;

  /// Status-only peek at a result: true = ok, false = failed, nullopt =
  /// absent/damaged. Reads one line, not the metrics — the cheap half of
  /// collect_json's totals pre-pass.
  std::optional<bool> result_ok(std::size_t index) const;

  /// Atomically (re)write this worker's stats file; its mtime doubles as
  /// the worker's heartbeat for `bbrsweep status`.
  void write_worker_stats(const WorkerStats& stats) const;

  /// Every worker stats file in the queue, sorted by worker id, with
  /// heartbeat ages measured against the probe file (skew-safe).
  std::vector<WorkerStats> read_worker_stats() const;

  /// One worker's stats file — a single open, no probe write and no
  /// heartbeat age (left 0). nullopt when the worker never reported.
  std::optional<WorkerStats> read_worker_stats(
      const std::string& worker_id) const;

  /// Drop one worker's stats file (no-op when absent). The fleet calls
  /// this before each (re)spawn so a generation's `completed` count can
  /// only come from the generation that just ran.
  void remove_worker_stats(const std::string& worker_id) const;

  /// Atomically (re)write workers/<id>.metrics — a pre-rendered
  /// obs::render_metrics snapshot shipped home through the shared queue
  /// directory for `bbrsweep status --metrics` / `--json`.
  void write_worker_metrics(const std::string& worker_id,
                            const std::string& rendered) const;

  /// Every (worker id, metrics file text) pair, sorted by worker id.
  std::vector<std::pair<std::string, std::string>> read_worker_metrics()
      const;

 private:
  std::string pending_dir() const;
  std::string active_dir() const;
  std::string results_dir() const;
  std::string failed_dir() const;
  std::string workers_dir() const;
  std::string plan_path() const;
  std::string counters_path() const;
  std::string probe_path() const;
  std::string pending_path(std::size_t index) const;
  /// Batch file names carry their member count ("<index>.b<count>.batch")
  /// so progress counting never opens them.
  std::string pending_batch_path(std::size_t index,
                                 std::size_t count) const;
  std::string active_path(std::size_t index,
                          const std::string& worker_id) const;
  std::string active_batch_path(std::size_t index,
                                const std::string& worker_id,
                                std::size_t count) const;
  std::string result_path(std::size_t index) const;
  std::string failed_path(std::size_t index) const;
  std::string log_path(const std::string& worker_id) const;
  std::string checkpoint_path(const std::string& worker_id) const;
  /// Re-stamp the probe file by writing it and return its fresh mtime —
  /// "now" according to the queue filesystem's own clock. Rate-limited:
  /// within lease/4 of the last write the cached mtime is advanced by
  /// locally elapsed time instead, so watch loops polling every tick do
  /// not write the shared mount every tick.
  std::optional<std::filesystem::file_time_type> probe_now() const;
  /// Put re-enqueued pending names back into the cached claim backlog at
  /// their sorted positions, so peers see them without a full relist.
  void backlog_insert(std::vector<std::string> names) const;
  /// Write unpublished `members` (ascending) back to pending and return
  /// the names written: one entry for the lot on the segment layout —
  /// a split never turns a segment into K single files — and one single
  /// per member on the per-cell layout.
  std::vector<std::string> requeue(
      const std::vector<std::size_t>& members) const;

  /// Segment layout internals. One record of a worker's result log,
  /// located for on-demand reads.
  struct ResultLoc {
    std::uint64_t offset = 0;    ///< record start within the log
    std::uint32_t log = 0;       ///< index into logs_
    std::uint32_t bytes : 31;    ///< record length (framing included)
    std::uint32_t ok : 1;        ///< the record's ok flag
    ResultLoc() : bytes(0), ok(1) {}
  };
  /// Reader-side state of one results/<worker>.rlog.
  struct LogState {
    std::string name;            ///< file name under results/
    std::uint64_t consumed = 0;  ///< bytes parsed into the index so far
    std::FILE* read = nullptr;   ///< cached pread handle for collect
  };
  /// Writer-side state of one worker's log in this process.
  struct PubState {
    std::FILE* append = nullptr;
    std::uint64_t records = 0;   ///< records the log holds (checkpointed)
    std::uint64_t bytes = 0;     ///< log size covered by `records`
    std::uint64_t unflushed = 0; ///< records since the last .pub rewrite
  };
  /// Pull every log's new bytes into the result index (one stat per log,
  /// growth read once). Caller must hold result_mutex_.
  void refresh_result_index_locked() const;
  /// The indexed record of `index`, refreshing the index only when it
  /// misses (records are first-wins, so a hit is final). nullptr when no
  /// log holds the cell. Caller must hold result_mutex_.
  const ResultLoc* find_result_locked(std::size_t index) const;
  /// Has `index` a published result? Per-cell layout stats the result
  /// file. Segment layout refreshes the index into `result_lock` on first
  /// use (refresh-once-per-sweep for callers probing many members), then
  /// answers from the index plus one failed-file stat.
  bool result_published(
      std::size_t index,
      std::optional<std::unique_lock<std::mutex>>& result_lock) const;
  /// This process's append handle for `worker_id`'s log, opened (and the
  /// log's tail validated/truncated from the checkpoint) on first use.
  /// Caller must hold publish_mutex_.
  PubState& open_publisher_locked(const std::string& worker_id) const;
  /// Rewrite one worker's .pub checkpoint from its PubState.
  void write_checkpoint_locked(const std::string& worker_id,
                               PubState& pub) const;
  /// Flush every dirty publish checkpoint (at exit).
  void flush_published() const;
  /// The set of failed-cell indices (one readdir of failed/, O(failures)).
  std::vector<std::size_t> list_failed() const;

  std::string dir_;
  double lease_s_;
  double skew_margin_s_;
  /// Claim candidates cached from the last pending-directory listing
  /// (reverse-sorted; pop from the back = lowest index first). One
  /// listing amortizes over many claims, so draining N cells costs one
  /// readdir per backlog refill instead of one per cell. A stale entry
  /// (claimed by a peer since the listing) just fails its rename and is
  /// dropped *individually* — never by clearing the whole backlog, which
  /// would force O(n) relists under contention.
  mutable std::mutex claim_mutex_;
  mutable std::vector<std::string> claim_backlog_;
  /// probe_now()'s rate-limit state: the last written probe mtime and
  /// when (locally) it was written.
  mutable std::mutex probe_mutex_;
  mutable std::optional<std::filesystem::file_time_type> probe_value_;
  mutable std::chrono::steady_clock::time_point probe_at_{};
  /// Layout stamp cache: resolved from the plan file on first use, cached
  /// only once a plan exists (a directory may be seeded after attach).
  mutable std::mutex layout_mutex_;
  mutable std::optional<QueueLayout> layout_;
  /// Segment layout, reader side: the incremental result index. Each
  /// log's bytes are read once per process; a refresh is one stat per log
  /// plus whatever grew. Torn tail records (a crash mid-append) stay
  /// unconsumed until they complete or the log is truncated by its
  /// writer's restart.
  mutable std::mutex result_mutex_;
  mutable std::vector<LogState> logs_;
  mutable std::unordered_map<std::string, std::uint32_t> log_ids_;
  mutable std::unordered_map<std::size_t, ResultLoc> result_index_;
  /// load_result's record buffer, reused across calls.
  mutable std::string record_buffer_;
  /// Segment layout, writer side: per-worker append handles + checkpoint
  /// accumulators for this process.
  mutable std::mutex publish_mutex_;
  mutable std::map<std::string, PubState> publishers_;
};

/// Replace every byte outside [A-Za-z0-9_-] with '-': the one charset
/// worker ids may use (they become queue file names). Shared by the CLI
/// and the fleet so the rules cannot drift apart.
std::string sanitize_worker_id(std::string id);

/// Filesystem-safe default worker identity: <hostname>-<pid>.
std::string default_worker_id();

/// The segment size a plan of `cells` cells is seeded with by default:
/// ceil(cells / 64) clamped to [1, 512] — about 64 claim units per plan,
/// so every worker gets several claims while a big plan stays at
/// O(cells / 512) queue files (196 -> 4, 4000 -> 63, 50k -> 512).
/// Never decreases as the plan grows.
std::size_t segment_cells_for(std::size_t cells);

/// The next completion poll interval: a quarter of the expected time to
/// finish (`remaining` cells at the rate `progressed` cells per
/// `elapsed_s`), or a quarter of the time waited so far while nothing has
/// progressed (a geometric back-off), clamped to
/// [min(0.01 s, ceiling_s), ceiling_s]. So polls grow sparse on a long
/// plan and dense as it nears the end, and the completion is seen within
/// about a quarter of the time it took.
double completion_poll_s(std::size_t remaining, std::size_t progressed,
                         double elapsed_s, double ceiling_s);

/// The one way a queue participant waits for its plan to complete — the
/// worker's idle claim loops, the fleet monitor, and the coordinator's
/// watch loop all use it. poll() is one exact done_count() check;
/// interval_s() says when the next one is worth making
/// (completion_poll_s over what the polls have seen, the rate measured
/// from the last poll before the count first moved, and the interval at
/// most doubling from one poll to the next). wait() is the
/// in-process blocking form: one caller at a time polls, the others sleep
/// until it sees completion, notify() is called (a sibling finished a
/// claim, so the plan may be done or work may be back), or `ceiling_s`
/// passes. Thread-safe.
class CompletionWait {
 public:
  CompletionWait(const WorkQueue& queue, std::size_t plan_size,
                 double ceiling_s);

  /// One done_count() check; true (and sticky) once the plan is complete.
  bool poll();
  /// Seconds until the next poll is worth making.
  double interval_s() const;
  /// Block as described above, then report completion.
  bool wait();
  /// Wake wait()ers: the next poll happens at once.
  void notify();

 private:
  double interval_locked() const;

  const WorkQueue& queue_;
  const std::size_t plan_size_;
  const double ceiling_s_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool complete_ = false;
  bool polling_ = false;
  /// Something changed since the last poll (set by notify, and initially).
  bool dirty_ = true;
  std::uint64_t generation_ = 0;
  /// Observations (steady seconds, done count): the last one before the
  /// count first moved (rate anchor; unset before the first poll) and the
  /// latest, plus the first poll's time (the back-off origin).
  std::optional<std::pair<double, std::size_t>> anchor_;
  std::pair<double, std::size_t> last_{0.0, 0};
  double first_s_ = 0.0;
  /// Time between the latest two polls (caps the next interval's growth).
  double gap_s_ = 0.0;
};

/// What one run_worker call accomplished.
struct WorkerReport {
  std::size_t completed = 0;  ///< cells this worker published
  std::size_t failed = 0;     ///< of those, cells whose task failed
};

/// How one run_worker call behaves (identity, budget, cadence, batching).
/// The defaults are the fast path: one claim is one whole pending segment
/// and its fluid cells integrate in the runner's preferred batches.
struct WorkerConfig {
  /// Claim-file identity ([A-Za-z0-9_-]); required.
  std::string worker_id;
  /// Publish at most this many cells, then return (0 = no limit). Exact
  /// under concurrent claim loops and batching: oversized claims are
  /// trimmed back to the remaining budget.
  std::size_t max_cells = 0;
  /// Ceiling of the idle completion poll (see CompletionWait) and the
  /// cadence of lease recovery while idle.
  double poll_s = 0.05;
  /// Cells per claimed unit. 0 (default) claims one whole pending entry,
  /// capped at the seed-time segment size (one cell at a time on a
  /// per-cell layout queue). K >= 1 caps claims at K: pending singles are
  /// coalesced into one leased batch, bigger entries are trimmed.
  std::size_t batch = 0;
  /// Cells per batched runner invocation inside a claimed unit, forwarded
  /// to sweep::SweepOptions::batch_cells: 0 (default) = the runner's
  /// preferred batch, 1 = cell-at-a-time. The batch-eligible cells of a
  /// claim run through one run_tasks call; the others run and publish one
  /// at a time. Results stay bitwise identical either way — batching never
  /// changes a byte.
  std::size_t batch_cells = 0;
  /// Write workers/<id>.stats on every heartbeat tick (live dashboards).
  bool stats = false;
  /// Also snapshot the global obs::Registry to workers/<id>.metrics on
  /// each stats write (requires `stats`).
  bool metrics = false;
};

/// Drain the queue until its plan is complete (or the cell budget is
/// spent): claim (singly or in batches), execute through the engine
/// (runner resolution, caching, timeout, retry per `options` —
/// options.threads claim loops run concurrently), publish per cell,
/// repeat. A background heartbeat renews every in-flight lease at lease/4
/// cadence. Idle loops share one CompletionWait, woken early when a
/// sibling loop finishes a claim. Returns when every cell of the plan has
/// a result, however many workers produced them.
WorkerReport run_worker(const WorkQueue& queue, const ExecutionPlan& plan,
                        const sweep::SweepOptions& options,
                        const WorkerConfig& config);

/// Streaming collection: a cursor over the plan that writes each cell's
/// row, in plan order, through the same row emitters a single-process
/// SweepResult uses — so the output is byte-identical to run_sweep's by
/// construction, and nothing is held beyond one row.
///
/// advance() may run while the fleet still drains (the coordinator calls
/// it on every completion-wait wake-up): it writes the rows of every
/// leading cell whose *ok* result is published and stops at the first
/// cell without one. A failed cell therefore holds the stream until
/// finish(), which writes the rest and resolves failed cells exactly as a
/// collect after completion would — an ok record from a late duplicate
/// run still wins over the failure.
class ResultCollector {
 public:
  /// CSV rows; the header is written at once.
  ResultCollector(const WorkQueue& queue, const ExecutionPlan& plan,
                  std::ostream& csv);
  /// JSON rows into the open row array of sweep::write_sweep_json.
  ResultCollector(const WorkQueue& queue, const ExecutionPlan& plan,
                  JsonWriter& rows);

  /// Write every leading row that is ready; returns how many it wrote.
  std::size_t advance();
  /// Write every remaining row; throws PreconditionError naming the first
  /// cell without a result. Returns the failed cells among all rows.
  std::size_t finish();
  /// Rows written so far.
  std::size_t rows() const { return next_; }

 private:
  /// Write the next cell's row. Without `all`, only an ok result is
  /// written and a missing one returns false; with it, any result is
  /// written and a missing one throws.
  bool write_next(bool all);

  const WorkQueue& queue_;
  const ExecutionPlan& plan_;
  std::optional<CsvWriter> csv_;
  JsonWriter* json_ = nullptr;
  std::size_t next_ = 0;    ///< plan position of the next row
  std::size_t failed_ = 0;  ///< failed rows written
};

/// A ResultCollector run to completion after the plan is complete.
/// Throws when a cell has no result. Returns the number of failed cells.
/// Specs decode as each row is written, so on a parsed plan a malformed
/// spec surfaces here as a PreconditionError naming its cell.
std::size_t collect_csv(const WorkQueue& queue, const ExecutionPlan& plan,
                        std::ostream& out);
/// The same for the JSON envelope, whose totals precede the rows: a
/// status-only pass counts failed cells first.
std::size_t collect_json(const WorkQueue& queue, const ExecutionPlan& plan,
                         std::ostream& out);

}  // namespace bbrmodel::orchestrator
