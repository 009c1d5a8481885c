// Content-addressed cache of finished experiment cells.
//
// The paper's aggregate figures re-run the same (spec, seed) cells over and
// over — Figs. 6–10 and 13–17 share grids, every figure bench re-simulates
// on each invocation, and sharded sweeps re-expand the full grid. The
// CellCache memoizes each finished cell on disk, keyed by content:
//
//   key = <runner name> '-' <backend> '-' fnv1a64(canonical spec bytes)
//
// where the canonical bytes (scenario/spec_codec) cover every
// simulation-relevant field including the derived per-task seed. Anything
// that could change the result changes the key; anything that cannot
// (thread count, shard layout, wall clock) is excluded. A warm cache
// therefore returns byte-identical sweep output with zero simulation work,
// across processes and machines sharing the directory.
//
// Cells are one small CSV file each (exact %.17g numbers, so cached
// metrics reproduce fresh runs bit-for-bit), written via rename for
// atomicity under concurrent writers.
//
// A manifest file (`manifest.idx`) indexes the store so `stats()` and
// `gc()` never have to readdir a directory holding millions of cells:
// every `store()` appends its key and size, and gc rewrites the manifest
// with the surviving cells. The manifest is an index, not the truth — the
// cells themselves are — so it tolerates damage gracefully: a missing
// manifest is rebuilt by one directory scan (`reindex()`), entries whose
// cell vanished are dropped on the next gc, and cells added behind the
// manifest's back (e.g. files copied in by hand) are picked up by
// `bbrsweep cache reindex`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "metrics/aggregate.h"
#include "sweep/parameter_grid.h"

namespace bbrmodel::sweep {

/// On-disk footprint of a cache directory (finished cells only; in-flight
/// temp files are excluded).
struct CacheStats {
  std::size_t cells = 0;
  std::uintmax_t bytes = 0;
};

/// Outcome of one garbage collection.
struct CacheGcResult {
  std::size_t evicted_cells = 0;
  std::uintmax_t evicted_bytes = 0;
  std::size_t kept_cells = 0;
  std::uintmax_t kept_bytes = 0;
};

class CellCache {
 public:
  /// Opens (and creates, if needed) the cache directory.
  explicit CellCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Look a cell up. Counts a hit or a miss; unreadable, stale-format,
  /// or failed (all-NaN scalars) cells count as misses — a transient
  /// failure must be re-attempted on the next run, never served forever.
  std::optional<metrics::AggregateMetrics> load(const std::string& key) const;

  /// Persist a finished cell and record it in the manifest. Failed
  /// metrics (the all-NaN signature of a failed task) are silently
  /// skipped — only successes memoize. Last writer wins; concurrent
  /// writers of the same key write identical bytes (determinism), so the
  /// race is benign.
  void store(const std::string& key, const metrics::AggregateMetrics& m) const;

  std::size_t hits() const { return hits_.load(); }
  std::size_t misses() const { return misses_.load(); }
  std::size_t stores() const { return stores_.load(); }

  /// Cells and bytes currently recorded in the manifest (no directory
  /// scan; a missing manifest is rebuilt first). Duplicate appends for the
  /// same key collapse to the latest entry.
  CacheStats stats() const;

  /// Evict cells, oldest modification time first (ties broken by file
  /// name for determinism), until the store holds at most `max_bytes` of
  /// cells. Candidates come from the manifest, sizes and mtimes from the
  /// cells themselves, and the manifest is rewritten with the survivors.
  /// Content addressing makes eviction always safe: an evicted cell is
  /// simply recomputed and re-stored on next use. Adaptive and figure
  /// sweeps can therefore share one long-lived store without it growing
  /// unboundedly.
  CacheGcResult gc(std::uintmax_t max_bytes) const;

  /// Rebuild the manifest from one full directory scan — the recovery
  /// path for a missing or stale index (`bbrsweep cache reindex`).
  CacheStats reindex() const;

 private:
  std::string cell_path(const std::string& key) const;
  std::string manifest_path() const;
  /// Make sure a manifest exists, rebuilding it by scan when absent.
  void ensure_manifest() const;

  std::string dir_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> stores_{0};
};

/// The content address of a task under a named runner. Requires a
/// non-empty runner name and a cacheable spec (scenario::spec_cacheable).
std::string cell_key(const std::string& runner_name, const SweepTask& task);

/// The exact on-disk payload of one finished cell: a one-row CSV with
/// exact %.17g numbers. Shared by the cache files and the work queue's
/// result files, so both round-trip metrics bit-for-bit.
std::string encode_cell_metrics(const metrics::AggregateMetrics& m);

/// Inverse of encode_cell_metrics. nullopt on any damage or stale layout —
/// a corrupt payload must read as absent, never as wrong data.
/// `scalars_only` decodes just the five scalar metrics, which is all a
/// result row prints, and leaves mean_rate_pps and aux empty; the
/// payload's shape is checked either way.
std::optional<metrics::AggregateMetrics> decode_cell_metrics(
    std::string_view bytes, bool scalars_only = false);

}  // namespace bbrmodel::sweep
