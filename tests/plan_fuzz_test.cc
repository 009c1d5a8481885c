// Seeded mutation fuzzing of the execution-plan decoder (bbrm-plan=2).
//
// Workers on other hosts read plan.bbrplan from a shared directory, so the
// decoder must survive any bytes: every mutant of a valid plan either
// throws PreconditionError (at parse, or at the first access of a cell)
// or decodes to specs that re-encode canonically — never a crash, a hang,
// a huge allocation, or a cell that carries another cell's spec or is
// found under another cell's task index. The mutants are truncations at
// every byte (every record boundary included), single-bit flips, and lies
// in the cells=, base-bytes= and delta-bytes= length fields. The
// sanitizer CI job runs this file under ASan/UBSan with the rest of ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/require.h"
#include "common/units.h"
#include "orchestrator/execution_plan.h"
#include "scenario/spec_codec.h"

namespace bbrmodel::orchestrator {
namespace {

/// 24 cells over every axis a plan varies (backend, discipline, buffer,
/// flows, RTT range, mix) plus per-cell seeds, so each cell's canonical
/// bytes differ from every other cell's in several fields.
ExecutionPlan corpus_plan() {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kReduced, sweep::Backend::kFluid};
  grid.disciplines = {net::Discipline::kDropTail, net::Discipline::kRed};
  grid.buffers_bdp = {0.5, 2.0, 3.25};
  grid.flow_counts = {2};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv2,
                                     scenario::CcaKind::kCubic)};
  scenario::ExperimentSpec base;
  base.capacity_pps = mbps_to_pps(20.0);
  base.duration_s = 0.5;
  return ExecutionPlan::dense(grid, base, 42);
}

struct Corpus {
  ExecutionPlan plan = corpus_plan();
  std::string bytes = plan.serialize();
  std::vector<std::string> canonical;  ///< per cell position

  Corpus() {
    for (const auto& cell : plan.cells()) {
      canonical.push_back(scenario::canonical_spec_string(cell.spec));
    }
  }
};

const Corpus& corpus() {
  static const Corpus instance;
  return instance;
}

/// What the mutants did, so the test can show each kind was exercised.
struct Tally {
  std::size_t parse_rejected = 0;
  std::size_t access_rejected = 0;
  std::size_t decoded = 0;
};

/// Parse one mutant and touch every cell, holding each outcome to the
/// contract above. `what` names the mutant in failure messages.
void check_mutant(const std::string& mutant, const std::string& what,
                  Tally& tally) {
  const Corpus& c = corpus();
  std::optional<ExecutionPlan> parsed;
  try {
    parsed.emplace(ExecutionPlan::parse(mutant));
  } catch (const PreconditionError&) {
    ++tally.parse_rejected;
    return;
  }
  for (std::size_t p = 0; p < parsed->size(); ++p) {
    const sweep::SweepTask* cell = nullptr;
    try {
      cell = &parsed->cell(p);
    } catch (const PreconditionError&) {
      ++tally.access_rejected;
      continue;
    }
    ++tally.decoded;
    // A worker finds a claimed cell by its task index: the lookup must
    // land on this very cell, never on another record.
    ASSERT_EQ(&parsed->cell_by_index(cell->index), cell)
        << what << ": task index " << cell->index << " at position " << p
        << " resolves to another cell";
    const std::string bytes = scenario::canonical_spec_string(cell->spec);
    ASSERT_EQ(scenario::canonical_spec_string(
                  scenario::parse_canonical_spec(bytes)),
              bytes)
        << what << ": cell at position " << p << " does not re-encode";
    // One mutation edits at most one record (or the base every record
    // shares), and corpus cells differ in several fields, so a decoded
    // cell either is its own original or matches no original at all.
    for (std::size_t q = 0; q < c.canonical.size(); ++q) {
      if (q == p || c.canonical[q] == c.canonical[p]) continue;
      ASSERT_NE(bytes, c.canonical[q])
          << what << ": cell at position " << p << " decoded to the spec of "
          << "the cell at position " << q;
    }
  }
}

TEST(PlanFuzz, CorpusRoundTripsAndCellsAreDistinct) {
  const Corpus& c = corpus();
  Tally tally;
  check_mutant(c.bytes, "the unmutated plan", tally);
  EXPECT_EQ(tally.parse_rejected + tally.access_rejected, 0u);
  EXPECT_EQ(tally.decoded, c.plan.size());
  for (std::size_t p = 0; p < c.canonical.size(); ++p) {
    for (std::size_t q = p + 1; q < c.canonical.size(); ++q) {
      ASSERT_NE(c.canonical[p], c.canonical[q]);
    }
  }
}

TEST(PlanFuzz, EveryTruncationIsRejected) {
  // A prefix of a plan always lacks records (or part of one) that its
  // header promised: every one must fail at parse, however it is cut.
  const Corpus& c = corpus();
  Tally tally;
  std::size_t record_boundaries = 0;
  for (std::size_t n = 0; n < c.bytes.size(); ++n) {
    if (c.bytes.compare(n, 5, "cell=") == 0) ++record_boundaries;
    check_mutant(c.bytes.substr(0, n), "truncation at " + std::to_string(n),
                 tally);
  }
  EXPECT_EQ(record_boundaries, c.plan.size());
  EXPECT_EQ(tally.parse_rejected, c.bytes.size());
}

TEST(PlanFuzz, SingleBitFlipsAreRejectedOrDecodeCanonically) {
  const Corpus& c = corpus();
  std::mt19937_64 rng(0x62626d706c616e32ULL);  // fixed seed: reproducible
  std::uniform_int_distribution<std::size_t> byte(0, c.bytes.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  Tally tally;
  constexpr int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = c.bytes;
    const std::size_t at = byte(rng);
    const int b = bit(rng);
    mutant[at] = static_cast<char>(mutant[at] ^ (1 << b));
    check_mutant(mutant,
                 "bit " + std::to_string(b) + " of byte " +
                     std::to_string(at),
                 tally);
    if (HasFatalFailure()) return;
  }
  // Each outcome occurs: framing flips fail parse, delta flips fail at
  // access or decode to an edited spec.
  EXPECT_GT(tally.parse_rejected, 0u);
  EXPECT_GT(tally.access_rejected, 0u);
  EXPECT_GT(tally.decoded, 0u);
}

TEST(PlanFuzz, LengthLiesAreRejectedOrDecodeCanonically) {
  const Corpus& c = corpus();
  Tally tally;
  std::size_t lies = 0;
  for (const std::string key : {"cells", "base-bytes", "delta-bytes"}) {
    const std::string needle = "\n" + key + "=";
    for (std::size_t at = c.bytes.find(needle); at != std::string::npos;
         at = c.bytes.find(needle, at + 1)) {
      const std::size_t value_at = at + needle.size();
      const std::size_t value_end = c.bytes.find('\n', value_at);
      const std::uint64_t truth =
          std::stoull(c.bytes.substr(value_at, value_end - value_at));
      const std::uint64_t left = c.bytes.size() - value_end;
      for (const std::uint64_t value :
           {std::uint64_t{0}, truth - 1, truth + 1, truth + 7, truth * 2,
            left / 4, left, left + 1, std::uint64_t{1} << 40,
            ~std::uint64_t{0}}) {
        if (value == truth) continue;
        std::string mutant = c.bytes;
        mutant.replace(value_at, value_end - value_at,
                       std::to_string(value));
        check_mutant(mutant,
                     key + "=" + std::to_string(value) + " (was " +
                         std::to_string(truth) + ") at " + std::to_string(at),
                     tally);
        if (HasFatalFailure()) return;
        ++lies;
      }
    }
  }
  EXPECT_GT(lies, 3 * c.plan.size());
  // A lying length moves every later frame: nothing may survive parse.
  EXPECT_EQ(tally.parse_rejected, lies);
}

}  // namespace
}  // namespace bbrmodel::orchestrator
