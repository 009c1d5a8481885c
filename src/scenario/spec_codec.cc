#include "scenario/spec_codec.h"

#include <array>
#include <charconv>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "common/number.h"
#include "common/parse.h"
#include "common/require.h"

namespace bbrmodel::scenario {

namespace {

bool decode_bool(std::string_view text) {
  BBRM_REQUIRE_MSG(text == "0" || text == "1",
                   "spec codec: bool fields are 0 or 1, got '" +
                       std::string(text) + "'");
  return text == "1";
}

double decode_double(std::string_view text) {
  const auto v = decode_number(text);
  BBRM_REQUIRE_MSG(v.has_value(),
                   "spec codec: bad number '" + std::string(text) + "'");
  return *v;
}

/// Integer fields hold plain base-10 digits (int: an optional '-'): a
/// sign that would wrap or a value that would truncate is rejected.
std::uint64_t decode_u64(std::string_view text) {
  const auto v = try_parse_u64(text);
  BBRM_REQUIRE_MSG(v.has_value(),
                   "spec codec: bad integer '" + std::string(text) + "'");
  return *v;
}

int decode_int(std::string_view text) {
  int v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  BBRM_REQUIRE_MSG(ec == std::errc() && ptr == last,
                   "spec codec: bad integer '" + std::string(text) + "'");
  return v;
}

CcaKind decode_cca(std::string_view name) {
  for (const CcaKind kind : {CcaKind::kReno, CcaKind::kCubic, CcaKind::kBbrv1,
                             CcaKind::kBbrv2}) {
    if (name == to_string(kind)) return kind;
  }
  BBRM_REQUIRE_MSG(false,
                   "spec codec: unknown CCA '" + std::string(name) + "'");
  return CcaKind::kReno;
}

void encode_flows(std::string& out, const std::vector<CcaKind>& flows) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (i != 0) out += ',';
    out += to_string(flows[i]);
  }
}

/// Comma-separated names; like a getline split, a trailing comma adds no
/// empty name.
void decode_flows(std::string_view text, std::vector<CcaKind>& flows) {
  flows.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    flows.push_back(decode_cca(text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
}

std::vector<double> decode_doubles(std::string_view text) {
  auto values = decode_numbers(text);
  BBRM_REQUIRE_MSG(values.has_value(), "spec codec: bad number list '" +
                                           std::string(text) + "'");
  return std::move(*values);
}

const char* encode_discipline(net::Discipline d) {
  return d == net::Discipline::kRed ? "red" : "droptail";
}

net::Discipline decode_discipline(std::string_view text) {
  if (text == "droptail") return net::Discipline::kDropTail;
  if (text == "red") return net::Discipline::kRed;
  BBRM_REQUIRE_MSG(false, "spec codec: unknown discipline '" +
                              std::string(text) + "'");
  return net::Discipline::kDropTail;
}

/// Value equality as the canonical bytes see it: doubles compare bitwise
/// (0.0 and -0.0 encode differently), everything else by ==.
template <typename T>
bool same_value(const T& a, const T& b) {
  return a == b;
}

bool same_value(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_value(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// One serialized field: canonical key, value encoder (appends), value
/// decoder, and whether two specs hold the same value.
struct FieldCodec {
  std::string_view key;
  void (*encode)(const ExperimentSpec&, std::string&);
  void (*decode)(ExperimentSpec&, std::string_view);
  bool (*equal)(const ExperimentSpec&, const ExperimentSpec&);
};

#define BBRM_FIELD(name, member, encode_expr, decode_stmt)                  \
  FieldCodec {                                                              \
    name, [](const ExperimentSpec& s, std::string& out) { encode_expr; },   \
        [](ExperimentSpec& s, std::string_view v) { decode_stmt; },         \
        [](const ExperimentSpec& a, const ExperimentSpec& b) {              \
          return same_value(a.member, b.member);                            \
        }                                                                   \
  }
#define BBRM_DOUBLE_FIELD(name, expr)                                       \
  BBRM_FIELD(name, expr, append_exact_number(out, s.expr),                  \
             s.expr = decode_double(v))
#define BBRM_BOOL_FIELD(name, expr)                                         \
  BBRM_FIELD(name, expr, out += s.expr ? '1' : '0',                         \
             s.expr = decode_bool(v))

/// Every simulation-relevant field, in canonical emission order. A new
/// ExperimentSpec/FluidConfig field MUST be added here (the round-trip
/// test in tests/cache_test.cc exists to catch forgetting).
constexpr FieldCodec kFields[] = {
    BBRM_FIELD("mix.label", mix.label, out += s.mix.label,
               s.mix.label.assign(v)),
    BBRM_FIELD("mix.flows", mix.flows, encode_flows(out, s.mix.flows),
               decode_flows(v, s.mix.flows)),
    BBRM_DOUBLE_FIELD("capacity_pps", capacity_pps),
    BBRM_DOUBLE_FIELD("bottleneck_delay_s", bottleneck_delay_s),
    BBRM_DOUBLE_FIELD("min_rtt_s", min_rtt_s),
    BBRM_DOUBLE_FIELD("max_rtt_s", max_rtt_s),
    BBRM_FIELD("flow_rtts_s", flow_rtts_s,
               append_exact_numbers(out, s.flow_rtts_s),
               s.flow_rtts_s = decode_doubles(v)),
    BBRM_DOUBLE_FIELD("buffer_bdp", buffer_bdp),
    BBRM_FIELD("discipline", discipline,
               out += encode_discipline(s.discipline),
               s.discipline = decode_discipline(v)),
    BBRM_DOUBLE_FIELD("duration_s", duration_s),
    BBRM_FIELD("seed", seed, append_u64(out, s.seed),
               s.seed = decode_u64(v)),
    BBRM_DOUBLE_FIELD("fluid.step_s", fluid.step_s),
    BBRM_DOUBLE_FIELD("fluid.record_interval_s", fluid.record_interval_s),
    BBRM_DOUBLE_FIELD("fluid.k_time", fluid.k_time),
    BBRM_DOUBLE_FIELD("fluid.k_rate", fluid.k_rate),
    BBRM_DOUBLE_FIELD("fluid.k_vol", fluid.k_vol),
    BBRM_DOUBLE_FIELD("fluid.k_prob", fluid.k_prob),
    BBRM_DOUBLE_FIELD("fluid.droptail_exponent", fluid.droptail_exponent),
    BBRM_DOUBLE_FIELD("fluid.loss_indicator_eps", fluid.loss_indicator_eps),
    BBRM_BOOL_FIELD("fluid.literal_eq18", fluid.literal_eq18),
    BBRM_BOOL_FIELD("fluid.loss_based_slow_start",
                    fluid.loss_based_slow_start),
    BBRM_BOOL_FIELD("fluid.per_rtt_loss_events", fluid.per_rtt_loss_events),
    BBRM_BOOL_FIELD("fluid.literal_eq19", fluid.literal_eq19),
    BBRM_DOUBLE_FIELD("fluid.probe_rtt_interval_s",
                      fluid.probe_rtt_interval_s),
    BBRM_DOUBLE_FIELD("fluid.probe_rtt_duration_s",
                      fluid.probe_rtt_duration_s),
    BBRM_DOUBLE_FIELD("fluid.bbr2_loss_thresh", fluid.bbr2_loss_thresh),
    BBRM_DOUBLE_FIELD("fluid.bbr2_beta", fluid.bbr2_beta),
    BBRM_DOUBLE_FIELD("fluid.bbr2_headroom", fluid.bbr2_headroom),
    BBRM_DOUBLE_FIELD("fluid.inflight_hi_growth_pps",
                      fluid.inflight_hi_growth_pps),
    BBRM_DOUBLE_FIELD("fluid.mss_bytes", fluid.mss_bytes),
    BBRM_DOUBLE_FIELD("fluid.max_rate_factor", fluid.max_rate_factor),
    BBRM_BOOL_FIELD("fluid.model_startup", fluid.model_startup),
    BBRM_DOUBLE_FIELD("fluid.startup_gain", fluid.startup_gain),
    BBRM_DOUBLE_FIELD("fluid.startup_initial_window_pkts",
                      fluid.startup_initial_window_pkts),
    BBRM_FIELD("fluid.startup_full_bw_rounds", fluid.startup_full_bw_rounds,
               out += std::to_string(s.fluid.startup_full_bw_rounds),
               s.fluid.startup_full_bw_rounds = decode_int(v)),
};

#undef BBRM_FIELD
#undef BBRM_DOUBLE_FIELD
#undef BBRM_BOOL_FIELD

constexpr std::size_t kFieldCount = std::size(kFields);

/// The table position of `key`, searched from `guess` (the position after
/// the previous field) onward first: canonically ordered input finds a
/// full spec's next field in one compare and a delta's a few further on.
/// kFieldCount when the key is unknown.
std::size_t field_position(std::string_view key, std::size_t guess) {
  for (std::size_t k = 0; k < kFieldCount; ++k) {
    const std::size_t i = (guess + k) % kFieldCount;
    if (kFields[i].key == key) return i;
  }
  return kFieldCount;
}

constexpr std::string_view kVersionLine = "bbrm-spec=1";

void require_encodable(const ExperimentSpec& spec) {
  BBRM_REQUIRE_MSG(spec_cacheable(spec),
                   "specs with a custom bbr_init have no canonical bytes");
  BBRM_REQUIRE_MSG(spec.mix.label.find('\n') == std::string::npos,
                   "mix labels must be single-line");
}

void append_field(std::string& out, const FieldCodec& field,
                  const ExperimentSpec& spec) {
  out += field.key;
  out += '=';
  field.encode(spec, out);
  out += '\n';
}

/// The one field parser. A full spec (`delta` false) starts with the
/// version line and names every field, in any order; a delta names a
/// subset of the fields in canonical order and overwrites only those.
/// Both reject unknown, duplicate and malformed lines.
void decode_fields(ExperimentSpec& spec, std::string_view bytes,
                   bool delta) {
  std::array<bool, kFieldCount> seen{};
  std::size_t seen_count = 0;
  std::size_t next = 0;
  bool version_seen = delta;
  std::string_view rest = bytes;
  while (const auto text = next_line(rest)) {
    const std::string_view line = *text;
    if (line.empty()) continue;
    if (!version_seen) {
      BBRM_REQUIRE_MSG(line == kVersionLine,
                       "spec codec: expected '" + std::string(kVersionLine) +
                           "', got '" + std::string(line) + "'");
      version_seen = true;
      continue;
    }
    const auto eq = line.find('=');
    BBRM_REQUIRE_MSG(eq != std::string_view::npos,
                     "spec codec: malformed line '" + std::string(line) +
                         "'");
    const std::string_view key = line.substr(0, eq);
    const std::size_t id = field_position(key, next);
    BBRM_REQUIRE_MSG(id < kFieldCount,
                     "spec codec: unknown field '" + std::string(key) + "'");
    BBRM_REQUIRE_MSG(!seen[id],
                     "spec codec: duplicate field '" + std::string(key) +
                         "'");
    BBRM_REQUIRE_MSG(!delta || id >= next,
                     "spec codec: delta field '" + std::string(key) +
                         "' is out of canonical order");
    seen[id] = true;
    ++seen_count;
    next = id + 1;
    kFields[id].decode(spec, line.substr(eq + 1));
  }
  if (delta) return;
  BBRM_REQUIRE_MSG(version_seen, "spec codec: missing version line");
  BBRM_REQUIRE_MSG(seen_count == kFieldCount,
                   "spec codec: missing fields (got " +
                       std::to_string(seen_count) + " of " +
                       std::to_string(kFieldCount) + ")");
}

}  // namespace

bool spec_cacheable(const ExperimentSpec& spec) {
  return !static_cast<bool>(spec.bbr_init);
}

void append_canonical_spec(std::string& out, const ExperimentSpec& spec) {
  require_encodable(spec);
  out += kVersionLine;
  out += '\n';
  for (const FieldCodec& field : kFields) append_field(out, field, spec);
}

std::string canonical_spec_string(const ExperimentSpec& spec) {
  std::string out;
  append_canonical_spec(out, spec);
  return out;
}

std::string canonical_spec_hash(const ExperimentSpec& spec) {
  return hex64(fnv1a64(canonical_spec_string(spec)));
}

ExperimentSpec parse_canonical_spec(std::string_view bytes) {
  ExperimentSpec spec;
  decode_fields(spec, bytes, /*delta=*/false);
  return spec;
}

void append_spec_delta(std::string& out, const ExperimentSpec& base,
                       const ExperimentSpec& spec) {
  require_encodable(spec);
  for (const FieldCodec& field : kFields) {
    if (!field.equal(base, spec)) append_field(out, field, spec);
  }
}

void apply_spec_delta(ExperimentSpec& spec, std::string_view delta) {
  decode_fields(spec, delta, /*delta=*/true);
}

}  // namespace bbrmodel::scenario
