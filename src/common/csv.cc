#include "common/csv.h"

#include "common/require.h"

namespace bbrmodel {

namespace {

/// csv_escape, appended to `out` without the temporary.
void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& out, const std::vector<std::string>& header)
    : out_(out), width_(header.size()) {
  BBRM_REQUIRE_MSG(!header.empty(), "CSV needs at least one column");
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << csv_escape(header[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& values) {
  BBRM_REQUIRE(values.size() == width_);
  for (const double v : values) {
    next_cell();
    append_short_number(line_, v);
  }
  end_row();
}

void CsvWriter::next_cell() {
  if (cells_++ != 0) line_ += ',';
}

CsvWriter& CsvWriter::field(std::string_view text) {
  next_cell();
  append_csv_field(line_, text);
  return *this;
}

CsvWriter& CsvWriter::number(double v) {
  next_cell();
  append_csv_number(line_, v);
  return *this;
}

CsvWriter& CsvWriter::integer(std::uint64_t v) {
  next_cell();
  append_u64(line_, v);
  return *this;
}

void CsvWriter::end_row() {
  const std::size_t cells = cells_;
  cells_ = 0;
  if (cells != width_) {
    line_.clear();
    BBRM_REQUIRE_MSG(false, "CSV row has " + std::to_string(cells) +
                                " cells, the header " +
                                std::to_string(width_));
  }
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  line_.clear();
  ++rows_;
}

std::string csv_escape(const std::string& field) {
  std::string out;
  append_csv_field(out, field);
  return out;
}

}  // namespace bbrmodel
