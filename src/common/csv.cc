#include "common/csv.h"

#include "common/require.h"

namespace bbrmodel {

namespace {

/// csv_escape, appended to `out` without the temporary.
void append_csv_field(std::string& out, const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
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
  std::string line;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) line += ',';
    append_short_number(line, values[i]);
  }
  line += '\n';
  out_ << line;
  ++rows_;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  BBRM_REQUIRE(cells.size() == width_);
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) line += ',';
    append_csv_field(line, cells[i]);
  }
  line += '\n';
  out_ << line;
  ++rows_;
}

std::string csv_escape(const std::string& field) {
  std::string out;
  append_csv_field(out, field);
  return out;
}

}  // namespace bbrmodel
