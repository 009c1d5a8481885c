// Minimal CSV emission for exporting traces and sweep results.
//
// Examples and benches can dump machine-readable series next to the printed
// tables so that downstream users can re-plot the paper's figures.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/number.h"  // csv_number

namespace bbrmodel {

/// Streams rows of doubles (plus a header) in RFC-4180-enough CSV.
class CsvWriter {
 public:
  /// Writes the header immediately. The stream must outlive the writer.
  CsvWriter(std::ostream& out, const std::vector<std::string>& header);

  /// Write one row; must match the header width.
  void write_row(const std::vector<double>& values);

  /// Build a row cell by cell in one line buffer the writer reuses, so a
  /// row costs no allocation once the buffer has grown: field() appends a
  /// text cell (escaped like csv_escape), number() a csv_number cell,
  /// integer() a base-10 cell; end_row() writes the line, which must
  /// match the header width.
  CsvWriter& field(std::string_view text);
  CsvWriter& number(double v);
  CsvWriter& integer(std::uint64_t v);
  void end_row();

  std::size_t rows_written() const { return rows_; }

 private:
  /// Start the next cell of the row being built.
  void next_cell();

  std::ostream& out_;
  std::size_t width_;
  std::size_t rows_ = 0;
  std::string line_;        ///< the row being built
  std::size_t cells_ = 0;   ///< cells in line_
};

/// Quote a CSV field if needed (commas, quotes, newlines).
std::string csv_escape(const std::string& field);

}  // namespace bbrmodel
