// Field helpers shared by the CSV readers of io/csv.h and io/proximity_io.h:
// one line splitter, one whole-field number parser and one parse error.
#ifndef K2_IO_CSV_FIELDS_H_
#define K2_IO_CSV_FIELDS_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"

namespace k2::csv {

/// Strips surrounding whitespace — in particular the '\r' that getline
/// leaves on every line of a CRLF (Windows-exported) file, which used to
/// make the header match fail ("y\r" != "y").
inline std::string Trim(const std::string& s) {
  const char* ws = " \t\r\n";
  const size_t begin = s.find_first_not_of(ws);
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(ws);
  return s.substr(begin, end - begin + 1);
}

/// The fields of one line, split on commas and trimmed.
inline std::vector<std::string> SplitComma(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(Trim(field));
  return fields;
}

/// Whole-field numeric parse via std::from_chars: no exceptions, no
/// locale, and — unlike the std::sto* family this replaced — no silent
/// acceptance of trailing junk ("5abc" used to parse as 5, and a malformed
/// field threw std::invalid_argument through the whole process). A leading
/// '+' is still accepted for compatibility (std::sto* allowed it;
/// from_chars alone does not). The value must be finite: from_chars also
/// parses "inf" and "nan", which no store accepts as a coordinate.
template <typename T>
bool ParseField(const std::string& field, T* out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  if (begin != end && *begin == '+' && begin + 1 != end &&
      *(begin + 1) != '-') {
    ++begin;
  }
  if (begin == end) return false;
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

/// The error for a field ParseField rejected, naming file, line and column.
inline Status RowParseError(const std::string& path, size_t line_no,
                            const char* column, const std::string& field) {
  return Status::Invalid(path + ":" + std::to_string(line_no) + ": column '" +
                         column + "': cannot parse '" + field +
                         "' as a finite number");
}

}  // namespace k2::csv

#endif  // K2_IO_CSV_FIELDS_H_
