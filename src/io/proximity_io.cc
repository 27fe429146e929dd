#include "io/proximity_io.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "io/csv_fields.h"

namespace k2 {

Status WriteProximityCsv(const ProximityLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot create " + path);
  out << "t,oid_a,oid_b\n";
  for (const PairRecord& rec : log.ToRecords()) {
    out << rec.t << ',' << rec.a << ',' << rec.b << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<ProximityLog> ReadProximityCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::Invalid(path + " is empty");

  const std::vector<std::string> header = csv::SplitComma(line);
  int col_t = -1, col_a = -1, col_b = -1;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "t" || header[i] == "timestamp") col_t = i;
    if (header[i] == "oid_a" || header[i] == "a") col_a = i;
    if (header[i] == "oid_b" || header[i] == "b") col_b = i;
  }
  if (col_t < 0 || col_a < 0 || col_b < 0) {
    return Status::Invalid(path +
                           ": header must name t, oid_a, oid_b columns");
  }

  std::vector<PairRecord> records;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    const std::vector<std::string> fields = csv::SplitComma(line);
    const size_t needed = static_cast<size_t>(
        std::max(col_t, std::max(col_a, col_b)) + 1);
    if (fields.size() < needed) {
      return Status::Invalid(path + ":" + std::to_string(line_no) +
                             ": too few fields");
    }
    PairRecord rec;
    if (!csv::ParseField(fields[col_t], &rec.t)) {
      return csv::RowParseError(path, line_no, "t", fields[col_t]);
    }
    if (!csv::ParseField(fields[col_a], &rec.a)) {
      return csv::RowParseError(path, line_no, "oid_a", fields[col_a]);
    }
    if (!csv::ParseField(fields[col_b], &rec.b)) {
      return csv::RowParseError(path, line_no, "oid_b", fields[col_b]);
    }
    if (rec.a == rec.b) {
      return Status::Invalid(path + ":" + std::to_string(line_no) +
                             ": self-loop pair (oid_a == oid_b == " +
                             std::to_string(rec.a) + ")");
    }
    records.push_back(rec);
  }
  return ProximityLog::FromRecords(std::move(records));
}

}  // namespace k2
