#include "io/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "io/csv_fields.h"

namespace k2 {

namespace {

constexpr uint64_t kBinaryMagic = 0x6b32686f70646174ULL;  // "k2hopdat"

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot create " + path);
  out << "t,oid,x,y\n";
  for (const PointRecord& rec : dataset.records()) {
    out << rec.t << ',' << rec.oid << ',' << rec.x << ',' << rec.y << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<Dataset> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::Invalid(path + " is empty");

  // Header: locate the four columns by name.
  const std::vector<std::string> header = csv::SplitComma(line);
  int col_t = -1, col_oid = -1, col_x = -1, col_y = -1;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "t" || header[i] == "timestamp") col_t = i;
    if (header[i] == "oid" || header[i] == "id") col_oid = i;
    if (header[i] == "x" || header[i] == "lon") col_x = i;
    if (header[i] == "y" || header[i] == "lat") col_y = i;
  }
  if (col_t < 0 || col_oid < 0 || col_x < 0 || col_y < 0) {
    return Status::Invalid(path + ": header must name t, oid, x, y columns");
  }

  DatasetBuilder builder;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    const std::vector<std::string> fields = csv::SplitComma(line);
    const size_t needed = static_cast<size_t>(
        std::max(std::max(col_t, col_oid), std::max(col_x, col_y)) + 1);
    if (fields.size() < needed) {
      return Status::Invalid(path + ":" + std::to_string(line_no) +
                             ": too few fields");
    }
    Timestamp t = 0;
    ObjectId oid = 0;
    double x = 0.0, y = 0.0;
    if (!csv::ParseField(fields[col_t], &t)) {
      return csv::RowParseError(path, line_no, "t", fields[col_t]);
    }
    if (!csv::ParseField(fields[col_oid], &oid)) {
      return csv::RowParseError(path, line_no, "oid", fields[col_oid]);
    }
    if (!csv::ParseField(fields[col_x], &x)) {
      return csv::RowParseError(path, line_no, "x", fields[col_x]);
    }
    if (!csv::ParseField(fields[col_y], &y)) {
      return csv::RowParseError(path, line_no, "y", fields[col_y]);
    }
    builder.Add(t, oid, x, y);
  }
  return builder.Build();
}

Status WriteBinary(const Dataset& dataset, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  const uint64_t count = dataset.num_points();
  bool ok = std::fwrite(&kBinaryMagic, 8, 1, out) == 1 &&
            std::fwrite(&count, 8, 1, out) == 1;
  if (ok && count > 0) {
    ok = std::fwrite(dataset.records().data(), sizeof(PointRecord), count,
                     out) == count;
  }
  std::fclose(out);
  if (!ok) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<Dataset> ReadBinary(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::IOError("cannot open " + path + ": " + std::strerror(errno));
  }
  uint64_t magic = 0, count = 0;
  if (std::fread(&magic, 8, 1, in) != 1 || std::fread(&count, 8, 1, in) != 1 ||
      magic != kBinaryMagic) {
    std::fclose(in);
    return Status::Invalid(path + ": not a k2hop binary dataset");
  }
  // Validate the header count against the actual file size before sizing
  // the read buffer: a truncated or corrupt header would otherwise demand
  // an arbitrarily large allocation.
  std::error_code ec;
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  constexpr uint64_t kHeaderBytes = 16;
  if (ec || file_size < kHeaderBytes ||
      count > (file_size - kHeaderBytes) / sizeof(PointRecord)) {
    std::fclose(in);
    return Status::Invalid(path + ": header claims " + std::to_string(count) +
                           " records but the file has only " +
                           std::to_string(file_size) + " bytes");
  }
  std::vector<PointRecord> records(count);
  if (count > 0 &&
      std::fread(records.data(), sizeof(PointRecord), count, in) != count) {
    std::fclose(in);
    return Status::IOError("short read from " + path);
  }
  std::fclose(in);
  DatasetBuilder builder;
  builder.Reserve(records.size());
  for (const PointRecord& rec : records) {
    if (!std::isfinite(rec.x) || !std::isfinite(rec.y)) {
      return Status::Invalid(path + ": non-finite coordinate in record " +
                             std::to_string(&rec - records.data()));
    }
    builder.Add(rec);
  }
  return builder.Build();
}

}  // namespace k2
