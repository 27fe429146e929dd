// Dataset interchange: CSV (for importing real GPS traces with the paper's
// <oid, x, y, t> schema) and a fixed-width binary format (fast reload of
// generated workloads between bench runs).
#ifndef K2_IO_CSV_H_
#define K2_IO_CSV_H_

#include <string>

#include "common/status.h"
#include "model/dataset.h"

namespace k2 {

/// Writes "t,oid,x,y" rows with a header line.
Status WriteCsv(const Dataset& dataset, const std::string& path);

/// Reads a CSV produced by WriteCsv (or any file with a t,oid,x,y header in
/// any column order). Rows that fail to parse or hold a non-finite
/// coordinate yield an error; so do such records in ReadBinary.
Result<Dataset> ReadCsv(const std::string& path);

/// Binary round-trip: a small header plus packed PointRecords.
Status WriteBinary(const Dataset& dataset, const std::string& path);
Result<Dataset> ReadBinary(const std::string& path);

}  // namespace k2

#endif  // K2_IO_CSV_H_
