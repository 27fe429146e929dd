// Proximity-log interchange: CSV, for importing real co-location traces —
// Bluetooth sightings, Wi-Fi session joins — as `(t, oid_a, oid_b)` rows.
#ifndef K2_IO_PROXIMITY_IO_H_
#define K2_IO_PROXIMITY_IO_H_

#include <string>

#include "common/status.h"
#include "model/proximity.h"

namespace k2 {

/// Writes "t,oid_a,oid_b" rows with a header line, in canonical order.
Status WriteProximityCsv(const ProximityLog& log, const std::string& path);

/// Reads a CSV produced by WriteProximityCsv (or any file with a
/// t,oid_a,oid_b header in any column order). Rows that fail to parse, and
/// self-loop rows (oid_a == oid_b), yield an error; unordered duplicates
/// are canonicalized like ProximityLog::FromRecords.
Result<ProximityLog> ReadProximityCsv(const std::string& path);

}  // namespace k2

#endif  // K2_IO_PROXIMITY_IO_H_
