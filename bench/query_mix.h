// The query mix of the serving benches (bench_serving, bench_serving_net):
// Jeung et al.'s convoy questions — by object, by time window, by region,
// and their conjunction — drawn with a fixed seed over the dataset's object
// ids, time range and bounding box, so every run asks the same questions.
#ifndef K2_BENCH_QUERY_MIX_H_
#define K2_BENCH_QUERY_MIX_H_

#include <algorithm>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "serve/query.h"

namespace k2::bench {

/// `per_type` queries of each kind; conjunctions[i] pairs oids[i] with
/// windows[i], plus rects[i] for even i.
struct QueryMix {
  std::vector<ObjectId> oids;
  std::vector<TimeRange> windows;
  std::vector<Rect> rects;
  std::vector<ConvoyQuery> conjunctions;
};

/// Seed 777. Windows start anywhere in the time range and span up to a
/// quarter of it; rects start anywhere in the bounding box and span up to a
/// quarter of it on each axis.
inline QueryMix MakeQueryMix(const Dataset& data, size_t per_type) {
  QueryMix mix;
  Rng rng(777);
  std::vector<ObjectId> all_oids;
  for (const PointRecord& rec : data.records()) all_oids.push_back(rec.oid);
  std::sort(all_oids.begin(), all_oids.end());
  all_oids.erase(std::unique(all_oids.begin(), all_oids.end()),
                 all_oids.end());

  Rect box;
  box.min_x = box.max_x = data.records()[0].x;
  box.min_y = box.max_y = data.records()[0].y;
  for (const PointRecord& rec : data.records()) {
    box.min_x = std::min(box.min_x, rec.x);
    box.max_x = std::max(box.max_x, rec.x);
    box.min_y = std::min(box.min_y, rec.y);
    box.max_y = std::max(box.max_y, rec.y);
  }
  const TimeRange range = data.time_range();
  const auto span = static_cast<uint64_t>(range.length());

  for (size_t i = 0; i < per_type; ++i) {
    mix.oids.push_back(all_oids[rng.NextInt(all_oids.size())]);
    const auto a = static_cast<Timestamp>(range.start + rng.NextInt(span));
    mix.windows.push_back(
        {a, static_cast<Timestamp>(a + rng.NextInt(span / 4 + 1))});
    const double x0 = rng.Uniform(box.min_x, box.max_x);
    const double y0 = rng.Uniform(box.min_y, box.max_y);
    const double max_w = (box.max_x - box.min_x) / 4;
    const double max_h = (box.max_y - box.min_y) / 4;
    mix.rects.push_back(Rect{x0, y0, x0 + rng.Uniform(0.0, max_w),
                             y0 + rng.Uniform(0.0, max_h)});
    ConvoyQuery q;
    q.object = mix.oids.back();
    q.time_window = mix.windows.back();
    if (i % 2 == 0) q.region = mix.rects.back();
    mix.conjunctions.push_back(q);
  }
  return mix;
}

}  // namespace k2::bench

#endif  // K2_BENCH_QUERY_MIX_H_
