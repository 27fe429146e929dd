#include "baselines/dcm.h"

#include <algorithm>

#include "baselines/sweep.h"
#include "cluster/clusterer.h"
#include "common/check.h"
#include "common/parallel_for.h"
#include "model/dataset.h"

namespace k2 {

namespace {

/// Splits `range` into `n` contiguous, non-overlapping chunks.
std::vector<TimeRange> SplitRange(TimeRange range, int n) {
  std::vector<TimeRange> out;
  const int64_t total = range.length();
  if (total <= 0 || n <= 0) return out;
  const int64_t chunks = std::min<int64_t>(n, total);
  for (int64_t i = 0; i < chunks; ++i) {
    const Timestamp s = range.start + static_cast<Timestamp>(i * total / chunks);
    const Timestamp e =
        range.start + static_cast<Timestamp>((i + 1) * total / chunks) - 1;
    out.push_back(TimeRange{s, e});
  }
  return out;
}

}  // namespace

std::vector<Convoy> DcmMergePartitions(
    std::vector<std::vector<Convoy>> partition_results,
    const std::vector<TimeRange>& ranges, const MiningParams& params) {
  if (partition_results.empty()) return {};
  std::vector<Convoy> merged = std::move(partition_results[0]);
  for (size_t p = 1; p < partition_results.size(); ++p) {
    const Timestamp boundary = ranges[p].start;
    std::vector<Convoy>& incoming = partition_results[p];
    std::vector<Convoy> fused;
    for (const Convoy& v : merged) {
      if (v.end != boundary - 1) continue;
      for (const Convoy& w : incoming) {
        if (w.start != boundary) continue;
        ObjectSet x = ObjectSet::Intersect(v.objects, w.objects);
        if (x.size() < static_cast<size_t>(params.m)) continue;
        fused.emplace_back(std::move(x), v.start, w.end);
      }
    }
    merged.reserve(merged.size() + incoming.size() + fused.size());
    std::move(incoming.begin(), incoming.end(), std::back_inserter(merged));
    std::move(fused.begin(), fused.end(), std::back_inserter(merged));
    merged = FilterMaximal(std::move(merged));
  }
  return FilterMaximal(
      FilterMinLength(std::move(merged), params.k));
}

Result<std::vector<Convoy>> MineDcm(Store* store, const MiningParams& params,
                                    const DcmOptions& options,
                                    DcmStats* stats) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  K2_RETURN_NOT_OK(store->status());
  K2_RETURN_NOT_OK(ValidateTickRange(store->time_range(), params));
  DcmStats local;
  DcmStats* s = stats != nullptr ? stats : &local;

  // DCM is CMC-based: it reads the complete dataset (this is the cost the
  // paper contrasts with k/2-hop's pruning). Materialize it once — the
  // MapReduce implementation similarly streams every split off HDFS.
  Stopwatch sw;
  DatasetBuilder builder;
  std::vector<SnapshotPoint> points;
  const TimeRange range = store->time_range();
  for (Timestamp t : store->timestamps()) {
    K2_RETURN_NOT_OK(store->ScanTimestamp(t, &points));
    for (const SnapshotPoint& p : points) builder.Add(t, p.oid, p.x, p.y);
  }
  const Dataset dataset = builder.Build();
  s->phases.Add("materialize", sw.ElapsedSeconds());

  sw.Restart();
  const std::vector<TimeRange> ranges =
      SplitRange(range, options.num_partitions);
  std::vector<std::vector<Convoy>> partition_results(ranges.size());
  std::vector<Status> partition_status(ranges.size(), Status::OK());
  ParallelFor(options.num_workers, ranges.size(), [&](size_t, size_t p) {
    SweepOptions sweep;
    sweep.min_length = params.k;
    sweep.keep_left_border = p > 0;
    sweep.keep_right_border = p + 1 < ranges.size();
    auto result =
        MaximalConvoySweep(DatasetClustersFn(&dataset, params),
                           dataset.timestamps(), ranges[p], params.m, sweep);
    if (result.ok()) {
      partition_results[p] = result.MoveValue();
    } else {
      partition_status[p] = result.status();
    }
  });
  for (const Status& st : partition_status) K2_RETURN_NOT_OK(st);
  for (const auto& pr : partition_results) s->partition_convoys += pr.size();
  s->phases.Add("partition-mining", sw.ElapsedSeconds());

  sw.Restart();
  std::vector<Convoy> result =
      DcmMergePartitions(std::move(partition_results), ranges, params);
  s->phases.Add("merge", sw.ElapsedSeconds());
  return result;
}

}  // namespace k2
