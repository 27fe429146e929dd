#include "core/online.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/snapshot_slots.h"

namespace k2 {

std::string OnlineK2HopStats::DebugString() const {
  std::ostringstream os;
  os << "OnlineK2HopStats{ticks=" << ticks_ingested
     << ", points=" << points_ingested << ", benchmarks=" << benchmark_points
     << ", windows=" << hop_windows << " (mined " << hop_windows_mined << ")"
     << ", candidate_clusters=" << candidate_clusters
     << ", spanning=" << spanning_convoys << ", merged=" << merged_convoys
     << ", walks=" << walks_started << " (peak open " << open_walks_peak << ")"
     << ", closed=" << closed_convoys << ", open=" << open_convoys
     << ", points_processed=" << points_processed() << "/" << total_points
     << " (pruned " << pruning_ratio() * 100.0 << "%)"
     << ", append_latency{" << append_latency.DebugString() << "}}";
  return os.str();
}

OnlineK2HopMiner::OnlineK2HopMiner(Store* store, const MiningParams& params,
                                   OnlineK2HopOptions options)
    : store_(store),
      params_(params),
      options_(std::move(options)),
      hop_(std::max(1, params.k / 2)),
      merger_(params.m) {
  if (Status valid = ValidateMiningParams(params_); !valid.ok()) {
    status_ = std::move(valid);
  } else if (store_->num_points() != 0) {
    status_ = Status::Invalid(
        "OnlineK2HopMiner requires an empty store; route all data through "
        "AppendTick");
  }
}

Status OnlineK2HopMiner::Mined(const char* phase,
                               const std::function<Status()>& fn) {
  Stopwatch sw;
  const IoStats before = store_->io_stats();
  Status s = fn();
  stats_.phases.Add(phase, sw.ElapsedSeconds());
  stats_.mining_io.Accumulate(IoStats::Delta(store_->io_stats(), before));
  return s;
}

Status OnlineK2HopMiner::AppendTick(Timestamp t,
                                    std::vector<SnapshotPoint> points) {
  K2_RETURN_NOT_OK(status_);
  if (finalized()) {
    return Status::Invalid("AppendTick after Finalize");
  }
  if (frontier_ != kInvalidTimestamp && t <= frontier_) {
    return Status::Invalid("AppendTick out of order: tick " +
                           std::to_string(t) + " is not past the frontier " +
                           std::to_string(frontier_));
  }
  K2_RETURN_NOT_OK(ValidateTickRange({t, t}, params_));
  Stopwatch tick_sw;
  // The wire path sends ticks strictly increasing by oid already.
  if (std::adjacent_find(points.begin(), points.end(),
                         [](const SnapshotPoint& a, const SnapshotPoint& b) {
                           return a.oid >= b.oid;
                         }) != points.end()) {
    std::stable_sort(points.begin(), points.end(),
                     [](const SnapshotPoint& a, const SnapshotPoint& b) {
                       return a.oid < b.oid;
                     });
    points.erase(std::unique(points.begin(), points.end(),
                             [](const SnapshotPoint& a, const SnapshotPoint& b) {
                               return a.oid == b.oid;
                             }),
                 points.end());
  }
  if (points.empty()) {
    // A tick nobody reported at is not part of the dataset (it neither
    // advances the frontier nor ends up in the store); batch mining over
    // the final data treats it exactly like a gap.
    ++stats_.empty_ticks;
    return Status::OK();
  }
  {
    Stopwatch sw;
    const IoStats before = store_->io_stats();
    Status append_status = store_->Append(t, points);
    stats_.phases.Add("ingest", sw.ElapsedSeconds());
    stats_.ingest_io.Accumulate(IoStats::Delta(store_->io_stats(), before));
    if (!append_status.ok()) {
      // Precondition failures leave the store untouched and are retryable;
      // anything else may have mutated state mid-way and poisons the miner.
      if (append_status.code() != StatusCode::kInvalid) {
        status_ = append_status;
      }
      return append_status;
    }
  }
  if (frontier_ == kInvalidTimestamp) {
    start_ = t;
    next_benchmark_ = t;
  }
  frontier_ = t;
  ++stats_.ticks_ingested;
  stats_.points_ingested += points.size();
  status_ = Drain();
  const double elapsed = tick_sw.ElapsedSeconds();
  stats_.append_latency.Add(elapsed);
  stats_.append_percentiles.Add(elapsed);
  return status_;
}

Status OnlineK2HopMiner::Drain() {
  // Every tick <= frontier_ is final (appends are strictly increasing), so
  // all benchmark points the frontier has passed can be clustered and their
  // hop-windows mined now. The pending ones lie past the previous data
  // tick, so frontier_ is the first data tick at or after each of them,
  // and the grid skips a gap's interior as batch BenchmarkPoints does.
  while (next_benchmark_ <= frontier_) {
    K2_RETURN_NOT_OK(ProcessBenchmark(next_benchmark_));
    next_benchmark_ = NextBenchmarkPoint(next_benchmark_, frontier_, hop_);
  }
  return AdvanceWalks(frontier_);
}

Status OnlineK2HopMiner::ProcessBenchmark(Timestamp b) {
  // Benchmarks land on the grid of BenchmarkPoints whether or not the tick
  // carries data — an empty snapshot clusters to nothing, exactly as in
  // the batch miner.
  std::vector<ObjectSet> clusters;
  K2_RETURN_NOT_OK(Mined("benchmark", [&]() -> Status {
    auto result = ClusterSnapshot(store_, b, params_, &scratch_);
    K2_RETURN_NOT_OK(result.status());
    clusters = result.MoveValue();
    return Status::OK();
  }));
  ++stats_.benchmark_points;
  if (prev_benchmark_ != kInvalidTimestamp) {
    K2_RETURN_NOT_OK(
        CloseWindow(prev_benchmark_, b, prev_benchmark_clusters_, clusters));
  }
  prev_benchmark_clusters_ = std::move(clusters);
  prev_benchmark_ = b;
  return Status::OK();
}

Status OnlineK2HopMiner::CloseWindow(Timestamp b_left, Timestamp b_right,
                                     const std::vector<ObjectSet>& left,
                                     const std::vector<ObjectSet>& right) {
  ++stats_.hop_windows;
  std::vector<ObjectSet> candidates;
  {
    Stopwatch sw;
    candidates = CandidateClusters(left, right, params_.m);
    stats_.phases.Add("candidates", sw.ElapsedSeconds());
  }
  stats_.candidate_clusters += candidates.size();
  std::vector<ObjectSet> spanning;
  if (!candidates.empty()) {
    ++stats_.hop_windows_mined;
    // The right walks run ahead of the window close: HWMT reads what they
    // have proved so far.
    walks_.AddOpenRuns(&book_);
    std::vector<ProvenRun> proven;
    K2_RETURN_NOT_OK(Mined("HWMT", [&]() -> Status {
      auto result = HwmtSpanning(store_, params_, b_left, b_right, candidates,
                                 /*binary_order=*/true,
                                 /*verify_right_benchmark=*/false, &scratch_,
                                 &proven, &book_);
      K2_RETURN_NOT_OK(result.status());
      spanning = result.MoveValue();
      return Status::OK();
    }));
    book_.Add(proven);
  }
  stats_.spanning_convoys += spanning.size();
  std::vector<Convoy> died;
  {
    Stopwatch sw;
    merger_.AddWindow(b_left, spanning, &died);
    stats_.phases.Add("merge", sw.ElapsedSeconds());
  }
  stats_.merged_convoys += died.size();
  for (Convoy& v : died) {
    ++stats_.walks_started;
    walks_.Start(v);
  }
  return Status::OK();
}

Status OnlineK2HopMiner::AdvanceWalks(Timestamp upto) {
  if (walks_.done()) return Status::OK();
  std::vector<Convoy> completed;
  std::vector<ProvenRun> proven;
  K2_RETURN_NOT_OK(Mined("extend-right", [&]() -> Status {
    return walks_.Advance(store_, params_, upto, &completed, &scratch_,
                          &proven, &book_);
  }));
  stats_.open_walks_peak = std::max(stats_.open_walks_peak, walks_.size());
  book_.Add(proven);
  for (Convoy& c : completed) {
    K2_RETURN_NOT_OK(OnRightResult(std::move(c)));
  }
  return Status::OK();
}

Status OnlineK2HopMiner::OnRightResult(Convoy r) {
  if (!right_seen_.insert(r).second) return Status::OK();
  K2_ASSIGN_OR_RETURN(std::vector<Convoy> lefts, LeftPieces(r));
  for (const Convoy& f : lefts) {
    // A left piece that validation already produced is FC: validating it
    // again would return the piece itself.
    if (f.length() < params_.k || validated_.contains(f)) continue;
    K2_ASSIGN_OR_RETURN(std::vector<Convoy> pieces, ValidatedPieces(f));
    for (const Convoy& p : pieces) Emit(p);
  }
  return Status::OK();
}

void OnlineK2HopMiner::Emit(const Convoy& validated) {
  if (!validated_.insert(validated).second || finalizing_) return;
  closed_.push_back(validated);
  ++stats_.closed_convoys;
  if (options_.on_closed) options_.on_closed(validated);
}

Result<std::vector<Convoy>> OnlineK2HopMiner::LeftPieces(const Convoy& r) {
  // Every tick left of r.start is final, so the walk reads only final data.
  std::vector<Convoy> pieces;
  K2_RETURN_NOT_OK(Mined("extend-left", [&]() -> Status {
    K2_ASSIGN_OR_RETURN(pieces,
                        ExtendLeft(store_, params_, {r}, start_, &book_));
    return Status::OK();
  }));
  return pieces;
}

Result<std::vector<Convoy>> OnlineK2HopMiner::ValidatedPieces(
    const Convoy& f) {
  std::vector<Convoy> pieces;
  K2_RETURN_NOT_OK(Mined("validation", [&]() -> Status {
    ValidationStats vs;
    SnapshotSlots slots(store_, 1);
    K2_ASSIGN_OR_RETURN(pieces, slots.Validate(params_, {f}, book_, &vs));
    // Recursive validation returns only FC convoys: each was answered {O}
    // at every tick of its lifespan.
    for (const Convoy& p : pieces) book_.Add(p.objects, p.lifespan());
    stats_.validation.candidates_in += vs.candidates_in;
    stats_.validation.fc_accepted += vs.fc_accepted;
    stats_.validation.split_rounds += vs.split_rounds;
    stats_.validation.reclusterings += vs.reclusterings;
    stats_.validation.proven_ticks += vs.proven_ticks;
    stats_.validation.probed_points += vs.probed_points;
    return Status::OK();
  }));
  return pieces;
}

Result<std::vector<Convoy>> OnlineK2HopMiner::Finalize() {
  if (final_result_.has_value()) return *final_result_;
  K2_RETURN_NOT_OK(status_);
  finalizing_ = true;
  stats_.total_points = store_->num_points();
  const TimeRange range{start_, frontier_};
  if (stats_.ticks_ingested > 0 && range.length() >= params_.k) {
    status_ = FlushStream();
    K2_RETURN_NOT_OK(status_);
  }
  // Validation produced every convoy batch MineK2Hop returns, since the
  // walks are batch's walks, and each convoy it produced is FC with
  // lifespan >= k, so it lies inside one of those. Their maximal ones are
  // batch's answer.
  final_result_ = FilterMaximal({validated_.begin(), validated_.end()});
  right_seen_.clear();
  validated_.clear();
  book_ = ProofBook();
  return *final_result_;
}

Status OnlineK2HopMiner::FlushStream() {
  // 1. Flush the merge at the final benchmark point; the still-active
  //    spanning convoys become right-extension seeds like any other death.
  std::vector<Convoy> died;
  {
    Stopwatch sw;
    merger_.Finish(prev_benchmark_, &died);
    stats_.phases.Add("merge", sw.ElapsedSeconds());
  }
  stats_.merged_convoys += died.size();
  for (Convoy& v : died) {
    ++stats_.walks_started;
    walks_.Start(v);
  }
  K2_RETURN_NOT_OK(AdvanceWalks(frontier_));

  // 2. Branches that survived to the frontier are the open convoys: close
  //    them at the dataset boundary, as batch ExtendRight does at range.end.
  //    They take the same tail as every other right result, silently.
  std::vector<Convoy> open;
  std::vector<ProvenRun> proven;
  walks_.Flush(frontier_, &open, &proven);
  book_.Add(proven);
  stats_.open_convoys = open.size();
  for (Convoy& c : open) K2_RETURN_NOT_OK(OnRightResult(std::move(c)));
  return Status::OK();
}

}  // namespace k2
