// Uniform-grid spatial index over one snapshot. With cells a hair wider
// than eps, the eps-neighbourhood of a point is contained in the 3x3 block
// of cells around it, so DBSCAN's region queries run in expected O(1) per
// point instead of the O(n) scan that the paper identifies as the
// bottleneck of the baselines.
//
// Layout: flat sorted CSR over the snapshot's bounding box. Points are
// counting-sorted into cells (`cell_starts_` / `point_ids_`), cells are
// row-major with x as the minor dimension, and coordinates are kept as
// structure-of-arrays (`xs_` / `ys_`) in CSR order. A neighborhood query
// scans three contiguous row segments — no hashing, no per-cell vectors —
// each with one call of the dispatched eps_scan kernel.
#ifndef K2_CLUSTER_GRID_INDEX_H_
#define K2_CLUSTER_GRID_INDEX_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace k2 {

class GridIndex {
 public:
  /// An empty index; call Build() before querying.
  GridIndex() = default;

  /// Indexes `points` with square cells of side > `cell_size` (> 0).
  GridIndex(std::span<const SnapshotPoint> points, double cell_size) {
    Build(points, cell_size);
  }

  /// (Re)indexes `points`, reusing previously allocated buffers — rebuilding
  /// the same GridIndex across snapshots is allocation-free in steady state.
  /// The effective cell size starts 2^-20 above `cell_size` (so rounding
  /// in the cell arithmetic cannot drop a neighbour exactly `cell_size`
  /// away) and is grown further when the bounding box would otherwise
  /// shatter into more than ~4x|points| cells, which keeps memory linear for
  /// any eps; queries stay correct for any `eps` <= the requested
  /// `cell_size`.
  void Build(std::span<const SnapshotPoint> points, double cell_size);

  /// Appends to `out` the indices of all points within `eps` of point `i`
  /// (including `i` itself), matching NH(p, eps) of paper Sec. 3.1.
  ///
  /// Contract: `eps` must be <= the cell size requested at Build() — the
  /// query scans only the 3x3 cell block around the point, so a larger eps
  /// silently drops neighbors beyond that block. Enforced with a debug
  /// CHECK (K2_DCHECK) here and in NeighborsOf; release builds trust the
  /// caller.
  void Neighbors(size_t i, double eps, std::vector<uint32_t>* out) const {
    NeighborsOf(px_[i], py_[i], eps, out);
  }

  /// Same query for an arbitrary location. Same `eps` contract as
  /// Neighbors(): debug-CHECKed against the Build() cell size.
  void NeighborsOf(double x, double y, double eps,
                   std::vector<uint32_t>* out) const;

  size_t num_points() const { return px_.size(); }

 private:
  int64_t CellX(double x) const {
    return static_cast<int64_t>(std::floor((x - min_x_) * inv_cell_));
  }
  int64_t CellY(double y) const {
    return static_cast<int64_t>(std::floor((y - min_y_) * inv_cell_));
  }

  // Grid geometry. inv_cell_ = 1 / effective cell size. requested_cell_ is
  // the cell size the caller asked Build() for (the effective size only
  // grows above it), kept to debug-CHECK the eps query contract.
  double min_x_ = 0.0, min_y_ = 0.0;
  double inv_cell_ = 0.0;
  double requested_cell_ = 0.0;
  int64_t nx_ = 0, ny_ = 0;

  // CSR: points of cell c occupy [cell_starts_[c], cell_starts_[c + 1]) of
  // point_ids_ / xs_ / ys_. point_ids_ holds the original point indices;
  // xs_ / ys_ their coordinates, so the distance scan never touches the
  // input array.
  std::vector<uint32_t> cell_starts_;  // nx_ * ny_ + 1 entries
  std::vector<uint32_t> point_ids_;
  std::vector<double> xs_, ys_;

  // Input coordinates in original order, for Neighbors(i, ...).
  std::vector<double> px_, py_;

  // Build-time scratch, kept to make rebuilds allocation-free.
  std::vector<uint32_t> cell_of_;
};

}  // namespace k2

#endif  // K2_CLUSTER_GRID_INDEX_H_
