#include "cluster/grid_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/simd.h"

namespace k2 {

void GridIndex::Build(std::span<const SnapshotPoint> points,
                      double cell_size) {
  K2_CHECK(cell_size > 0.0);
  requested_cell_ = cell_size;
  const size_t n = points.size();
  px_.resize(n);
  py_.resize(n);
  point_ids_.resize(n);
  xs_.resize(n);
  ys_.resize(n);
  cell_of_.resize(n);
  if (n == 0) {
    nx_ = ny_ = 0;
    cell_starts_.assign(1, 0);
    return;
  }

  double max_x = points[0].x, max_y = points[0].y;
  min_x_ = points[0].x;
  min_y_ = points[0].y;
  for (size_t i = 0; i < n; ++i) {
    px_[i] = points[i].x;
    py_[i] = points[i].y;
    min_x_ = std::min(min_x_, points[i].x);
    min_y_ = std::min(min_y_, points[i].y);
    max_x = std::max(max_x, points[i].x);
    max_y = std::max(max_y, points[i].y);
  }

  // Grow the cell side until the bounding-box grid is at most ~4n cells, so
  // index memory stays linear in the snapshot for arbitrarily small eps.
  // Queries stay correct: the 3x3 block covers eps for any cell > eps. The
  // side starts 2^-20 above `cell_size` because cell indices come from
  // rounded arithmetic: with a side of exactly eps, a neighbour exactly eps
  // away could land two cells over and be missed. The margin outweighs
  // that rounding for any grid of fewer than about 2^30 cells.
  const double max_cells =
      static_cast<double>(std::max<size_t>(64, 4 * n));
  double cell = cell_size * (1.0 + 0x1p-20);
  while ((std::floor((max_x - min_x_) / cell) + 1.0) *
             (std::floor((max_y - min_y_) / cell) + 1.0) >
         max_cells) {
    cell *= 2.0;
  }
  inv_cell_ = 1.0 / cell;
  nx_ = static_cast<int64_t>(std::floor((max_x - min_x_) * inv_cell_)) + 1;
  ny_ = static_cast<int64_t>(std::floor((max_y - min_y_) * inv_cell_)) + 1;

  const size_t num_cells = static_cast<size_t>(nx_ * ny_);
  for (size_t i = 0; i < n; ++i) {
    // Clamp against the rounding edge case where max_x lands one past the
    // last column under multiplication by inv_cell_.
    const int64_t cx = std::min(CellX(px_[i]), nx_ - 1);
    const int64_t cy = std::min(CellY(py_[i]), ny_ - 1);
    cell_of_[i] = static_cast<uint32_t>(cy * nx_ + cx);
  }

  // Counting sort, stable within a cell (preserves snapshot order).
  cell_starts_.assign(num_cells + 1, 0);
  for (size_t i = 0; i < n; ++i) ++cell_starts_[cell_of_[i]];
  uint32_t running = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    const uint32_t count = cell_starts_[c];
    cell_starts_[c] = running;
    running += count;
  }
  cell_starts_[num_cells] = running;
  // Scatter advances cell_starts_[c] to the cell's end; the backward shift
  // afterwards restores the CSR start offsets.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t pos = cell_starts_[cell_of_[i]]++;
    point_ids_[pos] = static_cast<uint32_t>(i);
    xs_[pos] = px_[i];
    ys_[pos] = py_[i];
  }
  for (size_t c = num_cells; c > 0; --c) cell_starts_[c] = cell_starts_[c - 1];
  cell_starts_[0] = 0;
}

void GridIndex::NeighborsOf(double x, double y, double eps,
                            std::vector<uint32_t>* out) const {
  // The 3x3 block only covers eps-neighborhoods up to the cell size the
  // caller asked Build() for; beyond that the query silently misses points.
  K2_DCHECK(eps <= requested_cell_);
  if (px_.empty()) return;
  // Compute the 3x1 column range and 1x3 row range around the query cell in
  // floating point first: a far-away query must not overflow the int64 cast.
  const double fcx = std::floor((x - min_x_) * inv_cell_);
  const double fcy = std::floor((y - min_y_) * inv_cell_);
  if (fcx < -1.0 || fcx > static_cast<double>(nx_) ||
      fcy < -1.0 || fcy > static_cast<double>(ny_)) {
    return;
  }
  const int64_t cx = static_cast<int64_t>(fcx);
  const int64_t cy = static_cast<int64_t>(fcy);
  const int64_t x0 = std::max<int64_t>(cx - 1, 0);
  const int64_t x1 = std::min<int64_t>(cx + 1, nx_ - 1);
  const int64_t y0 = std::max<int64_t>(cy - 1, 0);
  const int64_t y1 = std::min<int64_t>(cy + 1, ny_ - 1);
  if (x0 > x1 || y0 > y1) return;

  const double eps2 = eps * eps;
  const auto& kernels = simd::Active();
  for (int64_t ry = y0; ry <= y1; ++ry) {
    // The row's three cells are adjacent in the row-major layout: one
    // contiguous segment of the CSR arrays per row, handed to the
    // dispatched eps-scan kernel as a unit. The kernel needs room for the
    // whole segment (compress-store slack), so the vector is grown to the
    // upper bound and trimmed to the matches written.
    const size_t base = static_cast<size_t>(ry * nx_);
    const uint32_t lo = cell_starts_[base + static_cast<size_t>(x0)];
    const uint32_t hi = cell_starts_[base + static_cast<size_t>(x1) + 1];
    if (lo == hi) continue;
    const size_t written = out->size();
    out->resize(written + (hi - lo));
    const size_t cnt = kernels.eps_scan(xs_.data() + lo, ys_.data() + lo,
                                        point_ids_.data() + lo, hi - lo, x, y,
                                        eps2, out->data() + written);
    out->resize(written + cnt);
  }
}

}  // namespace k2
