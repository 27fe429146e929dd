// Synthetic road network shared by the Brinkhoff-style, Trucks-like and
// T-Drive-like generators: a jittered grid with street classes (side street,
// main road, highway), per-class speeds, and an A* shortest-time router.
// It stands in for the real city map the original Brinkhoff generator
// takes as input.
#ifndef K2_GEN_ROAD_NETWORK_H_
#define K2_GEN_ROAD_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace k2 {

struct RoadNode {
  double x = 0.0;
  double y = 0.0;
};

struct RoadEdge {
  uint32_t to = 0;
  double length = 0.0;       // metres
  double speed = 0.0;        // metres per tick
  int edge_class = 0;        // 0 = side street, 1 = main road, 2 = highway
};

class RoadNetwork {
 public:
  struct GridSpec {
    int nx = 20;
    int ny = 20;
    double spacing = 500.0;     // metres between neighbouring intersections
    double jitter = 80.0;       // positional noise on intersections
    int highway_every = 5;      // every n-th row/column is a highway
    double side_speed = 120.0;  // metres per tick
    double main_speed = 240.0;
    double highway_speed = 420.0;
    double drop_probability = 0.08;  // removal rate for side-street edges
  };

  /// Builds a perturbed-grid network; deterministic given `seed`.
  static RoadNetwork MakeGrid(const GridSpec& spec, uint64_t seed);

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return num_edges_; }
  const RoadNode& node(uint32_t id) const { return nodes_[id]; }
  const std::vector<RoadEdge>& OutEdges(uint32_t id) const {
    return adjacency_[id];
  }

  /// Bounding box of the node set.
  double width() const { return width_; }
  double height() const { return height_; }

  /// A* over travel time. Returns false when `dst` is unreachable. The path
  /// includes both endpoints.
  bool FindPath(uint32_t src, uint32_t dst, std::vector<uint32_t>* path) const;

  /// Node closest to (x, y); linear scan, used only during setup.
  uint32_t NearestNode(double x, double y) const;

  /// A uniformly random node id.
  uint32_t RandomNode(Rng* rng) const {
    return static_cast<uint32_t>(rng->NextInt(nodes_.size()));
  }

 private:
  std::vector<RoadNode> nodes_;
  std::vector<std::vector<RoadEdge>> adjacency_;
  size_t num_edges_ = 0;
  double width_ = 0.0;
  double height_ = 0.0;
  double max_speed_ = 1.0;
};

/// Moves an object along a node path at per-edge speeds; positions are
/// sampled once per tick. Interpolates linearly along edges.
class PathMover {
 public:
  PathMover(const RoadNetwork* net, std::vector<uint32_t> path);

  /// Advances one tick and returns the new position; `done()` turns true
  /// when the destination has been reached.
  RoadNode Step();
  RoadNode Position() const { return position_; }
  bool done() const { return done_; }

 private:
  const RoadNetwork* net_;
  std::vector<uint32_t> path_;
  size_t leg_ = 0;           // index into path_ of the current edge start
  double offset_ = 0.0;      // metres travelled along the current leg
  RoadNode position_;
  bool done_ = false;
};

}  // namespace k2

#endif  // K2_GEN_ROAD_NETWORK_H_
