// PLUM's repartitioning stage: weighted recursive inertial bisection (RIB).
//
// PLUM (Oliker & Biswas) balances *predicted* post-adaptation load: each
// element's weight is the number of children it will have after the pending
// refinement.  The partitioner splits the weighted element cloud along its
// principal inertial axis recursively, handling non-power-of-two part
// counts by splitting weight proportionally.
#pragma once

#include <span>
#include <vector>

#include "common/vec3.hpp"

namespace o2k::plum {

/// One dual-graph vertex as the partitioner sees it.
struct Element {
  Vec3 pos;            ///< element centroid
  double weight = 1.0; ///< predicted post-adaptation workload
};

/// Assign each element to one of `nparts` parts.  Deterministic, bit for
/// bit: every bisection orders its subset exactly as a comparison sort by
/// (projection onto the principal axis, element index) would, with `-0.0`
/// tying `+0.0`.  The axis and the weight sums of the next level run in
/// that order, so any other order, even of ties, can move the parts.
/// Precondition: positions are finite, because a NaN projection has no
/// place in that order.  It is not checked.
std::vector<int> rib_partition(std::span<const Element> elems, int nparts);

/// Total weight per part.
std::vector<double> part_weights(std::span<const Element> elems, std::span<const int> part,
                                 int nparts);

/// max part weight / average part weight (1.0 = perfect balance).
double imbalance(std::span<const Element> elems, std::span<const int> part, int nparts);

/// The principal inertial axis of a weighted point cloud (unit vector,
/// deterministic sign).  Exposed for tests.
Vec3 principal_axis(std::span<const Element> elems, std::span<const int> subset);

}  // namespace o2k::plum
