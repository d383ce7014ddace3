#include "plum/partition.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace o2k::plum {

namespace {

/// Weighted centroid of a subset.
Vec3 centroid_of(std::span<const Element> elems, std::span<const int> subset) {
  Vec3 c;
  double w = 0.0;
  for (int i : subset) {
    const auto& e = elems[static_cast<std::size_t>(i)];
    c += e.pos * e.weight;
    w += e.weight;
  }
  return w > 0.0 ? c / w : c;
}

}  // namespace

Vec3 principal_axis(std::span<const Element> elems, std::span<const int> subset) {
  O2K_REQUIRE(!subset.empty(), "principal_axis: empty subset");
  const Vec3 c = centroid_of(elems, subset);
  // Weighted covariance (inertia) matrix, symmetric 3x3.
  double m[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  for (int i : subset) {
    const auto& e = elems[static_cast<std::size_t>(i)];
    const Vec3 d = e.pos - c;
    const double v[3] = {d.x, d.y, d.z};
    for (int r = 0; r < 3; ++r) {
      for (int cc = 0; cc < 3; ++cc) m[r][cc] += e.weight * v[r] * v[cc];
    }
  }
  // Power iteration for the dominant eigenvector.
  Vec3 x(1.0, 0.73, 0.41);  // fixed, unlikely-orthogonal start
  for (int it = 0; it < 32; ++it) {
    const Vec3 y(m[0][0] * x.x + m[0][1] * x.y + m[0][2] * x.z,
                 m[1][0] * x.x + m[1][1] * x.y + m[1][2] * x.z,
                 m[2][0] * x.x + m[2][1] * x.y + m[2][2] * x.z);
    const double n = y.norm();
    if (n < 1e-30) break;  // degenerate cloud: keep current direction
    x = y / n;
  }
  // Deterministic sign: make the largest-magnitude component positive.
  double best = x.x;
  if (std::abs(x.y) > std::abs(best)) best = x.y;
  if (std::abs(x.z) > std::abs(best)) best = x.z;
  if (best < 0.0) x = -x;
  const double n = x.norm();
  return n > 0.0 ? x / n : Vec3(1.0, 0.0, 0.0);
}

namespace {

/// One element of a bisection level: the sort key of its projection, and
/// its index.
struct Keyed {
  std::uint64_t key;
  int idx;
};

/// The unsigned image of a finite projection that orders like the double:
/// flip every bit of a negative, set the sign bit of a positive.  `-0.0` is
/// folded into `+0.0` first, because the comparison `pa != pb` treats them
/// as equal and breaks the tie by index.
std::uint64_t sort_key(double p) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  if (p == 0.0) p = 0.0;  // -0.0 becomes +0.0
  const auto u = std::bit_cast<std::uint64_t>(p);
  return (u & kSign) != 0 ? ~u : u | kSign;
}

/// Sorts `a` (at least two elements) by (key, idx) using `tmp` (same size)
/// as scratch, and returns whichever of the two holds the result.  A stable
/// 8-bit LSD radix sort on the key leaves equal keys in input order, so
/// each run of equal keys is then ordered by index.
std::span<Keyed> sort_keyed(std::span<Keyed> a, std::span<Keyed> tmp) {
  std::array<std::array<std::uint32_t, 256>, 8> count{};
  for (const Keyed& k : a) {
    for (int d = 0; d < 8; ++d) ++count[d][(k.key >> (8 * d)) & 0xFF];
  }
  for (int d = 0; d < 8; ++d) {
    auto& c = count[d];
    if (c[(a[0].key >> (8 * d)) & 0xFF] == a.size()) continue;  // every key shares this digit
    std::uint32_t sum = 0;
    for (auto& x : c) sum += std::exchange(x, sum);
    for (const Keyed& k : a) tmp[c[(k.key >> (8 * d)) & 0xFF]++] = k;
    std::swap(a, tmp);
  }
  for (std::size_t i = 0; i < a.size();) {
    std::size_t j = i + 1;
    while (j < a.size() && a[j].key == a[i].key) ++j;
    if (j - i > 1) {
      std::sort(a.begin() + static_cast<std::ptrdiff_t>(i),
                a.begin() + static_cast<std::ptrdiff_t>(j),
                [](const Keyed& x, const Keyed& y) { return x.idx < y.idx; });
    }
    i = j;
  }
  return a;
}

/// Bisects `subset` in place.  `buf` and `tmp` are scratch of at least
/// `subset.size()` elements, shared by the whole depth-first recursion.
void rib_recurse(std::span<const Element> elems, std::span<int> subset, int part_lo,
                 int nparts, std::span<Keyed> buf, std::span<Keyed> tmp, std::vector<int>& out) {
  if (nparts == 1 || subset.size() <= 1) {
    // One part, or nothing left to split: everything lands in part_lo.
    for (int i : subset) out[static_cast<std::size_t>(i)] = part_lo;
    return;
  }
  const int k1 = nparts / 2;
  const int k2 = nparts - k1;
  const Vec3 axis = principal_axis(elems, subset);

  // Order by (projection, index), each projection computed once.  The
  // weight sums below and the next level's axis run in this order, so it
  // must be exactly the comparison order (see partition.hpp).
  const auto keyed = buf.first(subset.size());
  for (std::size_t j = 0; j < subset.size(); ++j) {
    const int i = subset[j];
    keyed[j] = {sort_key(elems[static_cast<std::size_t>(i)].pos.dot(axis)), i};
  }
  const auto sorted = sort_keyed(keyed, tmp.first(subset.size()));
  for (std::size_t j = 0; j < subset.size(); ++j) subset[j] = sorted[j].idx;

  double total = 0.0;
  for (int i : subset) total += elems[static_cast<std::size_t>(i)].weight;
  const double target = total * static_cast<double>(k1) / static_cast<double>(nparts);

  double acc = 0.0;
  std::size_t split = 0;
  while (split < subset.size() - 1 && acc < target) {
    acc += elems[static_cast<std::size_t>(subset[split])].weight;
    ++split;
  }
  if (split == 0) split = 1;  // both halves non-empty

  rib_recurse(elems, subset.first(split), part_lo, k1, buf, tmp, out);
  rib_recurse(elems, subset.subspan(split), part_lo + k1, k2, buf, tmp, out);
}

}  // namespace

std::vector<int> rib_partition(std::span<const Element> elems, int nparts) {
  O2K_REQUIRE(nparts >= 1, "rib_partition: need at least one part");
  std::vector<int> out(elems.size(), 0);
  if (nparts == 1 || elems.empty()) return out;
  std::vector<int> subset(elems.size());
  std::iota(subset.begin(), subset.end(), 0);
  std::vector<Keyed> buf(elems.size());
  std::vector<Keyed> tmp(elems.size());
  rib_recurse(elems, subset, 0, nparts, buf, tmp, out);
  return out;
}

std::vector<double> part_weights(std::span<const Element> elems, std::span<const int> part,
                                 int nparts) {
  O2K_REQUIRE(elems.size() == part.size(), "part_weights: size mismatch");
  std::vector<double> w(static_cast<std::size_t>(nparts), 0.0);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    O2K_REQUIRE(part[i] >= 0 && part[i] < nparts, "part_weights: part id out of range");
    w[static_cast<std::size_t>(part[i])] += elems[i].weight;
  }
  return w;
}

double imbalance(std::span<const Element> elems, std::span<const int> part, int nparts) {
  const auto w = part_weights(elems, part, nparts);
  double total = 0.0;
  double mx = 0.0;
  for (double x : w) {
    total += x;
    mx = std::max(mx, x);
  }
  const double avg = total / static_cast<double>(nparts);
  return avg > 0.0 ? mx / avg : 1.0;
}

}  // namespace o2k::plum
