// Tests for the PLUM load balancer: RIB partitioning, the similarity-matrix
// processor reassignment, and the remap gain policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/rng.hpp"
#include "plum/partition.hpp"
#include "plum/remap.hpp"

namespace o2k::plum {
namespace {

std::vector<Element> grid_cloud(int n, double weight = 1.0) {
  std::vector<Element> out;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        out.push_back({Vec3(i, j, k), weight});
      }
    }
  }
  return out;
}

TEST(Rib, SinglePartIsTrivial) {
  const auto elems = grid_cloud(3);
  const auto part = rib_partition(elems, 1);
  for (int p : part) EXPECT_EQ(p, 0);
}

class RibP : public ::testing::TestWithParam<int> {};

TEST_P(RibP, BalancesUniformGrid) {
  const int nparts = GetParam();
  const auto elems = grid_cloud(8);  // 512 points
  const auto part = rib_partition(elems, nparts);
  EXPECT_LT(imbalance(elems, part, nparts), 1.10);
  // Every part non-empty and ids in range.
  std::vector<int> count(static_cast<std::size_t>(nparts), 0);
  for (int p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, nparts);
    ++count[static_cast<std::size_t>(p)];
  }
  for (int c : count) EXPECT_GT(c, 0);
}

TEST_P(RibP, BalancesSkewedWeights) {
  const int nparts = GetParam();
  auto elems = grid_cloud(8);
  // Weight concentrated in one corner, like a refinement front.
  for (auto& e : elems) {
    e.weight = 1.0 + 20.0 / (1.0 + (e.pos - Vec3(0, 0, 0)).norm2());
  }
  const auto part = rib_partition(elems, nparts);
  EXPECT_LT(imbalance(elems, part, nparts), 1.30);
}

TEST_P(RibP, Deterministic) {
  const int nparts = GetParam();
  const auto elems = grid_cloud(6);
  EXPECT_EQ(rib_partition(elems, nparts), rib_partition(elems, nparts));
}

INSTANTIATE_TEST_SUITE_P(PartCounts, RibP, ::testing::Values(2, 3, 4, 5, 8, 13, 16, 32));

TEST(Rib, SplitsAlongDominantAxis) {
  // Points on a line along x: bisection must cut x in half.
  std::vector<Element> elems;
  for (int i = 0; i < 100; ++i) elems.push_back({Vec3(i, 0.1 * (i % 3), 0), 1.0});
  const auto part = rib_partition(elems, 2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(part[static_cast<std::size_t>(i)], 0);
  for (int i = 50; i < 100; ++i) EXPECT_EQ(part[static_cast<std::size_t>(i)], 1);
}

TEST(Rib, PrincipalAxisOfLineCloud) {
  std::vector<Element> elems;
  std::vector<int> subset;
  for (int i = 0; i < 50; ++i) {
    elems.push_back({Vec3(2.0 * i, 3.0 * i, 0), 1.0});
    subset.push_back(i);
  }
  const Vec3 axis = principal_axis(elems, subset);
  // Direction (2,3,0)/sqrt(13), deterministic sign.
  EXPECT_NEAR(std::abs(axis.x / axis.y), 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(axis.z, 0.0, 1e-9);
  EXPECT_NEAR(axis.norm(), 1.0, 1e-12);
}

TEST(Rib, PartWeightsSumToTotal) {
  auto elems = grid_cloud(5);
  Rng rng(3);
  for (auto& e : elems) e.weight = rng.uniform(0.5, 4.0);
  const auto part = rib_partition(elems, 6);
  const auto w = part_weights(elems, part, 6);
  double total = 0.0, expect = 0.0;
  for (double x : w) total += x;
  for (const auto& e : elems) expect += e.weight;
  EXPECT_NEAR(total, expect, 1e-9);
}

// The comparison sort that rib_partition's ordering must reproduce bit for
// bit: every bisection orders its subset by (projection, index).
void oracle_recurse(std::span<const Element> elems, std::vector<int>& subset, int part_lo,
                    int nparts, std::vector<int>& out) {
  if (nparts == 1 || subset.size() <= 1) {
    for (int i : subset) out[static_cast<std::size_t>(i)] = part_lo;
    return;
  }
  const int k1 = nparts / 2;
  const int k2 = nparts - k1;
  const Vec3 axis = principal_axis(elems, subset);
  std::sort(subset.begin(), subset.end(), [&](int a, int b) {
    const double pa = elems[static_cast<std::size_t>(a)].pos.dot(axis);
    const double pb = elems[static_cast<std::size_t>(b)].pos.dot(axis);
    if (pa != pb) return pa < pb;
    return a < b;
  });
  double total = 0.0;
  for (int i : subset) total += elems[static_cast<std::size_t>(i)].weight;
  const double target = total * static_cast<double>(k1) / static_cast<double>(nparts);
  double acc = 0.0;
  std::size_t split = 0;
  while (split < subset.size() - 1 && acc < target) {
    acc += elems[static_cast<std::size_t>(subset[split])].weight;
    ++split;
  }
  if (split == 0) split = 1;
  std::vector<int> left(subset.begin(), subset.begin() + static_cast<std::ptrdiff_t>(split));
  std::vector<int> right(subset.begin() + static_cast<std::ptrdiff_t>(split), subset.end());
  oracle_recurse(elems, left, part_lo, k1, out);
  oracle_recurse(elems, right, part_lo + k1, k2, out);
}

std::vector<int> oracle_partition(std::span<const Element> elems, int nparts) {
  std::vector<int> out(elems.size(), 0);
  if (nparts == 1 || elems.empty()) return out;
  std::vector<int> subset(elems.size());
  std::iota(subset.begin(), subset.end(), 0);
  oracle_recurse(elems, subset, 0, nparts, out);
  return out;
}

TEST(Rib, MatchesComparisonSortOracle) {
  // (a) +0.0 and -0.0 projections tie, so they are ordered by index: the
  // ten (0,0,0) points before the ten (-0,-0,-0) ones.
  {
    std::vector<Element> elems;
    for (int k = 0; k < 10; ++k) elems.push_back({Vec3(0.0, 0.0, 0.0), 1.0});
    for (int k = 0; k < 10; ++k) elems.push_back({Vec3(-0.0, -0.0, -0.0), 1.0});
    for (int k = 0; k < 20; ++k) elems.push_back({Vec3(-(k + 1.0), 0.0, 0.0), 1.0});
    for (int k = 0; k < 20; ++k) elems.push_back({Vec3(k + 1.0, 0.0, 0.0), 1.0});
    for (int nparts : {2, 4}) {
      EXPECT_EQ(rib_partition(elems, nparts), oracle_partition(elems, nparts))
          << "signed zeros, nparts " << nparts;
    }
  }
  // (b) The top level cuts across y; the second level cuts across x, where
  // each column's points tie and arrive in descending index order.
  {
    std::vector<Element> elems;
    for (int i = 0; i < 5; ++i) {
      for (int j = 299; j >= 0; --j) elems.push_back({Vec3(50.0 * i, j, 0.0), 1.0});
    }
    EXPECT_EQ(rib_partition(elems, 5), oracle_partition(elems, 5)) << "ties below the top level";
  }
  // (c) Random clouds from empty to 20000 elements: continuous positions,
  // integer lattices full of duplicates and signed zeros, and weights that
  // may be zero.
  Rng rng(20260917);
  for (int cloud = 0; cloud < 200; ++cloud) {
    const auto n = static_cast<std::size_t>(std::exp(rng.uniform(0.0, std::log(20001.0)))) - 1;
    const bool lattice = rng.next_below(2) == 0;
    const auto side = static_cast<double>(1 + rng.next_below(lattice ? 8 : 1000));
    const auto weights = rng.next_below(3);  // 0: all 1.0, 1: random, 2: random with zeros
    std::vector<Element> elems(n);
    for (auto& e : elems) {
      for (int d = 0; d < 3; ++d) {
        e.pos[d] = lattice ? static_cast<double>(rng.next_below(static_cast<std::uint64_t>(side) + 1))
                           : rng.uniform(0.0, side);
        if (rng.next_below(2) == 0) e.pos[d] = -e.pos[d];
      }
      if (weights == 1) e.weight = rng.uniform(0.5, 4.0);
      if (weights == 2) e.weight = rng.next_below(4) == 0 ? 0.0 : rng.uniform(0.5, 4.0);
    }
    const int nparts = 1 + static_cast<int>(rng.next_below(70));
    ASSERT_EQ(rib_partition(elems, nparts), oracle_partition(elems, nparts))
        << "cloud " << cloud << ": " << n << " elements, nparts " << nparts;
  }
}

TEST(Similarity, CountsRetainedWeight) {
  // 2 procs; elements: proc0 has weight 3 going to label 0, 1 to label 1;
  // proc1 has 4 to label 1.
  const std::vector<int> cur{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<int> part{0, 0, 0, 1, 1, 1, 1, 1};
  const std::vector<double> w{1, 1, 1, 1, 1, 1, 1, 1};
  const auto s = similarity_matrix(cur, part, w, 2);
  EXPECT_DOUBLE_EQ(s[0][0], 3.0);
  EXPECT_DOUBLE_EQ(s[0][1], 1.0);
  EXPECT_DOUBLE_EQ(s[1][0], 0.0);
  EXPECT_DOUBLE_EQ(s[1][1], 4.0);
  const auto map = assign_greedy(s);
  EXPECT_EQ(map, (std::vector<int>{0, 1}));  // identity keeps 7 of 8
  EXPECT_DOUBLE_EQ(retained_weight(s, map), 7.0);
  EXPECT_DOUBLE_EQ(total_weight(s), 8.0);
}

TEST(Similarity, GreedyPrefersLabelSwap) {
  // New partition labels are permuted versions of the old owners; greedy
  // must discover the permutation and avoid moving anything.
  const std::vector<int> cur{0, 0, 1, 1, 2, 2};
  const std::vector<int> part{2, 2, 0, 0, 1, 1};
  const std::vector<double> w{1, 1, 1, 1, 1, 1};
  const auto s = similarity_matrix(cur, part, w, 3);
  const auto map = assign_greedy(s);
  EXPECT_DOUBLE_EQ(retained_weight(s, map), 6.0);
  EXPECT_EQ(map[2], 0);
  EXPECT_EQ(map[0], 1);
  EXPECT_EQ(map[1], 2);
}

TEST(Similarity, GreedyMatchesOptimalOnRandomSmall) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int p = 2 + static_cast<int>(rng.next_below(4));  // 2..5
    Matrix s(static_cast<std::size_t>(p), std::vector<double>(static_cast<std::size_t>(p)));
    for (auto& row : s) {
      for (auto& x : row) x = rng.uniform(0.0, 10.0);
    }
    const auto g = assign_greedy(s);
    const auto o = assign_optimal(s);
    // Greedy is a 1/2-approximation for max-weight matching; verify the
    // bound and that both are valid permutations.
    EXPECT_GE(retained_weight(s, g) * 2.0 + 1e-9, retained_weight(s, o));
    std::vector<bool> seen(static_cast<std::size_t>(p), false);
    for (int proc : g) {
      ASSERT_GE(proc, 0);
      ASSERT_LT(proc, p);
      EXPECT_FALSE(seen[static_cast<std::size_t>(proc)]);
      seen[static_cast<std::size_t>(proc)] = true;
    }
  }
}

TEST(Similarity, OptimalRejectsLargeP) {
  Matrix s(12, std::vector<double>(12, 1.0));
  EXPECT_THROW(assign_optimal(s), std::invalid_argument);
}

TEST(RemapPolicy, AlwaysAndNever) {
  EXPECT_TRUE(evaluate_remap(RemapPolicy::kAlways, 1e6, 2.0, 1.0, 1e9).do_remap);
  EXPECT_FALSE(evaluate_remap(RemapPolicy::kNever, 1e6, 2.0, 1.0, 0.0).do_remap);
}

TEST(RemapPolicy, GainBasedComparesGainToCost) {
  // gain = 1e6 * (2.0 - 1.0) = 1e6
  EXPECT_TRUE(evaluate_remap(RemapPolicy::kGainBased, 1e6, 2.0, 1.0, 0.5e6).do_remap);
  EXPECT_FALSE(evaluate_remap(RemapPolicy::kGainBased, 1e6, 2.0, 1.0, 2e6).do_remap);
  // No imbalance improvement → never worth moving.
  EXPECT_FALSE(evaluate_remap(RemapPolicy::kGainBased, 1e6, 1.1, 1.1, 1.0).do_remap);
}

}  // namespace
}  // namespace o2k::plum
