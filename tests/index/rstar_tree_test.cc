// Tests for the R*-tree: structural invariants under incremental insertion
// and query equivalence against linear scans, parameterized over sizes and
// point distributions.

#include "index/rstar_tree.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gpssn {
namespace {

enum class Distro { kUniform, kClustered, kDiagonal };

std::vector<Point> MakePoints(int n, Distro distro, Rng* rng) {
  std::vector<Point> pts(n);
  switch (distro) {
    case Distro::kUniform:
      for (Point& p : pts) {
        p = {rng->UniformDouble(0, 100), rng->UniformDouble(0, 100)};
      }
      break;
    case Distro::kClustered:
      for (int i = 0; i < n; ++i) {
        const double cx = (i % 5) * 20.0 + 10.0;
        const double cy = (i / 5 % 5) * 20.0 + 10.0;
        pts[i] = {cx + rng->UniformDouble(-2, 2),
                  cy + rng->UniformDouble(-2, 2)};
      }
      break;
    case Distro::kDiagonal:
      for (int i = 0; i < n; ++i) {
        const double t = rng->UniformDouble(0, 100);
        pts[i] = {t, t + rng->UniformDouble(-1, 1)};
      }
      break;
  }
  return pts;
}

struct Config {
  int n;
  Distro distro;
};

class RStarTreeParamTest : public ::testing::TestWithParam<Config> {};

TEST_P(RStarTreeParamTest, InvariantsAndQueryEquivalence) {
  const Config config = GetParam();
  Rng rng(static_cast<uint64_t>(config.n) * 31 +
          static_cast<uint64_t>(config.distro));
  const std::vector<Point> pts = MakePoints(config.n, config.distro, &rng);
  RStarTree tree;
  for (int i = 0; i < config.n; ++i) {
    tree.Insert(pts[i], i);
  }
  EXPECT_EQ(tree.size(), config.n);
  ASSERT_TRUE(tree.CheckInvariants());

  for (int q = 0; q < 25; ++q) {
    Rect query;
    query.min_x = rng.UniformDouble(0, 90);
    query.min_y = rng.UniformDouble(0, 90);
    query.max_x = query.min_x + rng.UniformDouble(0, 15);
    query.max_y = query.min_y + rng.UniformDouble(0, 15);
    std::vector<int32_t> got;
    tree.RangeQuery(query, &got);
    std::sort(got.begin(), got.end());
    std::vector<int32_t> want;
    for (int i = 0; i < config.n; ++i) {
      if (query.ContainsPoint(pts[i])) want.push_back(i);
    }
    ASSERT_EQ(got, want);
  }

  for (int q = 0; q < 25; ++q) {
    const Point center{rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)};
    const double radius = rng.UniformDouble(0.5, 20);
    std::vector<int32_t> got;
    tree.CircleQuery(center, radius, &got);
    std::sort(got.begin(), got.end());
    std::vector<int32_t> want;
    for (int i = 0; i < config.n; ++i) {
      if (EuclideanDistance(center, pts[i]) <= radius) want.push_back(i);
    }
    ASSERT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDistros, RStarTreeParamTest,
    ::testing::Values(Config{0, Distro::kUniform}, Config{1, Distro::kUniform},
                      Config{33, Distro::kUniform},
                      Config{500, Distro::kUniform},
                      Config{3000, Distro::kUniform},
                      Config{500, Distro::kClustered},
                      Config{2000, Distro::kClustered},
                      Config{500, Distro::kDiagonal},
                      Config{2000, Distro::kDiagonal}));

TEST(RStarTreeTest, EmptyTreeQueries) {
  RStarTree tree;
  std::vector<int32_t> out;
  tree.RangeQuery(Rect{0, 0, 100, 100}, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.bounds().empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, DuplicatePointsSupported) {
  RStarTree tree;
  for (int i = 0; i < 200; ++i) tree.Insert(Point{5, 5}, i);
  EXPECT_TRUE(tree.CheckInvariants());
  std::vector<int32_t> out;
  tree.RangeQuery(Rect{5, 5, 5, 5}, &out);
  EXPECT_EQ(out.size(), 200u);
}

TEST(RStarTreeTest, HeightGrowsLogarithmically) {
  Rng rng(3);
  RStarTree tree;
  for (int i = 0; i < 5000; ++i) {
    tree.Insert({rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)}, i);
  }
  EXPECT_GE(tree.height(), 2);
  EXPECT_LE(tree.height(), 5);
}

TEST(RStarTreeTest, SmallFanoutStressesSplits) {
  RStarTree::Options options;
  options.max_entries = 4;
  RStarTree tree(options);
  Rng rng(7);
  std::vector<Point> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)});
    tree.Insert(pts.back(), i);
    if (i % 50 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "after " << i;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants());
  std::vector<int32_t> out;
  tree.RangeQuery(tree.bounds(), &out);
  EXPECT_EQ(out.size(), 400u);
}

TEST(RStarTreeTest, BoundsCoverAllPoints) {
  Rng rng(11);
  RStarTree tree;
  std::vector<Point> pts = MakePoints(300, Distro::kUniform, &rng);
  for (int i = 0; i < 300; ++i) tree.Insert(pts[i], i);
  const Rect bounds = tree.bounds();
  for (const Point& p : pts) EXPECT_TRUE(bounds.ContainsPoint(p));
}

}  // namespace
}  // namespace gpssn
