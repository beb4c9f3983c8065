// Partitioner invariants (src/serving/partition.h): COVERAGE (every user
// and POI under exactly one shard), ORDER (shard scopes concatenated in
// shard order enumerate the index leaves in single-node descent order),
// and BALANCE (no shard hogs the whole candidate space when the tree
// offers enough subtrees).

#include <gtest/gtest.h>

#include <vector>

#include "core/database.h"
#include "serving/partition.h"
#include "ssn/dataset.h"

namespace gpssn::serving {
namespace {

GpssnDatabase MakeDb(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 150;
  data.num_pois = 60;
  data.num_users = 80;
  data.seed = seed;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  return GpssnDatabase(MakeSynthetic(data), build);
}

// Left-to-right user order of the social partition tree's leaves, starting
// from `roots` (single-node descent enumerates leaves in this order).
std::vector<UserId> LeafUsers(const SocialIndex& social,
                              const std::vector<SNodeId>& roots) {
  std::vector<UserId> users;
  for (SNodeId root : roots) {
    std::vector<SNodeId> stack{root};
    while (!stack.empty()) {
      const SNodeId id = stack.back();
      stack.pop_back();
      const SocialIndexNode& node = social.node(id);
      if (node.is_leaf()) {
        users.insert(users.end(), node.users.begin(), node.users.end());
      } else {
        for (auto it = node.children.rbegin(); it != node.children.rend();
             ++it) {
          stack.push_back(*it);
        }
      }
    }
  }
  return users;
}

// Users and POIs under a scope's roots, from the indexes' subtree counts.
int ScopeUsers(const SocialIndex& social, const ShardScope& scope) {
  int users = 0;
  for (SNodeId id : scope.social_roots) users += social.node(id).subtree_users;
  return users;
}
int ScopePois(const PoiIndex& poi, const ShardScope& scope) {
  int pois = 0;
  for (RNodeId id : scope.road_roots) pois += poi.node_aug(id).subtree_pois;
  return pois;
}

TEST(PartitionerTest, ScopesCoverEveryUserAndPoiAtEveryShardCount) {
  GpssnDatabase db = MakeDb(11);
  for (int shards : {1, 2, 4, 8, 16}) {
    // MakeServingPartition walks the scopes and fails unless each user and
    // POI is in exactly one; the subtree counts add up to the same totals.
    auto partition = MakeServingPartition(db.social_index(),
                                          db.poi_index(), shards);
    ASSERT_TRUE(partition.ok()) << partition.status().ToString();
    ASSERT_EQ(partition->scopes.size(), static_cast<size_t>(shards));
    int users = 0, pois = 0;
    for (const ShardScope& scope : partition->scopes) {
      users += ScopeUsers(db.social_index(), scope);
      pois += ScopePois(db.poi_index(), scope);
    }
    EXPECT_EQ(users, db.ssn().num_users()) << "shards=" << shards;
    EXPECT_EQ(pois, db.ssn().num_pois()) << "shards=" << shards;
  }
}

TEST(PartitionerTest, ShardOrderReproducesSingleNodeLeafOrder) {
  GpssnDatabase db = MakeDb(12);
  const std::vector<UserId> full =
      LeafUsers(db.social_index(), {db.social_index().root()});
  for (int shards : {1, 2, 4, 8}) {
    auto partition = MakeServingPartition(db.social_index(),
                                          db.poi_index(), shards);
    ASSERT_TRUE(partition.ok());
    std::vector<UserId> concatenated;
    for (const ShardScope& scope : partition->scopes) {
      const std::vector<UserId> part =
          LeafUsers(db.social_index(), scope.social_roots);
      concatenated.insert(concatenated.end(), part.begin(), part.end());
    }
    EXPECT_EQ(concatenated, full) << "shards=" << shards;
  }
}

TEST(PartitionerTest, MultipleShardsActuallySplitTheSpace) {
  GpssnDatabase db = MakeDb(13);
  auto partition = MakeServingPartition(db.social_index(),
                                        db.poi_index(), 4);
  ASSERT_TRUE(partition.ok());
  // With 80 users / 60 POIs the trees have plenty of subtrees: no single
  // shard may own everything.
  int shards_with_users = 0;
  int shards_with_pois = 0;
  for (size_t s = 0; s < partition->scopes.size(); ++s) {
    const int users = ScopeUsers(db.social_index(), partition->scopes[s]);
    const int pois = ScopePois(db.poi_index(), partition->scopes[s]);
    EXPECT_LT(users, db.ssn().num_users()) << "shard " << s;
    EXPECT_LT(pois, db.ssn().num_pois()) << "shard " << s;
    if (users > 0) ++shards_with_users;
    if (pois > 0) ++shards_with_pois;
  }
  EXPECT_GT(shards_with_users, 1);
  EXPECT_GT(shards_with_pois, 1);
}

TEST(PartitionerTest, RejectsNonPositiveShardCount) {
  GpssnDatabase db = MakeDb(14);
  EXPECT_TRUE(MakeServingPartition(db.social_index(), db.poi_index(), 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MakeServingPartition(db.social_index(), db.poi_index(), -3)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace gpssn::serving
