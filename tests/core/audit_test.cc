// Tests for the invariant-audit layer (core/audit.h): the structural
// validators must accept freshly built indexes, localize injected
// corruption to the exact offending node, and the pruning-soundness
// recorder must stay silent on sound pruning but trip when a pruning bound
// is loosened past what the lemmas guarantee.

#include "core/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/query.h"
#include "index/poi_index.h"
#include "index/social_index.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

bool HasIssue(const AuditReport& report, const std::string& check,
              int32_t node) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const AuditIssue& issue) {
                       return issue.check == check && issue.node == node;
                     });
}

bool HasCheck(const AuditReport& report, const std::string& check) {
  return std::any_of(
      report.issues.begin(), report.issues.end(),
      [&](const AuditIssue& issue) { return issue.check == check; });
}

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSsnOptions data;
    data.num_road_vertices = 200;
    data.num_pois = 80;
    data.num_users = 300;
    data.num_topics = 12;
    data.space_size = 20.0;
    data.community_size = 50;
    data.seed = 7;
    ssn_ = std::make_unique<SpatialSocialNetwork>(MakeSynthetic(data));
    road_pivots_ = std::make_unique<RoadPivotTable>(
        ssn_->road(), RandomRoadPivots(ssn_->road(), 3, 1));
    social_pivots_ = std::make_unique<SocialPivotTable>(
        ssn_->social(), RandomSocialPivots(ssn_->social(), 3, 2));
    PoiIndexOptions poi_options;
    poi_options.r_min = 0.5;
    poi_options.r_max = 4.0;
    poi_index_ = std::make_unique<PoiIndex>(ssn_.get(), road_pivots_.get(),
                                            poi_options);
    SocialIndexOptions social_options;
    social_options.leaf_cell_size = 16;
    social_index_ = std::make_unique<SocialIndex>(
        ssn_.get(), social_pivots_.get(), road_pivots_.get(), social_options);
  }

  GpssnQuery SmallQuery() const {
    GpssnQuery q;
    q.issuer = 17 % ssn_->num_users();
    q.tau = 3;
    q.gamma = 0.3;
    q.theta = 0.3;
    q.radius = 2.0;
    return q;
  }

  std::unique_ptr<SpatialSocialNetwork> ssn_;
  std::unique_ptr<RoadPivotTable> road_pivots_;
  std::unique_ptr<SocialPivotTable> social_pivots_;
  std::unique_ptr<PoiIndex> poi_index_;
  std::unique_ptr<SocialIndex> social_index_;
};

// ----- Structural validators on clean indexes -----

TEST_F(AuditTest, CleanIndexesPassAllValidators) {
  const AuditReport tree = AuditRStarTree(poi_index_->tree());
  EXPECT_TRUE(tree.ok()) << tree.ToString();
  const AuditReport poi = AuditPoiIndex(*poi_index_);
  EXPECT_TRUE(poi.ok()) << poi.ToString();
  const AuditReport social = AuditSocialIndex(*social_index_);
  EXPECT_TRUE(social.ok()) << social.ToString();
}

// ----- Localized corruption: R*-tree MBR -----

TEST_F(AuditTest, RTreeMbrCorruptionIsLocalizedToNode) {
  RStarTree& tree = poi_index_->mutable_tree_for_test();
  const RTreeNode& root = tree.node(tree.root());
  ASSERT_FALSE(root.is_leaf()) << "fixture too small: root is a leaf";
  // Shrink the first root entry's MBR to a far-away degenerate point; the
  // validator must attribute the containment break to that entry's child.
  const RNodeId victim = root.entries[0].id;
  RTreeEntry& entry = tree.mutable_node_for_test(tree.root()).entries[0];
  entry.mbr = Rect{-1e6, -1e6, -1e6, -1e6};
  const AuditReport report = AuditRStarTree(tree);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasIssue(report, "rtree-mbr-containment", victim))
      << report.ToString();
}

// ----- Localized corruption: I_R augmentation -----

TEST_F(AuditTest, PoiSubtreeCountCorruptionIsLocalizedToNode) {
  const RNodeId root = poi_index_->tree().root();
  poi_index_->mutable_node_aug_for_test(root).subtree_pois += 7;
  const AuditReport report = AuditPoiIndex(*poi_index_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasIssue(report, "poi-node-subtree-count", root))
      << report.ToString();
}

TEST_F(AuditTest, PoiBallCorruptionIsLocalizedToPoi) {
  // Drop one member (not the POI itself) from a stored B(o, r_max).
  PoiId victim = kInvalidPoi;
  for (PoiId id = 0; id < ssn_->num_pois(); ++id) {
    if (poi_index_->poi_aug(id).ball.size() >= 2) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPoi) << "fixture too small: every ball is a "
                                    "singleton";
  auto& ball = poi_index_->mutable_poi_aug_for_test(victim).ball;
  ball.erase(std::find_if(ball.begin(), ball.end(), [&](const auto& entry) {
    return entry.first != victim;
  }));
  const AuditReport report = AuditPoiIndex(*poi_index_);
  ASSERT_TRUE(HasCheck(report, "poi-ball")) << report.ToString();
  const std::string named = "poi " + std::to_string(victim) + ": ";
  for (const AuditIssue& issue : report.issues) {
    EXPECT_EQ(issue.check, "poi-ball") << report.ToString();
    EXPECT_EQ(issue.detail.rfind(named, 0), 0u) << issue.detail;
  }
}

// ----- Localized corruption: I_S bounds and partition -----

TEST_F(AuditTest, SocialInterestBoxCorruptionIsLocalizedToNode) {
  const SNodeId victim = social_index_->root();
  SocialIndexNode& node = social_index_->mutable_node_for_test(victim);
  // An upper bound below every weight breaks Eq. 10 for every member.
  std::fill(node.ub_w.begin(), node.ub_w.end(), -1.0);
  const AuditReport report = AuditSocialIndex(*social_index_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasIssue(report, "social-interest-box", victim))
      << report.ToString();
  // The corruption is node-local: no other node's interest box may trip.
  for (const AuditIssue& issue : report.issues) {
    if (issue.check == "social-interest-box") {
      EXPECT_EQ(issue.node, victim);
    }
  }
}

TEST_F(AuditTest, SocialDuplicateUserBreaksPartitionDisjointness) {
  // Find two distinct leaves and copy a user from one into the other.
  SNodeId first = -1, second = -1;
  for (SNodeId id = 0; id < social_index_->num_nodes(); ++id) {
    if (!social_index_->node(id).is_leaf()) continue;
    if (first < 0) {
      first = id;
    } else {
      second = id;
      break;
    }
  }
  ASSERT_GE(second, 0) << "fixture too small: need at least two leaves";
  const UserId dup = social_index_->node(first).users.front();
  social_index_->mutable_node_for_test(second).users.push_back(dup);
  const AuditReport report = AuditSocialIndex(*social_index_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasCheck(report, "social-partition-disjoint"))
      << report.ToString();
}

// ----- Pruning-soundness recorder -----

TEST_F(AuditTest, AuditorSilentOnSoundPruning) {
  GpssnProcessor processor(poi_index_.get(), social_index_.get());
  PruningAuditorOptions audit_options;
  audit_options.sample_period = 1;  // Re-test every pruned candidate.
  audit_options.abort_on_violation = false;
  PruningAuditor auditor(poi_index_.get(), social_index_.get(), audit_options);
  QueryOptions options;
  options.auditor = &auditor;
  for (int i = 0; i < 4; ++i) {
    GpssnQuery q = SmallQuery();
    q.issuer = (i * 53) % ssn_->num_users();
    auto answer = processor.Execute(q, options);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
  EXPECT_GT(auditor.events(), 0) << "queries exercised no pruning at all";
  EXPECT_GT(auditor.samples(), 0);
  EXPECT_EQ(auditor.violations(), 0)
      << "sound pruning flagged as unsound:\n"
      << auditor.issues().front().detail;
}

TEST_F(AuditTest, LoosenedInterestBoundTripsAuditor) {
  // Construct the processor BEFORE corrupting: GPSSN_AUDIT builds validate
  // the indexes at construction time.
  GpssnProcessor processor(poi_index_.get(), social_index_.get());
  // Collapse every node's interest box to the empty range. Lemma 8 now
  // "proves" every subtree interest-infeasible, which is unsound for any
  // subtree holding a user similar to the issuer (the issuer itself, at
  // the latest).
  for (SNodeId id = 0; id < social_index_->num_nodes(); ++id) {
    SocialIndexNode& node = social_index_->mutable_node_for_test(id);
    std::fill(node.lb_w.begin(), node.lb_w.end(), 0.0);
    std::fill(node.ub_w.begin(), node.ub_w.end(), 0.0);
  }
  PruningAuditorOptions audit_options;
  audit_options.sample_period = 1;
  audit_options.abort_on_violation = false;
  PruningAuditor auditor(poi_index_.get(), social_index_.get(), audit_options);
  QueryOptions options;
  options.auditor = &auditor;
  GpssnQuery q = SmallQuery();
  q.gamma = 1e-6;  // Any socially similar pair now violates the prune.
  auto answer = processor.Execute(q, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(auditor.violations(), 0)
      << "loosened Lemma 8 bound was not caught";
  EXPECT_TRUE(std::any_of(auditor.issues().begin(), auditor.issues().end(),
                          [](const AuditIssue& issue) {
                            return issue.check.find("social-node-interest") !=
                                   std::string::npos;
                          }))
      << "violations attributed to the wrong rule";
}

TEST_F(AuditTest, BogusDistanceLowerBoundTripsAuditor) {
  PruningAuditorOptions audit_options;
  audit_options.sample_period = 1;
  audit_options.abort_on_violation = false;
  PruningAuditor auditor(poi_index_.get(), social_index_.get(), audit_options);
  const QueryUserContext ctx(SmallQuery(), *social_index_);
  // Claim an absurd lower bound on dist_RN(u_q, poi 0): the brute-force
  // Dijkstra re-test must expose it.
  auditor.OnPoiDistanceBound(ctx, /*poi=*/0, /*lb=*/1e9);
  EXPECT_EQ(auditor.violations(), 1);
  // And a sound (trivial) bound must not trip.
  auditor.OnPoiDistanceBound(ctx, /*poi=*/0, /*lb=*/0.0);
  EXPECT_EQ(auditor.violations(), 1);
}

}  // namespace
}  // namespace gpssn
