#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "relational/operators.h"
#include "tests/test_util.h"
#include "twigjoin/naive_twig.h"
#include "twigjoin/structural_join.h"
#include "twigjoin/twig_matchers.h"
#include "xml/node_index.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

TEST(NaiveTwigTest, SimplePath) {
  auto doc = ParseXml("<a><b><c/></b><c/></a>");
  ASSERT_TRUE(doc.ok());
  auto twig = Twig::Parse("a//c");
  ASSERT_TRUE(twig.ok());
  auto matches = MatchTwigNaive(*doc, *twig);
  EXPECT_EQ(matches.size(), 2u);  // both c's are descendants of a
  for (const auto& m : matches) EXPECT_TRUE(IsValidMatch(*doc, *twig, m));
}

TEST(NaiveTwigTest, ChildVsDescendant) {
  auto doc = ParseXml("<a><b><c/></b><c/></a>");
  ASSERT_TRUE(doc.ok());
  auto twig = Twig::Parse("a/c");
  auto matches = MatchTwigNaive(*doc, *twig);
  EXPECT_EQ(matches.size(), 1u);  // only the direct child
}

TEST(NaiveTwigTest, WildcardTag) {
  auto doc = ParseXml("<a><b/><c/></a>");
  auto twig = Twig::Parse("a/*");
  auto matches = MatchTwigNaive(*doc, *twig);
  EXPECT_EQ(matches.size(), 2u);
}

TEST(NaiveTwigTest, LimitStopsEarly) {
  auto doc = ParseXml("<a><b/><b/><b/></a>");
  auto twig = Twig::Parse("a/b");
  EXPECT_EQ(MatchTwigNaive(*doc, *twig, 2).size(), 2u);
}

TEST(NaiveTwigTest, AbsentTagNoMatches) {
  auto doc = ParseXml("<a><b/></a>");
  auto twig = Twig::Parse("a/zzz");
  EXPECT_TRUE(MatchTwigNaive(*doc, *twig).empty());
}

TEST(IsValidMatchTest, RejectsBadBindings) {
  auto doc = ParseXml("<a><b/></a>");
  auto twig = Twig::Parse("a/b");
  EXPECT_TRUE(IsValidMatch(*doc, *twig, {0, 1}));
  EXPECT_FALSE(IsValidMatch(*doc, *twig, {1, 0}));
  EXPECT_FALSE(IsValidMatch(*doc, *twig, {0}));
  EXPECT_FALSE(IsValidMatch(*doc, *twig, {0, 5}));
}

TEST(StructuralJoinTest, AncestorDescendantPairs) {
  auto doc = ParseXml("<a><a><b/></a><b/></a>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto a_nodes = index.NodesByTag(doc->LookupTag("a"));
  auto b_nodes = index.NodesByTag(doc->LookupTag("b"));
  auto ad = StructuralJoin(*doc, a_nodes, b_nodes, TwigAxis::kDescendant);
  // outer a contains both b's; inner a contains the first b.
  EXPECT_EQ(ad.size(), 3u);
  auto pc = StructuralJoin(*doc, a_nodes, b_nodes, TwigAxis::kChild);
  EXPECT_EQ(pc.size(), 2u);
}

TEST(StructuralJoinTest, EmptyInputs) {
  auto doc = ParseXml("<a/>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  EXPECT_TRUE(StructuralJoin(*doc, {}, {0}, TwigAxis::kDescendant).empty());
  EXPECT_TRUE(StructuralJoin(*doc, {0}, {}, TwigAxis::kDescendant).empty());
}

// Property: StructuralJoin equals the quadratic reference on random
// documents, for both axes.
class StructuralJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(StructuralJoinProperty, MatchesBruteForce) {
  Rng rng(6000 + static_cast<uint64_t>(GetParam()));
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(50),
                                     {"a", "b"}, 3);
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(doc.get(), &dict);
  for (TwigAxis axis : {TwigAxis::kDescendant, TwigAxis::kChild}) {
    for (int32_t t1 = 0; t1 < doc->tag_dict().size(); ++t1) {
      for (int32_t t2 = 0; t2 < doc->tag_dict().size(); ++t2) {
        auto fast = StructuralJoin(*doc, index.NodesByTag(t1),
                                   index.NodesByTag(t2), axis);
        std::vector<NodePair> slow;
        for (NodeId a : index.NodesByTag(t1)) {
          for (NodeId d : index.NodesByTag(t2)) {
            bool related = axis == TwigAxis::kChild ? doc->IsParent(a, d)
                                                    : doc->IsAncestor(a, d);
            if (related) slow.emplace_back(a, d);
          }
        }
        std::sort(slow.begin(), slow.end(),
                  [](const NodePair& x, const NodePair& y) {
                    return x.second != y.second ? x.second < y.second
                                                : x.first < y.first;
                  });
        EXPECT_EQ(fast, slow);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, StructuralJoinProperty,
                         ::testing::Range(0, 15));

// Differential: both fast matchers equal the naive oracle on random
// documents and twigs.
class TwigMatcherProperty : public ::testing::TestWithParam<int> {};

TEST_P(TwigMatcherProperty, FastMatchersEqualNaive) {
  Rng rng(7000 + static_cast<uint64_t>(GetParam()));
  std::vector<std::string> tags = {"a", "b", "c"};
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(35), tags, 3);
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(doc.get(), &dict);
  Twig twig = testing::RandomTwig(&rng, 1 + rng.NextBounded(5), tags);

  auto expected = MatchesToRelation(twig, MatchTwigNaive(*doc, twig));
  ASSERT_TRUE(expected.ok());
  expected->SortAndDedup();

  Metrics m1, m2;
  auto plan = MatchTwigStructuralPlan(*doc, index, twig, &m1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto plan_proj = Project(*plan, expected->schema().attributes());
  ASSERT_TRUE(plan_proj.ok());
  EXPECT_TRUE(RelationsEqualAsSets(*plan_proj, *expected))
      << "structural plan diverged on twig " << twig.ToString();

  auto pathstack = MatchTwigPathStack(*doc, index, twig, &m2);
  ASSERT_TRUE(pathstack.ok()) << pathstack.status().ToString();
  auto ps_proj = Project(*pathstack, expected->schema().attributes());
  ASSERT_TRUE(ps_proj.ok());
  EXPECT_TRUE(RelationsEqualAsSets(*ps_proj, *expected))
      << "pathstack diverged on twig " << twig.ToString();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TwigMatcherProperty,
                         ::testing::Range(0, 60));

TEST(MatchersTest, SingleNodeTwig) {
  auto doc = ParseXml("<a><b/><b/></a>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("b");
  auto rel = MatchTwigStructuralPlan(*doc, index, *twig);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 2u);
  auto rel2 = MatchTwigPathStack(*doc, index, *twig);
  ASSERT_TRUE(rel2.ok());
  EXPECT_EQ(rel2->num_rows(), 2u);
}

TEST(MatchersTest, PathStackRecordsPathSolutionBlowup) {
  // Document where path solutions vastly exceed twig matches:
  // a's with b-children but no c-children produce (a,b) path solutions
  // that die in the merge.
  std::string xml = "<root>";
  for (int i = 0; i < 10; ++i) xml += "<a><b/></a>";
  xml += "<a><b/><c/></a></root>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a[b]/c");
  Metrics m;
  auto rel = MatchTwigPathStack(*doc, index, *twig, &m);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 1u);
  EXPECT_GE(m.Get("twig_path.path_solutions"), 11);  // 11 (a,b) + 1 (a,c)
}

}  // namespace
}  // namespace xjoin
