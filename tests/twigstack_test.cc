#include <gtest/gtest.h>

#include "common/random.h"
#include "relational/operators.h"
#include "tests/test_util.h"
#include "twigjoin/naive_twig.h"
#include "twigjoin/twig_matchers.h"
#include "twigjoin/twigstack.h"
#include "xml/node_index.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

TEST(TwigStackTest, SimpleAncestorDescendant) {
  auto doc = ParseXml("<a><x><b/></x><b/></a>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a//b");
  auto rel = MatchTwigStack(*doc, index, *twig);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->num_rows(), 2u);
}

TEST(TwigStackTest, ParentChildFiltered) {
  auto doc = ParseXml("<a><x><b/></x><b/></a>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/b");
  auto rel = MatchTwigStack(*doc, index, *twig);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 1u);
}

TEST(TwigStackTest, BranchingTwig) {
  auto doc = ParseXml("<a><b/><c/></a>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a[b]/c");
  auto rel = MatchTwigStack(*doc, index, *twig);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 1u);
}

TEST(TwigStackTest, EmptyWhenLeafStreamEmpty) {
  auto doc = ParseXml("<a><b/></a>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a[b]/zzz");
  auto rel = MatchTwigStack(*doc, index, *twig);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 0u);
}

TEST(TwigStackTest, SingleNodeTwig) {
  auto doc = ParseXml("<a><b/><b/></a>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("b");
  auto rel = MatchTwigStack(*doc, index, *twig);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 2u);
}

TEST(TwigStackTest, NestedSameTagAncestors) {
  auto doc = ParseXml("<a><a><a><b/></a></a></a>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a//a=a2//b");
  auto rel = MatchTwigStack(*doc, index, *twig);
  ASSERT_TRUE(rel.ok());
  // (a0,a1,b),(a0,a2,b),(a1,a2,b): 3 embeddings.
  EXPECT_EQ(rel->num_rows(), 3u);
}

TEST(TwigStackTest, SuboptimalityCounterOnPcTwigs) {
  // The classic P-C weakness: elements pushed that never join.
  std::string xml = "<root>";
  // a/b fails (depth 2).
  for (int i = 0; i < 8; ++i) xml += "<a><m><b/></m></a>";
  xml += "<a><b/></a></root>";
  auto doc = ParseXml(xml);
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/b");
  Metrics m;
  auto rel = MatchTwigStack(*doc, index, *twig, &m);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 1u);
  EXPECT_GT(m.Get("twigstack.pushes"), 2);  // useless pushes happened
}

// Differential: TwigStack equals the naive oracle on random docs/twigs.
class TwigStackProperty : public ::testing::TestWithParam<int> {};

TEST_P(TwigStackProperty, MatchesNaive) {
  Rng rng(30000 + static_cast<uint64_t>(GetParam()));
  std::vector<std::string> tags = {"a", "b", "c"};
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(35), tags, 3);
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(doc.get(), &dict);
  Twig twig = testing::RandomTwig(&rng, 1 + rng.NextBounded(5), tags);

  auto expected = MatchesToRelation(twig, MatchTwigNaive(*doc, twig));
  ASSERT_TRUE(expected.ok());
  expected->SortAndDedup();

  auto fast = MatchTwigStack(*doc, index, twig);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  auto fast_proj = Project(*fast, expected->schema().attributes());
  ASSERT_TRUE(fast_proj.ok());
  EXPECT_TRUE(RelationsEqualAsSets(*fast_proj, *expected))
      << "TwigStack diverged on twig " << twig.ToString();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TwigStackProperty,
                         ::testing::Range(0, 80));

}  // namespace
}  // namespace xjoin
