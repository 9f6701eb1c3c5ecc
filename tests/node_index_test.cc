#include <gtest/gtest.h>

#include "xml/node_index.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

TEST(NodeIndexTest, TextValuesShareDictionaryWithRelationalSide) {
  auto doc = ParseXml("<r><a>apple</a><b>apple</b><c/></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  int64_t relational_apple = dict.Intern("apple");
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  int32_t a = doc->LookupTag("a");
  int32_t b_tag = doc->LookupTag("b");
  NodeId a_node = index.NodesByTag(a)[0];
  NodeId b_node = index.NodesByTag(b_tag)[0];
  EXPECT_EQ(index.ValueOf(a_node), relational_apple);
  EXPECT_EQ(index.ValueOf(b_node), relational_apple);
}

TEST(NodeIndexTest, TextlessNodesGetUniqueSyntheticValues) {
  auto doc = ParseXml("<r><c/><c/></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto nodes = index.NodesByTag(doc->LookupTag("c"));
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_NE(index.ValueOf(nodes[0]), index.ValueOf(nodes[1]));
  // Synthetic values cannot collide with any parseable text.
  EXPECT_EQ(dict.Decode(index.ValueOf(nodes[0]))[0], '\x1F');
}

TEST(NodeIndexTest, NodeIdAlwaysPolicyIgnoresText) {
  auto doc = ParseXml("<r><a>same</a><a>same</a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict, ValuePolicy::kNodeIdAlways);
  auto nodes = index.NodesByTag(doc->LookupTag("a"));
  EXPECT_NE(index.ValueOf(nodes[0]), index.ValueOf(nodes[1]));
}

TEST(NodeIndexTest, ValueSortedNodesIsSorted) {
  auto doc = ParseXml("<r><a>b</a><a>a</a><a>c</a><a>a</a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  const auto& list = index.ValueSortedNodes(doc->LookupTag("a"));
  ASSERT_EQ(list.size(), 4u);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_TRUE(list[i - 1].value < list[i].value ||
                (list[i - 1].value == list[i].value &&
                 list[i - 1].node < list[i].node));
  }
}

TEST(NodeIndexTest, TagValueRange) {
  auto doc = ParseXml("<r><a>x</a><a>y</a><a>x</a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  int64_t x = dict.Lookup("x");
  auto [first, last] = index.TagValueRange(doc->LookupTag("a"), x);
  ASSERT_EQ(last - first, 2);
  EXPECT_EQ(first[0].value, x);
  EXPECT_EQ(first[1].value, x);
  EXPECT_LT(first[0].node, first[1].node);
  auto none = index.TagValueRange(doc->LookupTag("a"), 999999);
  EXPECT_EQ(none.first, none.second);
  auto unknown = index.TagValueRange(-1, x);
  EXPECT_EQ(unknown.first, unknown.second);
}

TEST(NodeIndexTest, UnknownTagYieldsEmpty) {
  auto doc = ParseXml("<r/>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  EXPECT_TRUE(index.NodesByTag(-1).empty());
  EXPECT_TRUE(index.ValueSortedNodes(12345).empty());
}

}  // namespace
}  // namespace xjoin
