#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>

#include "common/random.h"
#include "relational/operators.h"
#include "tests/test_util.h"

namespace xjoin {
namespace {

Relation MakeRel(const std::vector<std::string>& attrs,
                 std::vector<Tuple> tuples) {
  auto s = Schema::Make(attrs);
  auto r = Relation::FromTuples(*s, std::move(tuples));
  return *std::move(r);
}

TEST(ProjectTest, DropsColumnsAndDedups) {
  Relation r = MakeRel({"A", "B"}, {{1, 10}, {1, 20}, {2, 10}});
  auto p = Project(r, {"A"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_rows(), 2u);
  EXPECT_TRUE(p->ContainsRow({1}));
  EXPECT_TRUE(p->ContainsRow({2}));
}

TEST(ProjectTest, Reorders) {
  Relation r = MakeRel({"A", "B"}, {{1, 10}});
  auto p = Project(r, {"B", "A"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->GetRow(0), (Tuple{10, 1}));
}

TEST(ProjectTest, UnknownAttributeFails) {
  Relation r = MakeRel({"A"}, {{1}});
  EXPECT_FALSE(Project(r, {"Z"}).ok());
}

TEST(HashJoinTest, NaturalJoinOnSharedAttribute) {
  Relation r = MakeRel({"A", "B"}, {{1, 10}, {2, 20}});
  Relation s = MakeRel({"B", "C"}, {{10, 100}, {10, 101}, {30, 300}});
  auto j = HashJoin(r, s);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->schema().attributes(),
            (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(j->num_rows(), 2u);
  EXPECT_TRUE(j->ContainsRow({1, 10, 100}));
  EXPECT_TRUE(j->ContainsRow({1, 10, 101}));
}

TEST(HashJoinTest, NoSharedAttributesIsCrossProduct) {
  Relation r = MakeRel({"A"}, {{1}, {2}});
  Relation s = MakeRel({"B"}, {{10}, {20}, {30}});
  auto j = HashJoin(r, s);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 6u);
}

TEST(HashJoinTest, MultiAttributeKey) {
  Relation r = MakeRel({"A", "B"}, {{1, 2}, {1, 3}});
  Relation s = MakeRel({"A", "B", "C"}, {{1, 2, 7}, {1, 9, 8}});
  auto j = HashJoin(r, s);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 1u);
  EXPECT_TRUE(j->ContainsRow({1, 2, 7}));
}

TEST(HashJoinTest, MetricsRecorded) {
  Relation r = MakeRel({"A"}, {{1}});
  Relation s = MakeRel({"A"}, {{1}});
  Metrics m;
  auto j = HashJoin(r, s, &m);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(m.Get("hash_join.output"), 1);
  EXPECT_EQ(m.Get("hash_join.probe_matches"), 1);
}

TEST(JoinAllTest, TracksIntermediates) {
  Relation r = MakeRel({"A", "B"}, {{1, 1}, {1, 2}, {2, 1}});
  Relation s = MakeRel({"B", "C"}, {{1, 1}, {1, 2}});
  Relation t = MakeRel({"C", "A"}, {{1, 1}});
  Metrics m;
  auto j = JoinAll({&r, &s, &t}, &m);
  ASSERT_TRUE(j.ok());
  EXPECT_GT(m.Get("plan.max_intermediate"), 0);
  EXPECT_GE(m.Get("plan.total_intermediate"), m.Get("plan.max_intermediate"));
  // Triangle-ish check: result must satisfy all three relations.
  for (size_t i = 0; i < j->num_rows(); ++i) {
    Tuple row = j->GetRow(i);  // schema A,B,C
    EXPECT_TRUE(r.ContainsRow({row[0], row[1]}));
    EXPECT_TRUE(s.ContainsRow({row[1], row[2]}));
    EXPECT_TRUE(t.ContainsRow({row[2], row[0]}));
  }
}

TEST(JoinAllTest, EmptyInputFails) {
  EXPECT_FALSE(JoinAll({}).ok());
}

TEST(RelationsEqualAsSetsTest, OrderAndDuplicatesIgnored) {
  Relation a = MakeRel({"A"}, {{1}, {2}, {1}});
  Relation b = MakeRel({"A"}, {{2}, {1}});
  Relation c = MakeRel({"A"}, {{2}, {3}});
  EXPECT_TRUE(RelationsEqualAsSets(a, b));
  EXPECT_FALSE(RelationsEqualAsSets(a, c));
  Relation d = MakeRel({"B"}, {{1}, {2}});
  EXPECT_FALSE(RelationsEqualAsSets(a, d));  // schema differs
}

// Property: HashJoin of two random relations equals the brute-force
// natural join.
class HashJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(HashJoinProperty, MatchesNaiveJoin) {
  Rng rng(2000 + static_cast<uint64_t>(GetParam()));
  Dictionary dict;
  // Random overlapping schemas out of a pool of 4 attribute names.
  std::vector<std::string> pool = {"A", "B", "C", "D"};
  auto pick_schema = [&]() {
    std::vector<std::string> attrs;
    for (const auto& a : pool) {
      if (rng.NextBernoulli(0.6)) attrs.push_back(a);
    }
    if (attrs.empty()) attrs.push_back("A");
    return attrs;
  };
  Relation r = testing::RandomRelation(&rng, &dict, pick_schema(),
                                       rng.NextBounded(30), 4);
  Relation s = testing::RandomRelation(&rng, &dict, pick_schema(),
                                       rng.NextBounded(30), 4);
  auto fast = HashJoin(r, s);
  ASSERT_TRUE(fast.ok());
  Relation slow = testing::NaiveNaturalJoin({&r, &s});
  // Schemas may order attributes differently; project both to the fast
  // schema's order.
  auto slow_proj = Project(slow, fast->schema().attributes());
  ASSERT_TRUE(slow_proj.ok());
  Relation fast_copy = *fast;
  fast_copy.SortAndDedup();
  EXPECT_TRUE(RelationsEqualAsSets(fast_copy, *slow_proj));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, HashJoinProperty,
                         ::testing::Range(0, 30));

// Property: Project and SortAndDedup return exactly the rows of a
// std::set<Tuple> reference, in its (signed lexicographic) order. Row
// counts sit around 256, the radix sort's digit-table size; inputs are
// random, sorted, reverse-sorted and duplicate-heavy (shuffled or
// sorted), over codes that include negatives and the int64 extremes.
enum class RowShape {
  kRandom,
  kSorted,
  kReverse,
  kDuplicateHeavy,
  kSortedDuplicates
};
constexpr int kNumRowShapes = 5;

Relation ShapedRelation(Rng* rng, const std::vector<std::string>& attrs,
                        size_t rows, RowShape shape) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Codes around the sign bit, the byte boundaries and the int64 ends.
  std::vector<int64_t> edges = {kMin, kMin + 1, -257, -256, -1, 0};
  edges.insert(edges.end(), {1, 255, 256, int64_t{1} << 32, kMax - 1, kMax});
  const bool duplicates = shape == RowShape::kDuplicateHeavy ||
                          shape == RowShape::kSortedDuplicates;
  std::vector<Tuple> tuples(rows, Tuple(attrs.size()));
  for (Tuple& t : tuples) {
    for (int64_t& v : t) {
      if (duplicates) {
        v = rng->NextBernoulli(0.5) ? kMin : 0;
      } else if (rng->NextBernoulli(0.5)) {
        v = edges[rng->NextBounded(edges.size())];
      } else {
        v = static_cast<int64_t>(rng->Next64());
      }
    }
  }
  if (shape == RowShape::kSorted || shape == RowShape::kSortedDuplicates) {
    std::sort(tuples.begin(), tuples.end());
  }
  if (shape == RowShape::kReverse) {
    std::sort(tuples.begin(), tuples.end(), std::greater<Tuple>());
  }
  auto schema = Schema::Make(attrs);
  return *Relation::FromTuples(*schema, std::move(tuples));
}

std::vector<Tuple> SetReference(const Relation& r,
                                const std::vector<size_t>& columns) {
  std::set<Tuple> rows;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    Tuple t;
    for (size_t c : columns) t.push_back(r.at(i, c));
    rows.insert(t);
  }
  return {rows.begin(), rows.end()};
}

TEST(SortAndProjectProperty, MatchSetReference) {
  Rng rng(4242);
  const std::vector<std::string> attrs = {"A", "B", "C"};
  // Identity, prefix, permuted, column-dropping and single-column.
  const std::vector<std::vector<size_t>> projections = {
      {0, 1, 2}, {0, 1}, {2, 0, 1}, {0, 2}, {1}};
  for (size_t rows : {0, 1, 255, 256, 257}) {
    for (int s = 0; s < kNumRowShapes; ++s) {
      const Relation input =
          ShapedRelation(&rng, attrs, rows, static_cast<RowShape>(s));
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " shape=" + std::to_string(s));

      Relation sorted = input;
      sorted.SortAndDedup();
      EXPECT_EQ(sorted.ToTuples(), SetReference(input, {0, 1, 2}));

      for (const std::vector<size_t>& columns : projections) {
        SCOPED_TRACE(::testing::PrintToString(columns));
        std::vector<std::string> names;
        for (size_t c : columns) names.push_back(attrs[c]);
        const std::vector<Tuple> expected = SetReference(input, columns);
        auto copied = Project(input, names);
        ASSERT_TRUE(copied.ok());
        EXPECT_EQ(copied->schema().attributes(), names);
        EXPECT_EQ(copied->ToTuples(), expected);
        Relation owned = input;
        auto moved = Project(std::move(owned), names);
        ASSERT_TRUE(moved.ok());
        EXPECT_EQ(moved->ToTuples(), expected);
      }
    }
  }
}

TEST(SortAndProjectProperty, ZeroColumnRelations) {
  // A relation without columns holds no rows; sorting and projecting
  // keep it that way, and projecting onto no attributes yields one.
  auto empty_schema = Schema::Make({});
  ASSERT_TRUE(empty_schema.ok());
  Relation none(*empty_schema);
  none.AppendRow({});
  none.SortAndDedup();
  EXPECT_EQ(none.num_columns(), 0u);
  EXPECT_EQ(none.num_rows(), 0u);
  auto identity = Project(std::move(none), {});
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(identity->num_rows(), 0u);

  Rng rng(7);
  const Relation input =
      ShapedRelation(&rng, {"A", "B"}, 257, RowShape::kRandom);
  auto dropped = Project(input, {});
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->num_columns(), 0u);
  EXPECT_EQ(dropped->num_rows(), 0u);
}

}  // namespace
}  // namespace xjoin
