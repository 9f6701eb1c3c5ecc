#include "core/virtual_relation.h"

#include <algorithm>

#include "common/logging.h"
#include "relational/schema.h"

namespace xjoin {

Result<PathRelation> PathRelation::Make(const Twig& twig, const TwigPath& path,
                                        const NodeIndex* index) {
  PathRelation rel;
  rel.index_ = index;
  rel.attributes_ = path.attributes;
  for (TwigNodeId q : path.nodes) {
    const std::string& tag = twig.node(q).tag;
    if (tag == "*") {
      return Status::InvalidArgument(
          "wildcard tags are not supported in multi-model joins");
    }
    rel.tags_.push_back(index->doc().LookupTag(tag));
  }
  return rel;
}

std::unique_ptr<TrieIterator> PathRelation::NewLazyIterator() const {
  return std::make_unique<LazyPathTrieIterator>(this);
}

Result<Relation> PathRelation::Materialize() const {
  XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(attributes_));
  Relation out(std::move(schema));
  const XmlDocument& doc = index_->doc();
  if (tags_.empty()) return out;
  if (tags_[0] < 0) return out;  // root tag absent

  Tuple row(tags_.size());
  // Depth-first chain enumeration.
  struct Level {
    std::vector<NodeId> nodes;
    size_t next;
  };
  std::vector<Level> stack;
  stack.push_back({index_->NodesByTag(tags_[0]), 0});
  while (!stack.empty()) {
    Level& top = stack.back();
    if (top.next >= top.nodes.size()) {
      stack.pop_back();
      continue;
    }
    NodeId node = top.nodes[top.next++];
    row[stack.size() - 1] = index_->ValueOf(node);
    if (stack.size() == tags_.size()) {
      out.AppendRow(row);
      continue;
    }
    int32_t next_tag = tags_[stack.size()];
    std::vector<NodeId> children;
    if (next_tag >= 0) {
      for (NodeId c = doc.node(node).first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        if (doc.node(c).tag == next_tag) children.push_back(c);
      }
    }
    stack.push_back({std::move(children), 0});
  }
  out.SortAndDedup();
  return out;
}

Result<RelationTrie> PathRelation::BuildTrie(
    const TrieBuildOptions& options) const {
  XJ_ASSIGN_OR_RETURN(Relation rows, Materialize());
  return RelationTrie::Build(rows, attributes_, options);
}

int64_t PathRelation::CountChains() const {
  if (tags_.empty()) return 0;
  if (tags_[0] < 0) return 0;
  const XmlDocument& doc = index_->doc();
  // chains[x] = number of chains for the path suffix starting at level
  // `lvl` whose first node is x. Computed bottom-up over levels.
  const size_t k = tags_.size();
  // For the last level every matching node contributes one chain.
  std::vector<int64_t> counts;  // parallel to nodes of current level
  std::vector<NodeId> nodes = index_->NodesByTag(tags_[k - 1]);
  counts.assign(nodes.size(), 1);
  for (size_t lvl = k - 1; lvl-- > 0;) {
    // Map node -> count for quick child lookup.
    std::vector<int64_t> count_by_node(doc.num_nodes(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
      count_by_node[static_cast<size_t>(nodes[i])] = counts[i];
    }
    std::vector<NodeId> up_nodes = index_->NodesByTag(tags_[lvl]);
    std::vector<int64_t> up_counts(up_nodes.size(), 0);
    int32_t child_tag = tags_[lvl + 1];
    for (size_t i = 0; i < up_nodes.size(); ++i) {
      int64_t total = 0;
      for (NodeId c = doc.node(up_nodes[i]).first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        if (doc.node(c).tag == child_tag) {
          total += count_by_node[static_cast<size_t>(c)];
        }
      }
      up_counts[i] = total;
    }
    nodes = std::move(up_nodes);
    counts = std::move(up_counts);
  }
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return total;
}

LazyPathTrieIterator::LazyPathTrieIterator(const PathRelation* relation)
    : relation_(relation) {}

void LazyPathTrieIterator::FixGroup() {
  Frame& f = frames_[static_cast<size_t>(depth_)];
  if (f.pos >= f.entries.size()) {
    f.group_end = f.pos;
    return;
  }
  int64_t value = f.entries[f.pos].value;
  size_t e = f.pos + 1;
  while (e < f.entries.size() && f.entries[e].value == value) ++e;
  f.group_end = e;
}

void LazyPathTrieIterator::Open() {
  XJ_DCHECK(depth_ + 1 < relation_->arity());
  Frame next;
  const NodeIndex& index = relation_->index();
  if (depth_ < 0) {
    int32_t tag = relation_->tags()[0];
    if (tag >= 0) next.entries = index.ValueSortedNodes(tag);
  } else {
    const Frame& parent = frames_[static_cast<size_t>(depth_)];
    XJ_DCHECK(parent.pos < parent.group_end);
    int32_t tag = relation_->tags()[static_cast<size_t>(depth_) + 1];
    if (tag >= 0) {
      const XmlDocument& doc = index.doc();
      for (size_t i = parent.pos; i < parent.group_end; ++i) {
        NodeId parent_node = parent.entries[i].node;
        for (NodeId c = doc.node(parent_node).first_child; c != kNullNode;
             c = doc.node(c).next_sibling) {
          if (doc.node(c).tag == tag) {
            next.entries.push_back(ValueNode{index.ValueOf(c), c});
          }
        }
      }
      std::sort(next.entries.begin(), next.entries.end(),
                [](const ValueNode& a, const ValueNode& b) {
                  if (a.value != b.value) return a.value < b.value;
                  return a.node < b.node;
                });
    }
  }
  ++depth_;
  frames_.push_back(std::move(next));
  FixGroup();
}

void LazyPathTrieIterator::Up() {
  XJ_DCHECK(depth_ >= 0);
  frames_.pop_back();
  --depth_;
}

bool LazyPathTrieIterator::AtEnd() const {
  XJ_DCHECK(depth_ >= 0);
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  return f.pos >= f.entries.size();
}

int64_t LazyPathTrieIterator::Key() const {
  XJ_DCHECK(!AtEnd());
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  return f.entries[f.pos].value;
}

void LazyPathTrieIterator::Next() {
  XJ_DCHECK(!AtEnd());
  Frame& f = frames_[static_cast<size_t>(depth_)];
  f.pos = f.group_end;
  FixGroup();
}

void LazyPathTrieIterator::Seek(int64_t key) {
  XJ_DCHECK(!AtEnd());
  Frame& f = frames_[static_cast<size_t>(depth_)];
  auto cmp = [](const ValueNode& a, int64_t v) { return a.value < v; };
  // Gallop from the cursor to bracket the target (leapfrog seeks are
  // usually near), then binary search inside the bracket.
  size_t base = f.pos;
  size_t step = 1;
  const size_t n = f.entries.size();
  while (base + step < n && f.entries[base + step].value < key) {
    base += step;
    step <<= 1;
  }
  size_t search_hi = std::min(base + step, n);
  f.pos = static_cast<size_t>(
      std::lower_bound(f.entries.begin() + static_cast<ptrdiff_t>(base),
                       f.entries.begin() + static_cast<ptrdiff_t>(search_hi),
                       key, cmp) -
      f.entries.begin());
  FixGroup();
}

int64_t LazyPathTrieIterator::EstimateKeys() const {
  XJ_DCHECK(depth_ >= 0);
  const Frame& f = frames_[static_cast<size_t>(depth_)];
  return static_cast<int64_t>(f.entries.size() - f.pos);
}

std::unique_ptr<TrieIterator> LazyPathTrieIterator::Clone() const {
  return std::make_unique<LazyPathTrieIterator>(relation_);
}

}  // namespace xjoin
