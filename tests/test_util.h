// Shared helpers for the xjoin test suite: deterministic random
// documents, twigs, relations, and reference (brute-force) evaluators
// used for differential testing.
#ifndef XJOIN_TESTS_TEST_UTIL_H_
#define XJOIN_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/dictionary.h"
#include "common/random.h"
#include "relational/relation.h"
#include "relational/trie_iterator.h"
#include "xml/document.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin::testing {

/// Builds a random tree document: `num_nodes` elements, tags drawn from
/// `tags`, text values drawn from "v0".."v{num_values-1}" (with
/// probability `text_prob`, else no text). Shape is a random recursive
/// tree (each new node attaches to a uniformly chosen previous node).
inline std::unique_ptr<XmlDocument> RandomDocument(
    Rng* rng, size_t num_nodes, const std::vector<std::string>& tags,
    size_t num_values, double text_prob = 0.8) {
  // Generate parent links first (node 0 = root), then emit recursively.
  std::vector<size_t> parent(num_nodes, 0);
  for (size_t i = 1; i < num_nodes; ++i) {
    parent[i] = rng->NextBounded(i);
  }
  std::vector<std::vector<size_t>> children(num_nodes);
  for (size_t i = 1; i < num_nodes; ++i) children[parent[i]].push_back(i);

  XmlDocumentBuilder b;
  // Iterative preorder emission.
  struct Frame {
    size_t node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  auto open = [&](size_t node) {
    b.StartElement(node == 0 ? "root" : tags[rng->NextBounded(tags.size())]);
    if (node != 0 && rng->NextBernoulli(text_prob)) {
      b.AddText("v" + std::to_string(rng->NextBounded(num_values)));
    }
    stack.push_back({node, 0});
  };
  open(0);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child < children[top.node].size()) {
      open(children[top.node][top.next_child++]);
    } else {
      auto st = b.EndElement();
      (void)st;
      stack.pop_back();
    }
  }
  auto doc = b.Finish();
  return std::make_unique<XmlDocument>(*std::move(doc));
}

/// Builds a random twig with `num_nodes` query nodes over `tags`,
/// random axes (descendant with probability `ad_prob`). Attributes are
/// "q0".."q{k-1}" so repeated tags stay legal.
inline Twig RandomTwig(Rng* rng, size_t num_nodes,
                       const std::vector<std::string>& tags,
                       double ad_prob = 0.3) {
  TwigBuilder b;
  b.AddRoot(tags[rng->NextBounded(tags.size())], "q0");
  for (size_t i = 1; i < num_nodes; ++i) {
    TwigNodeId parent = static_cast<TwigNodeId>(rng->NextBounded(i));
    TwigAxis axis = rng->NextBernoulli(ad_prob) ? TwigAxis::kDescendant
                                                : TwigAxis::kChild;
    b.AddChild(parent, axis, tags[rng->NextBounded(tags.size())],
               "q" + std::to_string(i));
  }
  auto twig = b.Finish();
  return *std::move(twig);
}

/// Builds a random relation over `attrs` whose values are drawn from the
/// document value pool "v0".."v{num_values-1}" (interned in `dict`).
inline Relation RandomRelation(Rng* rng, Dictionary* dict,
                               const std::vector<std::string>& attrs,
                               size_t rows, size_t num_values) {
  auto schema = Schema::Make(attrs);
  Relation rel(*schema);
  Tuple row(attrs.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < attrs.size(); ++c) {
      row[c] = dict->Intern("v" + std::to_string(rng->NextBounded(num_values)));
    }
    rel.AppendRow(row);
  }
  return rel;
}

/// Brute-force natural join of arbitrary relations (nested loops),
/// returning distinct tuples over the union of attributes in
/// first-appearance order. Reference implementation for differential
/// tests.
Relation NaiveNaturalJoin(const std::vector<const Relation*>& inputs);

/// Forwarding trie iterator that hides the raw-CSR hooks of the one it
/// wraps: RawTrieSpans always declines, and RawLevelSpan declines unless
/// `expose_level_span` is set. Wrapping every CSR input forces the
/// generic-join engine onto its virtual-cursor policy (deepest levels
/// then drain through NextBlock, the raw-span kernel, or the virtual
/// leapfrog), so one fixture can hold both cursor policies to the same
/// results and counters. Clone() wraps a clone of the inner iterator,
/// which keeps sharded runs on the virtual policy too.
class VirtualOnlyIterator : public TrieIterator {
 public:
  VirtualOnlyIterator(TrieIterator* inner, bool expose_level_span)
      : inner_(inner), expose_level_span_(expose_level_span) {}
  VirtualOnlyIterator(std::unique_ptr<TrieIterator> owned,
                      bool expose_level_span)
      : owned_(std::move(owned)),
        inner_(owned_.get()),
        expose_level_span_(expose_level_span) {}

  int arity() const override { return inner_->arity(); }
  int depth() const override { return inner_->depth(); }
  void Open() override { inner_->Open(); }
  void Up() override { inner_->Up(); }
  bool AtEnd() const override { return inner_->AtEnd(); }
  int64_t Key() const override { return inner_->Key(); }
  void Next() override { inner_->Next(); }
  void Seek(int64_t key) override { inner_->Seek(key); }
  int64_t EstimateKeys() const override { return inner_->EstimateKeys(); }
  size_t NextBlock(int64_t hi_exclusive, KeyBlock* out) override {
    return inner_->NextBlock(hi_exclusive, out);
  }
  bool RawLevelSpan(RawKeySpan* out) const override {
    return expose_level_span_ && inner_->RawLevelSpan(out);
  }
  std::unique_ptr<TrieIterator> Clone() const override {
    return std::make_unique<VirtualOnlyIterator>(inner_->Clone(),
                                                 expose_level_span_);
  }

 private:
  std::unique_ptr<TrieIterator> owned_;
  TrieIterator* inner_;
  bool expose_level_span_;
};

}  // namespace xjoin::testing

#endif  // XJOIN_TESTS_TEST_UTIL_H_
