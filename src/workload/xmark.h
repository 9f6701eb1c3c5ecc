// XMark-like auction data. The real XMark generator (xmlgen) is not
// available offline, so this module synthesizes documents with the same
// core element hierarchy as XMark's auction.dtd (site / regions / items,
// people / person, open_auctions / bidders, closed_auctions) and
// Zipf-skewed cross references — exercising the same code paths
// (value joins between deep twig matches and relational tables over
// skewed keys).
#ifndef XJOIN_WORKLOAD_XMARK_H_
#define XJOIN_WORKLOAD_XMARK_H_

#include <cstdint>
#include <memory>

#include "common/dictionary.h"
#include "core/query.h"
#include "relational/relation.h"
#include "xml/document.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Generator knobs. Defaults approximate XMark scale factor ~0.002.
struct XMarkOptions {
  int64_t num_items = 200;
  int64_t num_persons = 100;
  int64_t num_open_auctions = 120;
  int64_t num_closed_auctions = 100;
  int64_t max_bidders_per_auction = 5;
  int64_t num_categories = 20;
  double zipf_theta = 0.8;  ///< skew of item/person references
  uint64_t seed = 7;
};

/// Generated instance: one document plus two relational tables that
/// reference its values.
struct XMarkInstance {
  std::unique_ptr<Dictionary> dict;
  std::unique_ptr<XmlDocument> doc;
  std::unique_ptr<NodeIndex> index;
  /// ItemCat(itemref, category): category assignments for items.
  std::unique_ptr<Relation> item_category;
  /// PersonGeo(buyer, country): country per person.
  std::unique_ptr<Relation> person_country;

  /// Twig closed_auction[itemref, buyer, price] joined with both tables;
  /// output (itemref, category, buyer, country, price).
  MultiModelQuery ClosedAuctionQuery() const;

  /// Deep twig site//open_auction[bidder/personref, itemref] joined with
  /// ItemCat; output (itemref, category, personref).
  MultiModelQuery OpenAuctionQuery() const;
};

/// Builds the instance.
XMarkInstance MakeXMark(const XMarkOptions& options = {});

}  // namespace xjoin

#endif  // XJOIN_WORKLOAD_XMARK_H_
