// The Figure-1 motivating workload at TPC-ish shape: a relational order
// table R(orderID, userID) (plus customer and book dimension tables)
// joined with an XML invoice document
//   <invoices><invoice><orderID>..</orderID>
//     <orderLine><ISBN>..</ISBN><price>..</price><discount>..</discount>
//     </orderLine>* </invoice>*</invoices>
// through the twig invoice[orderID]/orderLine[ISBN]/price, producing
// Q(userID, ISBN, price). TPC data itself is not redistributable
// offline; the generator mimics the relevant shape (uniform keys with a
// configurable matched fraction and Zipf-skewed books per line).
#ifndef XJOIN_WORKLOAD_BOOKSTORE_H_
#define XJOIN_WORKLOAD_BOOKSTORE_H_

#include <cstdint>
#include <memory>

#include "common/dictionary.h"
#include "core/query.h"
#include "relational/relation.h"
#include "xml/document.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Generator knobs.
struct BookstoreOptions {
  int64_t num_orders = 500;     ///< relational orders
  int64_t num_invoices = 400;   ///< XML invoices (referencing order ids)
  int64_t num_users = 100;
  int64_t num_books = 200;
  int64_t max_lines_per_invoice = 4;
  /// Fraction of invoices whose orderID exists in the order table.
  double matched_fraction = 0.8;
  double book_zipf_theta = 0.7;
  uint64_t seed = 11;
};

/// Generated instance.
struct BookstoreInstance {
  std::unique_ptr<Dictionary> dict;
  std::unique_ptr<XmlDocument> doc;
  std::unique_ptr<NodeIndex> index;
  std::unique_ptr<Relation> orders;     ///< R(orderID, userID)
  std::unique_ptr<Relation> customers;  ///< Cust(userID, country)
  std::unique_ptr<Relation> books;      ///< Book(ISBN, genre)

  /// The Figure-1 query: R ⋈ twig; output (userID, ISBN, price).
  MultiModelQuery Figure1Query() const;

  /// Wider query joining all three tables with the twig;
  /// output (userID, country, ISBN, genre, price).
  MultiModelQuery EnrichedQuery() const;
};

/// Builds the instance.
BookstoreInstance MakeBookstore(const BookstoreOptions& options = {});

}  // namespace xjoin

#endif  // XJOIN_WORKLOAD_BOOKSTORE_H_
