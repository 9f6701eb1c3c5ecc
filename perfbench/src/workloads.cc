#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "common/metrics.h"
#include "core/baseline.h"
#include "core/bound.h"
#include "workload/xmark.h"
#include "xml/serialize.h"
#include "xml/twig.h"

namespace perfbench {

using xjoin::MultiModelDatabase;
using xjoin::Result;

std::string ShapeSpec::Text() const {
  std::string text = "Q(";
  for (size_t i = 0; i < outputs.size(); ++i) {
    text += (i ? ", " : "") + outputs[i];
  }
  text += ") := ";
  for (size_t i = 0; i < relations.size(); ++i) {
    text += (i ? ", " : "") + relations[i];
  }
  if (!document.empty()) text += ", " + document + ":" + twig;
  return text;
}

Result<xjoin::MultiModelQuery> ShapeSpec::Assemble(
    const MultiModelDatabase& db) const {
  xjoin::MultiModelQuery q;
  for (const std::string& r : relations) {
    XJ_ASSIGN_OR_RETURN(const xjoin::Relation* rel, db.relation(r));
    q.relations.push_back({r, rel});
  }
  if (!document.empty()) {
    XJ_ASSIGN_OR_RETURN(const xjoin::NodeIndex* index,
                        db.document_index(document));
    XJ_ASSIGN_OR_RETURN(xjoin::Twig t, xjoin::Twig::Parse(twig));
    q.twigs.push_back(xjoin::TwigInput{std::move(t), index});
  }
  q.output_attributes = outputs;
  return q;
}

XmarkInputs MakeXmarkInputs(uint64_t seed, int num_docs,
                            const XmarkScale& scale,
                            const std::vector<double>& closed_scale) {
  XmarkInputs in;
  in.num_items = scale.items;
  in.num_categories = scale.categories;
  for (int d = 0; d < num_docs; ++d) {
    xjoin::XMarkOptions o;
    o.num_items = scale.items;
    o.num_persons = scale.persons;
    o.num_open_auctions = scale.open_auctions;
    o.num_closed_auctions = scale.closed_auctions;
    if (!closed_scale.empty()) {
      o.num_closed_auctions = static_cast<int64_t>(std::llround(
          static_cast<double>(scale.closed_auctions) *
          closed_scale[static_cast<size_t>(d) % closed_scale.size()]));
    }
    o.num_categories = scale.categories;
    o.seed = seed * 7919 + static_cast<uint64_t>(d) + 1;
    xjoin::XMarkInstance inst = xjoin::MakeXMark(o);
    xjoin::XmlWriteOptions w;
    w.indent = false;
    in.docs.push_back(xjoin::WriteXml(*inst.doc, w));
    if (d != 0) continue;
    // The tables come from the first instance; every document draws its
    // item and person references from the same id ranges.
    const xjoin::Dictionary& dict = *inst.dict;
    in.item_cat_csv = "itemref,category\n";
    for (size_t r = 0; r < inst.item_category->num_rows(); ++r) {
      const std::string& cat = dict.Decode(inst.item_category->at(r, 1));
      in.item_cat_csv += dict.Decode(inst.item_category->at(r, 0)) + "," +
                         cat + "\n";
      in.item_category.push_back(std::atoll(cat.c_str() + 3));  // "cat<n>"
    }
    in.person_geo_csv = "buyer,country\n";
    for (size_t r = 0; r < inst.person_country->num_rows(); ++r) {
      in.person_geo_csv += dict.Decode(inst.person_country->at(r, 0)) + "," +
                           dict.Decode(inst.person_country->at(r, 1)) + "\n";
    }
  }
  return in;
}

ShapeSpec ClosedAuctionShape(const std::string& document) {
  return ShapeSpec{"closed_auction",
                   {"ItemCat", "PersonGeo"},
                   document,
                   "closed_auction[itemref,buyer]/price",
                   {"itemref", "category", "buyer", "country", "price"}};
}

ShapeSpec OpenAuctionShape(const std::string& document) {
  return ShapeSpec{"open_auction",
                   {"ItemCat"},
                   document,
                   "site//open_auction[bidder/personref]/itemref",
                   {"itemref", "category", "personref"}};
}

Status RegisterXmark(MultiModelDatabase* db, const XmarkInputs& in,
                     const std::vector<std::string>& doc_names) {
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("ItemCat", in.item_cat_csv));
  XJ_RETURN_NOT_OK(db->RegisterRelationCsv("PersonGeo", in.person_geo_csv));
  for (size_t i = 0; i < doc_names.size(); ++i) {
    XJ_RETURN_NOT_OK(db->RegisterDocumentXml(doc_names[i], in.docs[i]));
  }
  return Status::OK();
}

namespace {

/// Natural join of `inputs`, then projection on `outputs` and dedup.
/// Each step joins the running result with the next input that shares
/// an attribute with it (hash join on the shared codes), so the order
/// never forms a cross product the query does not ask for.
Result<xjoin::Relation> JoinInputs(const std::vector<xjoin::Relation>& inputs,
                                   const std::vector<std::string>& outputs) {
  std::vector<std::string> attrs = inputs[0].schema().attributes();
  std::vector<int64_t> rows;  // row-major, attrs.size() wide
  for (size_t r = 0; r < inputs[0].num_rows(); ++r) {
    for (size_t c = 0; c < attrs.size(); ++c) rows.push_back(inputs[0].at(r, c));
  }
  std::vector<bool> used(inputs.size(), false);
  used[0] = true;
  for (size_t step = 1; step < inputs.size(); ++step) {
    size_t pick = inputs.size();
    for (size_t i = 0; i < inputs.size() && pick == inputs.size(); ++i) {
      if (used[i]) continue;
      for (const std::string& a : inputs[i].schema().attributes()) {
        if (std::find(attrs.begin(), attrs.end(), a) != attrs.end()) pick = i;
      }
    }
    if (pick == inputs.size()) {
      return Status::InvalidArgument("oracle inputs are not connected");
    }
    used[pick] = true;
    const xjoin::Relation& s = inputs[pick];
    // Shared attributes as (running column, s column); new ones append.
    std::vector<std::pair<size_t, size_t>> shared;
    std::vector<size_t> extra;
    for (size_t c = 0; c < s.num_columns(); ++c) {
      auto it = std::find(attrs.begin(), attrs.end(), s.schema().attribute(c));
      if (it != attrs.end()) {
        shared.push_back({static_cast<size_t>(it - attrs.begin()), c});
      } else {
        extra.push_back(c);
      }
    }
    auto key_of = [&](auto&& value_at) {
      uint64_t h = 0;
      for (size_t k = 0; k < shared.size(); ++k) {
        h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(value_at(k));
      }
      return h;
    };
    std::unordered_multimap<uint64_t, size_t> index;
    for (size_t r = 0; r < s.num_rows(); ++r) {
      index.emplace(key_of([&](size_t k) { return s.at(r, shared[k].second); }),
                    r);
    }
    const size_t width = attrs.size();
    std::vector<int64_t> next;
    for (size_t r = 0; r * width < rows.size(); ++r) {
      const int64_t* row = &rows[r * width];
      auto range = index.equal_range(
          key_of([&](size_t k) { return row[shared[k].first]; }));
      for (auto it = range.first; it != range.second; ++it) {
        bool match = true;
        for (const auto& [rc, sc] : shared) {
          match = match && row[rc] == s.at(it->second, sc);
        }
        if (!match) continue;
        next.insert(next.end(), row, row + width);
        for (size_t c : extra) next.push_back(s.at(it->second, c));
      }
    }
    for (size_t c : extra) attrs.push_back(s.schema().attribute(c));
    rows.swap(next);
  }
  std::vector<size_t> proj;
  for (const std::string& o : outputs) {
    auto it = std::find(attrs.begin(), attrs.end(), o);
    if (it == attrs.end()) return Status::InvalidArgument("no attribute " + o);
    proj.push_back(static_cast<size_t>(it - attrs.begin()));
  }
  XJ_ASSIGN_OR_RETURN(xjoin::Schema schema, xjoin::Schema::Make(outputs));
  xjoin::Relation out(schema);
  const size_t width = attrs.size();
  xjoin::Tuple t(proj.size());
  for (size_t r = 0; r * width < rows.size(); ++r) {
    for (size_t k = 0; k < proj.size(); ++k) t[k] = rows[r * width + proj[k]];
    out.AppendRow(t);
  }
  out.SortAndDedup();  // the engines agree as sets
  return out;
}

}  // namespace

Result<Digest> OracleDigest(const MultiModelDatabase& db,
                            const ShapeSpec& shape) {
  std::vector<xjoin::Relation> inputs;
  if (!shape.document.empty()) {
    ShapeSpec twig_only = shape;
    twig_only.relations.clear();
    XJ_ASSIGN_OR_RETURN(xjoin::MultiModelQuery q, twig_only.Assemble(db));
    q.output_attributes.clear();  // every twig attribute
    xjoin::BaselineOptions options;
    options.strategy = xjoin::TwigMatchStrategy::kTwigStack;
    XJ_ASSIGN_OR_RETURN(xjoin::Relation twig, xjoin::ExecuteBaseline(q, options));
    inputs.push_back(std::move(twig));
  }
  for (const std::string& r : shape.relations) {
    XJ_ASSIGN_OR_RETURN(const xjoin::Relation* rel, db.relation(r));
    inputs.push_back(*rel);
  }
  XJ_ASSIGN_OR_RETURN(xjoin::Relation joined, JoinInputs(inputs, shape.outputs));
  CodeDigester digester(&db.dictionary());
  return digester.Of(joined);
}

Result<Digest> SessionOracleDigest(const xjoin::Session& session,
                                   const ShapeSpec& shape,
                                   CodeDigester* digester) {
  xjoin::QueryOptions options;
  options.engine = xjoin::Engine::kBaseline;
  std::vector<xjoin::Relation> inputs;
  if (!shape.document.empty()) {
    XJ_ASSIGN_OR_RETURN(
        xjoin::Relation twig,
        session.Query("Q(*) := " + shape.document + ":" + shape.twig, options));
    inputs.push_back(std::move(twig));
  }
  for (const std::string& r : shape.relations) {
    XJ_ASSIGN_OR_RETURN(xjoin::Relation rel,
                        session.Query("Q(*) := " + r, options));
    inputs.push_back(std::move(rel));
  }
  XJ_ASSIGN_OR_RETURN(xjoin::Relation joined, JoinInputs(inputs, shape.outputs));
  return digester->Of(joined);
}

xjoin::net::QueryResultSet ToResultSet(const xjoin::Relation& rel,
                                       const xjoin::Dictionary& dict) {
  xjoin::net::QueryResultSet rs;
  rs.columns = rel.schema().attributes();
  rs.rows.resize(rel.num_rows());
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      rs.rows[r].push_back(dict.Decode(rel.at(r, c)));
    }
  }
  return rs;
}

Status CountShape(const MultiModelDatabase& db, const ShapeSpec& shape,
                  ExactCounts* out) {
  xjoin::Metrics metrics;
  xjoin::QueryOptions options;
  options.metrics = &metrics;
  const xjoin::Session session = db.OpenSession();
  XJ_ASSIGN_OR_RETURN(xjoin::Relation rel, session.Query(shape.Text(), options));
  const std::string& s = shape.name;
  for (const char* c : {"gj.seeks", "gj.total_intermediate",
                        "gj.max_intermediate", "gj.output"}) {
    (*out)[std::string(c) + "." + s] = static_cast<double>(metrics.Get(c));
  }
  if (!shape.document.empty()) {
    const double expanded =
        static_cast<double>(std::max<int64_t>(1, metrics.Get("xjoin.expanded")));
    (*out)["xjoin.validated_ratio." + s] =
        static_cast<double>(metrics.Get("xjoin.validated")) / expanded;
  }
  (*out)["rows." + s] = static_cast<double>(rel.num_rows());
  return Status::OK();
}

Status ProbeBound(const MultiModelDatabase& db, const ShapeSpec& shape,
                  Tracer* tracer, RunReport* report) {
  XJ_ASSIGN_OR_RETURN(xjoin::MultiModelQuery q, shape.Assemble(db));
  const xjoin::Session session = db.OpenSession();
  XJ_ASSIGN_OR_RETURN(xjoin::Relation rel, session.Query(shape.Text()));
  double log2_bound = 0;
  XJ_ASSIGN_OR_RETURN(const double ms, MedianMs(5, [&]() -> Status {
    SpanScope span(tracer, "lp", "ComputeBound", 0);
    XJ_ASSIGN_OR_RETURN(xjoin::MultiModelBound bound, xjoin::ComputeBound(q));
    log2_bound = bound.log2_output_bound;
    return Status::OK();
  }));
  report->Set("lp.bound_ms." + shape.name, ms, "ms");
  report->Set("lp.bound_tightness." + shape.name,
              static_cast<double>(rel.num_rows()) / std::exp2(log2_bound),
              "ratio");
  return Status::OK();
}

Status ProbePrepareExecute(MultiModelDatabase* db, const ShapeSpec& shape,
                           int reps, Tracer* tracer, RunReport* report) {
  const std::string text = shape.Text();
  const xjoin::Session session = db->OpenSession();
  std::vector<double> cold_ms;
  for (int i = 0; i < reps; ++i) {
    db->ClearPlanCache();
    const int64_t start = NowNs();
    SpanScope span(tracer, "core", "Session::Prepare(cold)", 0);
    XJ_RETURN_NOT_OK(session.Prepare(text).status());
    cold_ms.push_back(MsSince(start));
  }
  const double cold = Median(cold_ms);
  XJ_ASSIGN_OR_RETURN(const double hit, MedianMs(reps, [&] {
    SpanScope span(tracer, "core", "Session::Prepare(hit)", 0);
    return session.Prepare(text).status();
  }));
  XJ_ASSIGN_OR_RETURN(xjoin::PreparedQuery prepared, session.Prepare(text));
  XJ_ASSIGN_OR_RETURN(const double exec, MedianMs(reps, [&] {
    SpanScope span(tracer, "core", "Session::Execute", 0);
    return session.Execute(prepared).status();
  }));
  report->Set("core.prepare_cold_ms." + shape.name, cold, "ms");
  report->Set("core.prepare_hit_us." + shape.name, hit * 1e3, "us");
  report->Set("core.execute_ms." + shape.name, exec, "ms");
  return Status::OK();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"xmark_serve", "graph_join",
                                                 "update_mix"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "xmark_serve") return MakeXmarkServe(seed);
  if (name == "graph_join") return MakeGraphJoin(seed);
  if (name == "update_mix") return MakeUpdateMix(seed);
  return nullptr;
}

}  // namespace perfbench
