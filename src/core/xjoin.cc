#include "core/xjoin.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/generic_join.h"
#include "relational/operators.h"
#include "relational/trie.h"

namespace xjoin {

namespace {

// One validation scratch per twig of the plan.
std::vector<TwigStructureValidator::Scratch> NewScratch(
    const XJoinPlan& plan) {
  std::vector<TwigStructureValidator::Scratch> scratch;
  scratch.reserve(plan.twigs.size());
  for (const XJoinPlan::TwigExec& exec : plan.twigs) {
    scratch.emplace_back(exec.validator);
  }
  return scratch;
}

// The in-join partial validation (plan.structural_pruning): after each
// binding, re-checks every twig that owns the newly bound attribute
// against the prefix bound so far. GenericJoin copies the filter once
// per engine run, so each shard validates in its own scratch.
class PrefixValidator {
 public:
  explicit PrefixValidator(const XJoinPlan& plan)
      : plan_(&plan), scratch_(NewScratch(plan)) {}

  bool operator()(size_t depth, const std::vector<int64_t>& prefix,
                  Metrics* metrics) {
    for (size_t t = 0; t < plan_->twigs.size(); ++t) {
      const XJoinPlan::TwigExec& exec = plan_->twigs[t];
      TwigStructureValidator::Scratch& scratch = scratch_[t];
      bool relevant = false;
      for (size_t q = 0; q < exec.order_pos_of_node.size(); ++q) {
        const size_t pos = exec.order_pos_of_node[q];
        const TwigNodeId node = static_cast<TwigNodeId>(q);
        if (pos <= depth) {
          scratch.Bind(node, prefix[pos]);
        } else {
          scratch.Unbind(node);
        }
        if (pos == depth) relevant = true;
      }
      if (!relevant) continue;
      if (!exec.validator.ExistsEmbedding(&scratch, metrics)) {
        MetricsAdd(metrics, "xjoin.pruned", 1);
        return false;
      }
    }
    return true;
  }

 private:
  const XJoinPlan* plan_;
  std::vector<TwigStructureValidator::Scratch> scratch_;  // one per twig
};

}  // namespace

Result<Relation> ExecutePlan(const XJoinPlan& plan,
                             const XJoinOptions& options) {
  const int num_threads = plan.num_threads;

  // A cancellation token rides the budget tracker as a cancel source so
  // both the expansion loop and the validation stage observe it through
  // one violated() poll; a token without a caller budget gets a private
  // unlimited tracker. (The caller's tracker may carry further tokens —
  // session- and statement-scoped — attached upstream.)
  BudgetTracker local_budget;
  BudgetTracker* budget = options.budget;
  if (options.cancel != nullptr) {
    if (budget == nullptr) budget = &local_budget;
    budget->AddCancelSource(options.cancel);
  }

  // 1. Instantiate cursors over the pinned tries: relations first, then
  // twig paths, mirroring the plan's input order.
  std::vector<JoinInput> inputs;
  std::vector<std::unique_ptr<TrieIterator>> iterators;
  inputs.reserve(plan.rel_inputs.size() + plan.path_inputs.size());
  iterators.reserve(plan.rel_inputs.size() + plan.path_inputs.size());
  for (const auto& rel : plan.rel_inputs) {
    iterators.push_back(rel.trie->NewIterator());
    inputs.push_back(JoinInput{rel.name, rel.attrs, iterators.back().get()});
  }
  for (const auto& path : plan.path_inputs) {
    if (path.trie != nullptr) {
      iterators.push_back(path.trie->NewIterator());
    } else {
      iterators.push_back(plan.twigs[path.twig_index]
                              .paths[path.path_index]
                              .NewLazyIterator());
    }
    inputs.push_back(JoinInput{path.name, path.attrs, iterators.back().get()});
  }

  // 2. Optional partial structural validation during expansion
  // (PrefixValidator). The validators are immutable and shared across
  // shards; each invocation records into the engine's shard-local
  // metrics bag, merged at the join barrier — counters stay exact in
  // parallel runs.
  GenericJoinOptions gj_options;
  gj_options.attribute_order = plan.order;
  gj_options.metrics = options.metrics;
  gj_options.num_threads = num_threads;
  gj_options.num_shards = plan.shard_plan.count;
  gj_options.shard_depth = plan.shard_plan.depth;
  gj_options.budget = budget;
  gj_options.executor = options.executor;
  if (plan.structural_pruning) {
    gj_options.prefix_filter = PrefixValidator(plan);
  }

  // 3. Expansion (Algorithm 1's loop). The budget tracker (if any) is
  // shared with the engine, which charges every expanded row against it
  // and returns the typed violation Status here — expansion output
  // counts toward max_rows/max_bytes even though validation may later
  // discard most of it (the budget meters work, not final result size).
  XJ_ASSIGN_OR_RETURN(Relation expanded, GenericJoin(inputs, gj_options));
  MetricsAdd(options.metrics, "xjoin.expanded",
             static_cast<int64_t>(expanded.num_rows()));

  // 4. Final structural validation. Row checks are independent, so they
  // run chunked across the thread pool with one scratch Metrics and one
  // validation scratch per worker (metrics merged after the barrier —
  // sub-counters stay exact); the keep-mask is filled at disjoint
  // indices and the surviving rows are compacted in place, in row
  // order, keeping the output deterministic.
  if (!plan.twigs.empty()) {
    const size_t num_rows = expanded.num_rows();
    constexpr size_t kGrain = 64;
    const size_t workers = static_cast<size_t>(
        ParallelWorkerCount(num_threads, num_rows, kGrain));
    std::vector<uint8_t> keep(num_rows, 0);
    std::vector<Metrics> worker_metrics(
        options.metrics != nullptr ? workers : 0);
    std::vector<std::vector<TwigStructureValidator::Scratch>> worker_scratch;
    worker_scratch.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      worker_scratch.push_back(NewScratch(plan));
    }
    Executor* executor =
        options.executor != nullptr ? options.executor : Executor::Default();
    executor->ParallelForWorker(
        num_threads, num_rows, kGrain, [&](int worker, size_t r) {
          // Cancelled (or budget-tripped) mid-validation: skip the
          // remaining rows (the whole result is discarded below, so a
          // zero keep-bit is fine).
          if (budget != nullptr && budget->violated()) return;
          const size_t w = static_cast<size_t>(worker);
          Metrics* metrics =
              worker_metrics.empty() ? nullptr : &worker_metrics[w];
          bool ok = true;
          for (size_t t = 0; t < plan.twigs.size() && ok; ++t) {
            const XJoinPlan::TwigExec& exec = plan.twigs[t];
            TwigStructureValidator::Scratch& scratch = worker_scratch[w][t];
            for (size_t q = 0; q < exec.order_pos_of_node.size(); ++q) {
              scratch.Bind(static_cast<TwigNodeId>(q),
                           expanded.at(r, exec.order_pos_of_node[q]));
            }
            ok = exec.validator.ExistsEmbedding(&scratch, metrics);
          }
          keep[r] = ok ? 1 : 0;
        });
    for (const Metrics& m : worker_metrics) options.metrics->MergeFrom(m);
    expanded.KeepRows(keep);
  }
  // Deadline/cancel check after the validation stage (its cost scales
  // with the expansion size, which the deadline is meant to bound).
  // Surviving rows were already charged as expansion output — no double
  // count.
  if (budget != nullptr) {
    budget->CheckDeadline();
    if (budget->violated()) return budget->status();
  }
  MetricsAdd(options.metrics, "xjoin.validated",
             static_cast<int64_t>(expanded.num_rows()));
  if (options.metrics != nullptr) {
    options.metrics->RecordMax("xjoin.max_intermediate",
                               options.metrics->Get("gj.max_intermediate"));
  }

  // 5. Projection. The join emitted distinct rows ascending in plan
  // order, so an identity projection only moves the columns, and any
  // projection sorts only when its column order breaks that ascent.
  if (plan.query.output_attributes.empty()) return expanded;
  return Project(std::move(expanded), plan.query.output_attributes);
}

Result<Relation> ExecuteXJoin(const MultiModelQuery& query,
                              const XJoinOptions& options) {
  XJ_ASSIGN_OR_RETURN(std::shared_ptr<XJoinPlan> plan,
                      PrepareXJoin(query, options));
  return ExecutePlan(*plan, options);
}

}  // namespace xjoin
