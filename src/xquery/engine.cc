#include "xquery/engine.h"

#include <chrono>

#include "xquery/parser.h"

namespace lll::xq {

std::string QueryResult::SerializedItems(
    const xml::SerializeOptions& options) const {
  std::string out;
  bool last_atomic = false;
  for (const xdm::Item& item : sequence.items()) {
    if (item.is_node()) {
      out += xml::Serialize(item.node(), options);
      last_atomic = false;
    } else {
      if (last_atomic) out += " ";
      out += item.StringForm();
      last_atomic = true;
    }
  }
  return out;
}

Result<CompiledQuery> Compile(std::string_view source,
                              const CompileOptions& options) {
  LLL_ASSIGN_OR_RETURN(Module module, ParseModule(source));
  BindNames(&module);
  OptimizerStats stats;
  if (options.optimize) {
    stats = Optimize(&module, options.optimizer);
  }
  ResolveSteps(&module);
  return CompiledQuery(std::move(module), stats);
}

Result<QueryResult> Execute(const CompiledQuery& query,
                            const ExecuteOptions& options) {
  DynamicContext context;
  for (const auto& [name, doc] : options.documents) {
    context.RegisterDocument(name, doc);
  }
  for (const auto& [name, value] : options.variables) {
    context.BindExternal(name, value);
  }
  if (options.context_node != nullptr) {
    context.SetContextItem(xdm::Item::NodeRef(options.context_node));
  }
  Evaluator evaluator(query.module(), &context, options.eval);
  // Profiling and metrics both need a clock; the plain path takes neither.
  const bool timed = options.eval.profile || options.metrics != nullptr;
  obs::Profiler profiler;
  if (options.eval.profile) evaluator.set_profiler(&profiler);
  std::chrono::steady_clock::time_point start;
  if (timed) start = std::chrono::steady_clock::now();
  Result<xdm::Sequence> value = evaluator.Run();
  if (options.metrics != nullptr) {
    uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    const EvalStats& stats = evaluator.stats();
    options.metrics->counter("xq.executions").Increment();
    options.metrics->histogram("xq.execute_us").Observe(us);
    options.metrics->counter("xq.eval.steps").Increment(stats.steps);
    options.metrics->counter("xq.eval.constructed_nodes")
        .Increment(stats.constructed_nodes);
    options.metrics->counter("xq.eval.trace_calls")
        .Increment(stats.trace_calls);
    options.metrics->counter("xq.eval.function_calls")
        .Increment(stats.function_calls);
    options.metrics->counter("xq.eval.sorts_performed")
        .Increment(stats.sorts_performed);
    options.metrics->counter("xq.eval.sorts_skipped")
        .Increment(stats.sorts_skipped);
    options.metrics->counter("xq.eval.order_compares")
        .Increment(stats.order_compares);
    options.metrics->counter("xq.eval.nodes_pulled")
        .Increment(stats.nodes_pulled);
    options.metrics->counter("xq.eval.nodes_skipped_early_exit")
        .Increment(stats.nodes_skipped_early_exit);
    options.metrics->counter("xq.eval.reverse_runs_merged")
        .Increment(stats.reverse_runs_merged);
    options.metrics->counter("xq.eval.limit_pushdowns")
        .Increment(stats.limit_pushdowns);
    options.metrics->counter("xq.eval.nodeset_cache_hits")
        .Increment(stats.nodeset_cache_hits);
    options.metrics->counter("xq.eval.nodeset_cache_misses")
        .Increment(stats.nodeset_cache_misses);
    options.metrics->counter("xq.eval.nodeset_cache_invalidations")
        .Increment(stats.nodeset_cache_invalidations);
    options.metrics->counter("xq.eval.nodeset_cache_partial_invalidations")
        .Increment(stats.nodeset_cache_partial_invalidations);
    options.metrics->counter("xq.eval.probe_filters")
        .Increment(stats.probe_filters);
    options.metrics->counter("xq.eval.probe_index_builds")
        .Increment(stats.probe_index_builds);
    // Workload-facing alias: the incremental-regeneration dashboards watch
    // the partial/full invalidation split under the xq.nodeset prefix.
    options.metrics->counter("xq.nodeset.partial_invalidations")
        .Increment(stats.nodeset_cache_partial_invalidations);
    if (!value.ok()) options.metrics->counter("xq.errors").Increment();
  }
  if (!value.ok()) {
    return value.status();
  }
  QueryResult result;
  result.sequence = std::move(*value);
  result.trace_output = std::move(context.trace_output());
  result.stats = evaluator.stats();
  result.arena = context.ReleaseArena();
  if (options.eval.profile) {
    result.profile =
        std::make_unique<obs::ProfileReport>(profiler.TakeReport());
  }
  return result;
}

Result<QueryResult> Run(std::string_view source,
                        const ExecuteOptions& exec_options,
                        const CompileOptions& compile_options) {
  LLL_ASSIGN_OR_RETURN(CompiledQuery query, Compile(source, compile_options));
  return Execute(query, exec_options);
}

}  // namespace lll::xq
