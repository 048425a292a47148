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
      xml::SerializeTo(item.node(), options, &out);
      last_atomic = false;
    } else {
      if (last_atomic) out += " ";
      out += item.StringForm();
      last_atomic = true;
    }
  }
  return out;
}

ExecMetrics::ExecMetrics(MetricsRegistry& registry)
    : executions(registry.counter("xq.executions")),
      execute_us(registry.histogram("xq.execute_us")),
      errors(registry.counter("xq.errors"))
#define LLL_XQ_EXEC_METRICS_RESOLVE(field) \
  , field(registry.counter("xq.eval." #field))
      LLL_XQ_EVAL_STATS(LLL_XQ_EXEC_METRICS_RESOLVE)
#undef LLL_XQ_EXEC_METRICS_RESOLVE
{
}

void ExecMetrics::Record(const EvalStats& stats, uint64_t us, bool ok) const {
  executions.Increment();
  execute_us.Observe(us);
#define LLL_XQ_EXEC_METRICS_RECORD(field) field.Increment(stats.field);
  LLL_XQ_EVAL_STATS(LLL_XQ_EXEC_METRICS_RECORD)
#undef LLL_XQ_EXEC_METRICS_RECORD
  if (!ok) errors.Increment();
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
    const uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    options.metrics->Record(evaluator.stats(), us, value.ok());
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
