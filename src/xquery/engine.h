#ifndef LLL_XQUERY_ENGINE_H_
#define LLL_XQUERY_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/metrics.h"
#include "core/result.h"
#include "obs/profiler.h"
#include "xml/serializer.h"
#include "xquery/ast.h"
#include "xquery/eval.h"
#include "xquery/optimizer.h"

namespace lll::xq {

// The public face of the XQuery engine: Compile once, Execute many times.
//
//   auto query = xq::Compile("for $u in //user return $u/@name");
//   xq::ExecuteOptions opts;
//   opts.context_node = doc->root();
//   auto result = xq::Execute(*query, opts);
//   result->SerializedItems();   // -> the answer as XML text
//
// Concurrency contract (audited; exercised by tests/concurrency_test.cc
// under ThreadSanitizer):
//
//   * A CompiledQuery is immutable after Compile. Execute() only READS the
//     module -- the evaluator never mutates the AST, and all construction
//     happens in a per-execution arena owned by the DynamicContext it
//     creates (on the first constructor). Many threads may Execute() the
//     SAME CompiledQuery at once.
//   * ExecuteOptions documents and the context node are read-only during
//     execution; node items in results reference either the per-execution
//     arena (moved into the QueryResult) or the caller's input documents.
//     Sharing input documents across concurrent executions is safe as long
//     as no thread mutates them.
//   * Each Execute() gets its own DynamicContext, EvalStats, and trace
//     buffer; nothing is shared between executions. The builtin-function
//     registry is a function-local static, initialized once (thread-safe
//     under C++11 magic statics) and immutable afterwards.
//   * Compile() itself is stateless and may run from any thread. Use
//     xq::QueryCache (query_cache.h) to share compilations across threads.

struct CompileOptions {
  bool optimize = true;
  OptimizerOptions optimizer;
};

// How a CompiledQuery came to exist in this process. kDiskCache marks a plan
// compiled during a warm boot from the working set a plan-cache artifact
// recorded (src/persist): it is a fresh Compile like any other, and EXPLAIN
// reports it as `disk-cache` so a fleet operator can tell warm boots from
// plans compiled on demand.
enum class PlanOrigin { kCompiled, kDiskCache };

class CompiledQuery {
 public:
  CompiledQuery(Module module, OptimizerStats stats)
      : module_(std::move(module)), optimizer_stats_(stats) {}

  CompiledQuery(CompiledQuery&&) = default;
  CompiledQuery& operator=(CompiledQuery&&) = default;

  const Module& module() const { return module_; }
  const OptimizerStats& optimizer_stats() const { return optimizer_stats_; }
  PlanOrigin origin() const { return origin_; }
  void set_origin(PlanOrigin origin) { origin_ = origin; }

 private:
  Module module_;
  OptimizerStats optimizer_stats_;
  PlanOrigin origin_ = PlanOrigin::kCompiled;
};

// Handles to the instruments Execute() reports into: xq.executions,
// xq.execute_us, xq.errors and one xq.eval.<field> counter per EvalStats
// field. The owner of the registry (a server, an awbql backend, a docgen
// run, the REPL) resolves them once, registering every instrument up front,
// so an execution pays one relaxed add per instrument and no name lookup.
struct ExecMetrics {
  explicit ExecMetrics(MetricsRegistry& registry);

  // Records one execution: its wall time, whether it failed, and its stats.
  void Record(const EvalStats& stats, uint64_t execute_us, bool ok) const;

  Counter& executions;
  Histogram& execute_us;
  Counter& errors;
#define LLL_XQ_EXEC_METRICS_HANDLE(field) Counter& field;
  LLL_XQ_EVAL_STATS(LLL_XQ_EXEC_METRICS_HANDLE)
#undef LLL_XQ_EXEC_METRICS_HANDLE
};

struct ExecuteOptions {
  // The initial context item (usually a document node or element).
  xml::Node* context_node = nullptr;
  // External variable bindings, visible as $name.
  std::map<std::string, xdm::Sequence> variables;
  // Documents reachable via fn:doc("name").
  std::map<std::string, xml::Node*> documents;
  EvalOptions eval;
  // When set, Execute() records execution counters and its wall time
  // through these handles. Borrowed.
  const ExecMetrics* metrics = nullptr;
};

struct QueryResult {
  xdm::Sequence sequence;
  // Owns every node constructed during evaluation; node items in `sequence`
  // may point into it (or into the caller's input documents). Null when the
  // query constructed nothing.
  std::unique_ptr<xml::Document> arena;
  std::vector<std::string> trace_output;
  EvalStats stats;
  // Hot-spot report, present iff ExecuteOptions::eval.profile was set.
  std::unique_ptr<obs::ProfileReport> profile;

  // XQuery-style serialization of the result sequence: nodes as XML,
  // atomics as their string forms, adjacent atomics separated by a space.
  std::string SerializedItems(const xml::SerializeOptions& options = {}) const;
};

Result<CompiledQuery> Compile(std::string_view source,
                              const CompileOptions& options = {});

Result<QueryResult> Execute(const CompiledQuery& query,
                            const ExecuteOptions& options = {});

// One-shot convenience: compile + execute.
Result<QueryResult> Run(std::string_view source,
                        const ExecuteOptions& exec_options = {},
                        const CompileOptions& compile_options = {});

}  // namespace lll::xq

#endif  // LLL_XQUERY_ENGINE_H_
