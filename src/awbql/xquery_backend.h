#ifndef LLL_AWBQL_XQUERY_BACKEND_H_
#define LLL_AWBQL_XQUERY_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "awb/model.h"
#include "awbql/query.h"
#include "core/result.h"
#include "xml/node.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"
#include "xquery/query_cache.h"

namespace lll::awbql {

// The original implementation strategy: the AWB query calculus interpreted
// via XQuery ("This was essentially writing an interpreter in XQuery, which
// is not a hard exercise"). A Query is compiled to an XQuery program over
// the model's exported XML plus the metamodel's XML (reached as
// doc("model") and doc("metamodel")), run on our engine, and the resulting
// node ids mapped back to ModelNodes.
//
// This backend is deliberately faithful to the paper's architecture: the
// program joins by value, so every `follow` filters the whole <relation>
// table and every subtype test looks its type up in the metamodel
// document. The engine answers those `@a = K` predicates with hash probes
// (DESIGN.md section 16) -- one index per candidate list per query -- and
// interns the metamodel walks, but the program still pays interpretation
// per query. Benchmark E5 quantifies "preposterously inefficient" against
// EvalNative.
class XQueryBackend {
 public:
  // Snapshots the model into XML once (AWB exported, then queried).
  // `compile_cache_capacity` sizes the compiled-query cache: repeated Evals
  // of the same calculus query reuse the compiled XQuery program instead of
  // re-parsing and re-optimizing it every time. 0 disables caching (the
  // original always-recompile behavior, kept for differential testing).
  explicit XQueryBackend(const awb::Model* model,
                         size_t compile_cache_capacity = 64);

  XQueryBackend(const XQueryBackend&) = delete;
  XQueryBackend& operator=(const XQueryBackend&) = delete;

  // Compiles and runs `query`; returns nodes in the same canonical order as
  // EvalNative. `focus` is required only for `from focus` queries.
  // NOT thread-safe (last_stats_ and the model snapshot are per-backend);
  // use one XQueryBackend per thread, or share a CompiledQuery via
  // xq::QueryCache and Execute it directly.
  Result<std::vector<const awb::ModelNode*>> Eval(
      const Query& query, const awb::ModelNode* focus = nullptr);

  // The generated XQuery program (exposed for tests and the curious).
  std::string CompileToXQuery(const Query& query) const;

  // EXPLAIN for a calculus query: compiles it (through the cache) and
  // renders the optimized XQuery plan with rewrite annotations and cache
  // provenance (obs::Explain).
  Result<std::string> Explain(const Query& query);

  // Stats from the most recent Eval (evaluation steps, function calls).
  const xq::EvalStats& last_stats() const { return last_stats_; }

  // Compile-cache counters (hits mean an Eval skipped recompilation).
  CacheStats cache_stats() const { return compile_cache_.stats(); }

  // When set, every Eval records counters/timings under "awbql.xquery." and
  // the compile cache exports its hit/miss gauges. Borrowed.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  const awb::Model* model_;
  std::unique_ptr<xml::Document> model_doc_;
  std::unique_ptr<xml::Document> metamodel_doc_;
  xq::QueryCache compile_cache_;
  // Interned node sets over the (immutable) model/metamodel snapshots.
  // Declared after the documents so it is destroyed before them -- cached
  // sequences hold raw node pointers into those snapshots.
  xq::NodeSetCache nodeset_cache_{/*capacity=*/128};
  xq::EvalStats last_stats_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace lll::awbql

#endif  // LLL_AWBQL_XQUERY_BACKEND_H_
