#ifndef LLL_OBS_EXPLAIN_H_
#define LLL_OBS_EXPLAIN_H_

#include <string>

#include "xquery/engine.h"

namespace lll::obs {

// EXPLAIN: pretty-print a compiled query's optimized plan with every rewrite
// decision annotated. The paper's users had no way to learn that the
// optimizer had deleted their trace() calls or which steps run streamed;
// this renders exactly that information:
//
//   == plan ==            indented optimized AST; path steps carry their
//                         resolved facts ([streamed], [streamed-rev],
//                         [interned]), paths their [limit N], predicates
//                         their [probe @a]
//   == rewrites ==        one line per optimizer decision (dead lets,
//                         swallowed traces, fused descendant steps,
//                         probes), each with its source line:col
//   == summary ==         aggregate optimizer stats
struct ExplainOptions {
  // Where the compiled query came from, shown in the header when nonempty.
  // Callers on a QueryCache use the canonical tri-state spellings from
  // xq::CacheProvenanceName: "compiled" (fresh), "memory-cache" (hit on a
  // plan compiled earlier in-process), "disk-cache" (hit on a plan compiled
  // during a warm boot from the keys a *.lllp artifact recorded).
  std::string provenance;
  // Cap on rendered plan depth; deeper subtrees elide to "...".
  size_t max_depth = 32;
  // When set, [interned] annotations render as [interned@vN] with N = the
  // document's current edit epoch (xml::Document::edit_epoch), tying the
  // plan's interning provenance to the name versions a cached entry would
  // be validated against. Borrowed; callers with a context document in hand
  // (the server's per-snapshot EXPLAIN, the REPL) pass it here.
  const xml::Document* context_document = nullptr;
};

std::string Explain(const xq::CompiledQuery& query,
                    const ExplainOptions& options = {});

// Renders just the plan tree of one expression (test hook / REPL :ast).
std::string ExplainExpr(const xq::Expr& expr, size_t max_depth = 32);

}  // namespace lll::obs

#endif  // LLL_OBS_EXPLAIN_H_
