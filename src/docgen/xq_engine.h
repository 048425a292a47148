#ifndef LLL_DOCGEN_XQ_ENGINE_H_
#define LLL_DOCGEN_XQ_ENGINE_H_

#include <string>

#include "docgen/docgen.h"
#include "xquery/query_cache.h"

namespace lll::docgen {

// The XQuery engine -- the paper's original implementation: a generic
// template interpreter written in XQuery (see xq_programs.cc), run in five
// phases, each of which copies the entire document ("fairly inefficient,
// requiring multiple copies of the entire output"). Errors are values:
// directive failures become <error> elements in the output, because that is
// the only discipline the language supports.
//
// stats.document_copies counts the phase copies (E4); stats.eval_steps sums
// the evaluator work across phases (E5's interpretation overhead).
//
// Semantics notes (vs. the native engine):
//   * Error message wording differs slightly; differential tests compare
//     error-free templates.
//   * Placeholder content that itself contains a *-GOES-HERE token is
//     spliced verbatim here (the native engine expands it recursively).
Result<DocGenResult> GenerateXQuery(const xml::Node* template_root,
                                    const awb::Model& model,
                                    const GenerateOptions& options = {});

Result<DocGenResult> GenerateXQueryFromText(const std::string& template_xml,
                                            const awb::Model& model,
                                            const GenerateOptions& options = {});

// EXPLAINs all five phase programs: compiles each through the shared phase
// cache and renders its optimized plan with every rewrite decision annotated
// (dead-let eliminations, swallowed trace() calls, order-analysis verdicts)
// and compile-cache provenance. Phase 2 is the interesting one: it contains a
// deliberately dead `let $dbg := trace(...)` that the default optimizer
// deletes -- the paper's vanished-printf pathology, made visible.
Result<std::string> ExplainXQueryPhases();

// The process-wide compiled-phase cache behind GenerateXQuery and
// ExplainXQueryPhases. Exposed so tooling can inspect or clear it (tests,
// benchmarks).
xq::QueryCache& XQueryPhaseCache();

}  // namespace lll::docgen

#endif  // LLL_DOCGEN_XQ_ENGINE_H_
