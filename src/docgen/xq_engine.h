#ifndef LLL_DOCGEN_XQ_ENGINE_H_
#define LLL_DOCGEN_XQ_ENGINE_H_

#include <memory>
#include <string>

#include "docgen/docgen.h"
#include "xquery/nodeset_cache.h"
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

// Cross-generation XQuery docgen session: the interactive edit-regenerate
// loop's fast path.
//
// The free GenerateXQuery above rebuilds the model/metamodel XML documents
// and starts an empty node-set interning cache on every call, so an
// interactive session that regenerates after each small model edit pays the
// full first-generation cost every time. A session instead pins both
// documents once and keeps one NodeSetCache alive across generations:
// interned step chains over the model/metamodel survive from one generation
// to the next, validated per-lookup against the documents' subtree versions
// (see xq::CachedNodeSet). After an edit to the pinned model document, only
// entries whose guarded subtrees actually changed re-evaluate -- everything
// else is a warm hit.
//
// Entries against per-generation scratch documents (the normalized template,
// intermediate phase outputs) are purged after each generation via
// NodeSetCache::RetainDocuments, so the cache never holds node pointers that
// outlive their document.
//
// The session borrows `model`; it must outlive the session. Mutations to the
// pinned model document between generations go through model_document() --
// the xml::Document mutators bump subtree versions themselves. Not
// thread-safe; one session per generating thread.
class XQuerySession {
 public:
  // Builds the pinned model/metamodel documents. Fails only if the exported
  // metamodel XML fails to re-parse (kInvalidArgument).
  static Result<std::unique_ptr<XQuerySession>> Create(const awb::Model& model);

  // Runs the five-phase pipeline against the pinned documents, reusing the
  // session cache. Same contract as GenerateXQuery otherwise.
  Result<DocGenResult> Generate(const xml::Node* template_root,
                                const GenerateOptions& options = {});

  // The pinned model document (mutable: edit between generations to model
  // the interactive loop; subtree versioning scopes the resulting cache
  // invalidation to the edited subtrees).
  xml::Document* model_document() { return model_doc_.get(); }
  const xml::Document* metamodel_document() const {
    return metamodel_doc_.get();
  }
  // The session-lifetime interning cache (hit/miss/invalidation counters).
  const xq::NodeSetCache& nodeset_cache() const { return nodeset_cache_; }
  // Completed Generate calls.
  size_t generations() const { return generations_; }

 private:
  XQuerySession(const awb::Model& model,
                std::unique_ptr<xml::Document> model_doc,
                std::unique_ptr<xml::Document> metamodel_doc)
      : model_(&model),
        model_doc_(std::move(model_doc)),
        metamodel_doc_(std::move(metamodel_doc)),
        nodeset_cache_(/*capacity=*/256) {}

  const awb::Model* model_;
  std::unique_ptr<xml::Document> model_doc_;
  std::unique_ptr<xml::Document> metamodel_doc_;
  xq::NodeSetCache nodeset_cache_;
  size_t generations_ = 0;
};

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
