#ifndef LLL_XQUERY_UPDATE_EVAL_H_
#define LLL_XQUERY_UPDATE_EVAL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.h"
#include "core/result.h"
#include "xml/node.h"
#include "xquery/engine.h"
#include "xquery/update_ast.h"

namespace lll::xq {

// Compilation and application of update scripts (update_parser.h), with
// FLUX snapshot semantics:
//
//   1. every statement's target path is evaluated against the PRE-update
//      document, before ANY mutation applies -- no statement observes
//      another's effect, and a script is a function of the snapshot;
//   2. conflicting claims are rejected atomically: two statements that
//      delete/replace/rename the SAME node (except delete+delete, which
//      agree), or that anchor an insert before/after a node another
//      statement deletes or replaces, fail the whole script with
//      kInvalidArgument and leave the document untouched;
//   3. statements then apply in script order, each routed through the
//      ordinary mutation primitives (AppendChild / InsertChildAt /
//      RemoveChild via Detach / ReplaceChild / Rename), so every edit
//      stamps the document's name versions exactly like a hand-written
//      EditFn -- which is what lets the node-set cache invalidate only the
//      chains that test a name a statement touched (DESIGN.md sections 14
//      and 15).

// One statement, compiled: the target path as a CompiledQuery, the payload
// (insert/replace, unless text) pre-parsed into its own little document.
struct CompiledUpdateStatement {
  UpdateStatement statement;
  CompiledQuery target;
  std::unique_ptr<xml::Document> payload;  // null for text payloads
};

struct CompiledUpdate {
  std::string source;
  std::vector<CompiledUpdateStatement> statements;
};

Result<CompiledUpdate> CompileUpdate(const UpdateScript& script,
                                     const CompileOptions& options = {});

// Parse + compile in one go.
Result<CompiledUpdate> CompileUpdateText(std::string_view source,
                                         const CompileOptions& options = {});

struct UpdateStats {
  size_t statements = 0;    // statements applied
  size_t target_nodes = 0;  // target nodes selected across all statements
};

struct UpdateOptions {
  // When set, successful applications bump xq.update.statements and
  // xq.update.target_nodes; rejected scripts bump
  // xq.update.conflicts_rejected. Borrowed; typically &GlobalMetrics().
  MetricsRegistry* metrics = nullptr;
  // Target-path evaluation knobs (step budgets, deadlines, the interning
  // cache, ...). The server's publish binds its targets on the base
  // snapshot it clones, with that snapshot's node-set cache
  // (QueryServer::PublishUpdate).
  EvalOptions eval;
};

// An update bound against one document: each statement's targets, nodes of
// that document, valid for their statements and free of conflicts (phases
// 1 and 2 above), and a bound on the nodes applying it creates -- the
// insert and replace targets times their payloads' nodes.
struct BoundUpdate {
  std::vector<std::vector<xml::Node*>> targets;  // one list per statement
  size_t created_nodes = 0;
};

// Phases 1 and 2: binds every statement's targets against `doc`, validates
// them and rejects conflicting claims. Read-only, so it may run against a
// published snapshot while readers query it. `exec` (optional, borrowed)
// records each target path's Execute, as it records a read's.
Result<BoundUpdate> BindUpdate(const CompiledUpdate& update,
                               const xml::Document& doc,
                               const UpdateOptions& options = {},
                               const ExecMetrics* exec = nullptr);

// Phase 3: applies `bound` to `doc`, the document it was bound against
// (`node_map` null) or a CloneDocument copy of it, with `node_map` that
// clone's source -> clone index table: each target is mapped into `doc`.
Result<UpdateStats> ApplyBoundUpdate(const CompiledUpdate& update,
                                     const BoundUpdate& bound,
                                     xml::Document* doc,
                                     const std::vector<uint32_t>* node_map,
                                     const UpdateOptions& options = {});

// Binds and applies `update` on `doc` under the semantics above. An empty
// target set is a legal no-op for any statement. On error -- unevaluable
// target paths, invalid targets, conflicts -- the document is left
// untouched: all validation runs before the first mutation.
Result<UpdateStats> ApplyUpdate(const CompiledUpdate& update,
                                xml::Document* doc,
                                const UpdateOptions& options = {});

// EXPLAIN for update plans: one block per statement showing the operation
// and payload; with a context document, also the resolved targets and the
// names applying the statement will bump (xml::Document's name versions:
// every element and attribute name in a moved subtree, a rename's old and
// new name) and whether it moves the document version -- i.e. which cached
// chains the statement will invalidate: those that test one of the names,
// or any name at all when the document version moves. Read-only.
std::string ExplainUpdate(const CompiledUpdate& update,
                          const xml::Document* doc = nullptr);

// The canonical absolute path of a node, positional-qualified
// ("/library[1]/models[1]/model[3]/@id" style): diagnostics, EXPLAIN, and
// the test utilities' statement generator share it.
std::string NodePathOf(const xml::Node* node);

}  // namespace lll::xq

#endif  // LLL_XQUERY_UPDATE_EVAL_H_
