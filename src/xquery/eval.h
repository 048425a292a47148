#ifndef LLL_XQUERY_EVAL_H_
#define LLL_XQUERY_EVAL_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "xdm/sequence.h"
#include "xml/node.h"
#include "xquery/ast.h"
#include "xquery/nodeset_cache.h"

namespace lll::obs {
class Profiler;
class TraceSink;
}  // namespace lll::obs

namespace lll::xq {

class Evaluator;

// Options for one evaluation. The two "galax_" switches reproduce the
// behaviors of the Galax prototype the paper debugged against (see DESIGN.md
// E1/E2 and the Debugging section).
struct EvalOptions {
  // Keep BOTH attributes when two attribute nodes with the same name are
  // constructed ("though Galax did not honor this as of the time of
  // writing"). Default false: first one wins, deterministically.
  bool galax_duplicate_attributes = false;
  // Report a missing context item with Galax's infamous message
  // "Internal_Error: Variable '$glx:dot' not found." instead of a located
  // diagnostic.
  bool galax_style_messages = false;
  // Evaluation step budget (0 = unlimited); guards runaway recursion in
  // property tests and backs the server's per-tenant eval quotas. Exceeding
  // it is a kResourceExhausted error -- graceful and uncatchable by try/catch
  // (a handler must not mask a runaway query).
  size_t max_steps = 0;
  // Wall-clock evaluation deadline; default (epoch) = none. Polled every 128
  // steps so the clock read stays off the per-expression hot path. Exceeding
  // it is a kResourceExhausted error, like the step budget.
  std::chrono::steady_clock::time_point deadline{};
  // Cooperative cancellation: when set, the evaluator polls this flag at its
  // step-budget check and aborts with kResourceExhausted once it reads true.
  // Borrowed; lets a server abandon in-flight queries at shutdown without
  // tearing down threads mid-evaluation.
  const std::atomic<bool>* cancel = nullptr;
  // Streaming path pipelines: when on (default), eligible axis-step chains
  // (PathStep::streamable steps over single-document input) are evaluated
  // through a pull-based
  // merge of per-context runs instead of materializing every intermediate
  // sequence, and early-exit consumers (literal positional predicates like
  // [1] inside a step, and every path the plan gives an Expr::limit_hint)
  // stop pulling once the answer is determined. Reverse axes run as barrier
  // stages: per-context runs enumerate in reverse document order and are
  // merged back to document order (DESIGN.md section 10). Off = the
  // pre-streaming materializing evaluator, kept byte-identical as a
  // differential baseline and benchmark arm (bench_e13/e14). The same
  // switch gates hash probes: predicates the
  // optimizer marked `@a = K` (Expr::probe_key) are answered from an
  // index of @a values when on, and never when off, so the
  // materializing evaluator stays the scan oracle (DESIGN.md section 16).
  // It gates the call memo alike: a call to a FunctionDecl::memoizable
  // function is answered from this execution's table of earlier calls with
  // the same arguments when on, and always runs its body when off
  // (DESIGN.md section 19).
  bool streaming = true;
  // Node-set interning: memoizes the leading step chain of tree-rooted
  // paths the plan marked (Expr::intern: the leading predicate-free steps)
  // as (document identity, InternFacts::key) -> node set, and a
  // probe-extended chain (InternFacts::probe_chain_key) with an index of
  // its probed attribute's values, which the probe's key looks up whatever
  // its value. Each entry is guarded by the names its chain tests
  // (InternFacts::names, probe_chain_names): an edit evicts only the
  // entries whose names it touched. Borrowed; must outlive the evaluation
  // AND be scoped to the documents' owner (cached node sets hold raw Node
  // pointers).
  // nullptr = no interning.
  NodeSetCache* nodeset_cache = nullptr;
  // Per-expression profiling (obs/profiler.h): attribute wall time, eval
  // counts, and result sizes to AST nodes. Off = one null-pointer test per
  // expression, nothing more.
  bool profile = false;
  // Structured trace events (fn:trace, fn:error, located dynamic errors) are
  // mirrored to this sink when set, in addition to the per-query
  // trace_output buffer. Borrowed; must outlive the evaluation.
  obs::TraceSink* trace_sink = nullptr;
};

// Statistics collected during one evaluation, one X(field) per counter.
// EvalStats and the xq.eval.<field> metric handles (ExecMetrics, engine.h)
// are both generated from this list, so a counter cannot exist in one and
// not the other.
//
//   steps              expression evaluations
//   constructed_nodes  nodes created by constructors (elements, text,
//                      comments, documents, attributes, and the text and
//                      attribute nodes their content makes)
//   nodes_copied       nodes ImportNode creates in the construction arena:
//                      copies of content nodes a constructor could not
//                      adopt (DESIGN.md section 20), and fn:parse-xml-
//                      fragment's parsed nodes
//   trace_calls        fn:trace invocations actually executed
//   function_calls     user-defined function bodies run
//   function_memo_hits user-defined function calls answered from the call
//                      memo instead (DESIGN.md section 19)
//
// Document-order bookkeeping: path steps and set operators must yield
// ordered, deduplicated node sequences. `sorts_performed` counts actual sort
// passes; `sorts_skipped` counts normalizations found unnecessary (the
// sequence's ordered_deduped bit, set e.g. by a forward step from a single
// context, or at most one item); `order_compares` counts document-order
// comparator calls inside performed sorts.
//
// Streaming pipeline bookkeeping: `nodes_pulled` counts axis candidates
// actually examined by streamed steps; `nodes_skipped_early_exit` is a lower
// bound on candidates an early-exiting consumer (positional predicate,
// fn:exists, boolean context) never had to visit. Nested early-exit probes
// (an exists() inside a predicate of an outer streamed step) do not
// contribute to the skip floor: the outer pipeline already accounts for the
// candidate subtrees it abandons. `reverse_runs_merged` counts nonempty
// per-context reverse-axis runs pushed onto the document-order merge heap.
// `limit_pushdowns` counts streamed pipelines run under a path's
// Expr::limit_hint; a hinted path whose input is empty or whose steps cannot
// stream is evaluated in full and not counted.
//
// Node-set interning cache traffic attributable to this evaluation. An
// invalidation is a lookup that found an entry with a failed guard (stale
// edit history, not a cold key); the partial counter is the subset whose
// entry had no document-wide guard -- its chain tests names only, so
// edits that touched none of them left it standing.
//
// Hash probes (DESIGN.md section 16): `probe_filters` counts marked
// `@a = K` predicates answered from an attribute index instead of a
// per-candidate loop; `probe_index_builds` counts the indexes built: the
// per-query memo's, and those built with a probe-extended interned entry
// (the rest of the probes hit the memo or a stored entry's index).
#define LLL_XQ_EVAL_STATS(X)              \
  X(steps)                                \
  X(constructed_nodes)                    \
  X(nodes_copied)                         \
  X(trace_calls)                          \
  X(function_calls)                       \
  X(function_memo_hits)                   \
  X(sorts_performed)                      \
  X(sorts_skipped)                        \
  X(order_compares)                       \
  X(nodes_pulled)                         \
  X(nodes_skipped_early_exit)             \
  X(reverse_runs_merged)                  \
  X(limit_pushdowns)                      \
  X(nodeset_cache_hits)                   \
  X(nodeset_cache_misses)                 \
  X(nodeset_cache_invalidations)          \
  X(nodeset_cache_partial_invalidations)  \
  X(probe_filters)                        \
  X(probe_index_builds)

struct EvalStats {
#define LLL_XQ_EVAL_STATS_FIELD(field) size_t field = 0;
  LLL_XQ_EVAL_STATS(LLL_XQ_EVAL_STATS_FIELD)
#undef LLL_XQ_EVAL_STATS_FIELD
};

// A builtin function: receives evaluated arguments.
using BuiltinFn = std::function<Result<xdm::Sequence>(
    Evaluator&, std::vector<xdm::Sequence>&)>;

// The dynamic context of an evaluation: external variable bindings, the
// focus (context item / position / size), available documents, the
// construction arena, and the trace sink.
class DynamicContext {
 public:
  // The arena owning every node constructed during evaluation, created by
  // the first constructor; nullptr until then. Results that reference
  // constructed nodes stay valid as long as this context (or the
  // QueryResult that adopts the arena) lives.
  xml::Document* construction_arena() { return arena_.get(); }
  std::unique_ptr<xml::Document> ReleaseArena() { return std::move(arena_); }

  // Named documents for fn:doc("name").
  void RegisterDocument(const std::string& name, xml::Node* document_node) {
    documents_[name] = document_node;
  }
  xml::Node* LookupDocument(const std::string& name) const {
    auto it = documents_.find(name);
    return it == documents_.end() ? nullptr : it->second;
  }

  // External variable bindings (visible as $name).
  void BindExternal(const std::string& name, xdm::Sequence value) {
    externals_[name] = std::move(value);
  }

  // The initial context item (the document the query runs against).
  void SetContextItem(xdm::Item item) {
    context_item_ = std::move(item);
    has_context_item_ = true;
  }

  std::vector<std::string>& trace_output() { return trace_output_; }

 private:
  friend class Evaluator;
  std::unique_ptr<xml::Document> arena_;
  std::map<std::string, xml::Node*> documents_;
  std::map<std::string, xdm::Sequence> externals_;
  xdm::Item context_item_ = xdm::Item::Boolean(false);
  bool has_context_item_ = false;
  std::vector<std::string> trace_output_;
};

// Tree-walking evaluator for a parsed Module. Not reentrant; create one per
// evaluation.
class Evaluator {
 public:
  Evaluator(const Module& module, DynamicContext* context,
            const EvalOptions& options);
  ~Evaluator();

  // Evaluates global variable declarations then the module body.
  Result<xdm::Sequence> Run();

  // Evaluates a single expression against the current context (used by Run
  // and by builtins like fn:trace that re-enter). When a profiler is
  // attached this wraps the dispatch in a timing frame.
  Result<xdm::Sequence> Eval(const Expr& e);

  const EvalStats& stats() const { return stats_; }
  DynamicContext* context() { return ctx_; }
  const EvalOptions& options() const { return options_; }

  // Attaches a per-expression profiler for the lifetime of the evaluation
  // (owned by the caller; see EvalOptions::profile and engine.cc).
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  // Records one trace line (fn:trace / fn:error diagnostics), mirroring a
  // structured event to EvalOptions::trace_sink when one is attached.
  void Trace(std::string line);

  // The call expression of the builtin currently being invoked (set around
  // builtin dispatch); lets variadic builtins like fn:trace report their own
  // source position. Null outside builtin calls.
  const Expr* builtin_call_site() const { return builtin_call_site_; }

  // Focus accessors for builtins (fn:position, fn:last, fn:name#0, ...).
  bool has_focus() const { return focus_.valid; }
  const xdm::Item& focus_item() const { return focus_.item; }
  size_t focus_position() const { return focus_.position; }
  size_t focus_size() const { return focus_.size; }

  // Node copying into the construction arena, shared with builtins.
  xml::Node* CopyNodeIntoArena(const xml::Node* n) { return CopyIntoArena(n); }

 private:
  struct Focus {
    xdm::Item item = xdm::Item::Boolean(false);
    size_t position = 0;  // 1-based
    size_t size = 0;
    bool valid = false;
  };

  // Streaming pipeline internals (defined in eval.cc).
  class StreamRun;
  class StreamAxisStage;
  // One memoized attribute index for hash probes (defined in eval.cc).
  struct ProbeIndex;

  // "No result cap" for EvalPath.
  static constexpr size_t kNoLimit = static_cast<size_t>(-1);

  // The actual dispatch switch behind Eval(). The one reader of
  // Expr::limit_hint, and only under EvalOptions::streaming.
  Result<xdm::Sequence> EvalInner(const Expr& e);

  // Path evaluation with an optional result cap. `limit` is an optimization
  // hint, not a contract: when the step chain streams, at most `limit` nodes
  // are produced (and they are exactly the first `limit` of the full
  // result); when it falls back to materializing, the full result comes
  // back. Callers may rely on the first min(limit, full size) items only.
  Result<xdm::Sequence> EvalPath(const Expr& e, size_t limit);
  // Evaluates steps [first, last) of a path against `current`, streaming
  // when eligible, otherwise via the materializing step loop. A streamed
  // run under a `limit` counts in EvalStats::limit_pushdowns.
  Result<xdm::Sequence> EvalStepsRange(const Expr& e, size_t first,
                                       size_t last, xdm::Sequence current,
                                       size_t limit);
  // The materializing step loop (the pre-streaming evaluator, also the
  // streaming=false baseline).
  Result<xdm::Sequence> EvalStepsMaterialized(const Expr& e, size_t first,
                                              size_t last,
                                              xdm::Sequence current);
  // One child or attribute step without predicates from one context node,
  // under streaming: the axis list walked directly, without the pipeline's
  // stages, run deque and merge heap. It stops at the limit-th match,
  // where the pipeline pulled one candidate further.
  xdm::Sequence OneNodeStep(const PathStep& step, xml::Node* context,
                            size_t limit);
  // The pull-based pipeline over steps [first, last): `current` must be all
  // nodes of one document, sorted and deduplicated.
  Result<xdm::Sequence> EvalStepsStreamed(const Expr& e, size_t first,
                                          size_t last, xdm::Sequence current,
                                          size_t limit);
  // Effective boolean value of `e`. A node path here carries limit hint 1,
  // so under streaming it pulls one node instead of its whole result.
  Result<bool> EvalEffectiveBoolean(const Expr& e);
  // One predicate decision for the candidate at `position` (1-based) out of
  // `size`: literal-integer predicates are pure position tests (no Eval),
  // singleton-numeric results compare against position, everything else
  // takes its effective boolean value (a node-path predicate carries limit
  // hint 1). Sets and leaves the focus; callers save/restore around the
  // batch.
  Result<bool> PredicateKeep(const Expr& pred, const xdm::Item& item,
                             size_t position, size_t size);
  // Routes every nodes_skipped_early_exit charge; suppressed while a nested
  // early-exit probe runs inside a streamed step's predicate, where the
  // outer pipeline's own abandonment accounting covers the same candidates.
  void ChargeSkipped(size_t n) {
    if (!suppress_skip_charges_) stats_.nodes_skipped_early_exit += n;
  }
  // Consults / fills the node-set interning cache for the chain the plan
  // decided (Expr::intern) when the path starts at a tree root (a document
  // node or a parentless element). Under streaming a probe-extended path
  // (InternFacts::probe_chain_key) interns the chain through
  // the next step's bare axis::test instead, with an index of the probed
  // attribute; the probe's key, evaluated once, looks up that index, and
  // the step's other predicates filter the hits (the plan extends only
  // position-free steps). If a predicate fails, the plain prefix is
  // interned and the step's own loop raises the error. On success returns
  // the number of steps consumed and replaces *current with the prefix
  // result; returns 0 when interning does not apply.
  Result<size_t> InternPrefix(const Expr& e, xdm::Sequence* current);
  // The interned entry for `e`'s chain from `base` -- when `probed`, the
  // chain plus the probe-extended step, bare, with the index of its probe's
  // attribute -- looked up under its key or computed from `start` and
  // stored, guarded by the names the chain tests.
  Result<std::shared_ptr<const CachedNodeSet>> InternChain(
      const Expr& e, bool probed, xml::Node* base,
      const xdm::Sequence& start);
  // The key of the marked predicate `pred`, evaluated once and atomized;
  // nullopt when it does not atomize to strings/untypedAtomic only.
  Result<std::optional<xdm::Sequence>> ProbeKey(const Expr& pred);
  // Applies the marked first predicate `pred` of a probe-extended step to
  // its interned `entry`: a key of strings looks up the entry's index; any
  // other key, or an entry of fewer than two nodes (whose key is not
  // evaluated), runs the per-candidate loop over the entry's nodes.
  Result<xdm::Sequence> ProbeEntry(const Expr& pred,
                                   const CachedNodeSet& entry);
  // Answers the marked predicate `pred` over `candidates` from the
  // per-query memo's attribute index, built on its first use. The
  // positions of the passing candidates, ascending. nullopt when a dynamic
  // condition fails -- fewer than two candidates (and then the key is not
  // evaluated), not all nodes of one document, or a key that does not
  // atomize to strings/untypedAtomic only -- and the caller runs the
  // per-candidate loop instead.
  Result<std::optional<std::vector<uint32_t>>> ProbeHits(
      const Expr& pred, const xdm::Sequence& candidates);
  // One axis step over every context of `input`: the per-context results
  // concatenated, marked ordered_deduped when a single context fed a
  // forward axis (the one case that needs no normalizing sort).
  Result<xdm::Sequence> EvalStep(const PathStep& step,
                                 const xdm::Sequence& input);
  // Normalizes `seq` to document order without duplicates, skipping the sort
  // (and counting the skip) when the sequence already carries the
  // ordered_deduped bit or is trivially small.
  void SortDedup(xdm::Sequence* seq);
  // Applies `preds` in turn to the whole of `candidates`.
  Result<xdm::Sequence> ApplyPredicates(std::span<const ExprPtr> preds,
                                        xdm::Sequence candidates);
  // Applies one predicate to the whole of `candidates`: a probe-marked one
  // from ProbeHits when it applies, else the per-candidate loop.
  Result<xdm::Sequence> ApplyPredicate(const Expr& pred,
                                       const xdm::Sequence& candidates);
  // Applies one predicate to each of `candidates` in turn.
  Result<xdm::Sequence> FilterEach(const Expr& pred,
                                   const xdm::Sequence& candidates);
  Result<xdm::Sequence> EvalBinary(const Expr& e);
  Result<xdm::Sequence> EvalFlwor(const Expr& e);
  Status EvalFlworClauses(const Expr& e, size_t clause_index,
                          std::vector<std::pair<std::vector<xdm::Sequence>,
                                                xdm::Sequence>>* tuples,
                          xdm::Sequence* out);
  Result<xdm::Sequence> EvalQuantified(const Expr& e);
  Result<xdm::Sequence> EvalFunctionCall(const Expr& e);
  Result<xdm::Sequence> EvalDirectElement(const Expr& e);
  Result<xdm::Sequence> EvalComputedConstructor(const Expr& e);
  Result<xdm::Sequence> EvalCast(const Expr& e);
  Result<xdm::Sequence> EvalInstanceOf(const Expr& e);
  Result<xdm::Sequence> EvalArithmetic(const Expr& e);

  // Builds element content: attribute folding, node copying or adoption,
  // atomic space-joining. `parts` are content expressions (kTextLiteral =
  // raw text). Under streaming a comma-sequence part is added part by part,
  // and the parentless arena nodes of a fresh value are attached instead of
  // copied (DESIGN.md section 20).
  Status FillElementContent(xml::Node* element,
                            const std::vector<const Expr*>& parts);

  // Copies a node (and subtree) into the construction arena, counting the
  // copies in EvalStats::nodes_copied.
  xml::Node* CopyIntoArena(const xml::Node* n);
  // The construction arena, created on first use.
  xml::Document* Arena();

  Status CheckSequenceType(const xdm::Sequence& seq, const SequenceType& type,
                           const char* where, xdm::Sequence* converted);

  // A slot of the current call frame (Expr::slot, FlworClause::slot).
  xdm::Sequence& Slot(uint32_t slot) { return slots_[frame_base_ + slot]; }
  // The value a kVarRef is bound to, or nullptr when nothing binds it (yet).
  const xdm::Sequence* LookupVariable(const Expr& ref) const;
  Result<xdm::Sequence> CallUserFunction(const Expr& call,
                                         const FunctionDecl& fn);

  Result<Focus> RequireFocus(const Expr& e) const;

  // Charges one step and fails, uncatchably, when the step budget, the
  // deadline, cancellation or the stack floor says stop.
  Status StepBudget();

  const Module& module_;
  DynamicContext* ctx_;
  EvalOptions options_;
  EvalStats stats_;
  Focus focus_;
  // Local variables live on one slot stack, each call's frame above its
  // caller's from frame_base_; prolog variables in globals_, as their
  // initializers finish.
  std::vector<xdm::Sequence> slots_;
  size_t frame_base_ = 0;
  std::vector<xdm::Sequence> globals_;
  // StepBudget fails once the evaluation's stack reaches this address: the
  // running thread's lowest stack address plus a reserve (eval.cc); 0 when
  // unknown, and then nothing is checked. One bound for nesting within an
  // expression tree and across user-function calls alike (DESIGN.md
  // section 17).
  uintptr_t stack_floor_ = 0;
  obs::Profiler* profiler_ = nullptr;
  const Expr* builtin_call_site_ = nullptr;
  // See ChargeSkipped: true while evaluating a streamed step's predicate, so
  // probe pipelines spawned inside it do not double-charge the skip floor.
  bool suppress_skip_charges_ = false;
  // The per-query hash-probe index memo, keyed by (attribute name, exact
  // candidate list), oldest first; bounded in entries and in indexed
  // candidates (eval.cc). Dies with the evaluation: documents cannot change
  // under one Execute, and nothing is shared across queries.
  std::vector<std::unique_ptr<ProbeIndex>> probe_indexes_;
  size_t probe_indexed_candidates_ = 0;
  // The call memo: (callee, arguments) -> the call's result, for
  // FunctionDecl::memoizable callees, bounded in entries, stored result
  // items and stored bytes (eval.cc). Open only under EvalOptions::streaming
  // and once Run has initialized every prolog variable, since a function
  // called from an initializer may see an unset global. Dies with the
  // evaluation, like the probe indexes (DESIGN.md section 19).
  bool memo_open_ = false;
  std::unordered_map<std::string, xdm::Sequence> call_memo_;
  size_t call_memo_items_ = 0;
  size_t call_memo_bytes_ = 0;
};

// What the optimizer's passes know of a builtin (optimizer.cc).
enum BuiltinFact : unsigned {
  kTraces = 1u << 0,         // fn:trace: writes the trace stream
  kErrors = 1u << 1,         // fn:error: aborts
  kReadsPosition = 1u << 2,  // fn:position
  kReadsSize = 1u << 3,      // fn:last
  kBooleanValued = 1u << 4,  // as a predicate, never a position test
  // fn:parse-xml-fragment: copies fresh nodes into the construction arena,
  // so two calls never return the same nodes.
  kConstructs = 1u << 5,
  // fn:exists, fn:empty, fn:head: the first item of the one argument, or
  // its absence, decides the result (DESIGN.md section 10).
  kFirstItemDecides = 1u << 6,
};

// One entry of the builtin library; see functions.cc for the catalog.
struct Builtin {
  std::string name;  // no fn: prefix
  BuiltinFn fn;
  unsigned facts = 0;  // BuiltinFact bits

  bool Has(unsigned fact) const { return (facts & fact) != 0; }
};

// The builtin `name` (no fn: prefix) callable with `arity` arguments: the
// entry of exactly that arity, else a variadic one; nullptr if none.
const Builtin* FindBuiltin(const std::string& name, size_t arity);

}  // namespace lll::xq

#endif  // LLL_XQUERY_EVAL_H_
