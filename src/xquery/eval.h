#ifndef LLL_XQUERY_EVAL_H_
#define LLL_XQUERY_EVAL_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
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
  // Document-order tracking: when on (default), the evaluator skips the
  // normalizing sort after a path step or set operator whenever the static
  // order analysis or dynamic evidence (singleton input, ordered_deduped
  // bit) proves the result already normalized. Off = sort after every step,
  // the pre-index behavior; kept as a benchmark baseline (bench_e12).
  bool order_tracking = true;
  // Streaming path pipelines: when on (default), eligible axis-step chains
  // (streamable axes, predicates free of fn:last()/fn:trace()/user
  // functions, single-document input) are evaluated through a pull-based
  // merge of per-context runs instead of materializing every intermediate
  // sequence, and early-exit consumers (positional predicates like [1],
  // fn:exists/fn:empty, boolean contexts, optimizer-pushed limit hints) stop
  // pulling once the answer is determined. Reverse axes run as barrier
  // stages: per-context runs enumerate in reverse document order and are
  // merged back to document order (DESIGN.md section 10). Off = the
  // pre-streaming materializing evaluator, kept byte-identical as a
  // differential baseline and benchmark arm (bench_e13/e14), mirroring
  // order_tracking. The same switch gates hash probes: predicates the
  // optimizer marked `@a = K` (Expr::probe_key) are answered from a
  // per-query index of @a values when on, and never when off, so the
  // materializing evaluator stays the scan oracle (DESIGN.md section 16).
  bool streaming = true;
  // Node-set interning: memoizes the leading step chain of document-rooted
  // paths (predicate-free steps plus steps whose predicates are provably
  // pure functions of the tree, folded into the fingerprint) as (document
  // identity, step-chain fingerprint) -> Sequence, invalidated by the
  // document's per-node subtree edit-version overlay -- an edit evicts only
  // entries whose dependency chain it dirtied. Borrowed; must outlive the
  // evaluation AND be scoped to the documents' owner (cached sequences hold
  // raw Node pointers). nullptr = no interning.
  NodeSetCache* nodeset_cache = nullptr;
  // Subtree-scoped guard computation for interned entries: when on
  // (default), entries are guarded by the PR-9 descent analysis
  // (ComputeInternGuards) and survive edits outside their dependency chain.
  // Off = every entry carries a single whole-document kSubtree guard at its
  // base, i.e. ANY edit anywhere invalidates it -- the pre-overlay
  // behavior, kept as the "whole-document invalidation forced off" baseline
  // arm for bench_e19 and the server A/B knob
  // (ServerOptions::subtree_invalidation).
  bool subtree_guards = true;
  // Per-expression profiling (obs/profiler.h): attribute wall time, eval
  // counts, and result sizes to AST nodes. Off = one null-pointer test per
  // expression, nothing more.
  bool profile = false;
  // Structured trace events (fn:trace, fn:error, located dynamic errors) are
  // mirrored to this sink when set, in addition to the per-query
  // trace_output buffer. Borrowed; must outlive the evaluation.
  obs::TraceSink* trace_sink = nullptr;
};

// Statistics collected during one evaluation.
struct EvalStats {
  size_t steps = 0;            // expression evaluations
  size_t constructed_nodes = 0;  // nodes created by constructors
  size_t trace_calls = 0;        // fn:trace invocations actually executed
  size_t function_calls = 0;     // user-defined function invocations
  // Document-order bookkeeping: path steps and set operators must yield
  // ordered, deduplicated node sequences. `sorts_performed` counts actual
  // sort passes; `sorts_skipped` counts normalizations proven unnecessary
  // (statically by the optimizer's order analysis, or dynamically via the
  // sequence's ordered_deduped bit / singleton inputs); `order_compares`
  // counts document-order comparator calls inside performed sorts.
  size_t sorts_performed = 0;
  size_t sorts_skipped = 0;
  size_t order_compares = 0;
  // Streaming pipeline bookkeeping: `nodes_pulled` counts axis candidates
  // actually examined by streamed steps; `nodes_skipped_early_exit` is a
  // lower bound on candidates an early-exiting consumer (positional
  // predicate, fn:exists, boolean context) never had to visit. Nested
  // early-exit probes (an exists() inside a predicate of an outer streamed
  // step) do not contribute to the skip floor: the outer pipeline already
  // accounts for the candidate subtrees it abandons.
  size_t nodes_pulled = 0;
  size_t nodes_skipped_early_exit = 0;
  // Reverse-axis streaming: nonempty per-context reverse runs pushed onto
  // the document-order merge heap.
  size_t reverse_runs_merged = 0;
  // Paths evaluated under an optimizer-pushed limit hint (fn:head,
  // fn:subsequence, positional-for shapes; see Expr::limit_hint).
  size_t limit_pushdowns = 0;
  // Node-set interning cache traffic attributable to this evaluation. An
  // invalidation is a lookup that found an entry with a failed subtree
  // version guard (stale edit history, not a cold key); the partial counter
  // is the subset whose entry was subtree-scoped -- i.e. the finer-than-
  // whole-document guards earned their keep by surviving unrelated edits.
  size_t nodeset_cache_hits = 0;
  size_t nodeset_cache_misses = 0;
  size_t nodeset_cache_invalidations = 0;
  size_t nodeset_cache_partial_invalidations = 0;
  // Hash probes (DESIGN.md section 16): `probe_filters` counts marked
  // `@a = K` predicates answered from an attribute index instead of a
  // per-candidate loop; `probe_index_builds` counts the indexes built (the
  // rest of the probes hit the per-query memo).
  size_t probe_filters = 0;
  size_t probe_index_builds = 0;
};

// A builtin function: receives evaluated arguments.
using BuiltinFn = std::function<Result<xdm::Sequence>(
    Evaluator&, std::vector<xdm::Sequence>&)>;

// The dynamic context of an evaluation: variable bindings, the focus
// (context item / position / size), available documents, the construction
// arena, and the trace sink.
class DynamicContext {
 public:
  DynamicContext();

  // The arena owning every node constructed during evaluation. Results that
  // reference constructed nodes stay valid as long as this context (or the
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
  void BindExternal(const std::string& name, xdm::Sequence value);

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
  std::vector<std::pair<std::string, xdm::Sequence>> env_;
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
  class ReverseRun;
  class StreamStage;
  class StreamBaseStage;
  class StreamAxisStage;
  class StreamReverseAxisStage;
  // One memoized attribute index for hash probes (defined in eval.cc).
  struct ProbeIndex;

  // "No result cap" for EvalPathImpl/EvalPathLimited.
  static constexpr size_t kNoLimit = static_cast<size_t>(-1);

  // The actual dispatch switch behind Eval().
  Result<xdm::Sequence> EvalInner(const Expr& e);

  Result<xdm::Sequence> EvalPath(const Expr& e);
  // Path evaluation with an optional result cap. `limit` is an optimization
  // hint, not a contract: when the step chain streams, at most `limit` nodes
  // are produced (and they are exactly the first `limit` of the full
  // result); when it falls back to materializing, the full result comes
  // back. Callers may rely on the first min(limit, full size) items only.
  Result<xdm::Sequence> EvalPathImpl(const Expr& e, size_t limit);
  // Entry point for early-exit consumers reaching a path WITHOUT going
  // through Eval(): replicates Eval's step-budget charge and profiler frame
  // so capped paths stay visible to max_steps and hot-spot reports.
  Result<xdm::Sequence> EvalPathLimited(const Expr& e, size_t limit);
  // Evaluates steps [first, last) of a path against `current`, streaming
  // when eligible, otherwise via the materializing step loop.
  Result<xdm::Sequence> EvalStepsRange(const Expr& e, size_t first,
                                       size_t last, xdm::Sequence current,
                                       size_t limit);
  // The materializing step loop (the pre-streaming evaluator, also the
  // streaming=false baseline).
  Result<xdm::Sequence> EvalStepsMaterialized(const Expr& e, size_t first,
                                              size_t last,
                                              xdm::Sequence current);
  // The pull-based pipeline over steps [first, last): `current` must be all
  // nodes of one document, sorted and deduplicated.
  Result<xdm::Sequence> EvalStepsStreamed(const Expr& e, size_t first,
                                          size_t last, xdm::Sequence current,
                                          size_t limit);
  // Effective boolean value with early exit: a node-producing path condition
  // pulls one node instead of materializing its whole result.
  Result<bool> EvalEffectiveBoolean(const Expr& e);
  // One predicate decision for the candidate at `position` (1-based) out of
  // `size`: literal-integer predicates are pure position tests (no Eval),
  // singleton-numeric results compare against position, everything else
  // takes its effective boolean value. Sets and leaves the focus; callers
  // save/restore around the batch.
  Result<bool> PredicateKeep(const Expr& pred, const xdm::Item& item,
                             size_t position, size_t size);
  // True if `step` may run inside the pull pipeline: a streamable axis, not
  // a filter step, and predicates free of focus-size observers (fn:last),
  // effectful calls (fn:trace / fn:error), and user-defined or unknown
  // functions (which may trace internally) -- the trace-parity rule.
  bool StepStreamable(const PathStep& step) const;
  // The recursive scan behind StepStreamable, resolving calls against this
  // evaluator's user-function table.
  bool PredicateBlocksStreaming(const Expr& e) const;
  // Routes every nodes_skipped_early_exit charge; suppressed while a nested
  // early-exit probe runs inside a streamed step's predicate, where the
  // outer pipeline's own abandonment accounting covers the same candidates.
  void ChargeSkipped(size_t n) {
    if (!suppress_skip_charges_) stats_.nodes_skipped_early_exit += n;
  }
  // Consults / fills the node-set interning cache for the leading internable
  // step chain (predicate-free steps, plus steps whose predicates fold into
  // the fingerprint) of a path from a tree root (a document node or a
  // parentless element). Under streaming the chain
  // extends through the next step's bare axis::test when that step's first
  // predicate is a probe, and the probe then filters the interned
  // candidates. On success returns the number of steps consumed and
  // replaces *current with the prefix result; returns 0 when interning
  // does not apply.
  Result<size_t> InternPrefix(const Expr& e, xdm::Sequence* current);
  // The interned result of the first `steps` steps of `e` from `base` (the
  // last one without its predicates when `bare_last`), looked up under
  // `fingerprint` or computed from `start` and stored.
  Result<xdm::Sequence> InternChain(const Expr& e, size_t steps,
                                    bool bare_last, xml::Node* base,
                                    const std::string& fingerprint,
                                    const xdm::Sequence& start);
  // Applies the predicates of `step`, whose first is a probe, to the
  // step's candidates from every context at once (sorted, one document).
  // Later predicates see per-context positions: on the child axis the hits
  // are grouped by parent, which is the context; on other axes InternPrefix
  // guarantees they are position-free, and they run over all hits at once.
  // Returns nullopt when the probe does not apply (see ProbeHits).
  Result<std::optional<xdm::Sequence>> ProbeStep(
      const Expr& e, const PathStep& step, const xdm::Sequence& candidates);
  // Answers the marked predicate `pred` over `candidates` from the attribute
  // index: the positions of the passing candidates, ascending. nullopt when
  // a dynamic condition fails -- fewer than two candidates, not all nodes of
  // one document, or a key that does not atomize to strings/untypedAtomic
  // only -- and the caller runs the per-candidate loop instead.
  Result<std::optional<std::vector<uint32_t>>> ProbeHits(
      const Expr& pred, const xdm::Sequence& candidates);
  // True if every predicate of `step` is intern-foldable (optimizer.h's
  // InternFoldablePredicate, resolved against this evaluator's user-function
  // table); the AttributeOnly variant additionally requires the attribute-
  // only class the guard descent may resolve through.
  bool StepPredicatesFoldable(const PathStep& step) const;
  bool StepPredicatesAttributeOnly(const PathStep& step) const;
  // Builds the subtree version guard set for an intern entry: descends from
  // `base` through prefix steps that resolve to singleton elements,
  // recording the narrowest overlay guards that dominate the chain, and
  // falls back to a whole-subtree guard at the first step it cannot scope
  // (DESIGN.md section 14). Best-effort: never fails, only widens.
  // `bare_last`: the prefix's last step is interned without its
  // predicates (the probe extension) and is guarded like a predicate-free
  // step.
  void ComputeInternGuards(const Expr& e, size_t prefix, bool bare_last,
                           xml::Node* base,
                           std::vector<CachedNodeSet::Guard>* guards,
                           bool* subtree_scoped);
  Result<xdm::Sequence> EvalStep(const PathStep& step,
                                 const xdm::Sequence& input);
  // Normalizes `seq` to document order without duplicates, skipping the sort
  // (and counting the skip) when `provably_ordered` or the sequence already
  // carries the ordered_deduped bit or is trivially small.
  void SortDedup(xdm::Sequence* seq, bool provably_ordered);
  // Applies preds[first..] in turn to the whole of `candidates`.
  Result<xdm::Sequence> ApplyPredicates(const std::vector<ExprPtr>& preds,
                                        xdm::Sequence candidates,
                                        size_t first = 0);
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

  // Builds element content: attribute folding, node copying, atomic
  // space-joining. `parts` are content expressions (kTextLiteral = raw text).
  Status FillElementContent(xml::Node* element,
                            const std::vector<const Expr*>& parts);

  // Copies a node (and subtree) into the construction arena.
  xml::Node* CopyIntoArena(const xml::Node* n);

  Status CheckSequenceType(const xdm::Sequence& seq, const SequenceType& type,
                           const char* where, xdm::Sequence* converted);

  // Variable environment helpers (lexically scoped via save/restore).
  size_t EnvMark() const { return ctx_->env_.size(); }
  void EnvRestore(size_t mark) { ctx_->env_.resize(mark); }
  void EnvBind(const std::string& name, xdm::Sequence value) {
    ctx_->env_.emplace_back(name, std::move(value));
  }
  const xdm::Sequence* EnvLookup(const std::string& name) const;

  Result<Focus> RequireFocus(const Expr& e) const;

  Status StepBudget();

  const Module& module_;
  DynamicContext* ctx_;
  EvalOptions options_;
  EvalStats stats_;
  Focus focus_;
  std::map<std::pair<std::string, size_t>, const FunctionDecl*> functions_;
  int call_depth_ = 0;
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

  friend struct BuiltinRegistry;
};

// Registers the fn:/math: builtin library; see functions.cc for the catalog.
const std::map<std::pair<std::string, size_t>, BuiltinFn>& BuiltinFunctions();
// The fn:subsequence selection window, shared by the builtin and the
// optimizer's limit push-down so pushed and unpushed plans agree: positions
// p (1-based) with *lo <= p < *hi are selected, computed with XPath fn:round
// semantics (floor(x + 0.5), round-half-UP -- not std::round). *hi is +inf
// for the 2-argument form (`has_length` false). Returns false when the
// window is statically empty (NaN start or length).
bool SubsequenceWindow(double start, double length, bool has_length,
                       double* lo, double* hi);
// True if a builtin with this name exists at any arity (used by the
// optimizer's purity analysis).
bool IsBuiltinName(const std::string& name);

}  // namespace lll::xq

#endif  // LLL_XQUERY_EVAL_H_
