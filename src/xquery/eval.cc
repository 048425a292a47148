#include "xquery/eval.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/string_util.h"
#include "xquery/nodeset_cache.h"
#include "xquery/optimizer.h"
#include "obs/profiler.h"
#include "obs/trace_sink.h"
#include "xdm/compare.h"

namespace lll::xq {

using xdm::Item;
using xdm::Sequence;

namespace {

// Where an error/trace/profile record points: " at line L, column C", or
// nothing when the parser had no position (synthesized expressions).
std::string LocationSuffix(const Expr& e) {
  if (e.line == 0) return std::string();
  return " at line " + std::to_string(e.line) + ", column " +
         std::to_string(e.col);
}

// Profiler site label: kind, salient detail, source position.
std::string DescribeSite(const Expr& e) {
  std::string out = ExprKindName(e.kind);
  switch (e.kind) {
    case ExprKind::kFunctionCall:
      out += " " + e.name;
      break;
    case ExprKind::kVarRef:
      out += " $" + e.name;
      break;
    case ExprKind::kBinary:
      out += std::string(" ") + BinOpName(e.op);
      break;
    case ExprKind::kPath:
      if (!e.steps.empty()) {
        out += " ";
        for (size_t i = 0; i < e.steps.size() && i < 3; ++i) {
          out += "/";
          out += e.steps[i].test.kind == NodeTestKind::kName
                     ? e.steps[i].test.name
                     : "*";
        }
        if (e.steps.size() > 3) out += "/...";
      }
      break;
    case ExprKind::kDirectElement:
    case ExprKind::kCompElement:
      if (!e.name.empty()) out += " <" + e.name + ">";
      break;
    default:
      break;
  }
  if (e.line != 0) {
    out += " (" + std::to_string(e.line) + ":" + std::to_string(e.col) + ")";
  }
  return out;
}

bool MatchesTest(const xml::Node* n, const NodeTest& test, Axis axis) {
  xml::NodeKind principal = axis == Axis::kAttribute
                                ? xml::NodeKind::kAttribute
                                : xml::NodeKind::kElement;
  switch (test.kind) {
    case NodeTestKind::kName:
      return n->kind() == principal && n->name() == test.name;
    case NodeTestKind::kAnyName:
      return n->kind() == principal;
    case NodeTestKind::kText:
      return n->is_text();
    case NodeTestKind::kComment:
      return n->kind() == xml::NodeKind::kComment;
    case NodeTestKind::kPi:
      return n->kind() == xml::NodeKind::kProcessingInstruction;
    case NodeTestKind::kAnyNode:
      return true;
  }
  return false;
}

// Preorder walk with an explicit stack: descendant axes over degenerate
// (deep-chain) documents must not be bounded by the C++ call stack. Each
// frame is (node, index of the next child to visit).
void CollectDescendants(xml::Node* n, std::vector<xml::Node*>* out) {
  std::vector<std::pair<xml::Node*, size_t>> stack;
  stack.emplace_back(n, 0);
  while (!stack.empty()) {
    auto& frame = stack.back();
    if (frame.second >= frame.first->children().size()) {
      stack.pop_back();
      continue;
    }
    xml::Node* child = frame.first->children()[frame.second++];
    out->push_back(child);
    stack.emplace_back(child, 0);
  }
}

// A path whose last step is an axis step: every item of its result is a
// node, so emptiness / effective boolean value / predicate truth are all
// decided by the first node pulled (a node sequence is never a numeric
// singleton position test).
bool IsNodePathShape(const Expr& e) {
  return e.kind == ExprKind::kPath && !e.steps.empty() &&
         !e.steps.back().is_filter;
}

// The one document every node of `seq` belongs to, or nullptr (empty
// sequence, atomics present, detached nodes, or nodes of several documents).
xml::Document* SingleDocumentOf(const Sequence& seq) {
  xml::Document* doc = nullptr;
  for (const Item& item : seq.items()) {
    if (!item.is_node()) return nullptr;
    xml::Document* d = item.node()->document();
    if (d == nullptr) return nullptr;
    if (doc == nullptr) {
      doc = d;
    } else if (doc != d) {
      return nullptr;
    }
  }
  return doc;
}

// The fingerprint text of one step: axis::test, plus the predicates'
// canonical text unless the step is interned bare (the probe extension).
void AppendStepFingerprint(const PathStep& step, bool with_predicates,
                           std::string* fingerprint) {
  *fingerprint += AxisName(step.axis);
  *fingerprint += "::";
  switch (step.test.kind) {
    case NodeTestKind::kName:
      *fingerprint += step.test.name;
      break;
    case NodeTestKind::kAnyName:
      *fingerprint += "*";
      break;
    case NodeTestKind::kText:
      *fingerprint += "text()";
      break;
    case NodeTestKind::kComment:
      *fingerprint += "comment()";
      break;
    case NodeTestKind::kPi:
      *fingerprint += "processing-instruction()";
      break;
    case NodeTestKind::kAnyNode:
      *fingerprint += "node()";
      break;
  }
  if (with_predicates) {
    for (const ExprPtr& p : step.predicates) {
      *fingerprint += '[';
      *fingerprint += ExprToString(*p);
      *fingerprint += ']';
    }
  }
  *fingerprint += "/";
}

// Bounds of the per-query probe index memo: at most this many indexes, over
// at most this many candidates in total. A candidate list larger than the
// whole budget is indexed for its one probe and not kept.
constexpr size_t kMaxProbeIndexes = 64;
constexpr size_t kMaxProbeIndexedCandidates = size_t{1} << 18;

// FNV-1a over the node identities of an all-node sequence: the probe memo's
// key for an exact candidate list.
uint64_t HashNodes(const Sequence& seq) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Item& item : seq.items()) {
    h = (h ^ reinterpret_cast<uintptr_t>(item.node())) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

// An attribute index over one exact candidate list: @attr value ->
// ascending positions of the candidates carrying it. Values are views into
// the candidates' document, which outlives the evaluation.
struct Evaluator::ProbeIndex {
  std::string attr;
  uint64_t hash = 0;
  std::vector<const xml::Node*> candidates;
  std::unordered_map<std::string_view, std::vector<uint32_t>> postings;

  bool Matches(const std::string& a, uint64_t h, const Sequence& seq) const {
    if (h != hash || a != attr || seq.size() != candidates.size()) {
      return false;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (seq.at(i).node() != candidates[i]) return false;
    }
    return true;
  }
};

// --- DynamicContext -----------------------------------------------------

DynamicContext::DynamicContext() : arena_(std::make_unique<xml::Document>()) {}

void DynamicContext::BindExternal(const std::string& name, Sequence value) {
  env_.emplace_back(name, std::move(value));
}

// --- Evaluator ------------------------------------------------------------

Evaluator::~Evaluator() = default;

Evaluator::Evaluator(const Module& module, DynamicContext* context,
                     const EvalOptions& options)
    : module_(module), ctx_(context), options_(options) {
  for (const FunctionDecl& fn : module.functions) {
    functions_[{fn.name, fn.params.size()}] = &fn;
  }
  if (ctx_->has_context_item_) {
    focus_.item = ctx_->context_item_;
    focus_.position = 1;
    focus_.size = 1;
    focus_.valid = true;
  }
}

const Sequence* Evaluator::EnvLookup(const std::string& name) const {
  for (auto it = ctx_->env_.rbegin(); it != ctx_->env_.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

Result<Evaluator::Focus> Evaluator::RequireFocus(const Expr& e) const {
  if (focus_.valid) return focus_;
  if (options_.galax_style_messages) {
    // The message the paper quotes, verbatim: the compiler-internal name of
    // the context item surfacing in user-facing diagnostics.
    return Status::Internal("Internal_Error: Variable '$glx:dot' not found.");
  }
  return Status::Invalid("no context item at line " + std::to_string(e.line) +
                         ", column " + std::to_string(e.col));
}

Status Evaluator::StepBudget() {
  ++stats_.steps;
  if (options_.max_steps != 0 && stats_.steps > options_.max_steps) {
    return Status::ResourceExhausted(
        "evaluation step budget exceeded (" +
        std::to_string(options_.max_steps) + " steps)");
  }
  // Cancellation and deadline are polled, not checked per step: one relaxed
  // atomic load every 128 steps, one clock read only when a deadline is set.
  if ((stats_.steps & 0x7F) == 0) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      return Status::ResourceExhausted("evaluation cancelled");
    }
    if (options_.deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() > options_.deadline) {
      return Status::ResourceExhausted("evaluation deadline exceeded");
    }
  }
  return Status::Ok();
}

Result<Sequence> Evaluator::Run() {
  for (const VariableDecl& var : module_.variables) {
    LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*var.expr));
    EnvBind(var.name, std::move(value));
  }
  return Eval(*module_.body);
}

void Evaluator::Trace(std::string line) {
  ++stats_.trace_calls;
  if (options_.trace_sink != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::kTrace;
    event.source = "fn:trace";
    event.message = line;
    if (builtin_call_site_ != nullptr) {
      event.line = builtin_call_site_->line;
      event.col = builtin_call_site_->col;
    }
    options_.trace_sink->Emit(std::move(event));
  }
  ctx_->trace_output_.push_back(std::move(line));
}

Result<Sequence> Evaluator::Eval(const Expr& e) {
  // The profile=false hot path must stay one pointer test away from the raw
  // dispatch -- bench_e5/e12 guard this.
  if (profiler_ == nullptr) return EvalInner(e);
  obs::Profiler::Scope scope(profiler_, &e, [&e] { return DescribeSite(e); });
  Result<Sequence> result = EvalInner(e);
  if (result.ok()) scope.set_items(result->size());
  return result;
}

Result<Sequence> Evaluator::EvalInner(const Expr& e) {
  LLL_RETURN_IF_ERROR(StepBudget());
  switch (e.kind) {
    case ExprKind::kLiteral:
      switch (e.literal_type) {
        case Expr::LiteralType::kString:
          return Sequence(Item::String(e.text));
        case Expr::LiteralType::kInteger:
          return Sequence(Item::Integer(e.integer));
        case Expr::LiteralType::kDouble:
          return Sequence(Item::Double(e.number));
      }
      return Status::Internal("bad literal");
    case ExprKind::kTextLiteral:
      return Sequence(Item::String(e.text));
    case ExprKind::kEmptySequence:
      return Sequence();
    case ExprKind::kSequence: {
      Sequence out;
      for (const ExprPtr& c : e.children) {
        LLL_ASSIGN_OR_RETURN(Sequence part, Eval(*c));
        // Flattening happens here, by construction.
        out.AppendSequence(std::move(part));
      }
      return out;
    }
    case ExprKind::kVarRef: {
      const Sequence* bound = EnvLookup(e.name);
      if (bound == nullptr) {
        return Status::Invalid("variable '$" + e.name + "' not found at line " +
                               std::to_string(e.line));
      }
      return *bound;
    }
    case ExprKind::kContextItem: {
      LLL_ASSIGN_OR_RETURN(Focus f, RequireFocus(e));
      return Sequence(f.item);
    }
    case ExprKind::kPath:
      // An optimizer-pushed limit hint (fn:head / fn:subsequence /
      // positional-for shapes) caps the streamed result; the materializing
      // fallback inside EvalPathImpl still returns the full result, which
      // consumers of a limited path tolerate by contract. streaming=false
      // ignores the hint entirely: the baseline stays byte-identical.
      if (options_.streaming && e.limit_hint > 0) {
        ++stats_.limit_pushdowns;
        return EvalPathImpl(e, e.limit_hint);
      }
      return EvalPath(e);
    case ExprKind::kBinary:
      return EvalBinary(e);
    case ExprKind::kUnary: {
      LLL_ASSIGN_OR_RETURN(Sequence operand, Eval(*e.children[0]));
      Sequence atomized = operand.Atomized();
      if (atomized.empty()) return Sequence();
      LLL_ASSIGN_OR_RETURN(Item single,
                           xdm::RequireSingleton(atomized, "unary '-'"));
      if (single.kind() == xdm::ItemKind::kInteger) {
        return Sequence(Item::Integer(-single.integer_value()));
      }
      LLL_ASSIGN_OR_RETURN(double value, single.NumericValue());
      return Sequence(Item::Double(-value));
    }
    case ExprKind::kIf: {
      LLL_ASSIGN_OR_RETURN(bool truth, EvalEffectiveBoolean(*e.children[0]));
      return Eval(truth ? *e.children[1] : *e.children[2]);
    }
    case ExprKind::kFlwor:
      return EvalFlwor(e);
    case ExprKind::kQuantified:
      return EvalQuantified(e);
    case ExprKind::kFunctionCall:
      return EvalFunctionCall(e);
    case ExprKind::kDirectElement:
      return EvalDirectElement(e);
    case ExprKind::kCompElement:
    case ExprKind::kCompAttribute:
    case ExprKind::kCompText:
    case ExprKind::kCompComment:
    case ExprKind::kCompDocument:
      return EvalComputedConstructor(e);
    case ExprKind::kCastAs:
      return EvalCast(e);
    case ExprKind::kCastableAs: {
      // `e castable as T`: true iff `e cast as T` would succeed. EvalCast
      // re-evaluates the child, which is fine: the operand is evaluated at
      // most twice and side effects are limited to trace lines.
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*e.children[0]));
      Sequence atomized = value.Atomized();
      if (atomized.size() > 1) return Sequence(Item::Boolean(false));
      if (atomized.empty()) {
        return Sequence(Item::Boolean(
            e.type.occurrence == SequenceType::Occurrence::kOptional));
      }
      Expr probe(ExprKind::kCastAs);
      probe.type = e.type;
      probe.children.push_back(CloneExpr(*e.children[0]));
      Result<Sequence> attempt = EvalCast(probe);
      return Sequence(Item::Boolean(attempt.ok()));
    }
    case ExprKind::kInstanceOf:
      return EvalInstanceOf(e);
    case ExprKind::kTryCatch: {
      // The Moral #4 extension: "A little language should provide exception
      // handling. A very rudimentary form ... will do." Dynamic errors from
      // the try body are caught; the handler sees $err:description. Internal
      // and resource-limit errors (step budget, deadline, cancellation,
      // recursion depth) are NOT catchable -- a handler must not mask a
      // runaway query or swallow a server's kill switch.
      Result<Sequence> attempt = Eval(*e.children[0]);
      if (attempt.ok()) return attempt;
      if (attempt.status().code() == StatusCode::kInternal ||
          attempt.status().code() == StatusCode::kResourceExhausted) {
        return attempt.status();
      }
      size_t mark = EnvMark();
      EnvBind("err:description",
              Sequence(Item::String(attempt.status().message())));
      EnvBind("err:code",
              Sequence(Item::String(StatusCodeName(attempt.status().code()))));
      Result<Sequence> handled = Eval(*e.children[1]);
      EnvRestore(mark);
      return handled;
    }
  }
  return Status::Internal("unhandled expression kind");
}

// --- Paths ----------------------------------------------------------------

void Evaluator::SortDedup(Sequence* seq, bool provably_ordered) {
  if (provably_ordered || seq->ordered_deduped() || seq->size() <= 1) {
    seq->MarkOrderedDeduped();
    ++stats_.sorts_skipped;
    return;
  }
  seq->SortDocumentOrderAndDedup(&stats_.order_compares);
  ++stats_.sorts_performed;
}

// Streamability of one step at evaluation time; the axis classification
// (ast.cc) is shared with the optimizer's advisory statically_streamable
// annotation, which applies the same predicate scan against the module.
bool Evaluator::StepStreamable(const PathStep& step) const {
  if (step.is_filter || !IsStreamableAxis(step.axis)) return false;
  for (const ExprPtr& p : step.predicates) {
    if (PredicateBlocksStreaming(*p)) return false;
  }
  return true;
}

bool Evaluator::PredicateBlocksStreaming(const Expr& e) const {
  if (e.kind == ExprKind::kFunctionCall) {
    std::string stripped = e.name;
    if (StartsWith(stripped, "fn:")) stripped = stripped.substr(3);
    // fn:last() observes the focus size, which streaming never knows.
    // fn:trace()/fn:error() have externally observable effects whose order
    // and count must match the materializing evaluator: the merge
    // interleaves per-run predicate evaluation and early exit skips it
    // outright, so such predicates take the materializing path (the
    // trace-parity rule). User-defined and unknown functions may do either
    // internally, so they block too.
    if (stripped == "last" || stripped == "trace" || stripped == "error") {
      return true;
    }
    size_t arity = e.children.size();
    if (functions_.count({e.name, arity}) != 0 ||
        functions_.count({stripped, arity}) != 0) {
      return true;
    }
    if (!IsBuiltinName(stripped)) return true;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && PredicateBlocksStreaming(*c)) return true;
  }
  for (const PathStep& s : e.steps) {
    for (const ExprPtr& p : s.predicates) {
      if (p != nullptr && PredicateBlocksStreaming(*p)) return true;
    }
  }
  for (const FlworClause& c : e.clauses) {
    if (c.expr != nullptr && PredicateBlocksStreaming(*c.expr)) return true;
  }
  for (const OrderSpec& o : e.order_by) {
    if (o.key != nullptr && PredicateBlocksStreaming(*o.key)) return true;
  }
  for (const DirectAttribute& a : e.attributes) {
    for (const ExprPtr& p : a.value_parts) {
      if (p != nullptr && PredicateBlocksStreaming(*p)) return true;
    }
  }
  return false;
}

// --- Streaming pipeline ---------------------------------------------------
//
// A streamable step chain is evaluated as a pull pipeline: one StreamStage
// per axis step, each exposing its (document-ordered, deduplicated) result a
// node at a time. An axis stage lazily merges per-context "runs" -- one lazy
// axis enumeration per context node -- on a min-heap keyed by the order-key
// index (PR 2). Forward axes guarantee every result's key >= its context's
// key, so upstream contexts are activated only while they could still beat
// the heap minimum; the pipeline therefore buffers O(active runs), not
// O(intermediate result), and a consumer that stops pulling (positional
// predicate satisfied, fn:exists answered, boolean context decided) leaves
// the remaining work undone.

// One lazily-enumerated forward-axis run from a single context node: yields,
// in document order, the axis candidates that pass the node test and the
// step's predicate chain. Positional predicates count per run -- exactly the
// per-context counting the materializing EvalStep does eagerly -- and a
// literal-integer predicate [N] exhausts the run the moment its counter
// reaches N, because no later candidate can ever pass that stage again.
class Evaluator::StreamRun {
 public:
  StreamRun(Evaluator* ev, const PathStep* step, xml::Node* context)
      : ev_(ev), step_(step) {
    switch (step->axis) {
      case Axis::kChild:
        list_ = context->children();
        break;
      case Axis::kAttribute:
        list_ = context->attributes();
        break;
      case Axis::kSelf:
        self_ = context;
        break;
      case Axis::kDescendant:
        stack_.emplace_back(context, 0);
        break;
      case Axis::kDescendantOrSelf:
        self_ = context;
        stack_.emplace_back(context, 0);
        break;
      case Axis::kFollowingSibling:
        if (context->parent() != nullptr && !context->is_attribute()) {
          list_ = context->parent()->children();
          cursor_ = context->IndexInParent() + 1;
        }
        break;
      default:
        break;  // reverse axes run as ReverseRuns (StreamReverseAxisStage)
    }
    positions_.assign(step->predicates.size(), 0);
  }

  // The current passing candidate; nullptr once exhausted.
  xml::Node* front() const { return front_; }

  // Moves front() to the next passing candidate (or exhausts the run).
  Status Advance() {
    if (exhaust_after_front_) {
      AccountAbandoned();  // the candidates the spent [N] will never examine
      done_ = true;
    }
    front_ = nullptr;
    if (done_) return Status::Ok();
    for (;;) {
      xml::Node* candidate = NextCandidate();
      if (candidate == nullptr) {
        done_ = true;
        return Status::Ok();
      }
      ++ev_->stats_.nodes_pulled;
      if (!MatchesTest(candidate, step_->test, step_->axis)) continue;
      bool keep = true;
      bool spent = false;  // some literal [N] stage just consumed its N-th
      for (size_t j = 0; j < step_->predicates.size() && keep; ++j) {
        const Expr& pred = *step_->predicates[j];
        size_t pos = ++positions_[j];
        // Probe pipelines spawned inside the predicate (an exists() or a
        // node-path EBV) abandon runs of their own; the skip floor for this
        // candidate's subtree is already this pipeline's to charge, so
        // nested charges are suppressed (see ChargeSkipped).
        bool outer_probe = ev_->suppress_skip_charges_;
        ev_->suppress_skip_charges_ = true;
        Result<bool> kept =
            ev_->PredicateKeep(pred, Item::NodeRef(candidate), pos,
                               /*size=*/pos);
        ev_->suppress_skip_charges_ = outer_probe;
        if (!kept.ok()) return kept.status();
        keep = *kept;
        if (pred.kind == ExprKind::kLiteral &&
            pred.literal_type == Expr::LiteralType::kInteger &&
            static_cast<int64_t>(pos) >= pred.integer) {
          spent = true;
        }
      }
      if (keep) {
        front_ = candidate;
        exhaust_after_front_ = spent;
        return Status::Ok();
      }
      if (spent) {
        AccountAbandoned();
        done_ = true;
        return Status::Ok();
      }
    }
  }

  // Lower bound on axis candidates this run will now never examine, charged
  // to nodes_skipped_early_exit. For descendant stacks only the immediate
  // unvisited children of each frame are counted -- a cheap floor, not the
  // full subtree size.
  void AccountAbandoned() {
    size_t n = 0;
    if (self_ != nullptr) ++n;
    n += list_.size() - cursor_;
    for (const auto& frame : stack_) {
      n += frame.first->children().size() - frame.second;
    }
    ev_->ChargeSkipped(n);
    self_ = nullptr;
    list_ = xml::NodeList();
    stack_.clear();
  }

 private:
  // The next axis candidate in document order, unfiltered.
  xml::Node* NextCandidate() {
    if (self_ != nullptr) {
      xml::Node* s = self_;
      self_ = nullptr;
      return s;
    }
    if (cursor_ < list_.size()) return list_[cursor_++];
    while (!stack_.empty()) {
      auto& frame = stack_.back();
      if (frame.second >= frame.first->children().size()) {
        stack_.pop_back();
        continue;
      }
      xml::Node* child = frame.first->children()[frame.second++];
      stack_.emplace_back(child, 0);
      return child;
    }
    return nullptr;
  }

  Evaluator* ev_;
  const PathStep* step_;
  xml::Node* front_ = nullptr;
  bool done_ = false;
  bool exhaust_after_front_ = false;
  // Enumeration state; at most one of self_/list_/stack_ is live at a time
  // (descendant-or-self drains self_ first, then the stack).
  xml::Node* self_ = nullptr;
  xml::NodeList list_;  // empty when this enumeration source is not in use
  size_t cursor_ = 0;
  std::vector<std::pair<xml::Node*, size_t>> stack_;
  std::vector<size_t> positions_;  // 1-based per-predicate counters
};

// Pull interface of one pipeline stage: a document-ordered, duplicate-free
// node stream.
class Evaluator::StreamStage {
 public:
  virtual ~StreamStage() = default;
  // The current front node; nullptr = exhausted. Idempotent until Pop().
  virtual Result<xml::Node*> Front() = 0;
  virtual Status Pop() = 0;
  // The consumer stopped early: fold a lower bound of the never-visited
  // work into nodes_skipped_early_exit, recursively upstream.
  virtual void Abandon() = 0;
};

// The materialized context sequence feeding the first axis stage.
class Evaluator::StreamBaseStage : public StreamStage {
 public:
  StreamBaseStage(Evaluator* ev, const Sequence* base) : ev_(ev), base_(base) {}
  Result<xml::Node*> Front() override {
    return index_ < base_->size() ? base_->at(index_).node() : nullptr;
  }
  Status Pop() override {
    ++index_;
    return Status::Ok();
  }
  void Abandon() override {
    ev_->ChargeSkipped(base_->size() - index_);
    index_ = base_->size();
  }

 private:
  Evaluator* ev_;
  const Sequence* base_;
  size_t index_ = 0;
};

// One axis step: a lazy k-way merge of per-context StreamRuns.
class Evaluator::StreamAxisStage : public StreamStage {
 public:
  StreamAxisStage(Evaluator* ev, const PathStep* step, StreamStage* upstream)
      : ev_(ev), step_(step), upstream_(upstream) {}

  Result<xml::Node*> Front() override {
    LLL_RETURN_IF_ERROR(Settle());
    return heap_.empty() ? nullptr : heap_.front()->front();
  }

  Status Pop() override {
    LLL_RETURN_IF_ERROR(Settle());
    if (heap_.empty()) return Status::Ok();
    last_emitted_ = heap_.front()->front();
    return AdvanceMin();
  }

  void Abandon() override {
    for (StreamRun* run : heap_) run->AccountAbandoned();
    heap_.clear();
    upstream_->Abandon();
  }

 private:
  // Min-heap order, reading order keys FRESH at every comparison: a nested
  // evaluation (a predicate that sorts, a constructor) may rebuild the
  // order index mid-stream, but rebuilds preserve the relative order of
  // pre-existing nodes (trees are stamped in root-pointer order), so
  // comparisons between fresh reads stay correct where cached key values
  // would not.
  static bool HeapAfter(const StreamRun* a, const StreamRun* b) {
    return a->front()->order_key() > b->front()->order_key();
  }

  // Restores the two invariants behind Front(): (1) every upstream context
  // that could still produce the globally-next node has been activated --
  // forward-axis results have keys >= their context's key, so activation
  // stops once the next context's key exceeds the heap minimum; (2) the
  // heap minimum is not a duplicate of the last emitted node (overlapping
  // descendant runs yield the same node only at adjacent heap minima,
  // because emission is non-decreasing in key and keys identify nodes).
  Status Settle() {
    for (;;) {
      while (!upstream_done_) {
        LLL_ASSIGN_OR_RETURN(xml::Node* context, upstream_->Front());
        if (context == nullptr) {
          upstream_done_ = true;
          break;
        }
        if (!heap_.empty() &&
            context->order_key() > heap_.front()->front()->order_key()) {
          break;
        }
        LLL_RETURN_IF_ERROR(upstream_->Pop());
        runs_.emplace_back(ev_, step_, context);
        StreamRun& run = runs_.back();
        LLL_RETURN_IF_ERROR(run.Advance());
        if (run.front() != nullptr) {
          heap_.push_back(&run);
          std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
        }
      }
      if (heap_.empty() || heap_.front()->front() != last_emitted_) {
        return Status::Ok();
      }
      LLL_RETURN_IF_ERROR(AdvanceMin());
    }
  }

  Status AdvanceMin() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
    StreamRun* run = heap_.back();
    heap_.pop_back();
    LLL_RETURN_IF_ERROR(run->Advance());
    if (run->front() != nullptr) {
      heap_.push_back(run);
      std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
    }
    return Status::Ok();
  }

  Evaluator* ev_;
  const PathStep* step_;
  StreamStage* upstream_;
  std::deque<StreamRun> runs_;    // deque: stable addresses for heap_
  std::vector<StreamRun*> heap_;  // min-heap by front()->order_key()
  xml::Node* last_emitted_ = nullptr;
  bool upstream_done_ = false;
};

// One reverse-axis run from a single context node. The axis is enumerated
// natively in AXIS order -- which for parent/ancestor(-or-self)/
// preceding-sibling IS reverse document order, by construction: ancestor
// chains walk parent pointers upward and preceding siblings walk the child
// vector backwards, so no per-run sort is ever needed. Node test and
// predicates apply during that walk with per-run positional counting in axis
// order (so [1] selects the NEAREST ancestor/sibling, matching the
// materializing evaluator, and a literal [N] exhausts the walk at its N-th
// passer). Passing candidates are buffered and then served BACK to front,
// i.e. in document order, which is what lets the merge stage above compose
// with downstream forward stages and the shared early-exit contract.
class Evaluator::ReverseRun {
 public:
  ReverseRun(Evaluator* ev, const PathStep* step, xml::Node* context)
      : ev_(ev), step_(step) {
    switch (step->axis) {
      case Axis::kParent:
        chain_ = context->parent();
        chain_stop_after_first_ = true;
        break;
      case Axis::kAncestor:
        chain_ = context->parent();
        break;
      case Axis::kAncestorOrSelf:
        self_ = context;
        chain_ = context->parent();
        break;
      case Axis::kPrecedingSibling:
        // Attributes have an owner but no preceding siblings on this axis
        // (mirrors the materializing EvalStep guard). Their ANCESTOR chain,
        // by contrast, starts at the owner via parent().
        if (context->parent() != nullptr && !context->is_attribute()) {
          list_ = context->parent()->children();
          cursor_ = context->IndexInParent();  // candidates: [cursor_-1 .. 0]
        }
        break;
      default:
        break;  // forward axes run as StreamRuns
    }
    positions_.assign(step->predicates.size(), 0);
  }

  // Runs the whole axis walk, filling buffer_ with passing candidates in
  // reverse document order. Called once, at stage open; the stage is a
  // barrier anyway (see StreamReverseAxisStage), so there is nothing to
  // gain from enumerating lazily across Fill calls.
  Status Fill() {
    for (;;) {
      xml::Node* candidate = NextCandidate();
      if (candidate == nullptr) return Status::Ok();
      ++ev_->stats_.nodes_pulled;
      if (!MatchesTest(candidate, step_->test, step_->axis)) continue;
      bool keep = true;
      bool spent = false;
      for (size_t j = 0; j < step_->predicates.size() && keep; ++j) {
        const Expr& pred = *step_->predicates[j];
        size_t pos = ++positions_[j];
        bool outer_probe = ev_->suppress_skip_charges_;
        ev_->suppress_skip_charges_ = true;
        Result<bool> kept =
            ev_->PredicateKeep(pred, Item::NodeRef(candidate), pos,
                               /*size=*/pos);
        ev_->suppress_skip_charges_ = outer_probe;
        if (!kept.ok()) return kept.status();
        keep = *kept;
        if (pred.kind == ExprKind::kLiteral &&
            pred.literal_type == Expr::LiteralType::kInteger &&
            static_cast<int64_t>(pos) >= pred.integer) {
          spent = true;
        }
      }
      if (keep) buffer_.push_back(candidate);
      if (spent) {
        AccountAbandoned();  // the rest of the walk can never pass again
        return Status::Ok();
      }
    }
  }

  // Document-order serving over the reverse-ordered buffer.
  xml::Node* front() const {
    return serve_ == 0 ? nullptr : buffer_[serve_ - 1];
  }
  void Pop() {
    if (serve_ > 0) --serve_;
  }

  // Lower bound on candidates this run will now never examine. Unserved
  // BUFFERED nodes are not counted -- they were already visited (and
  // charged to nodes_pulled); the skip floor only covers the abandoned
  // remainder of the enumeration: the exact sibling-vector remainder, plus
  // one for a pending ancestor link (walking the chain just to count it
  // would defeat the point -- a floor, as documented on the stat).
  void AccountAbandoned() {
    size_t n = 0;
    if (self_ != nullptr) ++n;
    n += cursor_;
    if (chain_ != nullptr) ++n;
    ev_->ChargeSkipped(n);
    self_ = nullptr;
    list_ = xml::NodeList();
    cursor_ = 0;
    chain_ = nullptr;
  }

  void FinishFill() { serve_ = buffer_.size(); }

 private:
  // The next axis candidate in reverse document order, unfiltered.
  xml::Node* NextCandidate() {
    if (self_ != nullptr) {  // ancestor-or-self: self comes first (nearest)
      xml::Node* s = self_;
      self_ = nullptr;
      return s;
    }
    if (cursor_ > 0) return list_[--cursor_];
    if (chain_ != nullptr) {
      xml::Node* c = chain_;
      chain_ = chain_stop_after_first_ ? nullptr : c->parent();
      return c;
    }
    return nullptr;
  }

  Evaluator* ev_;
  const PathStep* step_;
  // Enumeration state; at most one of self_/list_/chain_ feeds at a time
  // (ancestor-or-self drains self_ first, then the parent chain).
  xml::Node* self_ = nullptr;
  xml::NodeList list_;  // empty when this enumeration source is not in use
  size_t cursor_ = 0;  // counts DOWN; candidates remaining in list_
  xml::Node* chain_ = nullptr;
  bool chain_stop_after_first_ = false;  // parent:: is a one-link chain
  std::vector<size_t> positions_;        // 1-based, in axis order
  std::vector<xml::Node*> buffer_;       // passers, reverse document order
  size_t serve_ = 0;                     // buffer_[serve_-1] is the front
};

// One reverse-axis step: a k-way document-order merge of per-context
// ReverseRuns. Unlike the forward stage this is a BARRIER: reverse-axis
// results have keys <= their context's key, so a context arriving later (in
// document order) can still produce the globally smallest result -- the
// root is an ancestor of everything. The stage therefore drains its
// upstream completely before the first emission; its win over the
// materializing path is not laziness upstream but (a) skipping the
// O(k log k) normalizing sort -- runs are pre-ordered and merging costs
// O(k log runs) -- and (b) per-run early exhaustion for literal [N]
// predicates, where [1] = the nearest ancestor/sibling ends each walk at
// its first passer. Duplicates (sibling contexts share ancestor chains)
// surface at adjacent heap minima exactly as in the forward stage, so the
// same last_emitted_ dedup applies.
class Evaluator::StreamReverseAxisStage : public StreamStage {
 public:
  StreamReverseAxisStage(Evaluator* ev, const PathStep* step,
                         StreamStage* upstream)
      : ev_(ev), step_(step), upstream_(upstream) {}

  Result<xml::Node*> Front() override {
    LLL_RETURN_IF_ERROR(Settle());
    return heap_.empty() ? nullptr : heap_.front()->front();
  }

  Status Pop() override {
    LLL_RETURN_IF_ERROR(Settle());
    if (heap_.empty()) return Status::Ok();
    last_emitted_ = heap_.front()->front();
    AdvanceMin();
    return Status::Ok();
  }

  void Abandon() override {
    // Runs were fully enumerated at open (or charged their own remainder
    // when a literal [N] exhausted them); unserved buffered nodes were
    // visited, not skipped, so there is nothing further to charge here.
    for (ReverseRun* run : heap_) run->AccountAbandoned();
    heap_.clear();
    upstream_->Abandon();
  }

 private:
  // Same fresh-read discipline as StreamAxisStage::HeapAfter; by merge time
  // every predicate has already run (fills are complete), but rebuilds
  // triggered further downstream still preserve relative keys.
  static bool HeapAfter(const ReverseRun* a, const ReverseRun* b) {
    return a->front()->order_key() > b->front()->order_key();
  }

  Status Settle() {
    if (!opened_) {
      opened_ = true;
      for (;;) {
        LLL_ASSIGN_OR_RETURN(xml::Node* context, upstream_->Front());
        if (context == nullptr) break;
        LLL_RETURN_IF_ERROR(upstream_->Pop());
        runs_.emplace_back(ev_, step_, context);
        ReverseRun& run = runs_.back();
        LLL_RETURN_IF_ERROR(run.Fill());
        run.FinishFill();
        if (run.front() != nullptr) {
          ++ev_->stats_.reverse_runs_merged;
          heap_.push_back(&run);
        }
      }
      std::make_heap(heap_.begin(), heap_.end(), HeapAfter);
    }
    while (!heap_.empty() && heap_.front()->front() == last_emitted_) {
      AdvanceMin();
    }
    return Status::Ok();
  }

  void AdvanceMin() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
    ReverseRun* run = heap_.back();
    heap_.pop_back();
    run->Pop();
    if (run->front() != nullptr) {
      heap_.push_back(run);
      std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
    }
  }

  Evaluator* ev_;
  const PathStep* step_;
  StreamStage* upstream_;
  std::deque<ReverseRun> runs_;    // deque: stable addresses for heap_
  std::vector<ReverseRun*> heap_;  // min-heap by front()->order_key()
  xml::Node* last_emitted_ = nullptr;
  bool opened_ = false;
};

// --- Path dispatch --------------------------------------------------------

Result<Sequence> Evaluator::EvalPath(const Expr& e) {
  return EvalPathImpl(e, kNoLimit);
}

Result<Sequence> Evaluator::EvalPathLimited(const Expr& e, size_t limit) {
  LLL_RETURN_IF_ERROR(StepBudget());
  if (profiler_ == nullptr) return EvalPathImpl(e, limit);
  obs::Profiler::Scope scope(profiler_, &e, [&e] { return DescribeSite(e); });
  Result<Sequence> result = EvalPathImpl(e, limit);
  if (result.ok()) scope.set_items(result->size());
  return result;
}

Result<Sequence> Evaluator::EvalPathImpl(const Expr& e, size_t limit) {
  Sequence current;
  if (e.has_base) {
    const Expr& base = *e.children[0];
    // (BASE)[N] push-down: when the first step is a filter whose single
    // predicate is a positive integer literal, only the first N items of
    // BASE can matter -- stream BASE with that cap. Sound only because the
    // filter step has no other predicate (a second predicate would see a
    // truncated focus size) and both evaluation modes return node results
    // normalized, so "first N" is the same set either way.
    size_t base_limit = kNoLimit;
    if (options_.streaming && base.kind == ExprKind::kPath &&
        !e.steps.empty() && e.steps[0].is_filter &&
        e.steps[0].predicates.size() == 1) {
      const Expr& p = *e.steps[0].predicates[0];
      if (p.kind == ExprKind::kLiteral &&
          p.literal_type == Expr::LiteralType::kInteger && p.integer >= 1) {
        base_limit = static_cast<size_t>(p.integer);
      }
    }
    if (base_limit != kNoLimit) {
      LLL_ASSIGN_OR_RETURN(current, EvalPathLimited(base, base_limit));
    } else {
      LLL_ASSIGN_OR_RETURN(current, Eval(base));
    }
  } else if (e.rooted) {
    LLL_ASSIGN_OR_RETURN(Focus f, RequireFocus(e));
    if (!f.item.is_node()) {
      return Status::TypeError("'/' requires the context item to be a node");
    }
    current = Sequence(Item::NodeRef(f.item.node()->Root()));
  } else {
    LLL_ASSIGN_OR_RETURN(Focus f, RequireFocus(e));
    current = Sequence(f.item);
  }
  size_t first = 0;
  if (limit == kNoLimit) {
    LLL_ASSIGN_OR_RETURN(first, InternPrefix(e, &current));
  }
  return EvalStepsRange(e, first, e.steps.size(), std::move(current), limit);
}

Result<size_t> Evaluator::InternPrefix(const Expr& e, Sequence* current) {
  NodeSetCache* cache = options_.nodeset_cache;
  if (cache == nullptr || e.steps.empty()) return 0;
  if (current->size() != 1 || !current->at(0).is_node()) return 0;
  xml::Node* base = current->at(0).node();
  // Any tree root qualifies: a document node, or a parentless element such
  // as a docgen phase's input. Nothing a chain reaches from a root lies
  // outside its subtree, which the guards below cover. (An attribute's
  // parent() is its owner; a detached one is no root.)
  if (base->parent() != nullptr || base->is_attribute() ||
      base->document() == nullptr) {
    return 0;
  }
  // Never intern sets rooted in this execution's construction arena (e.g.
  // `document { ... }` results): the arena dies with the query, while the
  // cache (session- or backend-scoped) lives on, and the next execution's
  // arena is likely reallocated at the same address -- the stamp alone
  // cannot make raw pointers into a freed arena safe to hand out.
  if (base->document() == ctx_->construction_arena()) return 0;

  // The internable prefix: leading axis steps that are pure functions of
  // the tree. Predicate-free steps qualify outright; steps whose predicates
  // are all intern-foldable (no position()/last()/variables/effects, only
  // downward reads -- see optimizer.h) qualify too, with the predicates'
  // canonical text folded into the fingerprint so `model[@id="a"]` and
  // `model[@id="b"]` intern separately.
  size_t prefix = 0;
  std::string fingerprint;
  for (const PathStep& step : e.steps) {
    if (step.is_filter) break;
    if (!step.predicates.empty() && !StepPredicatesFoldable(step)) break;
    AppendStepFingerprint(step, /*with_predicates=*/true, &fingerprint);
    ++prefix;
  }

  // The probe extension (DESIGN.md section 16): the first step that cannot
  // fold still interns its bare axis::test when its first predicate is a
  // probe -- every `doc("m")//node-type[@name = $t]` shares the candidates
  // `//node-type` interns -- and the probe filters them through an index.
  // Later predicates need per-context positions, which only the child axis
  // recovers (grouped by parent), unless the plan proved them position-free;
  // other axes need a lone probe.
  if (options_.streaming && prefix < e.steps.size()) {
    const PathStep& step = e.steps[prefix];
    if (!step.is_filter && !step.predicates.empty() &&
        step.predicates[0]->probe_key >= 0 &&
        (step.axis == Axis::kChild || step.predicates.size() == 1 ||
         step.position_free)) {
      std::string bare = fingerprint;
      AppendStepFingerprint(step, /*with_predicates=*/false, &bare);
      LLL_ASSIGN_OR_RETURN(
          Sequence candidates,
          InternChain(e, prefix + 1, /*bare_last=*/true, base, bare, *current));
      LLL_ASSIGN_OR_RETURN(std::optional<Sequence> probed,
                           ProbeStep(e, step, candidates));
      if (probed.has_value()) {
        *current = std::move(*probed);
        return prefix + 1;
      }
      // The probe does not apply (a key that is not all strings): intern
      // the plain prefix below and let the step run its per-candidate loop.
    }
  }
  if (prefix == 0) return 0;
  LLL_ASSIGN_OR_RETURN(*current, InternChain(e, prefix, /*bare_last=*/false,
                                             base, fingerprint, *current));
  return prefix;
}

Result<Sequence> Evaluator::InternChain(const Expr& e, size_t steps,
                                        bool bare_last, xml::Node* base,
                                        const std::string& fingerprint,
                                        const Sequence& start) {
  NodeSetCache* cache = options_.nodeset_cache;
  xml::Document* doc = base->document();
  std::string key = NodeSetCache::MakeKey(base, fingerprint);
  NodeSetCache::Outcome outcome = NodeSetCache::Outcome::kMiss;
  if (std::shared_ptr<const CachedNodeSet> hit =
          cache->Get(doc, key, &outcome)) {
    ++stats_.nodeset_cache_hits;
    return hit->nodes;  // copy of a normalized sequence; bit carries over
  }
  if (outcome == NodeSetCache::Outcome::kStale ||
      outcome == NodeSetCache::Outcome::kStalePartial) {
    // A failed version guard, not a cold key: count it as an invalidation
    // (and, when the entry was scoped below the document, as a partial one
    // -- the subtree guards confined the damage to this chain).
    ++stats_.nodeset_cache_invalidations;
    if (outcome == NodeSetCache::Outcome::kStalePartial) {
      ++stats_.nodeset_cache_partial_invalidations;
    }
  } else {
    ++stats_.nodeset_cache_misses;
  }

  // Read the guard versions BEFORE computing, so an entry can only ever be
  // stamped too old (a harmless re-miss), never too new.
  std::vector<CachedNodeSet::Guard> guards;
  bool subtree_scoped = false;
  if (options_.subtree_guards) {
    ComputeInternGuards(e, steps, bare_last, base, &guards, &subtree_scoped);
  } else {
    // Subtree scoping forced off: one kSubtree guard at the document node,
    // so any edit anywhere evicts the entry, and subtree_scoped stays false
    // so the eviction counts as a FULL invalidation in the stats.
    guards.push_back(
        NodeSetCache::GuardFor(base, CachedNodeSet::GuardKind::kSubtree));
  }
  size_t full = bare_last ? steps - 1 : steps;
  LLL_ASSIGN_OR_RETURN(Sequence computed,
                       EvalStepsRange(e, 0, full, start, kNoLimit));
  if (bare_last && !computed.empty()) {
    PathStep bare;
    bare.axis = e.steps[full].axis;
    bare.test = e.steps[full].test;
    Result<Sequence> stepped = EvalStep(bare, computed);
    if (!stepped.ok()) {
      Status st = stepped.status();
      return st.AddContext("in path expression" + LocationSuffix(e));
    }
    computed = std::move(*stepped);
    SortDedup(&computed, false);
  }
  if (computed.empty() || SingleDocumentOf(computed) == doc) {
    cache->Put(key, doc->doc_id(), std::move(guards), subtree_scoped,
               computed);
  }
  return computed;
}

Result<std::optional<Sequence>> Evaluator::ProbeStep(
    const Expr& e, const PathStep& step, const Sequence& candidates) {
  auto located = [&e](Status st) -> Status {
    return st.AddContext("in path expression" + LocationSuffix(e));
  };
  if (candidates.size() < 2) {
    // At most one candidate means at most one context contributes it: the
    // per-context predicate loop is exactly this one.
    Result<Sequence> kept = ApplyPredicates(step.predicates, candidates);
    if (!kept.ok()) return located(kept.status());
    return std::optional<Sequence>(std::move(*kept));
  }
  Result<std::optional<std::vector<uint32_t>>> probed =
      ProbeHits(*step.predicates[0], candidates);
  if (!probed.ok()) return located(probed.status());
  if (!probed->has_value()) return std::optional<Sequence>();
  std::vector<uint32_t> hits = std::move(**probed);
  if (step.predicates.size() > 1 && step.axis == Axis::kChild) {
    // Later predicates count positions per context, i.e. per parent here:
    // apply them group by group, parents in document order (the context
    // order of the per-context loop, which fixes trace and error order).
    candidates.at(0).node()->document()->EnsureOrderIndex();
    std::vector<std::pair<uint64_t, uint32_t>> by_parent;
    by_parent.reserve(hits.size());
    for (uint32_t i : hits) {
      by_parent.emplace_back(candidates.at(i).node()->parent()->order_key(),
                             i);
    }
    std::stable_sort(
        by_parent.begin(), by_parent.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<bool> keep(candidates.size(), false);
    for (size_t g = 0; g < by_parent.size();) {
      size_t end = g;
      Sequence group;
      while (end < by_parent.size() &&
             by_parent[end].first == by_parent[g].first) {
        group.Append(candidates.at(by_parent[end++].second));
      }
      Result<Sequence> kept =
          ApplyPredicates(step.predicates, std::move(group), /*first=*/1);
      if (!kept.ok()) return located(kept.status());
      // `kept` is an order-preserving subsequence of the group.
      size_t k = 0;
      for (size_t j = g; j < end && k < kept->size(); ++j) {
        if (kept->at(k).node() == candidates.at(by_parent[j].second).node()) {
          keep[by_parent[j].second] = true;
          ++k;
        }
      }
      g = end;
    }
    hits.erase(std::remove_if(hits.begin(), hits.end(),
                              [&keep](uint32_t i) { return !keep[i]; }),
               hits.end());
  }
  Sequence out;
  for (uint32_t i : hits) out.Append(candidates.at(i));
  if (step.predicates.size() > 1 && step.axis != Axis::kChild) {
    // Position-free later predicates (InternPrefix checked the plan's bit)
    // judge each hit alike whichever context produced it: one pass over all.
    Result<Sequence> kept =
        ApplyPredicates(step.predicates, std::move(out), /*first=*/1);
    if (!kept.ok()) return located(kept.status());
    out = std::move(*kept);
  }
  out.MarkOrderedDeduped();  // a subsequence of the normalized candidates
  return std::optional<Sequence>(std::move(out));
}

Result<std::optional<std::vector<uint32_t>>> Evaluator::ProbeHits(
    const Expr& pred, const Sequence& candidates) {
  using Hits = std::optional<std::vector<uint32_t>>;
  if (candidates.size() < 2 || SingleDocumentOf(candidates) == nullptr) {
    return Hits();
  }
  // The optimizer proved the key cannot read the candidate, so one
  // evaluation stands for all of them -- including a failing one: the
  // per-candidate loop would raise the same error at its first candidate.
  LLL_ASSIGN_OR_RETURN(Sequence key, Eval(*pred.children[pred.probe_key]));
  Sequence atoms = key.Atomized();
  for (const Item& atom : atoms.items()) {
    // Numbers and booleans compare by value, not by string (@n = 3 matches
    // "3.0"): leave them to the per-candidate loop.
    if (!atom.is_stringlike()) return Hits();
  }
  ++stats_.probe_filters;
  std::vector<uint32_t> hits;
  if (atoms.empty()) return Hits(std::move(hits));
  const std::string& attr =
      pred.children[1 - pred.probe_key]->steps[0].test.name;
  uint64_t hash = HashNodes(candidates);
  const ProbeIndex* index = nullptr;
  for (const std::unique_ptr<ProbeIndex>& memo : probe_indexes_) {
    if (memo->Matches(attr, hash, candidates)) {
      index = memo.get();
      break;
    }
  }
  std::unique_ptr<ProbeIndex> built;
  if (index == nullptr) {
    built = std::make_unique<ProbeIndex>();
    built->attr = attr;
    built->hash = hash;
    built->candidates.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const xml::Node* n = candidates.at(i).node();
      built->candidates.push_back(n);
      for (const xml::Node* a : n->attributes()) {
        if (a->name() != attr) continue;
        std::vector<uint32_t>& postings = built->postings[a->value()];
        // A duplicate-named attribute must not list its owner twice.
        if (postings.empty() || postings.back() != i) {
          postings.push_back(static_cast<uint32_t>(i));
        }
      }
    }
    ++stats_.probe_index_builds;
    index = built.get();
  }
  for (const Item& atom : atoms.items()) {
    auto it = index->postings.find(atom.string_value());
    if (it != index->postings.end()) {
      hits.insert(hits.end(), it->second.begin(), it->second.end());
    }
  }
  if (atoms.size() > 1) {
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  }
  if (built != nullptr && candidates.size() <= kMaxProbeIndexedCandidates) {
    // Memoize, evicting the oldest indexes to stay inside the bounds.
    while (!probe_indexes_.empty() &&
           (probe_indexes_.size() >= kMaxProbeIndexes ||
            probe_indexed_candidates_ + candidates.size() >
                kMaxProbeIndexedCandidates)) {
      probe_indexed_candidates_ -= probe_indexes_.front()->candidates.size();
      probe_indexes_.erase(probe_indexes_.begin());
    }
    probe_indexed_candidates_ += candidates.size();
    probe_indexes_.push_back(std::move(built));
  }
  return Hits(std::move(hits));
}

bool Evaluator::StepPredicatesFoldable(const PathStep& step) const {
  auto is_user = [this](const std::string& name, size_t arity) {
    return functions_.count({name, arity}) != 0;
  };
  for (const ExprPtr& p : step.predicates) {
    if (p == nullptr || !InternFoldablePredicate(*p, is_user)) return false;
  }
  return true;
}

bool Evaluator::StepPredicatesAttributeOnly(const PathStep& step) const {
  auto is_user = [this](const std::string& name, size_t arity) {
    return functions_.count({name, arity}) != 0;
  };
  for (const ExprPtr& p : step.predicates) {
    if (p == nullptr || !InternAttributeOnlyPredicate(*p, is_user)) {
      return false;
    }
  }
  return true;
}

void Evaluator::ComputeInternGuards(const Expr& e, size_t prefix,
                                    bool bare_last, xml::Node* base,
                                    std::vector<CachedNodeSet::Guard>* guards,
                                    bool* subtree_scoped) {
  using Guard = CachedNodeSet::Guard;
  using GuardKind = CachedNodeSet::GuardKind;
  constexpr size_t kMaxGuards = 16;
  auto push = [guards](const xml::Node* n, GuardKind kind) {
    guards->push_back(NodeSetCache::GuardFor(n, kind));
  };

  // A non-downward axis anywhere in the prefix (parent/ancestor/siblings)
  // can read outside any subtree scope the descent below would establish;
  // one whole-tree guard on the base covers everything such a chain sees.
  // (This is also today's whole-document behavior, now expressed as the
  // coarsest point of the guard lattice.)
  for (size_t i = 0; i < prefix; ++i) {
    switch (e.steps[i].axis) {
      case Axis::kChild:
      case Axis::kAttribute:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kSelf:
        continue;
      default:
        push(base, GuardKind::kSubtree);
        *subtree_scoped = false;
        return;
    }
  }

  // Descend from the base through steps that provably resolve to a single
  // element, pinning each level with the narrowest guard that dominates it:
  //
  //   child::name (no predicates)  the selection depends only on ctx's own
  //                                child list              -> {ctx, kLocal}
  //   child::name[attr-only preds] ...plus the candidates' attribute state
  //                       -> {ctx, kLocal} + {ctx, kLocalChildren}
  //
  // and stop with a whole-subtree guard at the first step that fans out,
  // matches nothing, or reads deeper than attributes. Every intermediate
  // singleton also stays pinned, so moving or renaming any node on the
  // resolved path invalidates the chain through its parent's kLocal guard.
  xml::Node* ctx = base;
  for (size_t i = 0; i < prefix; ++i) {
    const PathStep& step = e.steps[i];
    const bool last = i + 1 == prefix;
    // A bare last step is interned without its predicates.
    const bool unfiltered = step.predicates.empty() || (bare_last && last);
    if (guards->size() + 2 > kMaxGuards) {
      push(ctx, GuardKind::kSubtree);
      break;
    }
    if (step.axis == Axis::kChild && step.test.kind == NodeTestKind::kName &&
        unfiltered) {
      push(ctx, GuardKind::kLocal);
      if (last) break;
      xml::Node* match = nullptr;
      bool unique = true;
      for (xml::Node* c : ctx->children()) {
        if (c->is_element() && c->name() == step.test.name) {
          if (match != nullptr) {
            unique = false;
            break;
          }
          match = c;
        }
      }
      if (unique && match != nullptr) {
        ctx = match;
        continue;
      }
      push(ctx, GuardKind::kSubtree);
      break;
    }
    if (step.axis == Axis::kChild && step.test.kind == NodeTestKind::kName &&
        !unfiltered && StepPredicatesAttributeOnly(step)) {
      push(ctx, GuardKind::kLocal);
      push(ctx, GuardKind::kLocalChildren);
      if (last) break;
      // Resolve through the predicate with the real evaluator so the
      // singleton decision matches evaluation semantics exactly; shield the
      // main evaluation's stats, focus, and profile from the probe (it must
      // be invisible -- a guard-quality refinement, not an evaluation).
      EvalStats saved_stats = stats_;
      Focus saved_focus = focus_;
      obs::Profiler* saved_profiler = profiler_;
      profiler_ = nullptr;
      Result<Sequence> selected =
          EvalStep(step, Sequence(Item::NodeRef(ctx)));
      profiler_ = saved_profiler;
      stats_ = saved_stats;
      focus_ = saved_focus;
      if (selected.ok() && selected->size() == 1 &&
          selected->at(0).is_node() && selected->at(0).node()->is_element()) {
        ctx = selected->at(0).node();
        continue;
      }
      push(ctx, GuardKind::kSubtree);
      break;
    }
    if (step.axis == Axis::kAttribute && unfiltered && last) {
      // An attribute set depends only on the owner's own attribute state.
      push(ctx, GuardKind::kLocal);
      break;
    }
    // descendant/self steps, wildcards, folded general predicates: the
    // result can depend on anything beneath ctx.
    push(ctx, GuardKind::kSubtree);
    break;
  }

  *subtree_scoped = false;
  for (const Guard& g : *guards) {
    if (g.node != base->index()) {
      *subtree_scoped = true;
      break;
    }
  }
}

Result<Sequence> Evaluator::EvalStepsRange(const Expr& e, size_t first,
                                           size_t last, Sequence current,
                                           size_t limit) {
  if (first >= last) return current;
  bool streamable = options_.streaming && !current.empty();
  if (streamable) {
    for (size_t i = first; i < last; ++i) {
      if (!StepStreamable(e.steps[i])) {
        streamable = false;
        break;
      }
    }
  }
  if (streamable && SingleDocumentOf(current) != nullptr) {
    // The pipeline needs its context runs activated in document order.
    SortDedup(&current, false);
    Result<Sequence> streamed =
        EvalStepsStreamed(e, first, last, std::move(current), limit);
    if (!streamed.ok()) {
      Status st = streamed.status();
      return st.AddContext("in path expression" + LocationSuffix(e));
    }
    return streamed;
  }
  return EvalStepsMaterialized(e, first, last, std::move(current));
}

// Step-wise evaluation with inter-step normalization: after each axis step
// the intermediate sequence is brought back to document order without
// duplicates, which is exactly the precondition under which the optimizer's
// static proof (PathStep::statically_ordered) and the dynamic OrderProp
// tracking below are sound. The static annotation covers whole-path proofs
// from a known source; the dynamic side upgrades on runtime evidence the
// optimizer cannot see (singleton intermediates, sequences that already
// carry the ordered_deduped bit). This loop is also the streaming=false
// baseline, byte-identical to the pre-streaming evaluator.
Result<Sequence> Evaluator::EvalStepsMaterialized(const Expr& e, size_t first,
                                                  size_t last,
                                                  Sequence current) {
  const bool tracking = options_.order_tracking;
  OrderProp prop = OrderProp::kNone;
  for (size_t step_index = first; step_index < last; ++step_index) {
    const PathStep& step = e.steps[step_index];
    // Dynamic upgrades, checked against the CURRENT sequence before the step.
    if (tracking) {
      if (current.size() <= 1) {
        prop = OrderProp::kSingleton;
      } else if (prop == OrderProp::kNone && current.ordered_deduped()) {
        prop = OrderProp::kOrdered;
      }
    }
    if (step.is_filter) {
      // Predicates select a subsequence, preserving order/dedup/disjointness.
      LLL_ASSIGN_OR_RETURN(current,
                           ApplyPredicates(step.predicates, current));
      if (prop != OrderProp::kNone && current.AllNodes()) {
        current.MarkOrderedDeduped();
      }
      if (current.empty()) return current;
      continue;
    }
    Result<Sequence> stepped = EvalStep(step, current);
    if (!stepped.ok()) {
      Status st = stepped.status();
      return st.AddContext("in path expression" + LocationSuffix(e));
    }
    current = std::move(*stepped);
    prop = TransferOrder(prop, step.axis);
    if (tracking && prop == OrderProp::kNone && step.statically_ordered) {
      prop = OrderProp::kOrdered;
    }
    if (current.AllNodes()) {
      SortDedup(&current, tracking && prop != OrderProp::kNone);
    } else {
      prop = OrderProp::kNone;  // atomics (e.g. data-producing last step)
    }
    if (current.empty()) return current;
  }
  return current;
}

Result<Sequence> Evaluator::EvalStepsStreamed(const Expr& e, size_t first,
                                              size_t last, Sequence current,
                                              size_t limit) {
  // Preconditions (enforced by EvalStepsRange): nonempty, all nodes of one
  // document, steps [first, last) all pass StepStreamable. One index build
  // up front covers the whole pull -- rebuild-on-mutation keeps relative
  // keys stable (see HeapAfter).
  current.at(0).node()->document()->EnsureOrderIndex();
  StreamBaseStage base(this, &current);
  std::vector<std::unique_ptr<StreamStage>> stages;
  StreamStage* top = &base;
  for (size_t i = first; i < last; ++i) {
    const PathStep* step = &e.steps[i];
    if (IsReverseStreamableAxis(step->axis)) {
      stages.push_back(
          std::make_unique<StreamReverseAxisStage>(this, step, top));
    } else {
      stages.push_back(std::make_unique<StreamAxisStage>(this, step, top));
    }
    top = stages.back().get();
  }
  // Predicate evaluation inside runs sets the focus; restore around the
  // whole pull (PredicateKeep leaves it dirty by contract).
  Focus saved = focus_;
  Sequence out;
  Status failure;
  while (out.size() < limit) {
    Result<xml::Node*> front = top->Front();
    if (!front.ok()) {
      failure = front.status();
      break;
    }
    if (*front == nullptr) break;
    out.Append(Item::NodeRef(*front));
    Status popped = top->Pop();
    if (!popped.ok()) {
      failure = popped;
      break;
    }
  }
  focus_ = saved;
  LLL_RETURN_IF_ERROR(failure);
  if (out.size() >= limit) top->Abandon();
  out.MarkOrderedDeduped();  // Append clears the bit; emission order proves it
  return out;
}

Result<bool> Evaluator::EvalEffectiveBoolean(const Expr& e) {
  if (options_.streaming && IsNodePathShape(e)) {
    LLL_ASSIGN_OR_RETURN(Sequence probe, EvalPathLimited(e, 1));
    return !probe.empty();
  }
  LLL_ASSIGN_OR_RETURN(Sequence value, Eval(e));
  return xdm::EffectiveBooleanValue(value);
}

Result<Sequence> Evaluator::EvalStep(const PathStep& step,
                                     const Sequence& input) {
  if (step.is_filter) {
    return ApplyPredicates(step.predicates, input);
  }
  Sequence result;
  for (const Item& context : input.items()) {
    if (!context.is_node()) {
      return Status::TypeError(
          "path step applied to an atomic value (err:XPTY0019)");
    }
    xml::Node* node = context.node();
    std::vector<xml::Node*> axis_nodes;
    switch (step.axis) {
      case Axis::kChild:
        axis_nodes.assign(node->children().begin(), node->children().end());
        break;
      case Axis::kAttribute:
        axis_nodes.assign(node->attributes().begin(),
                          node->attributes().end());
        break;
      case Axis::kSelf:
        axis_nodes.push_back(node);
        break;
      case Axis::kDescendant:
        CollectDescendants(node, &axis_nodes);
        break;
      case Axis::kDescendantOrSelf:
        axis_nodes.push_back(node);
        CollectDescendants(node, &axis_nodes);
        break;
      case Axis::kParent:
        if (node->parent() != nullptr) axis_nodes.push_back(node->parent());
        break;
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        if (step.axis == Axis::kAncestorOrSelf) axis_nodes.push_back(node);
        for (xml::Node* p = node->parent(); p != nullptr; p = p->parent()) {
          axis_nodes.push_back(p);  // reverse document order, per the axis
        }
        break;
      }
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling: {
        xml::Node* parent = node->parent();
        if (parent == nullptr || node->is_attribute()) break;
        const auto& sibs = parent->children();
        size_t index = node->IndexInParent();
        if (step.axis == Axis::kFollowingSibling) {
          for (size_t i = index + 1; i < sibs.size(); ++i) {
            axis_nodes.push_back(sibs[i]);
          }
        } else {
          for (size_t i = index; i-- > 0;) {
            axis_nodes.push_back(sibs[i]);  // reverse document order
          }
        }
        break;
      }
    }
    Sequence candidates;
    for (xml::Node* candidate : axis_nodes) {
      if (MatchesTest(candidate, step.test, step.axis)) {
        candidates.Append(Item::NodeRef(candidate));
      }
    }
    LLL_ASSIGN_OR_RETURN(Sequence filtered,
                         ApplyPredicates(step.predicates, candidates));
    result.AppendSequence(std::move(filtered));
  }
  // Normalization (sort + dedup) happens in EvalPath, where the order
  // analysis can prove it unnecessary; EvalStep returns the raw
  // per-context concatenation.
  return result;
}

Result<Sequence> Evaluator::ApplyPredicates(const std::vector<ExprPtr>& preds,
                                            Sequence candidates,
                                            size_t first) {
  for (size_t p = first; p < preds.size(); ++p) {
    const ExprPtr& pred = preds[p];
    if (options_.streaming && pred->probe_key >= 0) {
      LLL_ASSIGN_OR_RETURN(std::optional<std::vector<uint32_t>> hits,
                           ProbeHits(*pred, candidates));
      if (hits.has_value()) {
        Sequence kept;
        for (uint32_t i : *hits) kept.Append(candidates.at(i));
        candidates = std::move(kept);
        continue;
      }
    }
    Sequence kept;
    Focus saved = focus_;
    size_t size = candidates.size();
    for (size_t i = 0; i < size; ++i) {
      Result<bool> keep = PredicateKeep(*pred, candidates.at(i), i + 1, size);
      if (!keep.ok()) {
        focus_ = saved;
        return keep.status();
      }
      if (*keep) kept.Append(candidates.at(i));
    }
    focus_ = saved;
    candidates = std::move(kept);
  }
  return candidates;
}

Result<bool> Evaluator::PredicateKeep(const Expr& pred, const Item& item,
                                      size_t position, size_t size) {
  // A literal integer predicate is a pure position test: skip the Eval.
  // Gated on the streaming knob so streaming=false reproduces the baseline
  // evaluator's work (and step counts) exactly.
  if (options_.streaming && pred.kind == ExprKind::kLiteral &&
      pred.literal_type == Expr::LiteralType::kInteger) {
    return static_cast<double>(position) == static_cast<double>(pred.integer);
  }
  focus_.item = item;
  focus_.position = position;
  focus_.size = size;
  focus_.valid = true;
  // A predicate that is itself a node-producing path can only be judged by
  // (non-)emptiness -- a node sequence is never a numeric singleton -- so
  // one pulled node decides it.
  if (options_.streaming && IsNodePathShape(pred)) {
    LLL_ASSIGN_OR_RETURN(Sequence probe, EvalPathLimited(pred, 1));
    return !probe.empty();
  }
  LLL_ASSIGN_OR_RETURN(Sequence value, Eval(pred));
  // A singleton strictly-numeric predicate is a position test.
  if (value.size() == 1 && value.at(0).is_numeric()) {
    LLL_ASSIGN_OR_RETURN(double want, value.at(0).NumericValue());
    return static_cast<double>(position) == want;
  }
  return xdm::EffectiveBooleanValue(value);
}

// --- Binary operators ---------------------------------------------------

Result<Sequence> Evaluator::EvalBinary(const Expr& e) {
  switch (e.op) {
    case BinOp::kOr:
    case BinOp::kAnd: {
      LLL_ASSIGN_OR_RETURN(bool lv, EvalEffectiveBoolean(*e.children[0]));
      if (e.op == BinOp::kOr && lv) return Sequence(Item::Boolean(true));
      if (e.op == BinOp::kAnd && !lv) return Sequence(Item::Boolean(false));
      LLL_ASSIGN_OR_RETURN(bool rv, EvalEffectiveBoolean(*e.children[1]));
      return Sequence(Item::Boolean(rv));
    }
    case BinOp::kGenEq:
    case BinOp::kGenNe:
    case BinOp::kGenLt:
    case BinOp::kGenLe:
    case BinOp::kGenGt:
    case BinOp::kGenGe: {
      LLL_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.children[0]));
      LLL_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.children[1]));
      xdm::CompareOp op;
      switch (e.op) {
        case BinOp::kGenEq: op = xdm::CompareOp::kEq; break;
        case BinOp::kGenNe: op = xdm::CompareOp::kNe; break;
        case BinOp::kGenLt: op = xdm::CompareOp::kLt; break;
        case BinOp::kGenLe: op = xdm::CompareOp::kLe; break;
        case BinOp::kGenGt: op = xdm::CompareOp::kGt; break;
        default: op = xdm::CompareOp::kGe; break;
      }
      LLL_ASSIGN_OR_RETURN(bool truth, xdm::GeneralCompare(op, lhs, rhs));
      return Sequence(Item::Boolean(truth));
    }
    case BinOp::kValEq:
    case BinOp::kValNe:
    case BinOp::kValLt:
    case BinOp::kValLe:
    case BinOp::kValGt:
    case BinOp::kValGe: {
      LLL_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.children[0]));
      LLL_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.children[1]));
      Sequence la = lhs.Atomized();
      Sequence ra = rhs.Atomized();
      if (la.empty() || ra.empty()) return Sequence();
      LLL_ASSIGN_OR_RETURN(Item li, xdm::RequireSingleton(la, BinOpName(e.op)));
      LLL_ASSIGN_OR_RETURN(Item ri, xdm::RequireSingleton(ra, BinOpName(e.op)));
      xdm::CompareOp op;
      switch (e.op) {
        case BinOp::kValEq: op = xdm::CompareOp::kEq; break;
        case BinOp::kValNe: op = xdm::CompareOp::kNe; break;
        case BinOp::kValLt: op = xdm::CompareOp::kLt; break;
        case BinOp::kValLe: op = xdm::CompareOp::kLe; break;
        case BinOp::kValGt: op = xdm::CompareOp::kGt; break;
        default: op = xdm::CompareOp::kGe; break;
      }
      LLL_ASSIGN_OR_RETURN(bool truth, xdm::ValueCompare(op, li, ri));
      return Sequence(Item::Boolean(truth));
    }
    case BinOp::kIs: {
      LLL_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.children[0]));
      LLL_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.children[1]));
      if (lhs.empty() || rhs.empty()) return Sequence();
      LLL_ASSIGN_OR_RETURN(Item li, xdm::RequireSingleton(lhs, "is"));
      LLL_ASSIGN_OR_RETURN(Item ri, xdm::RequireSingleton(rhs, "is"));
      if (!li.is_node() || !ri.is_node()) {
        return Status::TypeError("'is' requires node operands");
      }
      return Sequence(Item::Boolean(li.node() == ri.node()));
    }
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
    case BinOp::kIdiv:
    case BinOp::kMod:
      return EvalArithmetic(e);
    case BinOp::kUnion:
    case BinOp::kIntersect:
    case BinOp::kExcept: {
      LLL_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.children[0]));
      LLL_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.children[1]));
      if (!lhs.AllNodes() || !rhs.AllNodes()) {
        return Status::TypeError(std::string(BinOpName(e.op)) +
                                 " requires node sequences");
      }
      Sequence out;
      if (e.op == BinOp::kUnion) {
        out = std::move(lhs);
        out.AppendSequence(std::move(rhs));
      } else {
        bool lhs_ordered = lhs.ordered_deduped();
        auto contains = [](const Sequence& seq, const xml::Node* n) {
          for (const Item& it : seq.items()) {
            if (it.node() == n) return true;
          }
          return false;
        };
        for (const Item& it : lhs.items()) {
          bool in_rhs = contains(rhs, it.node());
          if ((e.op == BinOp::kIntersect) == in_rhs) out.Append(it);
        }
        // Filtering an ordered-deduped lhs preserves order and dedup.
        if (lhs_ordered) out.MarkOrderedDeduped();
      }
      SortDedup(&out, false);
      return out;
    }
    case BinOp::kTo: {
      LLL_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.children[0]));
      LLL_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.children[1]));
      Sequence la = lhs.Atomized();
      Sequence ra = rhs.Atomized();
      if (la.empty() || ra.empty()) return Sequence();
      LLL_ASSIGN_OR_RETURN(Item li, xdm::RequireSingleton(la, "to"));
      LLL_ASSIGN_OR_RETURN(Item ri, xdm::RequireSingleton(ra, "to"));
      LLL_ASSIGN_OR_RETURN(double lo_d, li.NumericValue());
      LLL_ASSIGN_OR_RETURN(double hi_d, ri.NumericValue());
      int64_t lo = static_cast<int64_t>(lo_d);
      int64_t hi = static_cast<int64_t>(hi_d);
      if (lo > hi) return Sequence();
      if (hi - lo >= (1 << 24)) {
        return Status::OutOfRange("range 'to' larger than 16M items");
      }
      Sequence out;
      for (int64_t v = lo; v <= hi; ++v) out.Append(Item::Integer(v));
      return out;
    }
  }
  return Status::Internal("unhandled binary operator");
}

Result<Sequence> Evaluator::EvalArithmetic(const Expr& e) {
  LLL_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.children[0]));
  LLL_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.children[1]));
  Sequence la = lhs.Atomized();
  Sequence ra = rhs.Atomized();
  if (la.empty() || ra.empty()) return Sequence();
  LLL_ASSIGN_OR_RETURN(Item li, xdm::RequireSingleton(la, BinOpName(e.op)));
  LLL_ASSIGN_OR_RETURN(Item ri, xdm::RequireSingleton(ra, BinOpName(e.op)));
  bool both_integer = li.kind() == xdm::ItemKind::kInteger &&
                      ri.kind() == xdm::ItemKind::kInteger;
  LLL_ASSIGN_OR_RETURN(double a, li.NumericValue());
  LLL_ASSIGN_OR_RETURN(double b, ri.NumericValue());
  switch (e.op) {
    case BinOp::kAdd:
      if (both_integer) {
        return Sequence(Item::Integer(li.integer_value() + ri.integer_value()));
      }
      return Sequence(Item::Double(a + b));
    case BinOp::kSub:
      if (both_integer) {
        return Sequence(Item::Integer(li.integer_value() - ri.integer_value()));
      }
      return Sequence(Item::Double(a - b));
    case BinOp::kMul:
      if (both_integer) {
        return Sequence(Item::Integer(li.integer_value() * ri.integer_value()));
      }
      return Sequence(Item::Double(a * b));
    case BinOp::kDiv:
      if (both_integer && ri.integer_value() == 0) {
        return Status::Invalid("division by zero (err:FOAR0001)" +
                               LocationSuffix(e));
      }
      return Sequence(Item::Double(a / b));
    case BinOp::kIdiv: {
      if (b == 0) {
        return Status::Invalid("division by zero (err:FOAR0001)" +
                               LocationSuffix(e));
      }
      double q = a / b;
      return Sequence(Item::Integer(static_cast<int64_t>(q)));
    }
    case BinOp::kMod: {
      if (both_integer) {
        if (ri.integer_value() == 0) {
          return Status::Invalid("division by zero (err:FOAR0001)" +
                                 LocationSuffix(e));
        }
        return Sequence(Item::Integer(li.integer_value() % ri.integer_value()));
      }
      return Sequence(Item::Double(std::fmod(a, b)));
    }
    default:
      return Status::Internal("not an arithmetic operator");
  }
}

// --- FLWOR ------------------------------------------------------------------

namespace {

// A precomputed, sortable order-by key.
struct SortKey {
  enum class Tag { kEmpty, kNumber, kString } tag = Tag::kEmpty;
  double number = 0;
  std::string text;
};

// kEmpty sorts least (the "empty least" default).
int CompareSortKeys(const SortKey& a, const SortKey& b) {
  if (a.tag == SortKey::Tag::kEmpty || b.tag == SortKey::Tag::kEmpty) {
    if (a.tag == b.tag) return 0;
    return a.tag == SortKey::Tag::kEmpty ? -1 : 1;
  }
  if (a.tag == SortKey::Tag::kNumber) {
    return a.number < b.number ? -1 : (a.number > b.number ? 1 : 0);
  }
  int c = a.text.compare(b.text);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

}  // namespace

Result<Sequence> Evaluator::EvalFlwor(const Expr& e) {
  Sequence out;
  std::vector<std::pair<std::vector<Sequence>, Sequence>> tuples;
  size_t mark = EnvMark();
  Status st = EvalFlworClauses(e, 0, e.order_by.empty() ? nullptr : &tuples,
                               e.order_by.empty() ? &out : nullptr);
  EnvRestore(mark);
  LLL_RETURN_IF_ERROR(st);
  if (e.order_by.empty()) return out;

  // Precompute sort keys and validate column homogeneity.
  size_t columns = e.order_by.size();
  std::vector<std::vector<SortKey>> keys(tuples.size());
  for (size_t t = 0; t < tuples.size(); ++t) {
    keys[t].resize(columns);
    for (size_t k = 0; k < columns; ++k) {
      const Sequence& raw = tuples[t].first[k];
      if (raw.empty()) continue;
      const Item& item = raw.at(0);
      if (item.is_numeric()) {
        LLL_ASSIGN_OR_RETURN(keys[t][k].number, item.NumericValue());
        keys[t][k].tag = SortKey::Tag::kNumber;
      } else if (item.is_stringlike()) {
        keys[t][k].text = item.string_value();
        keys[t][k].tag = SortKey::Tag::kString;
      } else {
        return Status::TypeError(
            std::string("unsupported 'order by' key type ") +
            ItemKindName(item.kind()));
      }
    }
  }
  for (size_t k = 0; k < columns; ++k) {
    SortKey::Tag seen = SortKey::Tag::kEmpty;
    for (size_t t = 0; t < tuples.size(); ++t) {
      if (keys[t][k].tag == SortKey::Tag::kEmpty) continue;
      if (seen == SortKey::Tag::kEmpty) {
        seen = keys[t][k].tag;
      } else if (seen != keys[t][k].tag) {
        return Status::TypeError(
            "'order by' key mixes numbers and strings (err:XPTY0004)");
      }
    }
  }
  std::vector<size_t> order(tuples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    for (size_t k = 0; k < columns; ++k) {
      int c = CompareSortKeys(keys[x][k], keys[y][k]);
      if (e.order_by[k].descending) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  });
  for (size_t index : order) {
    out.AppendSequence(std::move(tuples[index].second));
  }
  return out;
}

Status Evaluator::EvalFlworClauses(
    const Expr& e, size_t clause_index,
    std::vector<std::pair<std::vector<Sequence>, Sequence>>* tuples,
    Sequence* out) {
  if (clause_index == e.clauses.size()) {
    if (tuples == nullptr) {
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*e.children[0]));
      out->AppendSequence(std::move(value));
      return Status::Ok();
    }
    std::vector<Sequence> key_values;
    key_values.reserve(e.order_by.size());
    for (const OrderSpec& spec : e.order_by) {
      LLL_ASSIGN_OR_RETURN(Sequence raw, Eval(*spec.key));
      Sequence atomized = raw.Atomized();
      LLL_ASSIGN_OR_RETURN(Sequence single,
                           xdm::RequireAtMostOne(atomized, "order by key"));
      key_values.push_back(std::move(single));
    }
    LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*e.children[0]));
    tuples->emplace_back(std::move(key_values), std::move(value));
    return Status::Ok();
  }

  const FlworClause& clause = e.clauses[clause_index];
  switch (clause.kind) {
    case FlworClause::Kind::kLet: {
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*clause.expr));
      size_t mark = EnvMark();
      EnvBind(clause.var, std::move(value));
      Status st = EvalFlworClauses(e, clause_index + 1, tuples, out);
      EnvRestore(mark);
      return st;
    }
    case FlworClause::Kind::kWhere: {
      LLL_ASSIGN_OR_RETURN(bool truth, EvalEffectiveBoolean(*clause.expr));
      if (!truth) return Status::Ok();
      return EvalFlworClauses(e, clause_index + 1, tuples, out);
    }
    case FlworClause::Kind::kFor: {
      LLL_ASSIGN_OR_RETURN(Sequence domain, Eval(*clause.expr));
      for (size_t i = 0; i < domain.size(); ++i) {
        size_t mark = EnvMark();
        EnvBind(clause.var, Sequence(domain.at(i)));
        if (!clause.pos_var.empty()) {
          EnvBind(clause.pos_var,
                  Sequence(Item::Integer(static_cast<int64_t>(i + 1))));
        }
        Status st = EvalFlworClauses(e, clause_index + 1, tuples, out);
        EnvRestore(mark);
        LLL_RETURN_IF_ERROR(st);
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled FLWOR clause");
}

Result<Sequence> Evaluator::EvalQuantified(const Expr& e) {
  LLL_ASSIGN_OR_RETURN(Sequence domain, Eval(*e.children[0]));
  for (const Item& item : domain.items()) {
    size_t mark = EnvMark();
    EnvBind(e.name, Sequence(item));
    Result<bool> truth = EvalEffectiveBoolean(*e.children[1]);
    EnvRestore(mark);
    if (!truth.ok()) return truth.status();
    if (e.quantifier_every && !*truth) return Sequence(Item::Boolean(false));
    if (!e.quantifier_every && *truth) return Sequence(Item::Boolean(true));
  }
  return Sequence(Item::Boolean(e.quantifier_every));
}

// --- Function calls -----------------------------------------------------

Result<Sequence> Evaluator::EvalFunctionCall(const Expr& e) {
  std::string name = e.name;
  if (StartsWith(name, "fn:")) name = name.substr(3);

  // User-defined functions shadow nothing (different namespaces in spirit).
  auto udf = functions_.find({e.name, e.children.size()});
  if (udf == functions_.end()) {
    udf = functions_.find({name, e.children.size()});
  }
  if (udf != functions_.end()) {
    const FunctionDecl& fn = *udf->second;
    if (++call_depth_ > 512) {
      --call_depth_;
      return Status::Internal("recursion too deep in '" + fn.name + "'");
    }
    ++stats_.function_calls;
    std::vector<Sequence> args;
    args.reserve(e.children.size());
    for (const ExprPtr& arg : e.children) {
      Result<Sequence> value = Eval(*arg);
      if (!value.ok()) {
        --call_depth_;
        return value.status();
      }
      args.push_back(std::move(*value));
    }
    size_t mark = EnvMark();
    for (size_t i = 0; i < fn.params.size(); ++i) {
      if (fn.has_param_type[i]) {
        Sequence converted;
        Status st = CheckSequenceType(args[i], fn.param_types[i],
                                      fn.params.size() > i ? fn.params[i].c_str()
                                                           : "parameter",
                                      &converted);
        if (!st.ok()) {
          EnvRestore(mark);
          --call_depth_;
          return st.AddContext("in call to " + fn.name + "()");
        }
        EnvBind(fn.params[i], std::move(converted));
      } else {
        EnvBind(fn.params[i], std::move(args[i]));
      }
    }
    // Function bodies do not inherit the caller's focus.
    Focus saved = focus_;
    focus_ = Focus{};
    Result<Sequence> body = Eval(*fn.body);
    focus_ = saved;
    EnvRestore(mark);
    --call_depth_;
    if (!body.ok()) {
      Status st = body.status();
      return st.AddContext("in call to " + fn.name + "()");
    }
    if (fn.has_return_type) {
      Sequence converted;
      Status st =
          CheckSequenceType(*body, fn.return_type, "return value", &converted);
      if (!st.ok()) return st.AddContext("returning from " + fn.name + "()");
      return converted;
    }
    return body;
  }

  // fn:exists / fn:empty over a path argument: emptiness is decided by the
  // first node, so pull at most one instead of materializing the set. Placed
  // after the UDF lookup so a user-declared exists/empty still wins.
  if (options_.streaming && e.children.size() == 1 &&
      (name == "exists" || name == "empty") &&
      IsNodePathShape(*e.children[0])) {
    LLL_ASSIGN_OR_RETURN(Sequence probe, EvalPathLimited(*e.children[0], 1));
    bool is_empty = probe.empty();
    return Sequence(Item::Boolean(name == "empty" ? is_empty : !is_empty));
  }

  const auto& builtins = BuiltinFunctions();
  auto bi = builtins.find({name, e.children.size()});
  if (bi == builtins.end()) {
    bi = builtins.find({name, static_cast<size_t>(-1)});  // variadic
  }
  if (bi == builtins.end()) {
    return Status::NotFound("unknown function " + e.name + "#" +
                            std::to_string(e.children.size()) + " at line " +
                            std::to_string(e.line));
  }
  std::vector<Sequence> args;
  args.reserve(e.children.size());
  for (const ExprPtr& arg : e.children) {
    LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*arg));
    args.push_back(std::move(value));
  }
  // Let the builtin (fn:trace, fn:error) see its own call site so trace
  // events and diagnostics carry a source position. Saved/restored because
  // builtins like trace re-enter Eval.
  const Expr* saved_site = builtin_call_site_;
  builtin_call_site_ = &e;
  Result<Sequence> out = bi->second(*this, args);
  builtin_call_site_ = saved_site;
  if (!out.ok()) {
    Status st = out.status();
    return st.AddContext("in call to " + name + "()" + LocationSuffix(e));
  }
  return out;
}

// --- Constructors -------------------------------------------------------

xml::Node* Evaluator::CopyIntoArena(const xml::Node* n) {
  ++stats_.constructed_nodes;
  return ctx_->arena_->ImportNode(n);
}

Status Evaluator::FillElementContent(xml::Node* element,
                                     const std::vector<const Expr*>& parts) {
  bool content_started = false;
  std::string pending;
  bool has_pending = false;
  bool last_atomic = false;

  auto append_text = [&](const std::string& text) {
    if (!element->children().empty() && element->children().back()->is_text()) {
      xml::Node* prev = element->children().back();
      prev->set_value(std::string(prev->value()) + text);
      return;
    }
    xml::Node* tn = ctx_->arena_->CreateText(text);
    ++stats_.constructed_nodes;
    (void)element->AppendChild(tn);
  };
  auto flush_pending = [&]() {
    if (!has_pending) return;
    append_text(pending);
    pending.clear();
    has_pending = false;
    content_started = true;
  };

  for (const Expr* part : parts) {
    if (part->kind == ExprKind::kTextLiteral) {
      flush_pending();
      append_text(part->text);
      content_started = true;
      last_atomic = false;
      continue;
    }
    LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*part));
    for (const Item& item : value.items()) {
      if (item.is_node() && item.node()->is_attribute()) {
        // The paper's E2 behavior: leading attribute items become attributes
        // of the parent; an attribute after content is an error.
        if (content_started || has_pending) {
          return Status::ConstructionError(
              "attribute node '" + item.node()->name() +
              "' follows non-attribute content (err:XQTY0024)");
        }
        if (!element->is_element()) {
          return Status::ConstructionError(
              "attribute node in document constructor content");
        }
        xml::Node* attr = ctx_->arena_->CreateAttribute(item.node()->name(),
                                                        item.node()->value());
        ++stats_.constructed_nodes;
        if (options_.galax_duplicate_attributes) {
          // Reproduce the Galax bug: duplicates are simply kept.
          attr->Detach();
          LLL_RETURN_IF_ERROR([&] {
            // Bypass the duplicate check by uniquifying transparently is NOT
            // what Galax did; it emitted both. Our arena allows it via a
            // direct append path: use SetAttributeNode only when unique.
            if (!element->AttributeValue(attr->name()).has_value()) {
              return element->SetAttributeNode(attr);
            }
            // Force-append a duplicate attribute (invalid XML, as in Galax).
            return element->ForceAppendDuplicateAttribute(attr);
          }());
        } else {
          LLL_RETURN_IF_ERROR(element->SetAttributeNode(attr,
                                                        /*keep_first=*/true));
        }
        last_atomic = false;
        continue;
      }
      if (item.is_node()) {
        flush_pending();
        const xml::Node* source = item.node();
        if (source->is_document()) {
          for (const xml::Node* child : source->children()) {
            xml::Node* copy = CopyIntoArena(child);
            LLL_RETURN_IF_ERROR(element->AppendChild(copy));
          }
        } else {
          xml::Node* copy = CopyIntoArena(source);
          LLL_RETURN_IF_ERROR(element->AppendChild(copy));
        }
        content_started = true;
        last_atomic = false;
        continue;
      }
      if (item.is_map()) {
        return Status::TypeError(
            "a map cannot appear in element content (err:XQTY0105)");
      }
      // Atomic: adjacent atomics are joined with a single space.
      if (last_atomic) pending += " ";
      pending += item.StringForm();
      has_pending = true;
      last_atomic = true;
    }
  }
  flush_pending();
  return Status::Ok();
}

Result<Sequence> Evaluator::EvalDirectElement(const Expr& e) {
  xml::Node* element = ctx_->arena_->CreateElement(e.name);
  ++stats_.constructed_nodes;
  for (const DirectAttribute& attr : e.attributes) {
    if (element->AttributeValue(attr.name).has_value()) {
      return Status::ConstructionError("duplicate attribute '" + attr.name +
                                       "' (err:XQST0040)");
    }
    std::string value;
    bool last_atomic = false;
    for (const ExprPtr& part : attr.value_parts) {
      if (part->kind == ExprKind::kTextLiteral) {
        value += part->text;
        last_atomic = false;
        continue;
      }
      LLL_ASSIGN_OR_RETURN(Sequence seq, Eval(*part));
      Sequence atomized = seq.Atomized();
      for (size_t i = 0; i < atomized.size(); ++i) {
        if (i > 0 || last_atomic) value += " ";
        value += atomized.at(i).StringForm();
      }
      last_atomic = !atomized.empty();
    }
    element->SetAttribute(attr.name, value);
  }
  std::vector<const Expr*> parts;
  parts.reserve(e.children.size());
  for (const ExprPtr& c : e.children) parts.push_back(c.get());
  LLL_RETURN_IF_ERROR(FillElementContent(element, parts));
  return Sequence(Item::NodeRef(element));
}

Result<Sequence> Evaluator::EvalComputedConstructor(const Expr& e) {
  size_t content_index = 0;
  std::string name = e.name;
  if (e.computed_name) {
    LLL_ASSIGN_OR_RETURN(Sequence name_seq, Eval(*e.children[0]));
    Sequence atomized = name_seq.Atomized();
    LLL_ASSIGN_OR_RETURN(Item item,
                         xdm::RequireSingleton(atomized, "computed name"));
    name = item.StringForm();
    content_index = 1;
  }
  const Expr& content = *e.children[content_index];

  switch (e.kind) {
    case ExprKind::kCompElement: {
      if (!IsValidXmlName(name)) {
        return Status::ConstructionError("invalid element name '" + name +
                                         "' (err:XQDY0074)");
      }
      xml::Node* element = ctx_->arena_->CreateElement(name);
      ++stats_.constructed_nodes;
      std::vector<const Expr*> parts{&content};
      LLL_RETURN_IF_ERROR(FillElementContent(element, parts));
      return Sequence(Item::NodeRef(element));
    }
    case ExprKind::kCompAttribute: {
      if (!IsValidXmlName(name)) {
        return Status::ConstructionError("invalid attribute name '" + name +
                                         "' (err:XQDY0074)");
      }
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(content));
      Sequence atomized = value.Atomized();
      std::string text;
      for (size_t i = 0; i < atomized.size(); ++i) {
        if (i > 0) text += " ";
        text += atomized.at(i).StringForm();
      }
      xml::Node* attr = ctx_->arena_->CreateAttribute(name, text);
      ++stats_.constructed_nodes;
      return Sequence(Item::NodeRef(attr));
    }
    case ExprKind::kCompText: {
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(content));
      Sequence atomized = value.Atomized();
      std::string text;
      for (size_t i = 0; i < atomized.size(); ++i) {
        if (i > 0) text += " ";
        text += atomized.at(i).StringForm();
      }
      xml::Node* tn = ctx_->arena_->CreateText(text);
      ++stats_.constructed_nodes;
      return Sequence(Item::NodeRef(tn));
    }
    case ExprKind::kCompComment: {
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(content));
      Sequence atomized = value.Atomized();
      std::string text;
      for (size_t i = 0; i < atomized.size(); ++i) {
        if (i > 0) text += " ";
        text += atomized.at(i).StringForm();
      }
      xml::Node* cn = ctx_->arena_->CreateComment(text);
      ++stats_.constructed_nodes;
      return Sequence(Item::NodeRef(cn));
    }
    case ExprKind::kCompDocument: {
      xml::Node* doc = ctx_->arena_->CreateDocumentNode();
      ++stats_.constructed_nodes;
      std::vector<const Expr*> parts{&content};
      LLL_RETURN_IF_ERROR(FillElementContent(doc, parts));
      return Sequence(Item::NodeRef(doc));
    }
    default:
      return Status::Internal("not a computed constructor");
  }
}

// --- Types ------------------------------------------------------------

Result<Sequence> Evaluator::EvalCast(const Expr& e) {
  LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*e.children[0]));
  Sequence atomized = value.Atomized();
  if (atomized.empty()) {
    if (e.type.occurrence == SequenceType::Occurrence::kOptional) {
      return Sequence();
    }
    return Status::TypeError("cast of an empty sequence to a non-optional type");
  }
  LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(atomized, "cast"));
  using IT = SequenceType::ItemType;
  switch (e.type.item_type) {
    case IT::kString:
      return Sequence(Item::String(item.StringForm()));
    case IT::kUntyped:
      return Sequence(Item::Untyped(item.StringForm()));
    case IT::kInteger: {
      if (item.kind() == xdm::ItemKind::kInteger) return Sequence(item);
      if (item.kind() == xdm::ItemKind::kBoolean) {
        return Sequence(Item::Integer(item.boolean_value() ? 1 : 0));
      }
      if (item.kind() == xdm::ItemKind::kDouble) {
        return Sequence(Item::Integer(static_cast<int64_t>(item.double_value())));
      }
      auto parsed = ParseInt(item.string_value());
      if (!parsed) {
        return Status::TypeError("cannot cast \"" + item.string_value() +
                                 "\" to xs:integer");
      }
      return Sequence(Item::Integer(*parsed));
    }
    case IT::kDouble:
    case IT::kDecimal: {
      if (item.kind() == xdm::ItemKind::kBoolean) {
        return Sequence(Item::Double(item.boolean_value() ? 1 : 0));
      }
      LLL_ASSIGN_OR_RETURN(double d, [&]() -> Result<double> {
        if (item.is_numeric()) return item.NumericValue();
        auto parsed = ParseDouble(item.StringForm());
        if (!parsed) {
          return Status::TypeError("cannot cast \"" + item.StringForm() +
                                   "\" to xs:double");
        }
        return *parsed;
      }());
      return Sequence(Item::Double(d));
    }
    case IT::kBoolean: {
      if (item.kind() == xdm::ItemKind::kBoolean) return Sequence(item);
      if (item.is_numeric()) {
        LLL_ASSIGN_OR_RETURN(double d, item.NumericValue());
        return Sequence(Item::Boolean(d != 0 && !std::isnan(d)));
      }
      const std::string& s = item.string_value();
      if (s == "true" || s == "1") return Sequence(Item::Boolean(true));
      if (s == "false" || s == "0") return Sequence(Item::Boolean(false));
      return Status::TypeError("cannot cast \"" + s + "\" to xs:boolean");
    }
    default:
      return Status::Unsupported("cast to " + e.type.ToString() +
                                 " not supported");
  }
}

namespace {

bool ItemMatchesType(const Item& item, const SequenceType& type) {
  using IT = SequenceType::ItemType;
  switch (type.item_type) {
    case IT::kItem:
      return true;
    case IT::kNode:
      return item.is_node();
    case IT::kElement:
      return item.is_node() && item.node()->is_element() &&
             (type.element_name.empty() ||
              item.node()->name() == type.element_name);
    case IT::kAttribute:
      return item.is_node() && item.node()->is_attribute();
    case IT::kTextNode:
      return item.is_node() && item.node()->is_text();
    case IT::kDocumentNode:
      return item.is_node() && item.node()->is_document();
    case IT::kString:
      return item.kind() == xdm::ItemKind::kString;
    case IT::kInteger:
      return item.kind() == xdm::ItemKind::kInteger;
    case IT::kDecimal:
    case IT::kDouble:
      return item.is_numeric();
    case IT::kBoolean:
      return item.kind() == xdm::ItemKind::kBoolean;
    case IT::kUntyped:
      return item.kind() == xdm::ItemKind::kUntyped;
    case IT::kAnyAtomic:
      return item.is_atomic();
    case IT::kEmpty:
      return false;
  }
  return false;
}

}  // namespace

Result<Sequence> Evaluator::EvalInstanceOf(const Expr& e) {
  LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*e.children[0]));
  // Occurrence check.
  bool occurrence_ok = true;
  switch (e.type.occurrence) {
    case SequenceType::Occurrence::kOne:
      occurrence_ok = value.size() == 1;
      break;
    case SequenceType::Occurrence::kOptional:
      occurrence_ok = value.size() <= 1;
      break;
    case SequenceType::Occurrence::kPlus:
      occurrence_ok = value.size() >= 1;
      break;
    case SequenceType::Occurrence::kStar:
      break;
  }
  if (e.type.item_type == SequenceType::ItemType::kEmpty) {
    return Sequence(Item::Boolean(value.empty()));
  }
  if (!occurrence_ok) return Sequence(Item::Boolean(false));
  for (const Item& item : value.items()) {
    if (!ItemMatchesType(item, e.type)) return Sequence(Item::Boolean(false));
  }
  return Sequence(Item::Boolean(true));
}

Status Evaluator::CheckSequenceType(const Sequence& seq,
                                    const SequenceType& type,
                                    const char* where, Sequence* converted) {
  // Function conversion rules (simplified): untyped atomics are cast to the
  // expected atomic type; integers promote to double. This is where the
  // paper's "types rapidly metastatize" effect lives -- an annotation on one
  // function demands casts or annotations at each of its callers.
  using IT = SequenceType::ItemType;
  if (type.item_type == IT::kEmpty) {
    if (!seq.empty()) {
      return Status::TypeError(std::string(where) +
                               ": expected empty-sequence()");
    }
    *converted = seq;
    return Status::Ok();
  }
  switch (type.occurrence) {
    case SequenceType::Occurrence::kOne:
      if (seq.size() != 1) {
        return Status::CardinalityError(
            std::string(where) + ": expected exactly one " + type.ToString() +
            ", got " + std::to_string(seq.size()) + " items");
      }
      break;
    case SequenceType::Occurrence::kOptional:
      if (seq.size() > 1) {
        return Status::CardinalityError(std::string(where) +
                                        ": expected at most one item");
      }
      break;
    case SequenceType::Occurrence::kPlus:
      if (seq.empty()) {
        return Status::CardinalityError(std::string(where) +
                                        ": expected at least one item");
      }
      break;
    case SequenceType::Occurrence::kStar:
      break;
  }
  Sequence out;
  for (const Item& item : seq.items()) {
    Item current = item;
    bool atomic_expected =
        type.item_type == IT::kString || type.item_type == IT::kInteger ||
        type.item_type == IT::kDouble || type.item_type == IT::kDecimal ||
        type.item_type == IT::kBoolean || type.item_type == IT::kUntyped ||
        type.item_type == IT::kAnyAtomic;
    if (atomic_expected && current.is_node()) {
      current = current.Atomized();
    }
    if (atomic_expected && current.kind() == xdm::ItemKind::kUntyped &&
        type.item_type != IT::kUntyped && type.item_type != IT::kAnyAtomic) {
      // Cast untyped to the expected type.
      const std::string& s = current.string_value();
      switch (type.item_type) {
        case IT::kString:
          current = Item::String(s);
          break;
        case IT::kInteger: {
          auto parsed = ParseInt(s);
          if (!parsed) {
            return Status::TypeError(std::string(where) + ": cannot cast \"" +
                                     s + "\" to xs:integer");
          }
          current = Item::Integer(*parsed);
          break;
        }
        case IT::kDouble:
        case IT::kDecimal: {
          auto parsed = ParseDouble(s);
          if (!parsed) {
            return Status::TypeError(std::string(where) + ": cannot cast \"" +
                                     s + "\" to xs:double");
          }
          current = Item::Double(*parsed);
          break;
        }
        case IT::kBoolean: {
          if (s == "true" || s == "1") {
            current = Item::Boolean(true);
          } else if (s == "false" || s == "0") {
            current = Item::Boolean(false);
          } else {
            return Status::TypeError(std::string(where) + ": cannot cast \"" +
                                     s + "\" to xs:boolean");
          }
          break;
        }
        default:
          break;
      }
    }
    if ((type.item_type == IT::kDouble || type.item_type == IT::kDecimal) &&
        current.kind() == xdm::ItemKind::kInteger) {
      current = Item::Double(static_cast<double>(current.integer_value()));
    }
    if (!ItemMatchesType(current, type)) {
      return Status::TypeError(std::string(where) + ": expected " +
                               type.ToString() + ", got " +
                               ItemKindName(current.kind()));
    }
    out.Append(std::move(current));
  }
  *converted = std::move(out);
  return Status::Ok();
}

}  // namespace lll::xq
