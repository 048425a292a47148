#include "xquery/eval.h"

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/string_util.h"
#include "xquery/nodeset_cache.h"
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

// `value` cast to `type`: the part of `cast as` after the operand's
// evaluation, which `castable as` asks of the value it already holds.
Result<Sequence> CastValue(const Sequence& value, const SequenceType& type);

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

// The nodes of `seq`, which are all nodes.
std::vector<const xml::Node*> NodesOf(const Sequence& seq) {
  std::vector<const xml::Node*> nodes;
  nodes.reserve(seq.size());
  for (const Item& item : seq.items()) nodes.push_back(item.node());
  return nodes;
}

// The ascending, distinct positions in `nodes` of the nodes whose
// attribute `index` indexes has one of the values `atoms`, all strings.
std::vector<uint32_t> LookUpAll(const ValueIndex& index,
                                std::span<const xml::Node* const> nodes,
                                const Sequence& atoms) {
  std::vector<uint32_t> hits;
  for (const Item& atom : atoms.items()) {
    index.LookUp(nodes, atom.string_value(), &hits);
  }
  if (atoms.size() > 1) {
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  }
  return hits;
}

// Bounds of the call memo: entries, result items and bytes (keys plus the
// string values of results) stored. Once one is reached, calls still run
// but store nothing more. An argument of more items gets no key.
constexpr size_t kMaxMemoEntries = 4096;
constexpr size_t kMaxMemoItems = size_t{1} << 16;
constexpr size_t kMaxMemoBytes = size_t{1} << 22;
constexpr size_t kMaxMemoArgumentItems = 8;

template <typename T>
void AppendBytes(const T& value, std::string* out) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

// Appends `arg`'s part of a call memo key: its length, then each item's
// kind and value -- a node by identity, a double by its bits (0 and -0
// differ in their string forms), a string with its length. False when the
// argument gets no key: too long, or holding a map.
bool AppendMemoKey(const Sequence& arg, std::string* key) {
  if (arg.size() > kMaxMemoArgumentItems) return false;
  key->push_back(static_cast<char>(arg.size()));
  for (const Item& item : arg.items()) {
    key->push_back(static_cast<char>(item.kind()));
    switch (item.kind()) {
      case xdm::ItemKind::kString:
      case xdm::ItemKind::kUntyped:
        AppendBytes(item.string_value().size(), key);
        key->append(item.string_value());
        break;
      case xdm::ItemKind::kBoolean:
        key->push_back(item.boolean_value() ? 1 : 0);
        break;
      case xdm::ItemKind::kInteger:
        AppendBytes(item.integer_value(), key);
        break;
      case xdm::ItemKind::kDouble:
        AppendBytes(item.double_value(), key);
        break;
      case xdm::ItemKind::kNode:
        AppendBytes(item.node(), key);
        break;
      case xdm::ItemKind::kMap:
        return false;
    }
  }
  return true;
}

// The bytes a stored call result holds beyond its items: string values.
size_t StringBytes(const Sequence& seq) {
  size_t bytes = 0;
  for (const Item& item : seq.items()) {
    if (item.is_stringlike()) bytes += item.string_value().size();
  }
  return bytes;
}

// Stack left below the floor for what runs between two StepBudget checks
// or after the last one: one evaluation level plus the builtin it calls.
// Measured under AddressSanitizer by recursing 13 shapes into the floor
// (DESIGN.md section 17): a 16 KiB reserve overflowed, 24 KiB never did.
constexpr uintptr_t kStackReserve = 128 * 1024;

// The lowest address the running thread's stack may reach before
// evaluation must stop: the stack's lowest address, as pthread_getattr_np
// reports it, plus kStackReserve. Read once per thread, since for the main
// thread glibc reads /proc/self/maps. 0 when unknown.
uintptr_t ThreadStackFloor() {
  thread_local const uintptr_t floor = [] {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return uintptr_t{0};
    void* lowest = nullptr;
    size_t size = 0;
    const bool known = pthread_attr_getstack(&attr, &lowest, &size) == 0;
    pthread_attr_destroy(&attr);
    return known ? reinterpret_cast<uintptr_t>(lowest) + kStackReserve
                 : uintptr_t{0};
  }();
  return floor;
}

}  // namespace

// One index of the probe memo: the exact candidate list it was built over,
// by node identity, and the ValueIndex of one attribute over that list.
struct Evaluator::ProbeIndex {
  ProbeIndex(const Sequence& seq, const std::string& attr, uint64_t h)
      : hash(h), candidates(NodesOf(seq)), index(candidates, attr) {}

  uint64_t hash;
  std::vector<const xml::Node*> candidates;
  ValueIndex index;

  bool Matches(const std::string& a, uint64_t h, const Sequence& seq) const {
    if (h != hash || a != index.attr() || seq.size() != candidates.size()) {
      return false;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (seq.at(i).node() != candidates[i]) return false;
    }
    return true;
  }
};

// --- Evaluator ------------------------------------------------------------

Evaluator::~Evaluator() = default;

Evaluator::Evaluator(const Module& module, DynamicContext* context,
                     const EvalOptions& options)
    : module_(module),
      ctx_(context),
      options_(options),
      stack_floor_(ThreadStackFloor()) {
  if (ctx_->has_context_item_) {
    focus_.item = ctx_->context_item_;
    focus_.position = 1;
    focus_.size = 1;
    focus_.valid = true;
  }
}

const Sequence* Evaluator::LookupVariable(const Expr& ref) const {
  switch (ref.scope) {
    case Expr::Scope::kLocal:
      return &slots_[frame_base_ + ref.slot];
    case Expr::Scope::kGlobal:
      // A function called from an earlier initializer may read a variable
      // whose own initializer has not run yet.
      return ref.slot < globals_.size() ? &globals_[ref.slot] : nullptr;
    case Expr::Scope::kExternal: {
      auto it = ctx_->externals_.find(ref.name);
      return it == ctx_->externals_.end() ? nullptr : &it->second;
    }
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
  // Every recursion of the evaluator, through nested expressions or calls,
  // passes here, so this one compare bounds its stack.
  if (reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) <
      stack_floor_) {
    return Status::Internal(
        "recursion too deep: the evaluation would overflow its stack");
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
  slots_.resize(module_.frame_size);
  globals_.reserve(module_.variables.size());
  for (const VariableDecl& var : module_.variables) {
    LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*var.expr));
    globals_.push_back(std::move(value));
  }
  // Every global is set from here on, so a memoizable function's answer
  // depends on its arguments alone.
  memo_open_ = options_.streaming;
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
      const Sequence* bound = LookupVariable(e);
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
      // The plan's limit hint caps the streamed result; the materializing
      // fallback inside EvalPath still returns the full result, which the
      // consumer of a limited path tolerates by the rule that set the hint.
      // streaming=false ignores the hint: the baseline stays byte-identical.
      return EvalPath(e, options_.streaming && e.limit_hint > 0 ? e.limit_hint
                                                                : kNoLimit);
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
      // `e castable as T`: true iff casting the operand's value to T would
      // succeed. The operand is evaluated once, and its own failure is an
      // error, not `false`.
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*e.children[0]));
      return Sequence(Item::Boolean(CastValue(value, e.type).ok()));
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
      Slot(e.slot) = Sequence(Item::String(attempt.status().message()));
      Slot(e.slot + 1) =
          Sequence(Item::String(StatusCodeName(attempt.status().code())));
      return Eval(*e.children[1]);
    }
  }
  return Status::Internal("unhandled expression kind");
}

// --- Paths ----------------------------------------------------------------

void Evaluator::SortDedup(Sequence* seq) {
  if (seq->ordered_deduped() || seq->size() <= 1) {
    seq->MarkOrderedDeduped();
    ++stats_.sorts_skipped;
    return;
  }
  seq->SortDocumentOrderAndDedup(&stats_.order_compares);
  ++stats_.sorts_performed;
}

// --- Streaming pipeline ---------------------------------------------------
//
// A streamable step chain is evaluated as a pull pipeline: one
// StreamAxisStage per axis step, each exposing its (document-ordered,
// deduplicated) result a node at a time. A stage k-way merges per-context
// StreamRuns -- one axis enumeration per context node -- on a min-heap keyed
// by the order-key index. Forward axes guarantee every result's key >= its
// context's key, so a forward stage activates upstream contexts only while
// they could still beat the heap minimum; the pipeline therefore buffers
// O(active runs), not O(intermediate result), and a consumer that stops
// pulling (positional predicate satisfied, fn:exists answered, boolean
// context decided) leaves the remaining work undone. A reverse stage is a
// barrier instead (see StreamAxisStage::Settle).

// One axis enumeration from a single context node, for every streamable
// axis. It walks the axis in AXIS order -- document order for the forward
// axes, reverse document order for parent/ancestor(-or-self)/
// preceding-sibling, whose chain climbs parent pointers and whose sibling
// list is read backwards -- and judges each candidate by the node test and
// the step's predicate chain. Positional predicates count per run in axis
// order, exactly the per-context counting the materializing EvalStep does
// eagerly, so [1] selects the NEAREST ancestor or preceding sibling; a
// literal-integer predicate [N] exhausts the run the moment its counter
// reaches N, because no later candidate can ever pass that stage again. A
// forward run yields its passers lazily. A reverse run walks its whole axis
// when it opens and serves the buffered passers back to front, i.e. in
// document order, so the stage merges both kinds alike.
class Evaluator::StreamRun {
 public:
  StreamRun(Evaluator* ev, const PathStep* step, xml::Node* context)
      : ev_(ev), step_(step) {
    switch (step->axis) {
      case Axis::kChild:
        list_ = context->children();
        end_ = static_cast<ptrdiff_t>(list_.size());
        break;
      case Axis::kAttribute:
        list_ = context->attributes();
        end_ = static_cast<ptrdiff_t>(list_.size());
        break;
      case Axis::kAncestorOrSelf:
        climb_ = true;
        [[fallthrough]];
      case Axis::kSelf:
        self_ = context;
        break;
      case Axis::kAncestor:
        climb_ = true;
        [[fallthrough]];
      case Axis::kParent:
        self_ = context->parent();  // parent:: holds at most this one node
        break;
      case Axis::kDescendantOrSelf:
        self_ = context;
        [[fallthrough]];
      case Axis::kDescendant:
        stack_.emplace_back(context, 0);
        break;
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling:
        // Attributes have an owner but no siblings on these axes (mirrors
        // the materializing EvalStep guard). Their ANCESTOR chain, by
        // contrast, starts at the owner via parent().
        if (context->parent() != nullptr && !context->is_attribute()) {
          list_ = context->parent()->children();
          const ptrdiff_t at = static_cast<ptrdiff_t>(context->IndexInParent());
          if (step->axis == Axis::kFollowingSibling) {
            next_ = at + 1;
            end_ = static_cast<ptrdiff_t>(list_.size());
          } else {
            next_ = at - 1;
            end_ = -1;
            stride_ = -1;
          }
        }
        break;
    }
    positions_.assign(step->predicates.size(), 0);
  }

  // The current result; nullptr once the run is exhausted. A reverse run's
  // is the last of its buffered passers not yet served, read in place:
  // copying each into front_ as it came up doubled the merge time of
  // bench_e14's `count(//x/ancestor::y)` (2000 runs).
  xml::Node* front() const {
    return unserved_ > 0 ? buffer_[unserved_ - 1] : front_;
  }

  // Moves front() to the first result. A reverse run first buffers every
  // passer of its walk, in axis order; its stage is a barrier anyway, so
  // there is nothing to gain from walking lazily.
  Status Open(bool reverse) {
    if (!reverse) return Advance();
    Status error;
    Judge</*kDrain=*/true>(&error);
    unserved_ = buffer_.size();
    return error;
  }

  // Moves front() to the next result in document order: the buffered
  // passer before it, else the next passer of the walk.
  Status Advance() {
    if (unserved_ > 0 && --unserved_ > 0) return Status::Ok();
    Status error;
    front_ = Judge</*kDrain=*/false>(&error);
    return error;
  }

  // Charges a lower bound on the axis candidates this run will now never
  // examine to nodes_skipped_early_exit, and ends the walk. The sibling
  // remainder is exact; a descendant stack counts only the immediate
  // unvisited children of each frame, and an ancestor walk one for its
  // pending link -- walking further just to count would defeat the point:
  // a cheap floor, not the full remainder. Buffered passers are not
  // counted: they were visited (and charged to nodes_pulled).
  void AccountAbandoned() {
    size_t n = (self_ != nullptr) +
               static_cast<size_t>((end_ - next_) * stride_);
    for (const auto& frame : stack_) {
      n += frame.first->children().size() - frame.second;
    }
    ev_->ChargeSkipped(n);
    self_ = nullptr;
    next_ = end_;
    stack_.clear();
    spent_ = false;
  }

 private:
  // The next axis candidate in axis order, unfiltered. self_ comes first:
  // the context (self, the -or-self axes) or its parent (parent, ancestor),
  // and on an ancestor axis each one taken climbs to its parent. After it
  // at most one of the sibling list and the descendant stack feeds the run.
  xml::Node* NextCandidate() {
    if (self_ != nullptr) {
      xml::Node* s = self_;
      self_ = climb_ ? s->parent() : nullptr;
      return s;
    }
    if (next_ != end_) {
      xml::Node* sibling = list_[static_cast<size_t>(next_)];
      next_ += stride_;
      return sibling;
    }
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

  // Judges the walk's candidates in axis order by the node test and every
  // predicate. Returns the next passer; with kDrain, buffers every passer
  // instead. Returns nullptr once the walk is exhausted, and when a
  // predicate fails, which sets *error. (The drain is this loop
  // instantiated apart, not a caller of the lazy one, so a reverse walk
  // makes no call per passer.)
  template <bool kDrain>
  xml::Node* Judge(Status* error) {
    if (spent_) AccountAbandoned();  // the last passer used up some [N]
    for (;;) {
      xml::Node* candidate = NextCandidate();
      if (candidate == nullptr) return nullptr;
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
        if (!kept.ok()) {
          *error = std::move(kept).status();
          return nullptr;
        }
        keep = *kept;
        if (pred.kind == ExprKind::kLiteral &&
            pred.literal_type == Expr::LiteralType::kInteger &&
            static_cast<int64_t>(pos) >= pred.integer) {
          spent = true;
        }
      }
      if (keep) {
        if constexpr (!kDrain) {
          spent_ = spent;
          return candidate;
        }
        buffer_.push_back(candidate);
      }
      if (spent) {
        AccountAbandoned();
        return nullptr;
      }
    }
  }

  // The members are packed so that std::deque keeps three runs to its
  // 512-byte block: at two (a run of 176 bytes or more), forward pipelines
  // ran 1.7x slower (bench_e13's count(//x) and //x[1]), for a cause not
  // traced.
  Evaluator* ev_;
  const PathStep* step_;
  xml::Node* front_ = nullptr;
  // Walk state. The sibling list is read from next_ towards end_ in steps
  // of stride_: forward for child, attribute and following-sibling,
  // backward for preceding-sibling.
  xml::Node* self_ = nullptr;
  bool climb_ = false;  // an ancestor axis: self_ moves up, not to null
  bool spent_ = false;  // the walk ends before the next candidate
  int32_t stride_ = 1;
  xml::NodeList list_;
  ptrdiff_t next_ = 0;
  ptrdiff_t end_ = 0;
  std::vector<std::pair<xml::Node*, size_t>> stack_;
  std::vector<size_t> positions_;   // 1-based per-predicate counters
  std::vector<xml::Node*> buffer_;  // a reverse run's passers, axis order
  size_t unserved_ = 0;             // buffer_[0, unserved_) not yet served
};

// One axis step: a k-way document-order merge of per-context StreamRuns.
// The first stage of a pipeline reads its contexts from the base sequence,
// every later one from the stage before it.
class Evaluator::StreamAxisStage {
 public:
  StreamAxisStage(Evaluator* ev, const PathStep* step,
                  StreamAxisStage* upstream, const Sequence* base)
      : ev_(ev),
        step_(step),
        upstream_(upstream),
        base_(base),
        reverse_(IsReverseStreamableAxis(step->axis)) {}

  // The current front node; nullptr = exhausted. Idempotent until Pop().
  Result<xml::Node*> Front() {
    LLL_RETURN_IF_ERROR(Settle());
    return heap_.empty() ? nullptr : heap_.front()->front();
  }

  Status Pop() {
    LLL_RETURN_IF_ERROR(Settle());
    if (heap_.empty()) return Status::Ok();
    last_emitted_ = heap_.front()->front();
    return AdvanceMin();
  }

  // The consumer stopped early: fold a lower bound of the never-visited
  // work into nodes_skipped_early_exit, recursively upstream.
  void Abandon() {
    for (StreamRun* run : heap_) run->AccountAbandoned();
    heap_.clear();
    if (upstream_ != nullptr) {
      upstream_->Abandon();
    } else {
      ev_->ChargeSkipped(base_->size() - next_base_);
      next_base_ = base_->size();
    }
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

  // The next upstream context, not yet consumed; nullptr = none left.
  Result<xml::Node*> NextContext() {
    if (upstream_ != nullptr) return upstream_->Front();
    return next_base_ < base_->size() ? base_->at(next_base_).node()
                                      : nullptr;
  }

  Status PopContext() {
    if (upstream_ != nullptr) return upstream_->Pop();
    ++next_base_;
    return Status::Ok();
  }

  // Restores the two invariants behind Front(). (1) Every upstream context
  // that could still produce the globally-next node has been activated.
  // Forward-axis results have keys >= their context's key, so activation
  // stops once the next context's key exceeds the heap minimum.
  // Reverse-axis results have keys <= their context's key, so a context
  // arriving later can still produce the globally smallest result -- the
  // root is an ancestor of everything -- and a reverse stage is therefore a
  // BARRIER: it drains its upstream before its first emission. Its win over
  // the materializing path is not laziness upstream but skipping the
  // O(k log k) normalizing sort -- runs are pre-ordered, and merging costs
  // O(k log runs) -- and per-run early exhaustion for literal [N]
  // predicates, where [1] ends each walk at its first passer. (2) The heap
  // minimum is not a duplicate of the last emitted node: overlapping runs
  // (descendant runs, or sibling contexts sharing an ancestor chain) yield
  // the same node only at adjacent heap minima, because emission is
  // non-decreasing in key and keys identify nodes.
  Status Settle() {
    for (;;) {
      while (!upstream_done_) {
        LLL_ASSIGN_OR_RETURN(xml::Node* context, NextContext());
        if (context == nullptr) {
          upstream_done_ = true;
          break;
        }
        if (!reverse_ && !heap_.empty() &&
            context->order_key() > heap_.front()->front()->order_key()) {
          break;
        }
        LLL_RETURN_IF_ERROR(PopContext());
        runs_.emplace_back(ev_, step_, context);
        StreamRun& run = runs_.back();
        LLL_RETURN_IF_ERROR(run.Open(reverse_));
        if (run.front() != nullptr) {
          if (reverse_) ++ev_->stats_.reverse_runs_merged;
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
  StreamAxisStage* upstream_;  // null for the first stage
  const Sequence* base_;       // the first stage's contexts
  size_t next_base_ = 0;
  const bool reverse_;         // the step's axis is a reverse axis
  static_assert(3 * sizeof(StreamRun) <= 512);  // see StreamRun's members
  std::deque<StreamRun> runs_;    // deque: stable addresses for heap_
  std::vector<StreamRun*> heap_;  // min-heap by front()->order_key()
  xml::Node* last_emitted_ = nullptr;
  bool upstream_done_ = false;
};

// --- Path dispatch --------------------------------------------------------

Result<Sequence> Evaluator::EvalPath(const Expr& e, size_t limit) {
  Sequence current;
  if (e.has_base) {
    LLL_ASSIGN_OR_RETURN(current, Eval(*e.children[0]));
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
  LLL_ASSIGN_OR_RETURN(size_t first, InternPrefix(e, &current));
  return EvalStepsRange(e, first, e.steps.size(), std::move(current), limit);
}

Result<size_t> Evaluator::InternPrefix(const Expr& e, Sequence* current) {
  const InternFacts* facts = e.intern.get();
  if (options_.nodeset_cache == nullptr || facts == nullptr) return 0;
  const bool probe = options_.streaming && !facts->probe_chain_key.empty();
  if (facts->steps == 0 && !probe) return 0;
  if (current->size() != 1 || !current->at(0).is_node()) return 0;
  xml::Node* base = current->at(0).node();
  // Any tree root qualifies: a document node, or a parentless element such
  // as a docgen phase's input. Nothing a chain reaches from a root lies
  // outside its tree. (An attribute's parent() is its owner; a detached one
  // is no root.)
  if (base->parent() != nullptr || base->is_attribute() ||
      base->document() == nullptr) {
    return 0;
  }
  // Never intern sets rooted in this execution's construction arena (e.g.
  // `document { ... }` results): the arena dies with the query, while the
  // cache (snapshot- or backend-scoped) lives on, and the next execution's
  // arena is likely reallocated at the same address -- the stamp alone
  // cannot make raw pointers into a freed arena safe to hand out.
  if (base->document() == ctx_->construction_arena()) return 0;

  // The probe extension (DESIGN.md section 16): every
  // `doc("m")//node-type[@name = $t]` shares the candidates
  // `//node-type` interns, with their index of @name, whatever $t is. The
  // probe looks its key up in that index, and the step's other predicates
  // filter the hits. The plan extends only position-free steps, whose
  // predicates judge a candidate alike whichever context produced it, so
  // one pass over the candidates of all contexts keeps the same ones.
  if (probe) {
    const std::vector<ExprPtr>& preds = e.steps[facts->steps].predicates;
    LLL_ASSIGN_OR_RETURN(std::shared_ptr<const CachedNodeSet> entry,
                         InternChain(e, /*probed=*/true, base, *current));
    Result<Sequence> kept = ProbeEntry(*preds[0], *entry);
    if (kept.ok()) {
      kept = ApplyPredicates(std::span(preds).subspan(1), std::move(*kept));
    }
    if (kept.ok()) {
      *current = std::move(*kept);
      current->MarkOrderedDeduped();  // a subsequence of the normalized set
      return facts->steps + 1;
    }
    // Which failing candidate raises the error depends on the order the
    // contexts meet them, which document order is not for a reverse axis
    // or a child step from nested contexts: intern the plain prefix below
    // and let the step's own loop raise it.
  }
  if (facts->steps == 0) return 0;
  LLL_ASSIGN_OR_RETURN(std::shared_ptr<const CachedNodeSet> entry,
                       InternChain(e, /*probed=*/false, base, *current));
  *current = entry->ToSequence();
  return facts->steps;
}

Result<std::shared_ptr<const CachedNodeSet>> Evaluator::InternChain(
    const Expr& e, bool probed, xml::Node* base, const Sequence& start) {
  NodeSetCache* cache = options_.nodeset_cache;
  const InternFacts& facts = *e.intern;
  xml::Document* doc = base->document();
  std::string key = NodeSetCache::MakeKey(
      base, probed ? facts.probe_chain_key : facts.key);
  NodeSetCache::Outcome outcome = NodeSetCache::Outcome::kMiss;
  if (std::shared_ptr<const CachedNodeSet> hit =
          cache->Get(doc, key, &outcome)) {
    ++stats_.nodeset_cache_hits;
    return hit;
  }
  if (outcome == NodeSetCache::Outcome::kStale ||
      outcome == NodeSetCache::Outcome::kStalePartial) {
    // A failed guard, not a cold key: count it as an invalidation (and,
    // when no document-wide guard was involved, as a partial one -- the
    // chain's names confined the damage to the chains that test them).
    ++stats_.nodeset_cache_invalidations;
    if (outcome == NodeSetCache::Outcome::kStalePartial) {
      ++stats_.nodeset_cache_partial_invalidations;
    }
  } else {
    ++stats_.nodeset_cache_misses;
  }

  const size_t full = facts.steps;
  LLL_ASSIGN_OR_RETURN(Sequence computed,
                       EvalStepsRange(e, 0, full, start, kNoLimit));
  std::string index_attr;
  if (probed) {
    const PathStep& step = e.steps[full];
    if (!computed.empty()) {
      PathStep bare;
      bare.axis = step.axis;
      bare.test = step.test;
      Result<Sequence> stepped = EvalStep(bare, computed);
      if (!stepped.ok()) {
        Status st = stepped.status();
        return st.AddContext("in path expression" + LocationSuffix(e));
      }
      computed = std::move(*stepped);
      SortDedup(&computed);
    }
    const Expr& probe = *step.predicates[0];
    index_attr = probe.children[1 - probe.probe_key]->steps[0].test.name;
    ++stats_.probe_index_builds;
  }
  // Axis steps from a tree root reach only that root's document, so the
  // result is storable as it is.
  return cache->Put(key, *doc,
                    probed ? facts.probe_chain_names : facts.names, computed,
                    index_attr);
}

Result<std::optional<Sequence>> Evaluator::ProbeKey(const Expr& pred) {
  // The optimizer proved the key cannot read the candidate, so one
  // evaluation stands for all of them -- including a failing one: the
  // per-candidate loop would raise the same error at its first candidate.
  LLL_ASSIGN_OR_RETURN(Sequence key, Eval(*pred.children[pred.probe_key]));
  Sequence atoms = key.Atomized();
  for (const Item& atom : atoms.items()) {
    // Numbers and booleans compare by value, not by string (@n = 3 matches
    // "3.0"): leave them to the per-candidate loop.
    if (!atom.is_stringlike()) return std::optional<Sequence>();
  }
  ++stats_.probe_filters;
  return std::optional<Sequence>(std::move(atoms));
}

Result<Sequence> Evaluator::ProbeEntry(const Expr& pred,
                                       const CachedNodeSet& entry) {
  if (entry.nodes.size() >= 2) {
    LLL_ASSIGN_OR_RETURN(std::optional<Sequence> atoms, ProbeKey(pred));
    if (atoms.has_value()) {
      Sequence kept;
      for (uint32_t i : LookUpAll(*entry.index, entry.nodes, *atoms)) {
        kept.Append(Item::NodeRef(entry.nodes[i]));
      }
      return kept;
    }
  }
  return FilterEach(pred, entry.ToSequence());
}

Result<std::optional<std::vector<uint32_t>>> Evaluator::ProbeHits(
    const Expr& pred, const Sequence& candidates) {
  using Hits = std::optional<std::vector<uint32_t>>;
  if (candidates.size() < 2 || SingleDocumentOf(candidates) == nullptr) {
    return Hits();
  }
  LLL_ASSIGN_OR_RETURN(std::optional<Sequence> atoms, ProbeKey(pred));
  if (!atoms.has_value()) return Hits();
  if (atoms->empty()) return Hits(std::vector<uint32_t>());
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
    built = std::make_unique<ProbeIndex>(candidates, attr, hash);
    ++stats_.probe_index_builds;
    index = built.get();
  }
  std::vector<uint32_t> hits =
      LookUpAll(index->index, index->candidates, *atoms);
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

Result<Sequence> Evaluator::EvalStepsRange(const Expr& e, size_t first,
                                           size_t last, Sequence current,
                                           size_t limit) {
  if (first >= last) return current;
  bool streamable = options_.streaming && !current.empty();
  for (size_t i = first; i < last && streamable; ++i) {
    streamable = e.steps[i].streamable;
  }
  if (streamable && SingleDocumentOf(current) != nullptr) {
    if (limit != kNoLimit) ++stats_.limit_pushdowns;
    const PathStep& step = e.steps[first];
    if (current.size() == 1 && last - first == 1 &&
        step.predicates.empty() &&
        (step.axis == Axis::kChild || step.axis == Axis::kAttribute)) {
      return OneNodeStep(step, current.at(0).node(), limit);
    }
    // The pipeline needs its context runs activated in document order.
    SortDedup(&current);
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

Sequence Evaluator::OneNodeStep(const PathStep& step, xml::Node* context,
                                size_t limit) {
  const xml::NodeList list = step.axis == Axis::kChild
                                 ? context->children()
                                 : context->attributes();
  Sequence out;
  size_t next = 0;
  while (next < list.size() && out.size() < limit) {
    xml::Node* candidate = list[next++];
    ++stats_.nodes_pulled;
    if (MatchesTest(candidate, step.test, step.axis)) {
      out.Append(Item::NodeRef(candidate));
    }
  }
  if (out.size() >= limit) ChargeSkipped(list.size() - next);
  out.MarkOrderedDeduped();  // one context's axis list is in document order
  return out;
}

// Step-wise evaluation with inter-step normalization: after each axis step
// the intermediate sequence is brought back to document order without
// duplicates. The sort is skipped when the step's result already carries
// the ordered_deduped bit (EvalStep sets it for a forward axis from a
// single context) or has at most one node. This loop is also the
// streaming=false baseline.
Result<Sequence> Evaluator::EvalStepsMaterialized(const Expr& e, size_t first,
                                                  size_t last,
                                                  Sequence current) {
  for (size_t step_index = first; step_index < last; ++step_index) {
    const PathStep& step = e.steps[step_index];
    if (step.is_filter) {
      LLL_ASSIGN_OR_RETURN(
          current, ApplyPredicates(step.predicates, std::move(current)));
      if (current.empty()) return current;
      continue;
    }
    Result<Sequence> stepped = EvalStep(step, current);
    if (!stepped.ok()) {
      Status st = stepped.status();
      return st.AddContext("in path expression" + LocationSuffix(e));
    }
    current = std::move(*stepped);
    if (current.AllNodes()) SortDedup(&current);
    if (current.empty()) return current;
  }
  return current;
}

Result<Sequence> Evaluator::EvalStepsStreamed(const Expr& e, size_t first,
                                              size_t last, Sequence current,
                                              size_t limit) {
  // Preconditions (enforced by EvalStepsRange): nonempty, all nodes of one
  // document, steps [first, last) all PathStep::streamable. One index build
  // up front covers the whole pull -- rebuild-on-mutation keeps relative
  // keys stable (see HeapAfter).
  current.at(0).node()->document()->EnsureOrderIndex();
  std::vector<StreamAxisStage> stages;
  stages.reserve(last - first);  // no reallocation: stages point upstream
  for (size_t i = first; i < last; ++i) {
    stages.emplace_back(this, &e.steps[i],
                        stages.empty() ? nullptr : &stages.back(), &current);
  }
  StreamAxisStage& top = stages.back();
  // Predicate evaluation inside runs sets the focus; restore around the
  // whole pull (PredicateKeep leaves it dirty by contract).
  Focus saved = focus_;
  Sequence out;
  Status failure;
  while (out.size() < limit) {
    Result<xml::Node*> front = top.Front();
    if (!front.ok()) {
      failure = front.status();
      break;
    }
    if (*front == nullptr) break;
    out.Append(Item::NodeRef(*front));
    Status popped = top.Pop();
    if (!popped.ok()) {
      failure = popped;
      break;
    }
  }
  focus_ = saved;
  LLL_RETURN_IF_ERROR(failure);
  if (out.size() >= limit) top.Abandon();
  out.MarkOrderedDeduped();  // Append clears the bit; emission order proves it
  return out;
}

Result<bool> Evaluator::EvalEffectiveBoolean(const Expr& e) {
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
    LLL_ASSIGN_OR_RETURN(
        Sequence filtered,
        ApplyPredicates(step.predicates, std::move(candidates)));
    result.AppendSequence(std::move(filtered));
  }
  // A forward axis enumerates one context's candidates in document order,
  // each once; several contexts' runs may interleave or overlap, and reverse
  // axes collect in reverse order, so those leave the bit clear and the
  // caller sorts.
  if (input.size() == 1 && IsForwardStreamableAxis(step.axis)) {
    result.MarkOrderedDeduped();
  }
  return result;
}

Result<Sequence> Evaluator::ApplyPredicates(std::span<const ExprPtr> preds,
                                            Sequence candidates) {
  for (const ExprPtr& pred : preds) {
    LLL_ASSIGN_OR_RETURN(candidates, ApplyPredicate(*pred, candidates));
  }
  return candidates;
}

Result<Sequence> Evaluator::ApplyPredicate(const Expr& pred,
                                           const Sequence& candidates) {
  if (options_.streaming && pred.probe_key >= 0) {
    LLL_ASSIGN_OR_RETURN(std::optional<std::vector<uint32_t>> hits,
                         ProbeHits(pred, candidates));
    if (hits.has_value()) {
      Sequence kept;
      for (uint32_t i : *hits) kept.Append(candidates.at(i));
      return kept;
    }
  }
  return FilterEach(pred, candidates);
}

Result<Sequence> Evaluator::FilterEach(const Expr& pred,
                                       const Sequence& candidates) {
  Sequence kept;
  if (options_.streaming) {
    // [N] and [last()] keep the one candidate at their position, so pick it
    // instead of asking every candidate. (fn:last is the one builtin that
    // reads the focus size.)
    std::optional<int64_t> position;
    if (pred.kind == ExprKind::kLiteral &&
        pred.literal_type == Expr::LiteralType::kInteger) {
      position = pred.integer;
    } else if (pred.kind == ExprKind::kFunctionCall &&
               pred.builtin != nullptr && pred.builtin->Has(kReadsSize)) {
      position = static_cast<int64_t>(candidates.size());
    }
    if (position.has_value()) {
      if (*position >= 1 &&
          static_cast<uint64_t>(*position) <= candidates.size()) {
        kept.Append(candidates.at(static_cast<size_t>(*position - 1)));
      }
      return kept;
    }
  }
  Focus saved = focus_;
  size_t size = candidates.size();
  for (size_t i = 0; i < size; ++i) {
    Result<bool> keep = PredicateKeep(pred, candidates.at(i), i + 1, size);
    if (!keep.ok()) {
      focus_ = saved;
      return keep.status();
    }
    if (*keep) kept.Append(candidates.at(i));
  }
  focus_ = saved;
  return kept;
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
    case BinOp::kIs:
    case BinOp::kPrecedes:
    case BinOp::kFollows: {
      LLL_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.children[0]));
      LLL_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.children[1]));
      if (lhs.empty() || rhs.empty()) return Sequence();
      const char* name = BinOpName(e.op);
      LLL_ASSIGN_OR_RETURN(Item li, xdm::RequireSingleton(lhs, name));
      LLL_ASSIGN_OR_RETURN(Item ri, xdm::RequireSingleton(rhs, name));
      if (!li.is_node() || !ri.is_node()) {
        return Status::TypeError(std::string("'") + name +
                                 "' requires node operands");
      }
      if (e.op == BinOp::kIs) {
        return Sequence(Item::Boolean(li.node() == ri.node()));
      }
      const int order = xml::CompareDocumentOrder(li.node(), ri.node());
      return Sequence(Item::Boolean(e.op == BinOp::kPrecedes ? order < 0
                                                             : order > 0));
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
      SortDedup(&out);
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
  LLL_RETURN_IF_ERROR(
      EvalFlworClauses(e, 0, e.order_by.empty() ? nullptr : &tuples,
                       e.order_by.empty() ? &out : nullptr));
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
      LLL_ASSIGN_OR_RETURN(Slot(clause.slot), Eval(*clause.expr));
      return EvalFlworClauses(e, clause_index + 1, tuples, out);
    }
    case FlworClause::Kind::kWhere: {
      LLL_ASSIGN_OR_RETURN(bool truth, EvalEffectiveBoolean(*clause.expr));
      if (!truth) return Status::Ok();
      return EvalFlworClauses(e, clause_index + 1, tuples, out);
    }
    case FlworClause::Kind::kFor: {
      LLL_ASSIGN_OR_RETURN(Sequence domain, Eval(*clause.expr));
      for (size_t i = 0; i < domain.size(); ++i) {
        Slot(clause.slot) = Sequence(domain.at(i));
        if (!clause.pos_var.empty()) {
          Slot(clause.slot + 1) =
              Sequence(Item::Integer(static_cast<int64_t>(i + 1)));
        }
        LLL_RETURN_IF_ERROR(EvalFlworClauses(e, clause_index + 1, tuples, out));
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled FLWOR clause");
}

Result<Sequence> Evaluator::EvalQuantified(const Expr& e) {
  LLL_ASSIGN_OR_RETURN(Sequence domain, Eval(*e.children[0]));
  for (const Item& item : domain.items()) {
    Slot(e.slot) = Sequence(item);
    Result<bool> truth = EvalEffectiveBoolean(*e.children[1]);
    if (!truth.ok()) return truth.status();
    if (e.quantifier_every && !*truth) return Sequence(Item::Boolean(false));
    if (!e.quantifier_every && *truth) return Sequence(Item::Boolean(true));
  }
  return Sequence(Item::Boolean(e.quantifier_every));
}

// --- Function calls -----------------------------------------------------

Result<Sequence> Evaluator::EvalFunctionCall(const Expr& e) {
  if (e.decl != nullptr) return CallUserFunction(e, *e.decl);
  if (e.builtin == nullptr) {
    return Status::NotFound("unknown function " + e.name + "#" +
                            std::to_string(e.children.size()) + " at line " +
                            std::to_string(e.line));
  }
  const Builtin& builtin = *e.builtin;
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
  Result<Sequence> out = builtin.fn(*this, args);
  builtin_call_site_ = saved_site;
  if (!out.ok()) {
    Status st = out.status();
    return st.AddContext("in call to " + builtin.name + "()" +
                         LocationSuffix(e));
  }
  return out;
}

Result<Sequence> Evaluator::CallUserFunction(const Expr& call,
                                             const FunctionDecl& fn) {
  // The callee's frame goes on top of the slot stack, its parameters in its
  // first slots, and comes off on every way out.
  const size_t base = slots_.size();
  slots_.resize(base + fn.frame_size);
  struct PopFrame {
    Evaluator* ev;
    size_t base;
    ~PopFrame() { ev->slots_.resize(base); }
  } pop{this, base};
  // The arguments are evaluated in the caller's frame, all of them before
  // any parameter's type is checked.
  for (size_t i = 0; i < fn.params.size(); ++i) {
    LLL_ASSIGN_OR_RETURN(slots_[base + i], Eval(*call.children[i]));
  }
  // A memoizable call with the same callee and arguments as an earlier one
  // answers as that one did, type errors included: an error is never
  // stored, so it recurs by running the body again.
  std::string key;
  bool memo = memo_open_ && fn.memoizable;
  if (memo) {
    AppendBytes(&fn, &key);
    for (size_t i = 0; memo && i < fn.params.size(); ++i) {
      memo = AppendMemoKey(slots_[base + i], &key);
    }
  }
  if (memo) {
    auto hit = call_memo_.find(key);
    if (hit != call_memo_.end()) {
      ++stats_.function_memo_hits;
      return hit->second;
    }
  }
  ++stats_.function_calls;
  for (size_t i = 0; i < fn.params.size(); ++i) {
    const FunctionDecl::Param& param = fn.params[i];
    if (!param.type.has_value()) continue;
    Sequence converted;
    Status st = CheckSequenceType(slots_[base + i], *param.type,
                                  param.name.c_str(), &converted);
    if (!st.ok()) return st.AddContext("in call to " + fn.name + "()");
    slots_[base + i] = std::move(converted);
  }
  // Function bodies see neither the caller's focus nor its variables.
  const Focus saved_focus = focus_;
  const size_t saved_base = frame_base_;
  focus_ = Focus{};
  frame_base_ = base;
  Result<Sequence> body = Eval(*fn.body);
  frame_base_ = saved_base;
  focus_ = saved_focus;
  if (!body.ok()) {
    // Moved, not copied: each frame of a deep recursion adds one line of
    // context, and copying them all at every frame made unwinding ~4,000
    // calls take 0.85 s instead of 0.02 s.
    Status st = std::move(body.status());
    st.AddContext("in call to " + fn.name + "()");
    return st;
  }
  Sequence value = std::move(*body);
  if (fn.return_type.has_value()) {
    Sequence converted;
    Status st =
        CheckSequenceType(value, *fn.return_type, "return value", &converted);
    if (!st.ok()) return st.AddContext("returning from " + fn.name + "()");
    value = std::move(converted);
  }
  if (memo && call_memo_.size() < kMaxMemoEntries &&
      call_memo_items_ + value.size() <= kMaxMemoItems) {
    const size_t bytes = key.size() + StringBytes(value);
    if (call_memo_bytes_ + bytes <= kMaxMemoBytes) {
      call_memo_items_ += value.size();
      call_memo_bytes_ += bytes;
      call_memo_.emplace(std::move(key), value);
    }
  }
  return value;
}

// --- Constructors -------------------------------------------------------

namespace {

// An element, text or comment constructor's result: the node it just
// built, which nothing else refers to yet (Sequence::fresh).
Sequence FreshNode(xml::Node* node) {
  Sequence out(Item::NodeRef(node));
  out.MarkFresh();
  return out;
}

}  // namespace

xml::Node* Evaluator::CopyIntoArena(const xml::Node* n) {
  xml::Document* arena = Arena();
  const size_t before = arena->node_count();
  xml::Node* copy = arena->ImportNode(n);
  stats_.nodes_copied += arena->node_count() - before;
  return copy;
}

xml::Document* Evaluator::Arena() {
  if (ctx_->arena_ == nullptr) ctx_->arena_ = std::make_unique<xml::Document>();
  return ctx_->arena_.get();
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
    xml::Node* tn = Arena()->CreateText(text);
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

  // One evaluated content value, item by item. A node of a fresh value
  // (Sequence::fresh) that is parentless and in this evaluation's arena is
  // one a constructor just built and nothing else refers to, so it is
  // attached as it is; any other node is copied. streaming=false always
  // copies: the copying oracle.
  auto add_value = [&](const Sequence& value) -> Status {
    const bool adopt = options_.streaming && value.fresh();
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
        // A new attribute node with the item's name id and value.
        xml::Node* attr = Arena()->ImportNode(item.node());
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
        xml::Node* source = item.node();
        if (source->is_document()) {
          for (const xml::Node* child : source->children()) {
            xml::Node* copy = CopyIntoArena(child);
            LLL_RETURN_IF_ERROR(element->AppendChild(copy));
          }
        } else if (adopt && source->parent() == nullptr &&
                   source->document() == ctx_->construction_arena()) {
          LLL_RETURN_IF_ERROR(element->AppendChild(source));
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
    return Status::Ok();
  };

  for (const Expr* part : parts) {
    if (part->kind == ExprKind::kTextLiteral) {
      flush_pending();
      append_text(part->text);
      content_started = true;
      last_atomic = false;
      continue;
    }
    if (options_.streaming && part->kind == ExprKind::kSequence) {
      // A comma sequence is added part by part, so that each part keeps
      // its own fresh bit: in `{$n/attribute::*, for ... return
      // local:copy($c)}` the copied attributes do not spoil the FLWOR's
      // adoption. Every part is evaluated before any is added, as when the
      // sequence was one value, so errors and traces come in the same
      // order.
      std::vector<Sequence> values;
      values.reserve(part->children.size());
      for (const ExprPtr& c : part->children) {
        LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*c));
        values.push_back(std::move(value));
      }
      for (const Sequence& value : values) {
        LLL_RETURN_IF_ERROR(add_value(value));
      }
      continue;
    }
    LLL_ASSIGN_OR_RETURN(Sequence value, Eval(*part));
    LLL_RETURN_IF_ERROR(add_value(value));
  }
  flush_pending();
  return Status::Ok();
}

Result<Sequence> Evaluator::EvalDirectElement(const Expr& e) {
  xml::Node* element = Arena()->CreateElement(e.name);
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
  return FreshNode(element);
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
      xml::Node* element = Arena()->CreateElement(name);
      ++stats_.constructed_nodes;
      std::vector<const Expr*> parts{&content};
      LLL_RETURN_IF_ERROR(FillElementContent(element, parts));
      return FreshNode(element);
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
      xml::Node* attr = Arena()->CreateAttribute(name, text);
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
      xml::Node* tn = Arena()->CreateText(text);
      ++stats_.constructed_nodes;
      return FreshNode(tn);
    }
    case ExprKind::kCompComment: {
      LLL_ASSIGN_OR_RETURN(Sequence value, Eval(content));
      Sequence atomized = value.Atomized();
      std::string text;
      for (size_t i = 0; i < atomized.size(); ++i) {
        if (i > 0) text += " ";
        text += atomized.at(i).StringForm();
      }
      xml::Node* cn = Arena()->CreateComment(text);
      ++stats_.constructed_nodes;
      return FreshNode(cn);
    }
    case ExprKind::kCompDocument: {
      xml::Node* doc = Arena()->CreateDocumentNode();
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
  return CastValue(value, e.type);
}

namespace {

Result<Sequence> CastValue(const Sequence& value, const SequenceType& type) {
  Sequence atomized = value.Atomized();
  if (atomized.empty()) {
    if (type.occurrence == SequenceType::Occurrence::kOptional) {
      return Sequence();
    }
    return Status::TypeError("cast of an empty sequence to a non-optional type");
  }
  LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(atomized, "cast"));
  using IT = SequenceType::ItemType;
  switch (type.item_type) {
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
      return Status::Unsupported("cast to " + type.ToString() +
                                 " not supported");
  }
}

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
