#include "xquery/optimizer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "core/string_util.h"
#include "xquery/eval.h"

namespace lll::xq {

namespace {

// Visits every subexpression of `e` (including predicates, clauses,
// constructor parts) except function bodies.
void ForEachChild(const Expr& e, const std::function<void(const Expr&)>& fn) {
  for (const ExprPtr& c : e.children) fn(*c);
  for (const PathStep& s : e.steps) {
    for (const ExprPtr& p : s.predicates) fn(*p);
  }
  for (const FlworClause& c : e.clauses) fn(*c.expr);
  for (const OrderSpec& o : e.order_by) fn(*o.key);
  for (const DirectAttribute& a : e.attributes) {
    for (const ExprPtr& p : a.value_parts) fn(*p);
  }
}

// Mutable twin of the above, for the passes that annotate in place.
void ForEachChild(Expr* e, const std::function<void(Expr*)>& fn) {
  for (ExprPtr& c : e->children) fn(c.get());
  for (PathStep& s : e->steps) {
    for (ExprPtr& p : s.predicates) fn(p.get());
  }
  for (FlworClause& c : e->clauses) fn(c.expr.get());
  for (OrderSpec& o : e->order_by) fn(o.key.get());
  for (DirectAttribute& a : e->attributes) {
    for (ExprPtr& p : a.value_parts) fn(p.get());
  }
}

// Applies `fn` to every top-level expression of the module: function
// bodies, global variable initializers, then the body.
void ForEachTopLevel(Module* module, const std::function<void(Expr*)>& fn) {
  for (FunctionDecl& f : module->functions) fn(f.body.get());
  for (VariableDecl& var : module->variables) fn(var.expr.get());
  fn(module->body.get());
}

// True if `e` is a call bound to a builtin with any of the `facts`.
bool CallsBuiltinWith(const Expr& e, unsigned facts) {
  return e.builtin != nullptr && e.builtin->Has(facts);
}

// True if `e` reads local variable `slot` of its frame.
bool IsLocalRef(const Expr& e, uint32_t slot) {
  return e.kind == ExprKind::kVarRef && e.scope == Expr::Scope::kLocal &&
         e.slot == slot;
}

// Collects pointers to every trace() call in the tree, for the swallowed-
// trace rewrite notes (the count alone can't say WHERE the calls were).
void CollectTraceCalls(const Expr& e, std::vector<const Expr*>* out) {
  if (CallsBuiltinWith(e, kTraces)) out->push_back(&e);
  ForEachChild(e, [out](const Expr& c) { CollectTraceCalls(c, out); });
}

std::string DescribeStep(const PathStep& step) {
  std::string out;
  AppendAxisTest(step, &out);
  return out;
}

// True if `e` calls, anywhere (nested predicates included), a builtin with
// any of the `facts`, a user-defined function (which may trace or error
// internally) or an unknown one.
bool CallsAny(const Expr& e, unsigned facts) {
  if (e.kind == ExprKind::kFunctionCall &&
      (e.builtin == nullptr || e.builtin->Has(facts))) {
    return true;
  }
  bool calls = false;
  ForEachChild(e, [&](const Expr& c) { calls = calls || CallsAny(c, facts); });
  return calls;
}

}  // namespace

const char* RewriteNoteKindName(RewriteNote::Kind kind) {
  switch (kind) {
    case RewriteNote::Kind::kDeadLetEliminated:
      return "dead-let-eliminated";
    case RewriteNote::Kind::kTraceSwallowed:
      return "trace-swallowed";
    case RewriteNote::Kind::kDescendantFused:
      return "descendant-fused";
    case RewriteNote::Kind::kProbe:
      return "probe";
  }
  return "unknown";
}

namespace {

// True for the expressions that construct nodes: each evaluation makes
// fresh node identities.
bool IsConstructor(ExprKind kind) {
  switch (kind) {
    case ExprKind::kDirectElement:
    case ExprKind::kCompElement:
    case ExprKind::kCompAttribute:
    case ExprKind::kCompText:
    case ExprKind::kCompComment:
    case ExprKind::kCompDocument:
      return true;
    default:
      return false;
  }
}

// Purity over the call graph. An expression has an effect of its own when
// it calls an unknown function or a builtin with any of the `effects`
// facts, or, when `effects` holds kConstructs, when it constructs a node.
// It is pure when neither it nor any user function it reaches has one.
// Recursion is judged optimistically -- a cycle alone is no effect -- yet
// a function is pure only if everything it reaches is, whatever order the
// calls are met in.
struct PurityAnalyzer {
  unsigned effects;
  // Per declaration (so arity overloads of one name are judged apart): its
  // body has no effect of its own, and the user functions it calls.
  struct Body {
    bool effect_free = true;
    std::vector<const FunctionDecl*> callees;
  };
  std::map<const FunctionDecl*, Body> bodies;
  // Per declaration: the verdict on everything it reaches.
  std::map<const FunctionDecl*, bool> verdicts;

  // True if `e` has no effect of its own; appends the user functions it
  // calls to `callees`.
  bool EffectFree(const Expr& e,
                  std::vector<const FunctionDecl*>* callees) const {
    if (e.kind == ExprKind::kFunctionCall) {
      if (e.decl != nullptr) {
        callees->push_back(e.decl);
      } else if (e.builtin == nullptr || e.builtin->Has(effects)) {
        return false;
      }
    } else if ((effects & kConstructs) != 0 && IsConstructor(e.kind)) {
      return false;
    }
    bool effect_free = true;
    ForEachChild(e, [&](const Expr& c) {
      effect_free = effect_free && EffectFree(c, callees);
    });
    return effect_free;
  }

  bool Pure(const Expr& e) {
    std::vector<const FunctionDecl*> callees;
    if (!EffectFree(e, &callees)) return false;
    for (const FunctionDecl* fn : callees) {
      if (!Pure(*fn)) return false;
    }
    return true;
  }

  // A walk of everything `fn` reaches. When it finds no effect, every
  // function it reached reaches only what `fn` does, so all are pure.
  bool Pure(const FunctionDecl& fn) {
    if (auto it = verdicts.find(&fn); it != verdicts.end()) return it->second;
    std::set<const FunctionDecl*> reached{&fn};
    std::vector<const FunctionDecl*> pending{&fn};
    while (!pending.empty()) {
      const FunctionDecl* f = pending.back();
      pending.pop_back();
      if (auto it = verdicts.find(f); it != verdicts.end()) {
        if (!it->second) return verdicts[&fn] = false;
        continue;  // everything it reaches is pure
      }
      auto [body, fresh] = bodies.try_emplace(f);
      if (fresh) {
        body->second.effect_free = EffectFree(*f->body, &body->second.callees);
      }
      if (!body->second.effect_free) return verdicts[&fn] = false;
      for (const FunctionDecl* callee : body->second.callees) {
        if (reached.insert(callee).second) pending.push_back(callee);
      }
    }
    for (const FunctionDecl* f : reached) verdicts[f] = true;
    return true;
  }
};

// The effects dead-let elimination must keep. Eliminating error() changes
// outcomes. Galax-era behavior: trace looks pure, so a dead let swallows
// it; the "fixed" optimizer recognizes it.
unsigned LetEffects(bool recognize_trace) {
  return recognize_trace ? kErrors | kTraces : kErrors;
}

struct Rewriter {
  OptimizerStats stats;
  PurityAnalyzer purity;

  explicit Rewriter(const OptimizerOptions& opts)
      : purity{LetEffects(opts.recognize_trace), {}, {}} {}

  void Rewrite(Expr* e) {
    // Bottom-up: rewrite children first.
    ForEachChild(e, [this](Expr* c) { Rewrite(c); });
    if (e->kind == ExprKind::kFlwor) EliminateDeadLets(e);
  }

  // The references to local variable `slot` in `e`. Each binding has its
  // own slot, so a same-named binding deeper in never matches.
  static size_t CountUses(const Expr& e, uint32_t slot) {
    size_t count = IsLocalRef(e, slot) ? 1 : 0;
    ForEachChild(e, [&](const Expr& c) { count += CountUses(c, slot); });
    return count;
  }
  // The uses of a FLWOR clause's variable, all of which sit in the FLWOR.
  static size_t UsesOf(const Expr& flwor, const FlworClause& clause) {
    size_t count = 0;
    ForEachChild(flwor,
                 [&](const Expr& c) { count += CountUses(c, clause.slot); });
    return count;
  }

  // Scans a FLWOR for `let $v := E` clauses where $v is unused downstream
  // and E is pure, and deletes them. Runs to a local fixpoint.
  void EliminateDeadLets(Expr* flwor) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < flwor->clauses.size(); ++i) {
        const FlworClause& clause = flwor->clauses[i];
        if (clause.kind != FlworClause::Kind::kLet) continue;
        if (UsesOf(*flwor, clause) != 0) continue;
        if (!purity.Pure(*clause.expr)) continue;
        std::vector<const Expr*> traces;
        CollectTraceCalls(*clause.expr, &traces);
        stats.eliminated_trace_calls += traces.size();
        ++stats.eliminated_lets;
        stats.notes.push_back(
            {RewriteNote::Kind::kDeadLetEliminated,
             "let $" + clause.var + " := ... is unused and pure; removed",
             clause.expr->line, clause.expr->col});
        for (const Expr* t : traces) {
          stats.notes.push_back(
              {RewriteNote::Kind::kTraceSwallowed,
               "trace() inside dead let $" + clause.var +
                   " was deleted with it; its output will never appear",
               t->line, t->col});
        }
        flwor->clauses.erase(flwor->clauses.begin() +
                             static_cast<ptrdiff_t>(i));
        changed = true;
        break;
      }
    }
    // A FLWOR whose every clause was eliminated degenerates to its return
    // expression.
    if (flwor->clauses.empty() && flwor->order_by.empty()) {
      ExprPtr body = std::move(flwor->children[0]);
      *flwor = std::move(*body);
    }
  }
};

}  // namespace

bool IsPure(const Expr& e, bool recognize_trace) {
  PurityAnalyzer analyzer{LetEffects(recognize_trace), {}, {}};
  return analyzer.Pure(e);
}

OptimizerStats Optimize(Module* module, const OptimizerOptions& options) {
  Rewriter rewriter(options);
  ForEachTopLevel(module, [&rewriter](Expr* e) { rewriter.Rewrite(e); });
  FuseDescendantSteps(module, &rewriter.stats);
  MarkProbePredicates(module, &rewriter.stats);
  return rewriter.stats;
}

// --- Probe marking ---------------------------------------------------------

namespace {

// The `@a` operand of a probe: a relative, predicate-free, single
// attribute step with a name test.
bool IsBareAttributeStep(const Expr& e) {
  if (e.kind != ExprKind::kPath || e.has_base || e.rooted ||
      e.steps.size() != 1) {
    return false;
  }
  const PathStep& s = e.steps[0];
  return !s.is_filter && s.axis == Axis::kAttribute &&
         s.test.kind == NodeTestKind::kName && s.predicates.empty();
}

struct ProbeMarker {
  OptimizerStats* stats;

  // True if `key` evaluates to the same value for every candidate of the
  // predicate it sits in, so one evaluation can serve them all.
  bool KeyIndependent(const Expr& key) const {
    // A constructor makes fresh node identities per evaluation.
    if (IsConstructor(key.kind)) return false;
    switch (key.kind) {
      case ExprKind::kContextItem:
        return false;
      case ExprKind::kPath:
        // Relative and rooted paths both start at the focus.
        if (!key.has_base) return false;
        break;
      case ExprKind::kFunctionCall:
        // position(), last(), name(), string(), ... read the focus; a
        // user-defined function may trace, error or recurse.
        if (key.children.empty() || key.builtin == nullptr ||
            key.builtin->Has(kTraces | kErrors)) {
          return false;
        }
        break;
      default:
        break;
    }
    bool independent = true;
    ForEachChild(key, [&](const Expr& c) {
      independent = independent && KeyIndependent(c);
    });
    return independent;
  }

  void MarkPredicate(Expr* pred) {
    pred->probe_key = -1;
    if (pred->kind != ExprKind::kBinary || pred->op != BinOp::kGenEq ||
        pred->children.size() != 2) {
      return;
    }
    for (int key = 1; key >= 0; --key) {
      const Expr& attr = *pred->children[1 - key];
      if (!IsBareAttributeStep(attr) || !KeyIndependent(*pred->children[key])) {
        continue;
      }
      pred->probe_key = key;
      ++stats->probe_predicates;
      stats->notes.push_back(
          {RewriteNote::Kind::kProbe,
           "@" + attr.steps[0].test.name +
               " = key is answered from a per-query hash index of @" +
               attr.steps[0].test.name +
               " values; the key is evaluated once per candidate list",
           pred->line, pred->col});
      return;
    }
  }

  void Mark(Expr* e) {
    for (PathStep& s : e->steps) {
      for (ExprPtr& p : s.predicates) MarkPredicate(p.get());
    }
    ForEachChild(e, [this](Expr* c) { Mark(c); });
  }
};

}  // namespace

void MarkProbePredicates(Module* module, OptimizerStats* stats) {
  ProbeMarker marker{stats};
  ForEachTopLevel(module, [&marker](Expr* e) { marker.Mark(e); });
}

namespace {

// A path whose last step is an axis step: every item of its result is a
// node, so its effective boolean value is "any nodes?", decided by the
// first node, and it is never a numeric position test.
bool NodePath(const Expr& e) {
  return e.kind == ExprKind::kPath && !e.steps.empty() &&
         !e.steps.back().is_filter;
}

// True if `e`, as a predicate, is boolean-valued at its top level and so can
// never be a numeric position test: a comparison, and/or, a call to a
// boolean builtin, or a node path (tested for emptiness).
bool BooleanValued(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kBinary:
      switch (e.op) {
        case BinOp::kOr:
        case BinOp::kAnd:
        case BinOp::kGenEq:
        case BinOp::kGenNe:
        case BinOp::kGenLt:
        case BinOp::kGenLe:
        case BinOp::kGenGt:
        case BinOp::kGenGe:
        case BinOp::kValEq:
        case BinOp::kValNe:
        case BinOp::kValLt:
        case BinOp::kValLe:
        case BinOp::kValGt:
        case BinOp::kValGe:
        case BinOp::kIs:
        case BinOp::kPrecedes:
        case BinOp::kFollows:
          return true;
        default:
          return false;
      }
    case ExprKind::kFunctionCall:
      return CallsBuiltinWith(e, kBooleanValued);
    case ExprKind::kPath:
      return NodePath(e);
    default:
      return false;
  }
}

// --- Descendant-step fusion -------------------------------------------------

// The rule behind PathStep::position_free: an axis step whose every
// predicate has the same verdict for a candidate under any focus position
// and size -- boolean-valued, no position()/last(), and none of the calls
// that block streaming (trace/error/user-defined/unknown), so dropping the
// per-parent evaluation is unobservable.
bool PositionFree(const PathStep& step) {
  if (step.is_filter) return false;
  for (const ExprPtr& p : step.predicates) {
    if (!BooleanValued(*p) ||
        CallsAny(*p, kReadsPosition | kReadsSize | kTraces | kErrors)) {
      return false;
    }
  }
  return true;
}

struct DescendantFuser {
  OptimizerStats* stats;

  void Fuse(Expr* e) {
    ForEachChild(e, [this](Expr* c) { Fuse(c); });
    // descendant-or-self::node()/child::T selects the T children of every
    // node at or below the context, i.e. its T descendants. Only the
    // predicates' focus differs -- positions among one parent's children
    // against positions among all descendants -- which a position-free
    // predicate never observes.
    for (size_t i = 0; i + 1 < e->steps.size(); ++i) {
      const PathStep& any = e->steps[i];
      PathStep& child = e->steps[i + 1];
      if (any.is_filter || any.axis != Axis::kDescendantOrSelf ||
          any.test.kind != NodeTestKind::kAnyNode ||
          !any.predicates.empty() || child.axis != Axis::kChild ||
          !PositionFree(child)) {
        continue;
      }
      std::string before = DescribeStep(any) + "/" + DescribeStep(child);
      child.axis = Axis::kDescendant;
      stats->notes.push_back({RewriteNote::Kind::kDescendantFused,
                              before + " fused into " + DescribeStep(child) +
                                  "; no predicate observes position",
                              e->line, e->col});
      ++stats->fused_descendant_steps;
      e->steps.erase(e->steps.begin() + static_cast<ptrdiff_t>(i));
    }
  }
};

// --- Prefix demand ----------------------------------------------------------

// The rule behind Expr::limit_hint: how many leading items of a node path's
// result its direct consumer can observe. 1 when the consumer takes the
// path's effective boolean value -- an `if` condition, an `and`/`or`
// operand, a `where` or `satisfies` clause, a step or filter predicate --
// or is a kFirstItemDecides builtin (fn:exists, fn:empty, fn:head); N when
// the path is the base of `(P)[N]`. Sets the hint on each node path among
// `e`'s operands that such a consumer reads, and clears that path's intern
// facts (Resolve derived them first, children before parents): the cache
// holds whole results, which a path that stops early never computes.
void MarkDemand(Expr* e) {
  const auto demand = [](Expr* operand, size_t n) {
    if (!NodePath(*operand)) return;
    operand->limit_hint = n;
    operand->intern.reset();
  };
  switch (e->kind) {
    case ExprKind::kIf:
      demand(e->children[0].get(), 1);
      break;
    case ExprKind::kBinary:
      if (e->op == BinOp::kAnd || e->op == BinOp::kOr) {
        demand(e->children[0].get(), 1);
        demand(e->children[1].get(), 1);
      }
      break;
    case ExprKind::kQuantified:
      demand(e->children[1].get(), 1);
      break;
    case ExprKind::kFlwor:
      for (FlworClause& c : e->clauses) {
        if (c.kind == FlworClause::Kind::kWhere) demand(c.expr.get(), 1);
      }
      break;
    case ExprKind::kFunctionCall:
      // A user function of the same name binds to Expr::decl instead.
      if (CallsBuiltinWith(*e, kFirstItemDecides)) {
        demand(e->children[0].get(), 1);
      }
      break;
    case ExprKind::kPath: {
      for (PathStep& step : e->steps) {
        for (ExprPtr& p : step.predicates) demand(p.get(), 1);
      }
      // (P)[N] reads only the first N items of P when N is a positive
      // integer literal and the only predicate of the filter: a second one
      // would see the truncated focus size.
      if (!e->has_base || e->steps.empty() || !e->steps[0].is_filter ||
          e->steps[0].predicates.size() != 1) {
        break;
      }
      const Expr& n = *e->steps[0].predicates[0];
      if (n.kind == ExprKind::kLiteral &&
          n.literal_type == Expr::LiteralType::kInteger && n.integer >= 1) {
        demand(e->children[0].get(), static_cast<size_t>(n.integer));
      }
      break;
    }
    default:
      break;
  }
}

// --- Node-set interning -----------------------------------------------------

// The step after an interned chain is probe-extended when its first
// predicate is a probe that can apply -- the index answers only keys that
// are all strings, so a numeric literal key never does -- and the step
// is position-free, so its predicates judge the candidates of all contexts
// in one pass exactly as they judge each context's own. A probe is itself
// position-free (its key reads no focus and calls no trace, error or user
// function), so a step with no other predicate extends on every axis.
bool ProbeExtends(const PathStep& step) {
  if (!step.position_free || step.predicates.empty() ||
      step.predicates[0]->probe_key < 0) {
    return false;
  }
  const Expr& probe = *step.predicates[0];
  const Expr& key = *probe.children[probe.probe_key];
  return key.kind != ExprKind::kLiteral ||
         key.literal_type == Expr::LiteralType::kString;
}

// Adds `name` to `names` unless it is there already.
void AddName(const std::string& name, std::vector<std::string>* names) {
  if (std::find(names->begin(), names->end(), name) == names->end()) {
    names->push_back(name);
  }
}

// Adds the name `step` tests to the chain's names: an attribute name on the
// attribute axis, an element name on every other. A test of no name --
// `*`, node(), text(), comment(), processing-instruction() -- matches
// nodes whatever their names, so only the document version guards it.
void AddTestedName(const PathStep& step, ChainNames* names) {
  if (step.test.kind != NodeTestKind::kName) {
    names->any = true;
  } else if (step.axis == Axis::kAttribute) {
    AddName(step.test.name, &names->attributes);
  } else {
    AddName(step.test.name, &names->elements);
  }
}

// Sets a path's Expr::intern when it interns: the chain's steps and key,
// the probe chain's key, and the names each chain tests. The probe chain's
// key ends with `@a`, the probed attribute its entry indexes: one entry per
// (chain, attribute), whatever the key's value. No key holds a literal.
void ResolveInterning(Expr* path) {
  InternFacts facts;
  for (const PathStep& step : path->steps) {
    if (step.is_filter || !step.predicates.empty()) break;
    AppendAxisTest(step, &facts.key);
    facts.key += '/';
    AddTestedName(step, &facts.names);
    ++facts.steps;
  }
  if (facts.steps < path->steps.size() &&
      ProbeExtends(path->steps[facts.steps])) {
    const PathStep& step = path->steps[facts.steps];
    const Expr& probe = *step.predicates[0];
    const std::string& attr =
        probe.children[1 - probe.probe_key]->steps[0].test.name;
    facts.probe_chain_key = facts.key;
    AppendAxisTest(step, &facts.probe_chain_key);
    facts.probe_chain_key += "/@" + attr;
    facts.probe_chain_names = facts.names;
    AddTestedName(step, &facts.probe_chain_names);
    AddName(attr, &facts.probe_chain_names.attributes);
  }
  if (facts.steps == 0 && facts.probe_chain_key.empty()) return;
  path->intern = std::make_unique<InternFacts>(std::move(facts));
}

// --- Step resolution --------------------------------------------------------

struct StepResolver {
  void Resolve(Expr* e) {
    ForEachChild(e, [this](Expr* c) { Resolve(c); });
    MarkDemand(e);
    for (PathStep& step : e->steps) {
      step.position_free = PositionFree(step);
      step.streamable = !step.is_filter && IsStreamableAxis(step.axis);
      for (const ExprPtr& p : step.predicates) {
        // fn:last needs materialized cardinality, and trace/error/user-
        // defined calls must see the exact materializing evaluation order
        // (the trace-parity rule, DESIGN.md section 10).
        step.streamable =
            step.streamable && !CallsAny(*p, kReadsSize | kTraces | kErrors);
      }
    }
    if (e->kind == ExprKind::kPath) ResolveInterning(e);
  }
};

}  // namespace

void FuseDescendantSteps(Module* module, OptimizerStats* stats) {
  DescendantFuser fuser{stats};
  ForEachTopLevel(module, [&fuser](Expr* e) { fuser.Fuse(e); });
}

void ResolveSteps(Module* module) {
  StepResolver resolver;
  ForEachTopLevel(module, [&resolver](Expr* e) { resolver.Resolve(e); });
  // Whatever the trace policy: a memo hit must never swallow a trace line.
  PurityAnalyzer memo{kTraces | kErrors | kConstructs, {}, {}};
  for (FunctionDecl& fn : module->functions) fn.memoizable = memo.Pure(fn);
}

// --- Name binding -----------------------------------------------------------

namespace {

struct NameBinder {
  const Module& module;
  // The local variables in scope, innermost last, with their frame slots.
  std::vector<std::pair<std::string_view, uint32_t>> scope;
  // Slots handed out in the current frame; each binding gets its own.
  uint32_t frame_size = 0;
  // The prolog variables [0, visible_globals) are in scope.
  size_t visible_globals = 0;

  uint32_t Declare(std::string_view name) {
    scope.emplace_back(name, frame_size);
    return frame_size++;
  }

  // The innermost local, else the latest visible global, else an external.
  void BindVariable(Expr* ref) const {
    for (auto it = scope.rbegin(); it != scope.rend(); ++it) {
      if (it->first == ref->name) {
        ref->scope = Expr::Scope::kLocal;
        ref->slot = it->second;
        return;
      }
    }
    for (size_t g = visible_globals; g-- > 0;) {
      if (module.variables[g].name == ref->name) {
        ref->scope = Expr::Scope::kGlobal;
        ref->slot = static_cast<uint32_t>(g);
        return;
      }
    }
    ref->scope = Expr::Scope::kExternal;
  }

  // A user declaration of the call's arity wins, named as the call is, else
  // as the call is without fn: (the latest such declaration); then the
  // builtin of the name without fn:. This is the one place a call's fn:
  // prefix is stripped.
  void BindCall(Expr* call) const {
    const std::string bare =
        StartsWith(call->name, "fn:") ? call->name.substr(3) : call->name;
    call->decl = nullptr;
    call->builtin = nullptr;
    for (const std::string& want : {call->name, bare}) {
      for (auto it = module.functions.rbegin(); it != module.functions.rend();
           ++it) {
        if (it->name == want && it->params.size() == call->children.size()) {
          call->decl = &*it;
          return;
        }
      }
    }
    call->builtin = FindBuiltin(bare, call->children.size());
  }

  // Binds `e` and everything under it, declaring each variable it binds in
  // scope for exactly the subexpressions that see it.
  void Bind(Expr* e) {
    const size_t mark = scope.size();
    switch (e->kind) {
      case ExprKind::kVarRef:
        BindVariable(e);
        return;
      case ExprKind::kFunctionCall:
        BindCall(e);
        break;
      case ExprKind::kFlwor:
        for (FlworClause& c : e->clauses) {
          Bind(c.expr.get());
          if (c.kind == FlworClause::Kind::kWhere) continue;
          c.slot = Declare(c.var);
          if (!c.pos_var.empty()) Declare(c.pos_var);
        }
        for (OrderSpec& o : e->order_by) Bind(o.key.get());
        Bind(e->children[0].get());
        scope.resize(mark);
        return;
      case ExprKind::kQuantified:
        Bind(e->children[0].get());
        e->slot = Declare(e->name);
        Bind(e->children[1].get());
        scope.resize(mark);
        return;
      case ExprKind::kTryCatch:
        Bind(e->children[0].get());
        e->slot = Declare("err:description");
        Declare("err:code");
        Bind(e->children[1].get());
        scope.resize(mark);
        return;
      default:
        break;
    }
    ForEachChild(e, [this](Expr* c) { Bind(c); });
  }
};

}  // namespace

void BindNames(Module* module) {
  NameBinder binder{*module, {}, 0, module->variables.size()};
  for (FunctionDecl& fn : module->functions) {
    binder.frame_size = 0;
    for (const FunctionDecl::Param& p : fn.params) binder.Declare(p.name);
    binder.Bind(fn.body.get());
    binder.scope.clear();
    fn.frame_size = binder.frame_size;
  }
  // The main frame: each variable initializer sees the variables declared
  // before it, the body sees them all.
  binder.frame_size = 0;
  binder.visible_globals = 0;
  for (VariableDecl& var : module->variables) {
    binder.Bind(var.expr.get());
    ++binder.visible_globals;
  }
  binder.Bind(module->body.get());
  module->frame_size = binder.frame_size;
}

}  // namespace lll::xq
