#include "xquery/optimizer.h"

#include <functional>
#include <initializer_list>
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

// A call's function name without its fn: prefix.
std::string StripFn(const std::string& name) {
  return StartsWith(name, "fn:") ? name.substr(3) : name;
}

// True if `call` resolves to a user-declared function: a declaration whose
// name matches the call's, bare or fn:-stripped, at the call's arity. Such
// a declaration shadows the builtin of the same name.
bool CallsUserFunction(const Expr& call, const Module& module) {
  const std::string stripped = StripFn(call.name);
  for (const FunctionDecl& fn : module.functions) {
    if ((fn.name == call.name || fn.name == stripped) &&
        fn.params.size() == call.children.size()) {
      return true;
    }
  }
  return false;
}

bool IsTraceCall(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall &&
         (e.name == "trace" || e.name == "fn:trace");
}

bool IsErrorCall(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall &&
         (e.name == "error" || e.name == "fn:error");
}

// Collects pointers to every trace() call in the tree, for the swallowed-
// trace rewrite notes (the count alone can't say WHERE the calls were).
void CollectTraceCalls(const Expr& e, std::vector<const Expr*>* out) {
  if (IsTraceCall(e)) out->push_back(&e);
  ForEachChild(e, [out](const Expr& c) { CollectTraceCalls(c, out); });
}

// A numeric literal usable as a static subsequence bound. Negative literals
// parse as kUnary and are (conservatively) not recognized.
bool NumericLiteral(const Expr& e, double* value) {
  if (e.kind != ExprKind::kLiteral) return false;
  switch (e.literal_type) {
    case Expr::LiteralType::kInteger:
      *value = static_cast<double>(e.integer);
      return true;
    case Expr::LiteralType::kDouble:
      *value = e.number;
      return true;
    default:
      return false;
  }
}

std::string DescribeStep(const PathStep& step) {
  std::string out;
  AppendAxisTest(step, &out);
  return out;
}

// True if `e` calls, anywhere (nested predicates included), one of the
// builtins in `banned` (bare or fn:-prefixed), a user-defined function
// (which may trace or error internally) or an unknown one.
bool CallsAny(const Expr& e, const Module& module,
              std::initializer_list<std::string_view> banned) {
  if (e.kind == ExprKind::kFunctionCall) {
    const std::string stripped = StripFn(e.name);
    for (std::string_view name : banned) {
      if (stripped == name) return true;
    }
    if (CallsUserFunction(e, module) || !IsBuiltinName(stripped)) return true;
  }
  bool calls = false;
  ForEachChild(e, [&](const Expr& c) {
    calls = calls || CallsAny(c, module, banned);
  });
  return calls;
}

}  // namespace

const char* RewriteNoteKindName(RewriteNote::Kind kind) {
  switch (kind) {
    case RewriteNote::Kind::kConstantFolded:
      return "constant-folded";
    case RewriteNote::Kind::kDeadLetEliminated:
      return "dead-let-eliminated";
    case RewriteNote::Kind::kTraceSwallowed:
      return "trace-swallowed";
    case RewriteNote::Kind::kLimitPushed:
      return "limit-pushed";
    case RewriteNote::Kind::kDescendantFused:
      return "descendant-fused";
    case RewriteNote::Kind::kProbe:
      return "probe";
  }
  return "unknown";
}

size_t CountTraceCalls(const Expr& e) {
  size_t n = IsTraceCall(e) ? 1 : 0;
  ForEachChild(e, [&n](const Expr& c) { n += CountTraceCalls(c); });
  return n;
}

size_t CountVariableUses(const Expr& e, const std::string& name) {
  if (e.kind == ExprKind::kVarRef) return e.name == name ? 1 : 0;
  if (e.kind == ExprKind::kQuantified) {
    size_t n = CountVariableUses(*e.children[0], name);
    if (e.name != name) n += CountVariableUses(*e.children[1], name);
    return n;
  }
  if (e.kind == ExprKind::kFlwor) {
    size_t n = 0;
    bool shadowed = false;
    for (const FlworClause& c : e.clauses) {
      if (shadowed) break;
      n += CountVariableUses(*c.expr, name);
      if (c.kind != FlworClause::Kind::kWhere &&
          (c.var == name || c.pos_var == name)) {
        shadowed = true;
      }
    }
    if (!shadowed) {
      for (const OrderSpec& o : e.order_by) {
        n += CountVariableUses(*o.key, name);
      }
      n += CountVariableUses(*e.children[0], name);
    }
    return n;
  }
  size_t n = 0;
  ForEachChild(e, [&](const Expr& c) { n += CountVariableUses(c, name); });
  return n;
}

namespace {

// Purity with a memo over user-defined functions; recursive functions are
// treated optimistically (pure unless their body shows otherwise), which is
// what an aggressive query optimizer does.
struct PurityAnalyzer {
  const Module& module;
  bool recognize_trace;
  std::map<std::string, int> function_state;  // 0=analyzing, 1=pure, 2=impure

  bool Pure(const Expr& e) {
    if (IsErrorCall(e)) return false;  // eliminating error() changes outcomes
    if (IsTraceCall(e)) {
      if (recognize_trace) return false;  // the "fixed" optimizer
      // Galax-era behavior: trace looks pure, so a dead let swallows it.
    }
    if (e.kind == ExprKind::kFunctionCall && !IsTraceCall(e)) {
      std::string name = e.name;
      if (StartsWith(name, "fn:")) name = name.substr(3);
      bool builtin = IsBuiltinName(e.name) || IsBuiltinName(name);
      if (!builtin) {
        const FunctionDecl* decl = nullptr;
        for (const FunctionDecl& fn : module.functions) {
          if (fn.name == e.name && fn.params.size() == e.children.size()) {
            decl = &fn;
            break;
          }
        }
        if (decl == nullptr) return false;  // unknown callee: assume impure
        auto [it, inserted] = function_state.try_emplace(decl->name, 0);
        if (inserted) {
          bool body_pure = Pure(*decl->body);
          it = function_state.find(decl->name);
          it->second = body_pure ? 1 : 2;
        }
        if (it->second == 2) return false;
        // state 0 (self-recursive) or 1: treat as pure.
      }
    }
    bool pure = true;
    ForEachChild(e, [&](const Expr& c) {
      if (pure && !Pure(c)) pure = false;
    });
    return pure;
  }
};

struct Rewriter {
  const Module& module;
  const OptimizerOptions& options;
  OptimizerStats stats;
  PurityAnalyzer purity;

  explicit Rewriter(const Module& m, const OptimizerOptions& opts)
      : module(m), options(opts), purity{m, opts.recognize_trace, {}} {}

  void Rewrite(Expr* e) {
    // Bottom-up: rewrite children first.
    for (ExprPtr& c : e->children) Rewrite(c.get());
    for (PathStep& s : e->steps) {
      for (ExprPtr& p : s.predicates) Rewrite(p.get());
    }
    for (FlworClause& c : e->clauses) Rewrite(c.expr.get());
    for (OrderSpec& o : e->order_by) Rewrite(o.key.get());
    for (DirectAttribute& a : e->attributes) {
      for (ExprPtr& p : a.value_parts) Rewrite(p.get());
    }

    if (options.dead_let_elimination && e->kind == ExprKind::kFlwor) {
      EliminateDeadLets(e);
    }
    if (options.constant_folding) FoldConstants(e);
    if (options.limit_pushdown) PushLimits(e);
  }

  // --- Limit push-down ------------------------------------------------------
  //
  // Annotates path expressions with the prefix demand of a statically
  // limited consumer (Expr::limit_hint). Sound because the streaming
  // evaluator produces exactly the first `hint` items of the full result
  // (and falls back to the FULL result when the chain cannot stream), and
  // because each recognized consumer provably never observes anything past
  // that prefix. Conservative by design: only literal bounds, only direct
  // consumer positions, no propagation through arbitrary expressions.

  // Resolves `e` as a call to the builtin `want` (bare or fn:-prefixed) that
  // is not shadowed by a user-declared function of the same name and arity.
  bool IsUnshadowedBuiltin(const Expr& e, const char* want) const {
    return e.kind == ExprKind::kFunctionCall && StripFn(e.name) == want &&
           !CallsUserFunction(e, module);
  }

  // The prefix demand a call places on its first (sequence) argument: 1 for
  // fn:head, the window end for fn:subsequence with literal start/length
  // (via the same SubsequenceWindow normalization the builtin uses, so
  // pushed and unpushed plans select identical items), 0 for anything else.
  size_t ConsumerDemand(const Expr& call) const {
    if (call.children.size() == 1 && IsUnshadowedBuiltin(call, "head")) {
      return 1;
    }
    if (call.children.size() == 3 &&
        IsUnshadowedBuiltin(call, "subsequence")) {
      double start, len;
      if (!NumericLiteral(*call.children[1], &start) ||
          !NumericLiteral(*call.children[2], &len)) {
        return 0;
      }
      double lo, hi;
      if (!SubsequenceWindow(start, len, /*has_length=*/true, &lo, &hi)) {
        return 0;  // statically empty; nothing worth annotating
      }
      // Selected positions satisfy p < hi, so the first hi-1 items suffice
      // regardless of lo. Unbounded or out-of-range windows are not pushed.
      double need = hi - 1;
      if (!(need >= 1) || need > 1e15) return 0;
      return static_cast<size_t>(need);
    }
    return 0;
  }

  // A where-condition that caps position variable $pos_var at N for every
  // passing tuple: `$p le N` / `$p lt N` / `$p eq N` (value or general
  // form) with an integer literal bound. Returns 0 when nothing is proven.
  size_t PositionBound(const Expr& w, const std::string& pos_var) const {
    if (w.kind != ExprKind::kBinary || w.children.size() != 2) return 0;
    const Expr& l = *w.children[0];
    const Expr& r = *w.children[1];
    if (l.kind != ExprKind::kVarRef || l.name != pos_var) return 0;
    if (r.kind != ExprKind::kLiteral ||
        r.literal_type != Expr::LiteralType::kInteger) {
      return 0;
    }
    int64_t n = r.integer;
    switch (w.op) {
      case BinOp::kValLe:
      case BinOp::kGenLe:
      case BinOp::kValEq:
      case BinOp::kGenEq:
        return n >= 1 ? static_cast<size_t>(n) : 0;
      case BinOp::kValLt:
      case BinOp::kGenLt:
        return n >= 2 ? static_cast<size_t>(n - 1) : 0;
      default:
        return 0;
    }
  }

  // Finds the demand of the one unshadowed use of $var in `e`, but only if
  // that use sits directly in a limited consumer's sequence slot. Traversal
  // mirrors CountVariableUses' shadowing rules, so a same-named binding
  // deeper in never matches. Callers must have established uses == 1.
  size_t SoleUseDemand(const Expr& e, const std::string& var) const {
    if (e.kind == ExprKind::kFunctionCall) {
      size_t demand = ConsumerDemand(e);
      if (demand > 0 && !e.children.empty() &&
          e.children[0]->kind == ExprKind::kVarRef &&
          e.children[0]->name == var) {
        return demand;
      }
    }
    if (e.kind == ExprKind::kQuantified) {
      size_t d = SoleUseDemand(*e.children[0], var);
      if (d == 0 && e.name != var) d = SoleUseDemand(*e.children[1], var);
      return d;
    }
    if (e.kind == ExprKind::kFlwor) {
      for (const FlworClause& c : e.clauses) {
        size_t d = SoleUseDemand(*c.expr, var);
        if (d > 0) return d;
        if (c.kind != FlworClause::Kind::kWhere &&
            (c.var == var || c.pos_var == var)) {
          return 0;  // rebound: later references are a different variable
        }
      }
      for (const OrderSpec& o : e.order_by) {
        size_t d = SoleUseDemand(*o.key, var);
        if (d > 0) return d;
      }
      return SoleUseDemand(*e.children[0], var);
    }
    size_t found = 0;
    ForEachChild(e, [&](const Expr& c) {
      if (found == 0) found = SoleUseDemand(c, var);
    });
    return found;
  }

  void ApplyHint(Expr* path, size_t demand, std::string why, size_t line,
                 size_t col) {
    if (path->limit_hint == 0 || demand < path->limit_hint) {
      path->limit_hint = demand;
    }
    ++stats.limits_pushed;
    stats.notes.push_back(
        {RewriteNote::Kind::kLimitPushed, std::move(why), line, col});
  }

  void PushLimits(Expr* e) {
    if (e->kind == ExprKind::kFunctionCall) {
      size_t demand = ConsumerDemand(*e);
      if (demand > 0 && !e->children.empty() &&
          e->children[0]->kind == ExprKind::kPath) {
        ApplyHint(e->children[0].get(), demand,
                  e->name + "() observes at most the first " +
                      std::to_string(demand) +
                      " item(s) of its path argument; limit pushed",
                  e->line, e->col);
      }
      return;
    }
    if (e->kind != ExprKind::kFlwor) return;
    // Positional for guarded by an IMMEDIATELY following where on the
    // position variable: tuples past the bound are filtered before any
    // other clause can observe them (an intervening clause might error or
    // trace on a tuple the push-down would never produce).
    for (size_t i = 0; i + 1 < e->clauses.size(); ++i) {
      FlworClause& c = e->clauses[i];
      if (c.kind != FlworClause::Kind::kFor || c.pos_var.empty()) continue;
      if (c.expr->kind != ExprKind::kPath) continue;
      const FlworClause& next = e->clauses[i + 1];
      if (next.kind != FlworClause::Kind::kWhere) continue;
      size_t bound = PositionBound(*next.expr, c.pos_var);
      if (bound > 0) {
        ApplyHint(c.expr.get(), bound,
                  "where $" + c.pos_var + " caps the positional for at " +
                      std::to_string(bound) + " tuple(s); limit pushed",
                  c.expr->line, c.expr->col);
      }
    }
    // A let-bound path consumed exactly once, directly by a limited
    // consumer: binding only the demanded prefix is unobservable.
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      FlworClause& c = e->clauses[i];
      if (c.kind != FlworClause::Kind::kLet) continue;
      if (c.expr->kind != ExprKind::kPath) continue;
      size_t uses = 0;
      bool shadowed = false;
      for (size_t j = i + 1; j < e->clauses.size() && !shadowed; ++j) {
        uses += CountVariableUses(*e->clauses[j].expr, c.var);
        if (e->clauses[j].kind != FlworClause::Kind::kWhere &&
            (e->clauses[j].var == c.var ||
             e->clauses[j].pos_var == c.var)) {
          shadowed = true;
        }
      }
      if (!shadowed) {
        for (const OrderSpec& o : e->order_by) {
          uses += CountVariableUses(*o.key, c.var);
        }
        uses += CountVariableUses(*e->children[0], c.var);
      }
      if (uses != 1) continue;
      size_t demand = 0;
      for (size_t j = i + 1; j < e->clauses.size() && demand == 0; ++j) {
        demand = SoleUseDemand(*e->clauses[j].expr, c.var);
        if (e->clauses[j].kind != FlworClause::Kind::kWhere &&
            (e->clauses[j].var == c.var ||
             e->clauses[j].pos_var == c.var)) {
          break;  // rebound; stop searching like the use count did
        }
      }
      if (demand == 0 && !shadowed) {
        for (size_t k = 0; k < e->order_by.size() && demand == 0; ++k) {
          demand = SoleUseDemand(*e->order_by[k].key, c.var);
        }
        if (demand == 0) demand = SoleUseDemand(*e->children[0], c.var);
      }
      if (demand > 0) {
        ApplyHint(c.expr.get(), demand,
                  "let $" + c.var + " is consumed once, by a consumer that " +
                      "observes at most " + std::to_string(demand) +
                      " item(s); limit pushed",
                  c.expr->line, c.expr->col);
      }
    }
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
        size_t uses = 0;
        bool shadowed = false;
        for (size_t j = i + 1; j < flwor->clauses.size() && !shadowed; ++j) {
          uses += CountVariableUses(*flwor->clauses[j].expr, clause.var);
          if (flwor->clauses[j].kind != FlworClause::Kind::kWhere &&
              (flwor->clauses[j].var == clause.var ||
               flwor->clauses[j].pos_var == clause.var)) {
            shadowed = true;
          }
        }
        if (!shadowed) {
          for (const OrderSpec& o : flwor->order_by) {
            uses += CountVariableUses(*o.key, clause.var);
          }
          uses += CountVariableUses(*flwor->children[0], clause.var);
        }
        if (uses != 0) continue;
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

  void FoldConstants(Expr* e) {
    if (e->kind != ExprKind::kBinary) return;
    if (e->children.size() != 2) return;
    const Expr& a = *e->children[0];
    const Expr& b = *e->children[1];
    if (a.kind != ExprKind::kLiteral || b.kind != ExprKind::kLiteral) return;
    if (a.literal_type != Expr::LiteralType::kInteger ||
        b.literal_type != Expr::LiteralType::kInteger) {
      return;
    }
    int64_t x = a.integer;
    int64_t y = b.integer;
    int64_t value = 0;
    switch (e->op) {
      case BinOp::kAdd:
        value = x + y;
        break;
      case BinOp::kSub:
        value = x - y;
        break;
      case BinOp::kMul:
        value = x * y;
        break;
      case BinOp::kIdiv:
        if (y == 0) return;  // leave the runtime error in place
        value = x / y;
        break;
      case BinOp::kMod:
        if (y == 0) return;
        value = x % y;
        break;
      default:
        return;
    }
    Expr folded(ExprKind::kLiteral);
    folded.literal_type = Expr::LiteralType::kInteger;
    folded.integer = value;
    folded.line = e->line;
    folded.col = e->col;
    stats.notes.push_back({RewriteNote::Kind::kConstantFolded,
                           std::to_string(x) + " " + BinOpName(e->op) + " " +
                               std::to_string(y) + " folded to " +
                               std::to_string(value),
                           e->line, e->col});
    *e = std::move(folded);
    ++stats.folded_constants;
  }
};

}  // namespace

bool IsPure(const Expr& e, const Module& module, bool recognize_trace) {
  PurityAnalyzer analyzer{module, recognize_trace, {}};
  return analyzer.Pure(e);
}

OptimizerStats Optimize(Module* module, const OptimizerOptions& options) {
  Rewriter rewriter(*module, options);
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
  const Module& module;
  OptimizerStats* stats;

  // True if `key` evaluates to the same value for every candidate of the
  // predicate it sits in, so one evaluation can serve them all.
  bool KeyIndependent(const Expr& key) const {
    switch (key.kind) {
      case ExprKind::kContextItem:
        return false;
      case ExprKind::kPath:
        // Relative and rooted paths both start at the focus.
        if (!key.has_base) return false;
        break;
      case ExprKind::kDirectElement:
      case ExprKind::kCompElement:
      case ExprKind::kCompAttribute:
      case ExprKind::kCompText:
      case ExprKind::kCompComment:
      case ExprKind::kCompDocument:
        return false;  // fresh node identities per evaluation
      case ExprKind::kFunctionCall: {
        // position(), last(), name(), string(), ... read the focus; a
        // user-defined function may trace, error or recurse.
        const std::string stripped = StripFn(key.name);
        if (key.children.empty() || stripped == "trace" ||
            stripped == "error" || CallsUserFunction(key, module) ||
            !IsBuiltinName(stripped)) {
          return false;
        }
        break;
      }
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
  ProbeMarker marker{*module, stats};
  ForEachTopLevel(module, [&marker](Expr* e) { marker.Mark(e); });
}

// --- Node-set intern predicate folding --------------------------------------

namespace {

// Pure value builtins a foldable predicate may call: functions of their
// arguments and the context ITEM only -- nothing that observes position(),
// last(), variables, the dynamic context, or has effects. Note the absence
// of position/last (focus-dependent), trace/error (trace-parity rule),
// doc/collection (reach outside the candidate subtree), and generate-id
// (identity-dependent across documents).
bool IsInternFoldableBuiltin(const std::string& stripped) {
  static const char* const kAllowed[] = {
      "abs",        "avg",           "boolean",          "ceiling",
      "concat",     "contains",      "count",            "data",
      "empty",      "ends-with",     "exists",           "false",
      "floor",      "local-name",    "lower-case",       "max",
      "min",        "name",          "normalize-space",  "not",
      "number",     "round",         "starts-with",      "string",
      "string-join", "string-length", "substring",
      "substring-after", "substring-before", "sum", "translate",
      "true",       "upper-case",
  };
  for (const char* name : kAllowed) {
    if (stripped == name) return true;
  }
  return false;
}

// The boolean-valued builtins among the above, acceptable as a predicate's
// TOP-LEVEL expression. The distinction matters because XPath predicate
// semantics treat a numeric predicate value as a position test: folding
// `[count(c)]` would freeze a position-dependent selection, while
// `[exists(c)]` is a pure tree function.
bool IsInternBooleanBuiltin(const std::string& stripped) {
  return stripped == "not" || stripped == "exists" || stripped == "empty" ||
         stripped == "boolean" || stripped == "contains" ||
         stripped == "starts-with" || stripped == "ends-with" ||
         stripped == "true" || stripped == "false";
}

// Decides whether a predicate may be folded into a node-set intern
// fingerprint: its value for a given candidate node is a pure function of
// the tree alone. That requires all of (DESIGN.md section 14):
//
//   - provably boolean-valued at the top level (comparisons, and/or,
//     not/exists/empty/boolean calls) or a node-path shape whose effective
//     boolean value is "any nodes?" -- NEVER a possibly-numeric expression,
//     which XPath predicate semantics would turn into a position test;
//   - no position()/last()/variables/dynamic context: the whitelisted
//     builtins are pure functions of their arguments and the context ITEM;
//   - no observable effects (fn:trace/fn:error -- the trace-parity rule) and
//     no user-defined or unknown functions, which may hide either;
//   - only downward-reading subexpressions: relative non-rooted paths over
//     child/attribute/descendant(-or-self)/self axes, so everything the
//     predicate can see lies beneath the candidate and is covered by the
//     entry's subtree guards.
//
// In attribute-only mode every path must moreover be a single attribute
// step (e.g. `[@id = "x"]` and and/or combinations): the class the guard
// descent may resolve through, because the candidates' attribute state is
// exactly what a kLocalChildren guard on their parent watches.
struct FoldScanner {
  const Module& module;
  bool attr_only = false;

  bool UserOrUnknown(const Expr& e) const {
    return CallsUserFunction(e, module) || !IsBuiltinName(StripFn(e.name));
  }

  bool FoldablePath(const Expr& e) const {
    if (e.rooted || e.has_base) return false;  // must start at the candidate
    if (e.steps.empty()) return false;
    if (attr_only) {
      if (e.steps.size() != 1) return false;
      const PathStep& s = e.steps[0];
      return !s.is_filter && s.axis == Axis::kAttribute &&
             s.predicates.empty() &&
             (s.test.kind == NodeTestKind::kName ||
              s.test.kind == NodeTestKind::kAnyName);
    }
    for (const PathStep& s : e.steps) {
      if (s.is_filter) return false;
      switch (s.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
        case Axis::kSelf:
          break;  // downward: stays inside the candidate's subtree
        default:
          return false;  // parent/ancestor/sibling escape the subtree
      }
      for (const ExprPtr& p : s.predicates) {
        // Nested predicates get their own focus; integer-literal position
        // picks and foldable boolean shapes are both pure tree functions.
        if (p->kind == ExprKind::kLiteral &&
            p->literal_type == Expr::LiteralType::kInteger) {
          continue;
        }
        if (!FoldableBool(*p)) return false;
      }
    }
    return true;
  }

  bool FoldableBool(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kBinary:
        switch (e.op) {
          case BinOp::kAnd:
          case BinOp::kOr:
            return FoldableBool(*e.children[0]) && FoldableBool(*e.children[1]);
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
            return FoldableValue(*e.children[0]) &&
                   FoldableValue(*e.children[1]);
          default:
            return false;  // arithmetic/union/range: value, maybe numeric
        }
      case ExprKind::kFunctionCall: {
        if (UserOrUnknown(e)) return false;
        if (!IsInternBooleanBuiltin(StripFn(e.name))) return false;
        for (const ExprPtr& c : e.children) {
          if (!FoldableValue(*c)) return false;
        }
        return true;
      }
      case ExprKind::kPath:
        // A node path's effective boolean value is "any nodes?" -- node
        // sequences are never mistaken for position tests.
        return FoldablePath(e);
      default:
        return false;
    }
  }

  bool FoldableValue(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kTextLiteral:
      case ExprKind::kEmptySequence:
      case ExprKind::kContextItem:
        return true;
      case ExprKind::kSequence: {
        for (const ExprPtr& c : e.children) {
          if (!FoldableValue(*c)) return false;
        }
        return true;
      }
      case ExprKind::kPath:
        return FoldablePath(e);
      case ExprKind::kBinary:
        switch (e.op) {
          case BinOp::kAnd:
          case BinOp::kOr:
            return FoldableBool(e);
          case BinOp::kAdd:
          case BinOp::kSub:
          case BinOp::kMul:
          case BinOp::kDiv:
          case BinOp::kIdiv:
          case BinOp::kMod:
          case BinOp::kUnion:
          case BinOp::kIntersect:
          case BinOp::kExcept:
          case BinOp::kTo:
            return FoldableValue(*e.children[0]) &&
                   FoldableValue(*e.children[1]);
          default:
            // Comparisons are boolean-valued, fine as subexpressions too.
            return FoldableBool(e);
        }
      case ExprKind::kUnary:
        return FoldableValue(*e.children[0]);
      case ExprKind::kIf:
        return FoldableValue(*e.children[0]) &&
               FoldableValue(*e.children[1]) && FoldableValue(*e.children[2]);
      case ExprKind::kFunctionCall: {
        if (UserOrUnknown(e)) return false;
        if (!IsInternFoldableBuiltin(StripFn(e.name))) return false;
        for (const ExprPtr& c : e.children) {
          if (!FoldableValue(*c)) return false;
        }
        return true;
      }
      default:
        // Variables (dynamic environment), FLWOR/quantified (bindings),
        // constructors (fresh node identities per evaluation), casts kept
        // out until needed: all unfoldable.
        return false;
    }
  }
};

// --- Descendant-step fusion -------------------------------------------------

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
          return true;
        default:
          return false;
      }
    case ExprKind::kFunctionCall:
      return IsInternBooleanBuiltin(StripFn(e.name));
    case ExprKind::kPath:
      return !e.steps.empty() && !e.steps.back().is_filter;
    default:
      return false;
  }
}

// The rule behind PathStep::position_free: an axis step whose every
// predicate has the same verdict for a candidate under any focus position
// and size -- boolean-valued, no position()/last(), and none of the calls
// that block streaming (trace/error/user-defined/unknown), so dropping the
// per-parent evaluation is unobservable.
bool PositionFree(const PathStep& step, const Module& module) {
  if (step.is_filter) return false;
  for (const ExprPtr& p : step.predicates) {
    if (!BooleanValued(*p) ||
        CallsAny(*p, module, {"position", "last", "trace", "error"})) {
      return false;
    }
  }
  return true;
}

struct DescendantFuser {
  const Module& module;
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
          !PositionFree(child, module)) {
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

// --- Step resolution --------------------------------------------------------

bool IsDocCall(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall &&
         (e.name == "doc" || e.name == "fn:doc");
}

struct StepResolver {
  const Module& module;

  void Resolve(Expr* e) {
    ForEachChild(e, [this](Expr* c) { Resolve(c); });
    // Interning starts at a base that is statically a tree root: the `/`
    // root, or fn:doc(...).
    bool internable = e->kind == ExprKind::kPath &&
                      (e->has_base ? IsDocCall(*e->children[0]) : e->rooted);
    const FoldScanner foldable{module, /*attr_only=*/false};
    const FoldScanner attribute_only{module, /*attr_only=*/true};
    for (PathStep& step : e->steps) {
      step.position_free = PositionFree(step, module);
      step.streamable = !step.is_filter && IsStreamableAxis(step.axis);
      step.foldable = !step.is_filter;
      step.attribute_only = !step.is_filter;
      for (const ExprPtr& p : step.predicates) {
        // fn:last needs materialized cardinality, and trace/error/user-
        // defined calls must see the exact materializing evaluation order
        // (the trace-parity rule, DESIGN.md section 10).
        step.streamable =
            step.streamable && !CallsAny(*p, module, {"last", "trace", "error"});
        step.foldable = step.foldable && foldable.FoldableBool(*p);
        step.attribute_only =
            step.attribute_only && attribute_only.FoldableBool(*p);
      }
      internable = internable && step.foldable;
      step.internable = internable;
    }
  }
};

}  // namespace

void FuseDescendantSteps(Module* module, OptimizerStats* stats) {
  DescendantFuser fuser{*module, stats};
  ForEachTopLevel(module, [&fuser](Expr* e) { fuser.Fuse(e); });
}

void ResolveSteps(Module* module) {
  StepResolver resolver{*module};
  ForEachTopLevel(module, [&resolver](Expr* e) { resolver.Resolve(e); });
}

}  // namespace lll::xq
