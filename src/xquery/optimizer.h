#ifndef LLL_XQUERY_OPTIMIZER_H_
#define LLL_XQUERY_OPTIMIZER_H_

#include <string>
#include <vector>

#include "xquery/ast.h"

namespace lll::xq {

// Optimizer switches. The default configuration deliberately reproduces the
// Galax-era behavior the paper fought with: dead-code analysis is ON and
// fn:trace is NOT recognized as impure, so
//
//     let $dummy := trace("x=", $x)
//
// introduces a dead variable that is "helpfully optimized away -- along with
// the call to trace". Setting recognize_trace = true models "the optimizer
// would be fixed to recognize trace in the next version". Dead-let
// elimination, `//T` fusion and probe marking always run.
struct OptimizerOptions {
  bool recognize_trace = false;
};

// One rewrite decision, recorded for EXPLAIN. Where the rewrite deleted
// code (dead lets, swallowed trace calls) the note is the only remaining
// evidence it ever existed -- which is exactly what the paper's users were
// missing when their trace output silently vanished.
struct RewriteNote {
  enum class Kind {
    kDeadLetEliminated,  // unused pure let binding removed
    kTraceSwallowed,     // a trace() call went down with a dead let
    kDescendantFused,    // descendant-or-self::node()/child::T -> descendant::T
    // A `@a = K` predicate marked for a hash probe (Expr::probe_key).
    kProbe,
  };
  Kind kind;
  std::string detail;  // human-readable: what, and what it became
  size_t line = 0;     // source position of the rewritten expression
  size_t col = 0;
};

const char* RewriteNoteKindName(RewriteNote::Kind kind);

struct OptimizerStats {
  size_t eliminated_lets = 0;
  // trace() calls that were inside eliminated lets -- the paper's pathology,
  // counted so E6 can report exactly how many trace outputs were swallowed.
  size_t eliminated_trace_calls = 0;
  // `//T` step pairs fused into one descendant::T step.
  size_t fused_descendant_steps = 0;
  // Step predicates marked for a hash probe (Expr::probe_key).
  size_t probe_predicates = 0;
  // Every individual rewrite decision, in application order.
  std::vector<RewriteNote> notes;
};

// The name-binding pass, run by Compile on every plan before any other pass.
// Sets every call's Expr::decl or Expr::builtin, every variable reference's
// Expr::scope and slot, every binding's slot and every frame's size, by the
// rules of DESIGN.md section 18. A let that dead-let elimination removes
// later leaves its slot unused.
void BindNames(Module* module);

// Optimizes the bound module in place.
OptimizerStats Optimize(Module* module, const OptimizerOptions& options);

// The descendant-fusion pass, run by Optimize() after its rewrites and
// before probe marking. Rewrites each `descendant-or-self::node()/child::
// T[P...]` step pair (the expansion of `//T[P...]`; the first step bare)
// into `descendant::T[P...]` when the child step is position-free (see
// PathStep::position_free). Each fusion appends a kDescendantFused note and
// counts in stats->fused_descendant_steps. DESIGN.md section 18.
void FuseDescendantSteps(Module* module, OptimizerStats* stats);

// The probe-marking pass, run last by Optimize(). Marks every step
// predicate of the form `@a = K` or `K = @a` (general `=`, `@a` a bare
// attribute name step) whose key K cannot read the candidate: no `.`, no
// path without a base, no zero-argument call (the focus builtins
// position(), name(), string(), ...), no constructor, and no call to
// trace/error, a user-defined function or an unknown function. Sets
// Expr::probe_key, appends one kProbe note per mark, and counts the marks
// in stats->probe_predicates. DESIGN.md section 16.
void MarkProbePredicates(Module* module, OptimizerStats* stats);

// The resolve pass: derives every per-step fact of PathStep (position_free,
// streamable), every path's Expr::limit_hint and intern facts
// (Expr::intern, set only on a path that interns: the chain, its key, the
// probe chain's key, and the names each chain tests, its cache entry's
// guard) and every FunctionDecl::memoizable from the bound AST. Run by
// Compile on every plan, optimized or not, after any rewrite, so the facts
// are computed once per plan. The intern rule: a step joins the interned
// chain when it has no predicate (DESIGN.md section 14), the next step
// extends it, with an index of its probed attribute, when that step is
// position-free and its first predicate a probe (section 16), and a path
// with a limit hint interns nothing.
void ResolveSteps(Module* module);

// False if evaluating the bound expression `e`, or any user function it
// reaches, can have an observable effect besides its value (under the
// given trace policy). Used by dead-let elimination.
bool IsPure(const Expr& e, bool recognize_trace);

}  // namespace lll::xq

#endif  // LLL_XQUERY_OPTIMIZER_H_
