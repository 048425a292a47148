#ifndef LLL_XQUERY_AST_H_
#define LLL_XQUERY_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "xdm/item.h"

namespace lll::xq {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct FunctionDecl;
struct Builtin;  // eval.h

// XPath axes. The subset covers everything the paper's document generator
// used: child::, descendant(-or-self)::, parent:: ("parent::book"), self::,
// ancestor::, attribute:: (@), and the sibling axes used by table code.
enum class Axis {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kAttribute,
  kFollowingSibling,
  kPrecedingSibling,
};

const char* AxisName(Axis axis);

enum class NodeTestKind {
  kName,     // kid, parent::book
  kAnyName,  // *
  kText,     // text()
  kComment,  // comment()
  kPi,       // processing-instruction()
  kAnyNode,  // node()
};

struct NodeTest {
  NodeTestKind kind = NodeTestKind::kAnyName;
  std::string name;  // for kName
};

// True for the forward axes the streaming pipeline can enumerate lazily in
// document order, one candidate at a time.
bool IsForwardStreamableAxis(Axis axis);

// True for the reverse axes the pipeline handles with a barrier stage:
// per-context runs enumerate natively in reverse document order (ancestor
// chains and preceding siblings need no per-run sort), buffer their passing
// candidates, and are k-way-merged back into document order.
bool IsReverseStreamableAxis(Axis axis);

// Either of the above: the step's axis can participate in the pull pipeline.
bool IsStreamableAxis(Axis axis);

struct PathStep {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<ExprPtr> predicates;
  // A filter step -- `E[pred]` over a primary expression -- applies its
  // predicates to the WHOLE input sequence (atomics allowed, position counts
  // across the sequence), unlike an axis step whose predicates count
  // positions per context item. This is how (1,2,3)[2] yields 2.
  bool is_filter = false;
  // The per-step facts below are derived by ResolveSteps (optimizer.h),
  // which Compile runs on every plan, optimized or not. The evaluator reads
  // them instead of re-scanning predicates; only dynamic conditions
  // (EvalOptions::streaming, single-document input) are left to check at
  // run time.
  //
  // Every predicate is position-free: boolean-valued at the top level, no
  // position()/last(), no trace/error/user-defined/unknown call. A
  // candidate's verdict then does not depend on which context produced it
  // or where it sits among that context's candidates. This is what licenses
  // fusing `//T[P]` into descendant::T[P], and what lets the probe
  // extension apply later predicates across contexts (DESIGN.md section
  // 18).
  bool position_free = false;
  // The step may run inside the pull pipeline: a streamable axis whose
  // predicates never call fn:last(), fn:trace()/fn:error(), or a
  // user-defined/unknown function (the trace-parity rule, DESIGN.md section
  // 10). EXPLAIN renders it as [streamed] for forward axes and
  // [streamed-rev] for reverse ones.
  bool streamable = false;
};

// The names an interned chain tests, its guard (DESIGN.md section 14): the
// chain's node set cannot change unless an edit attaches, detaches or
// renames an element or attribute of one of these names, or writes an
// attribute its entry indexes -- or, when `any` is set, attaches or
// detaches any node at all. Names stay strings: query text is untrusted,
// so compiling interns none of them in the process-wide NameTable.
struct ChainNames {
  std::vector<std::string> elements;
  std::vector<std::string> attributes;
  bool any = false;  // some step tests no name: *, node(), text(), ...
};

// How a path interns (Expr::intern). The first `steps` steps are the chain
// the evaluator memoizes when the path starts at a tree root: the leading
// axis steps with no predicate. `key` is their text: each step's
// axis::test, then "/". The next step is probe-extended when it is
// position_free and its first predicate is a probe (probe_key, so only in
// optimized plans): under streaming the chain then runs through that step's
// bare axis::test, its entry carries an index of the probed attribute's
// values, the probe's key looks up that index, and the step's other
// predicates filter the hits (DESIGN.md section 16). `probe_chain_key` is
// that entry's key -- the intern key plus the bare axis::test, "/" and
// `@a`, the probed attribute -- and empty when no step is probe-extended.
// No key holds a literal, so every key value shares one entry. A path
// interns when `steps` is nonzero or a step is probe-extended, and a path
// with a limit_hint interns nothing. EXPLAIN renders every interned step of
// a path whose base is statically a tree root as [interned]. `names` and
// `probe_chain_names` are the names each chain tests, its entry's guard;
// the probe chain's include the probed attribute.
struct InternFacts {
  size_t steps = 0;
  std::string key;
  std::string probe_chain_key;
  ChainNames names;
  ChainNames probe_chain_names;
};

// Appends a step's "axis::test" spelling (e.g. "child::a",
// "descendant::text()") to `out`: the one renderer behind ExprToString,
// EXPLAIN, rewrite notes and node-set intern keys.
void AppendAxisTest(const PathStep& step, std::string* out);

enum class BinOp {
  kOr,
  kAnd,
  // General comparisons (existential =, !=, <, <=, >, >=).
  kGenEq,
  kGenNe,
  kGenLt,
  kGenLe,
  kGenGt,
  kGenGe,
  // Value ("singleton") comparisons eq / ne / lt / le / gt / ge.
  kValEq,
  kValNe,
  kValLt,
  kValLe,
  kValGt,
  kValGe,
  kIs,  // node identity
  // Node order comparisons << and >>: document order.
  kPrecedes,
  kFollows,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kIdiv,
  kMod,
  kUnion,
  kIntersect,
  kExcept,
  kTo,  // range 1 to n
};

const char* BinOpName(BinOp op);

enum class ExprKind {
  kLiteral,       // atomic literal (string/integer/double)
  kEmptySequence, // ()
  kSequence,      // (a, b, c) -- children are the members; flattens on eval
  kVarRef,        // $name
  kContextItem,   // .
  kPath,          // steps, possibly rooted; children[0] (optional) = base expr
  kBinary,        // children[0] op children[1]
  kUnary,         // -e / +e; children[0]
  kIf,            // children = {cond, then, else}
  kFlwor,         // for/let/where/order/return
  kQuantified,    // some/every $v in e satisfies e
  kFunctionCall,  // name, children = args
  kDirectElement, // <name attr="...">...</name>
  kTextLiteral,   // raw character data inside a direct constructor
  kCompElement,   // element name {content} / element {nameExpr} {content}
  kCompAttribute, // attribute name {content} / attribute {nameExpr} {content}
  kCompText,      // text {content}
  kCompComment,   // comment {content}
  kCompDocument,  // document {content}
  kCastAs,        // e cast as type
  kCastableAs,    // e castable as type
  kInstanceOf,    // e instance of type
  kTryCatch,      // try { e } catch { e } -- the Moral #4 extension
};

const char* ExprKindName(ExprKind kind);

// SequenceType -- the slice of the "extensive, almost baroque" type system we
// support for function annotations: an item type plus an occurrence
// indicator. Enough to reproduce the paper's type-annotation experiment.
struct SequenceType {
  enum class ItemType {
    kItem,
    kNode,
    kElement,
    kAttribute,
    kTextNode,
    kDocumentNode,
    kString,
    kInteger,
    kDecimal,  // accepted in source; behaves as double
    kDouble,
    kBoolean,
    kUntyped,
    kAnyAtomic,
    kEmpty,  // empty-sequence()
  };
  enum class Occurrence {
    kOne,       // T
    kOptional,  // T?
    kStar,      // T*
    kPlus,      // T+
  };

  ItemType item_type = ItemType::kItem;
  Occurrence occurrence = Occurrence::kStar;
  std::string element_name;  // element(foo) restricts the name; empty = any

  std::string ToString() const;
};

// One for/let binding in a FLWOR.
struct FlworClause {
  enum class Kind { kFor, kLet, kWhere };
  Kind kind = Kind::kFor;
  std::string var;       // without '$'
  std::string pos_var;   // "for $x at $i in ..." ; empty if none
  ExprPtr expr;          // binding expr, or the where condition
  // $var's frame slot, and $pos_var's is slot + 1 (bound by BindNames).
  uint32_t slot = 0;
};

struct OrderSpec {
  ExprPtr key;
  bool descending = false;
};

// Attribute of a direct element constructor: value is a concatenation of raw
// text pieces and enclosed expressions.
struct DirectAttribute {
  std::string name;
  std::vector<ExprPtr> value_parts;  // kTextLiteral or arbitrary exprs
};

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}

  ExprKind kind;

  // kLiteral payload. Held via the variant-free scheme below to keep Expr
  // default-constructible: strings in `text`, numbers in `number`/`integer`.
  enum class LiteralType { kString, kInteger, kDouble } literal_type =
      LiteralType::kString;
  std::string text;     // literal string / kTextLiteral raw text
  int64_t integer = 0;  // integer literal
  double number = 0;    // double literal

  std::string name;     // variable / function / element / attribute name
  BinOp op = BinOp::kOr;

  // Generic subexpressions; meaning depends on kind (documented per kind
  // above). For kPath with a base expression the base is children[0].
  std::vector<ExprPtr> children;

  // kPath
  bool has_base = false;  // children[0] is the E in E/step/step
  bool rooted = false;    // absolute: starts at the context node's root
  std::vector<PathStep> steps;

  // kBinary kGenEq used as a step predicate: set by the optimizer's probe
  // marking (MarkProbePredicates) when one operand is a bare `@name` step
  // and the other -- the key -- cannot read the candidate. Holds the index
  // in `children` of the key operand (1 for `@a = K`, 0 for `K = @a`); -1
  // means not a probe. The streaming evaluator answers a marked predicate
  // from an index of @name values instead of evaluating it once per
  // candidate: the interned entry's own index on a probe-extended step, a
  // per-query one elsewhere (DESIGN.md section 16). EXPLAIN renders
  // [probe @name].
  int probe_key = -1;

  // kPath: how many leading items of this node path's result its direct
  // consumer can observe, derived by the resolve pass (ResolveSteps) on
  // every plan: 1 for an `if`/`and`/`or`/`where`/`satisfies` operand, a
  // step or filter predicate, or the argument of fn:exists/fn:empty/fn:head;
  // N for the base of `(P)[N]` (DESIGN.md section 10). 0 means no bound.
  // Applied only when EvalOptions::streaming is on; the materializing
  // evaluator ignores it so streaming=false stays byte-identical as the
  // differential baseline. EXPLAIN renders a nonzero hint as [limit N].
  size_t limit_hint = 0;

  // kPath: node-set interning, decided by the resolve pass (ResolveSteps)
  // on every plan (DESIGN.md section 14); null on every path that interns
  // nothing, and on every other expression.
  std::unique_ptr<InternFacts> intern;

  // kFlwor
  std::vector<FlworClause> clauses;
  std::vector<OrderSpec> order_by;
  // return expr is children[0]

  // kQuantified
  bool quantifier_every = false;  // false = some
  // children = {binding expr, satisfies expr}; `name` is the variable

  // kDirectElement
  std::vector<DirectAttribute> attributes;
  // children = content (kTextLiteral / nested constructors / enclosed exprs)

  // kCompElement / kCompAttribute: if `name` empty, children[0] is the name
  // expression and children[1] the content; otherwise children[0] is content.
  bool computed_name = false;

  // kCastAs / kInstanceOf / function signature use.
  SequenceType type;

  // Name bindings, set by BindNames (optimizer.h).
  // kFunctionCall: the user declaration (in this plan's Module, whose
  // functions never change after binding) or else the builtin it runs;
  // neither means an unknown function, an error once evaluated.
  const FunctionDecl* decl = nullptr;
  const Builtin* builtin = nullptr;
  // kVarRef: where the value lives. kQuantified: its variable's frame slot;
  // kTryCatch: $err:description's ($err:code's is slot + 1).
  enum class Scope {
    kLocal,     // the current call frame's `slot`
    kGlobal,    // the prolog's variables[slot]
    kExternal,  // ExecuteOptions::variables, by name
  } scope = Scope::kExternal;
  uint32_t slot = 0;

  // Source position, 1-based; kept through optimization for diagnostics.
  size_t line = 0;
  size_t col = 0;
};

// A user-defined function: declare function local:name($a as T, $b) as T {..}.
struct FunctionDecl {
  struct Param {
    std::string name;
    std::optional<SequenceType> type;  // unannotated: anything goes
  };
  std::string name;
  std::vector<Param> params;  // parameter i lives in frame slot i
  std::optional<SequenceType> return_type;
  ExprPtr body;
  uint32_t frame_size = 0;  // parameters plus the body's bindings
  // A call may be answered from the evaluator's memo of earlier calls with
  // the same arguments: neither the body nor any user function it reaches
  // constructs a node, calls an unknown function, or calls a builtin that
  // traces, raises or constructs (DESIGN.md section 19). Derived by
  // ResolveSteps. EXPLAIN renders it as [memo].
  bool memoizable = false;
};

// declare variable $name := expr;
struct VariableDecl {
  std::string name;
  ExprPtr expr;
};

// A parsed main module: prolog declarations plus the body expression.
struct Module {
  std::vector<FunctionDecl> functions;
  std::vector<VariableDecl> variables;
  ExprPtr body;
  uint32_t frame_size = 0;  // the variable initializers' and body's bindings
};

// The nesting cap on every expression tree. The parser rejects source that
// nests deeper -- in its own recursion or in the tree it builds -- with a
// located kInvalidArgument; plans loaded from disk are compiled from their
// query text, so the same check guards them. Every recursive pass
// (optimizer, evaluator, EXPLAIN) is bounded by it.
// Chosen by measurement (DESIGN.md section 17): under AddressSanitizer the
// costliest shape, nested parentheses, needs ~34 KiB of stack per level, so
// 8 MiB worker stacks top out near 235 levels; 128 keeps a query exactly
// at the cap well inside them, and the deepest program the repository
// ships (docgen phase 1) nests 17 deep.
inline constexpr size_t kMaxExprNesting = 128;

// Number of Expr nodes in the tree -- a code-size metric for E3/E10.
size_t CountExprNodes(const Expr& e);

// Compact single-line rendering for debugging and golden tests.
std::string ExprToString(const Expr& e);

}  // namespace lll::xq

#endif  // LLL_XQUERY_AST_H_
