#ifndef LLL_XQUERY_AST_H_
#define LLL_XQUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "xdm/item.h"

namespace lll::xq {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

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

// Static document-order property of a (node) sequence, used by the
// optimizer's order analysis and mirrored dynamically by the evaluator. A
// chain: each level implies everything below it.
//
//   kSingleton        at most one node (trivially ordered, deduped, and
//                     ancestor-free)
//   kOrderedDisjoint  document order, duplicate-free, and no member is an
//                     ancestor of another (subtrees are disjoint intervals)
//   kOrdered          document order and duplicate-free
//   kNone             nothing proven
//
// The disjointness bit is what makes step-wise proofs compose: child::x from
// an ordered-but-nested context set interleaves sibling groups out of order,
// while from a disjoint set every context's results occupy disjoint,
// ascending intervals.
enum class OrderProp {
  kNone,
  kOrdered,
  kOrderedDisjoint,
  kSingleton,
};

// Property of one axis step's (concatenated, per-context-deduped) result
// given the property of its input sequence. Reverse axes always return
// kNone: the evaluator collects them in reverse document order and relies on
// the normalizing sort.
OrderProp TransferOrder(OrderProp input, Axis axis);

// min() on the OrderProp chain.
OrderProp MeetOrder(OrderProp a, OrderProp b);

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

// Conservative scan for calls that observe the focus size: true if any
// subexpression is a function call named last / fn:last. Streaming counts
// positions exactly but never knows the final count, so such a predicate
// disqualifies its step. Nested predicates get their own focus but are
// included anyway; the over-approximation only costs a fallback.
bool ContainsLastCall(const Expr& e);

// Conservative scan for calls with externally observable effects: true if
// any subexpression calls trace / fn:trace / error / fn:error. The streamed
// merge interleaves per-run predicate evaluation and early exit skips
// evaluations outright, so a trace-bearing predicate must fall back to the
// materializing evaluator to keep the trace-event stream byte-identical
// between modes (the trace-parity rule, DESIGN.md section 10).
bool ContainsTraceCall(const Expr& e);

struct PathStep {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<ExprPtr> predicates;
  // A filter step -- `E[pred]` over a primary expression -- applies its
  // predicates to the WHOLE input sequence (atomics allowed, position counts
  // across the sequence), unlike an axis step whose predicates count
  // positions per context item. This is how (1,2,3)[2] yields 2.
  bool is_filter = false;
  // Set by the optimizer's order analysis: this step's result is provably in
  // document order (and duplicate-free) when the path is evaluated step-wise
  // with inter-step dedup, so the evaluator may skip the normalizing sort.
  bool statically_ordered = false;
  // Set by the optimizer: this step is syntactically eligible for the
  // pull-based streaming pipeline (a streamable axis whose predicates never
  // call fn:last(), fn:trace()/fn:error(), or a user-defined/unknown
  // function). EXPLAIN renders it as [streamed] for forward axes and
  // [streamed-rev] for reverse ones. Advisory only -- the
  // evaluator recomputes eligibility per call, because the CompiledQuery may
  // be shared across threads and dynamic conditions (single-document input,
  // EvalOptions::streaming) cannot be known at compile time.
  bool statically_streamable = false;
  // Set by the optimizer: this step belongs to the leading predicate-free
  // chain of a path rooted at a tree root (the `/` root or fn:doc), the
  // shape the node-set interning cache memoizes. EXPLAIN renders it as
  // [interned]. Advisory, like the above.
  bool statically_internable = false;
  // Set by the optimizer's fusion pass (FuseDescendantSteps): an axis step
  // whose every predicate is position-free -- boolean-valued at the top
  // level, no position()/last(), no trace/error/user-defined/unknown call --
  // so a candidate's verdict does not depend on which context produced it
  // or where it sits among that context's candidates. This is what licenses
  // fusing `//T[P]` into descendant::T[P], and what lets the probe
  // extension apply later predicates across contexts (DESIGN.md section
  // 18). Derived, never serialized: decoding a plan derives it again.
  bool position_free = false;
};

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
  // from a per-query hash index of @name values instead of evaluating it
  // once per candidate (DESIGN.md section 16). Derived, never serialized:
  // decoding a plan marks it again. EXPLAIN renders [probe @name].
  int probe_key = -1;

  // kPath: conservative upper bound, set by the optimizer's limit push-down
  // pass, on how many leading items of this path's result any consumer can
  // observe (fn:head, fn:subsequence starting at 1, a positional `for`
  // guarded by `$p le N`). 0 means no bound. Applied only when
  // EvalOptions::streaming is on; the materializing evaluator ignores it so
  // streaming=false stays byte-identical as the differential baseline.
  size_t limit_hint = 0;
  // Advisory mirror of limit_hint for EXPLAIN ([limit N]).
  bool statically_limit_pushable = false;

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

  // Source position, 1-based; kept through optimization for diagnostics.
  size_t line = 0;
  size_t col = 0;
};

// A user-defined function: declare function local:name($a as T, $b) as T {..}.
struct FunctionDecl {
  std::string name;
  std::vector<std::string> params;
  std::vector<SequenceType> param_types;  // parallel; defaults to item()*
  SequenceType return_type;               // item()* if unannotated
  bool has_return_type = false;
  std::vector<bool> has_param_type;
  ExprPtr body;
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
};

// The nesting cap on every expression tree. The parser rejects source that
// nests deeper -- in its own recursion or in the tree it builds -- with a
// located kInvalidArgument, and the plan decoder rejects deeper artifacts,
// so every plan accepted from disk is one the parser would accept. Every
// recursive pass (optimizer, evaluator, EXPLAIN, serde) is bounded by it.
// Chosen by measurement (DESIGN.md section 17): under AddressSanitizer the
// costliest shape, nested parentheses, needs ~34 KiB of stack per level, so
// 8 MiB worker stacks top out near 235 levels; 128 keeps a query exactly
// at the cap well inside them, and the deepest program the repository
// ships (docgen phase 1) nests 17 deep.
inline constexpr size_t kMaxExprNesting = 128;

// Deep copy (used by the optimizer to build rewritten trees).
ExprPtr CloneExpr(const Expr& e);

// Number of Expr nodes in the tree -- a code-size metric for E3/E10.
size_t CountExprNodes(const Expr& e);

// Compact single-line rendering for debugging and golden tests.
std::string ExprToString(const Expr& e);

}  // namespace lll::xq

#endif  // LLL_XQUERY_AST_H_
