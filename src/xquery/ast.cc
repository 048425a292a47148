#include "xquery/ast.h"

#include "core/string_util.h"

namespace lll::xq {

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kSelf:
      return "self";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
  }
  return "?";
}

OrderProp MeetOrder(OrderProp a, OrderProp b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

bool IsForwardStreamableAxis(Axis axis) {
  switch (axis) {
    case Axis::kChild:
    case Axis::kAttribute:
    case Axis::kSelf:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kFollowingSibling:
      return true;
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPrecedingSibling:
      return false;
  }
  return false;
}

bool IsReverseStreamableAxis(Axis axis) {
  switch (axis) {
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPrecedingSibling:
      return true;
    default:
      return false;
  }
}

bool IsStreamableAxis(Axis axis) {
  return IsForwardStreamableAxis(axis) || IsReverseStreamableAxis(axis);
}

bool ContainsLastCall(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall &&
      (e.name == "last" || e.name == "fn:last")) {
    return true;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && ContainsLastCall(*c)) return true;
  }
  for (const PathStep& s : e.steps) {
    for (const ExprPtr& p : s.predicates) {
      if (p != nullptr && ContainsLastCall(*p)) return true;
    }
  }
  for (const FlworClause& c : e.clauses) {
    if (c.expr != nullptr && ContainsLastCall(*c.expr)) return true;
  }
  for (const OrderSpec& o : e.order_by) {
    if (o.key != nullptr && ContainsLastCall(*o.key)) return true;
  }
  for (const DirectAttribute& a : e.attributes) {
    for (const ExprPtr& p : a.value_parts) {
      if (p != nullptr && ContainsLastCall(*p)) return true;
    }
  }
  return false;
}

bool ContainsTraceCall(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall &&
      (e.name == "trace" || e.name == "fn:trace" || e.name == "error" ||
       e.name == "fn:error")) {
    return true;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && ContainsTraceCall(*c)) return true;
  }
  for (const PathStep& s : e.steps) {
    for (const ExprPtr& p : s.predicates) {
      if (p != nullptr && ContainsTraceCall(*p)) return true;
    }
  }
  for (const FlworClause& c : e.clauses) {
    if (c.expr != nullptr && ContainsTraceCall(*c.expr)) return true;
  }
  for (const OrderSpec& o : e.order_by) {
    if (o.key != nullptr && ContainsTraceCall(*o.key)) return true;
  }
  for (const DirectAttribute& a : e.attributes) {
    for (const ExprPtr& p : a.value_parts) {
      if (p != nullptr && ContainsTraceCall(*p)) return true;
    }
  }
  return false;
}

OrderProp TransferOrder(OrderProp input, Axis axis) {
  if (input == OrderProp::kNone) return OrderProp::kNone;
  switch (axis) {
    case Axis::kSelf:
      // self::test filters the context node itself: a subset, in place.
      return input;
    case Axis::kChild:
    case Axis::kAttribute:
      // Disjoint ascending contexts yield disjoint ascending sibling (or
      // attribute) groups; the results are again ancestor-free. From a
      // merely-ordered (nested) context set, sibling groups interleave.
      return (input == OrderProp::kSingleton ||
              input == OrderProp::kOrderedDisjoint)
                 ? OrderProp::kOrderedDisjoint
                 : OrderProp::kNone;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      // Disjoint ascending subtrees flatten to one ascending, duplicate-free
      // run -- but the result itself is nested, so disjointness is lost.
      return (input == OrderProp::kSingleton ||
              input == OrderProp::kOrderedDisjoint)
                 ? OrderProp::kOrdered
                 : OrderProp::kNone;
    case Axis::kFollowingSibling:
      // Following siblings of one node are ascending and ancestor-free;
      // sibling runs from two distinct contexts can overlap (duplicates).
      return input == OrderProp::kSingleton ? OrderProp::kOrderedDisjoint
                                            : OrderProp::kNone;
    case Axis::kParent:
      // The parent of one node is at most one node; distinct ordered
      // contexts can share parents (duplicates) and invert order.
      return input == OrderProp::kSingleton ? OrderProp::kSingleton
                                            : OrderProp::kNone;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPrecedingSibling:
      // Reverse axes: collected in reverse document order by design.
      return OrderProp::kNone;
  }
  return OrderProp::kNone;
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kOr: return "or";
    case BinOp::kAnd: return "and";
    case BinOp::kGenEq: return "=";
    case BinOp::kGenNe: return "!=";
    case BinOp::kGenLt: return "<";
    case BinOp::kGenLe: return "<=";
    case BinOp::kGenGt: return ">";
    case BinOp::kGenGe: return ">=";
    case BinOp::kValEq: return "eq";
    case BinOp::kValNe: return "ne";
    case BinOp::kValLt: return "lt";
    case BinOp::kValLe: return "le";
    case BinOp::kValGt: return "gt";
    case BinOp::kValGe: return "ge";
    case BinOp::kIs: return "is";
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "div";
    case BinOp::kIdiv: return "idiv";
    case BinOp::kMod: return "mod";
    case BinOp::kUnion: return "union";
    case BinOp::kIntersect: return "intersect";
    case BinOp::kExcept: return "except";
    case BinOp::kTo: return "to";
  }
  return "?";
}

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kLiteral: return "Literal";
    case ExprKind::kEmptySequence: return "EmptySequence";
    case ExprKind::kSequence: return "Sequence";
    case ExprKind::kVarRef: return "VarRef";
    case ExprKind::kContextItem: return "ContextItem";
    case ExprKind::kPath: return "Path";
    case ExprKind::kBinary: return "Binary";
    case ExprKind::kUnary: return "Unary";
    case ExprKind::kIf: return "If";
    case ExprKind::kFlwor: return "Flwor";
    case ExprKind::kQuantified: return "Quantified";
    case ExprKind::kFunctionCall: return "FunctionCall";
    case ExprKind::kDirectElement: return "DirectElement";
    case ExprKind::kTextLiteral: return "TextLiteral";
    case ExprKind::kCompElement: return "CompElement";
    case ExprKind::kCompAttribute: return "CompAttribute";
    case ExprKind::kCompText: return "CompText";
    case ExprKind::kCompComment: return "CompComment";
    case ExprKind::kCompDocument: return "CompDocument";
    case ExprKind::kCastAs: return "CastAs";
    case ExprKind::kCastableAs: return "CastableAs";
    case ExprKind::kInstanceOf: return "InstanceOf";
    case ExprKind::kTryCatch: return "TryCatch";
  }
  return "?";
}

std::string SequenceType::ToString() const {
  std::string base;
  switch (item_type) {
    case ItemType::kItem: base = "item()"; break;
    case ItemType::kNode: base = "node()"; break;
    case ItemType::kElement:
      base = element_name.empty() ? "element()" : "element(" + element_name + ")";
      break;
    case ItemType::kAttribute: base = "attribute()"; break;
    case ItemType::kTextNode: base = "text()"; break;
    case ItemType::kDocumentNode: base = "document-node()"; break;
    case ItemType::kString: base = "xs:string"; break;
    case ItemType::kInteger: base = "xs:integer"; break;
    case ItemType::kDecimal: base = "xs:decimal"; break;
    case ItemType::kDouble: base = "xs:double"; break;
    case ItemType::kBoolean: base = "xs:boolean"; break;
    case ItemType::kUntyped: base = "xs:untypedAtomic"; break;
    case ItemType::kAnyAtomic: base = "xs:anyAtomicType"; break;
    case ItemType::kEmpty: return "empty-sequence()";
  }
  switch (occurrence) {
    case Occurrence::kOne: return base;
    case Occurrence::kOptional: return base + "?";
    case Occurrence::kStar: return base + "*";
    case Occurrence::kPlus: return base + "+";
  }
  return base;
}

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>(e.kind);
  out->literal_type = e.literal_type;
  out->text = e.text;
  out->integer = e.integer;
  out->number = e.number;
  out->name = e.name;
  out->op = e.op;
  out->has_base = e.has_base;
  out->rooted = e.rooted;
  out->quantifier_every = e.quantifier_every;
  out->computed_name = e.computed_name;
  out->type = e.type;
  out->line = e.line;
  out->col = e.col;
  out->limit_hint = e.limit_hint;
  out->statically_limit_pushable = e.statically_limit_pushable;
  out->probe_key = e.probe_key;
  for (const ExprPtr& c : e.children) out->children.push_back(CloneExpr(*c));
  for (const PathStep& s : e.steps) {
    PathStep sc;
    sc.axis = s.axis;
    sc.test = s.test;
    sc.is_filter = s.is_filter;
    sc.statically_ordered = s.statically_ordered;
    sc.statically_streamable = s.statically_streamable;
    sc.statically_internable = s.statically_internable;
    for (const ExprPtr& p : s.predicates) sc.predicates.push_back(CloneExpr(*p));
    out->steps.push_back(std::move(sc));
  }
  for (const FlworClause& c : e.clauses) {
    FlworClause cc;
    cc.kind = c.kind;
    cc.var = c.var;
    cc.pos_var = c.pos_var;
    cc.expr = CloneExpr(*c.expr);
    out->clauses.push_back(std::move(cc));
  }
  for (const OrderSpec& o : e.order_by) {
    OrderSpec oc;
    oc.key = CloneExpr(*o.key);
    oc.descending = o.descending;
    out->order_by.push_back(std::move(oc));
  }
  for (const DirectAttribute& a : e.attributes) {
    DirectAttribute ac;
    ac.name = a.name;
    for (const ExprPtr& p : a.value_parts) ac.value_parts.push_back(CloneExpr(*p));
    out->attributes.push_back(std::move(ac));
  }
  return out;
}

size_t CountExprNodes(const Expr& e) {
  size_t n = 1;
  for (const ExprPtr& c : e.children) n += CountExprNodes(*c);
  for (const PathStep& s : e.steps) {
    for (const ExprPtr& p : s.predicates) n += CountExprNodes(*p);
  }
  for (const FlworClause& c : e.clauses) n += CountExprNodes(*c.expr);
  for (const OrderSpec& o : e.order_by) n += CountExprNodes(*o.key);
  for (const DirectAttribute& a : e.attributes) {
    for (const ExprPtr& p : a.value_parts) n += CountExprNodes(*p);
  }
  return n;
}

namespace {

void Render(const Expr& e, std::string* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      switch (e.literal_type) {
        case Expr::LiteralType::kString:
          *out += '"';
          *out += e.text;
          *out += '"';
          break;
        case Expr::LiteralType::kInteger:
          *out += std::to_string(e.integer);
          break;
        case Expr::LiteralType::kDouble:
          *out += FormatDouble(e.number);
          break;
      }
      return;
    case ExprKind::kTextLiteral:
      *out += "text:\"" + e.text + "\"";
      return;
    case ExprKind::kEmptySequence:
      *out += "()";
      return;
    case ExprKind::kSequence: {
      *out += "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i) *out += ", ";
        Render(*e.children[i], out);
      }
      *out += ")";
      return;
    }
    case ExprKind::kVarRef:
      *out += "$" + e.name;
      return;
    case ExprKind::kContextItem:
      *out += ".";
      return;
    case ExprKind::kPath: {
      size_t first_child = 0;
      if (e.has_base) {
        Render(*e.children[0], out);
        first_child = 1;
      } else if (e.rooted) {
        *out += "(root)";
      }
      (void)first_child;
      for (const PathStep& s : e.steps) {
        *out += "/";
        *out += AxisName(s.axis);
        *out += "::";
        switch (s.test.kind) {
          case NodeTestKind::kName: *out += s.test.name; break;
          case NodeTestKind::kAnyName: *out += "*"; break;
          case NodeTestKind::kText: *out += "text()"; break;
          case NodeTestKind::kComment: *out += "comment()"; break;
          case NodeTestKind::kPi: *out += "processing-instruction()"; break;
          case NodeTestKind::kAnyNode: *out += "node()"; break;
        }
        for (const ExprPtr& p : s.predicates) {
          *out += "[";
          Render(*p, out);
          *out += "]";
        }
      }
      return;
    }
    case ExprKind::kBinary:
      *out += "(";
      Render(*e.children[0], out);
      *out += " ";
      *out += BinOpName(e.op);
      *out += " ";
      Render(*e.children[1], out);
      *out += ")";
      return;
    case ExprKind::kUnary:
      *out += "(-";
      Render(*e.children[0], out);
      *out += ")";
      return;
    case ExprKind::kIf:
      *out += "if (";
      Render(*e.children[0], out);
      *out += ") then ";
      Render(*e.children[1], out);
      *out += " else ";
      Render(*e.children[2], out);
      return;
    case ExprKind::kFlwor: {
      for (const FlworClause& c : e.clauses) {
        switch (c.kind) {
          case FlworClause::Kind::kFor:
            *out += "for $" + c.var;
            if (!c.pos_var.empty()) *out += " at $" + c.pos_var;
            *out += " in ";
            break;
          case FlworClause::Kind::kLet:
            *out += "let $" + c.var + " := ";
            break;
          case FlworClause::Kind::kWhere:
            *out += "where ";
            break;
        }
        Render(*c.expr, out);
        *out += " ";
      }
      if (!e.order_by.empty()) {
        *out += "order by ";
        for (size_t i = 0; i < e.order_by.size(); ++i) {
          if (i) *out += ", ";
          Render(*e.order_by[i].key, out);
          if (e.order_by[i].descending) *out += " descending";
        }
        *out += " ";
      }
      *out += "return ";
      Render(*e.children[0], out);
      return;
    }
    case ExprKind::kQuantified:
      *out += e.quantifier_every ? "every $" : "some $";
      *out += e.name + " in ";
      Render(*e.children[0], out);
      *out += " satisfies ";
      Render(*e.children[1], out);
      return;
    case ExprKind::kFunctionCall: {
      *out += e.name + "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i) *out += ", ";
        Render(*e.children[i], out);
      }
      *out += ")";
      return;
    }
    case ExprKind::kDirectElement: {
      *out += "<" + e.name;
      for (const DirectAttribute& a : e.attributes) {
        *out += " " + a.name + "=\"...\"";
      }
      *out += ">";
      for (const ExprPtr& c : e.children) Render(*c, out);
      *out += "</" + e.name + ">";
      return;
    }
    case ExprKind::kCompElement:
      *out += "element " + (e.computed_name ? std::string("{...}") : e.name) + " {...}";
      return;
    case ExprKind::kCompAttribute:
      *out += "attribute " + (e.computed_name ? std::string("{...}") : e.name) + " {...}";
      return;
    case ExprKind::kCompText:
      *out += "text {...}";
      return;
    case ExprKind::kCompComment:
      *out += "comment {...}";
      return;
    case ExprKind::kCompDocument:
      *out += "document {...}";
      return;
    case ExprKind::kCastAs:
      Render(*e.children[0], out);
      *out += " cast as " + e.type.ToString();
      return;
    case ExprKind::kCastableAs:
      Render(*e.children[0], out);
      *out += " castable as " + e.type.ToString();
      return;
    case ExprKind::kInstanceOf:
      Render(*e.children[0], out);
      *out += " instance of " + e.type.ToString();
      return;
    case ExprKind::kTryCatch:
      *out += "try { ";
      Render(*e.children[0], out);
      *out += " } catch { ";
      Render(*e.children[1], out);
      *out += " }";
      return;
  }
}

}  // namespace

std::string ExprToString(const Expr& e) {
  std::string out;
  Render(e, &out);
  return out;
}

}  // namespace lll::xq
