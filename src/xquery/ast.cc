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

void AppendAxisTest(const PathStep& step, std::string* out) {
  *out += AxisName(step.axis);
  *out += "::";
  switch (step.test.kind) {
    case NodeTestKind::kName:
      *out += step.test.name;
      break;
    case NodeTestKind::kAnyName:
      *out += "*";
      break;
    case NodeTestKind::kText:
      *out += "text()";
      break;
    case NodeTestKind::kComment:
      *out += "comment()";
      break;
    case NodeTestKind::kPi:
      *out += "processing-instruction()";
      break;
    case NodeTestKind::kAnyNode:
      *out += "node()";
      break;
  }
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
    case BinOp::kPrecedes: return "<<";
    case BinOp::kFollows: return ">>";
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
        AppendAxisTest(s, out);
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
