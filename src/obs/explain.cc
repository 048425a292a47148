#include "obs/explain.h"

#include <string>

#include "xquery/ast.h"
#include "xquery/optimizer.h"

namespace lll::obs {

namespace {

using xq::Expr;
using xq::ExprKind;
using xq::FlworClause;
using xq::NodeTestKind;
using xq::PathStep;
using xq::RewriteNote;

void AppendLocation(std::string* out, size_t line, size_t col) {
  if (line == 0) return;
  *out += " (" + std::to_string(line) + ":" + std::to_string(col) + ")";
}

std::string NodeTestText(const PathStep& step) {
  switch (step.test.kind) {
    case NodeTestKind::kName:
      return step.test.name;
    case NodeTestKind::kAnyName:
      return "*";
    case NodeTestKind::kText:
      return "text()";
    case NodeTestKind::kComment:
      return "comment()";
    case NodeTestKind::kPi:
      return "processing-instruction()";
    case NodeTestKind::kAnyNode:
      return "node()";
  }
  return "?";
}

struct PlanPrinter {
  std::string out;
  size_t max_depth;
  // Optional context document: [interned] renders as [interned@vN] with the
  // document's current edit epoch (see ExplainOptions::context_document).
  const xml::Document* context_doc = nullptr;

  void Line(size_t depth, const std::string& text) {
    out.append(2 * depth, ' ');
    out += text;
    out.push_back('\n');
  }

  void Print(const Expr& e, size_t depth) {
    if (depth > max_depth) {
      Line(depth, "...");
      return;
    }
    std::string head = xq::ExprKindName(e.kind);
    switch (e.kind) {
      case ExprKind::kLiteral:
        switch (e.literal_type) {
          case Expr::LiteralType::kString:
            head += " \"" + e.text + "\"";
            break;
          case Expr::LiteralType::kInteger:
            head += " " + std::to_string(e.integer);
            break;
          case Expr::LiteralType::kDouble:
            head += " " + std::to_string(e.number);
            break;
        }
        break;
      case ExprKind::kVarRef:
        head += " $" + e.name;
        break;
      case ExprKind::kFunctionCall:
        head += " " + e.name + "(#" + std::to_string(e.children.size()) + ")";
        break;
      case ExprKind::kBinary:
        head += std::string(" ") + xq::BinOpName(e.op);
        break;
      case ExprKind::kDirectElement:
      case ExprKind::kCompElement:
      case ExprKind::kCompAttribute:
        if (!e.name.empty()) head += " <" + e.name + ">";
        break;
      case ExprKind::kTextLiteral:
        head += " \"" + e.text + "\"";
        break;
      case ExprKind::kPath:
        if (e.rooted) head += " rooted";
        if (e.has_base) head += " from-base";
        if (e.statically_limit_pushable && e.limit_hint > 0) {
          head += " [limit " + std::to_string(e.limit_hint) + "]";
        }
        break;
      default:
        break;
    }
    AppendLocation(&head, e.line, e.col);
    Line(depth, head);

    size_t child_start = 0;
    if (e.kind == ExprKind::kPath && e.has_base) {
      Line(depth + 1, "base:");
      Print(*e.children[0], depth + 2);
      child_start = 1;
    }
    if (e.kind == ExprKind::kPath) {
      for (const PathStep& step : e.steps) {
        std::string s = step.is_filter
                            ? "filter"
                            : std::string("step ") + xq::AxisName(step.axis) +
                                  "::" + NodeTestText(step);
        if (step.statically_ordered) s += " [ordered]";
        if (step.statically_streamable) {
          s += xq::IsReverseStreamableAxis(step.axis) ? " [streamed-rev]"
                                                      : " [streamed]";
        }
        if (step.statically_internable) {
          s += context_doc == nullptr
                   ? " [interned]"
                   : " [interned@v" +
                         std::to_string(context_doc->edit_epoch()) + "]";
        }
        Line(depth + 1, s);
        for (const auto& pred : step.predicates) {
          std::string label = "predicate";
          if (pred->probe_key >= 0) {
            label += " [probe @" +
                     pred->children[1 - pred->probe_key]->steps[0].test.name +
                     "]";
          }
          Line(depth + 2, label + ":");
          Print(*pred, depth + 3);
        }
      }
      return;  // path children beyond the base do not occur
    }
    for (const FlworClause& c : e.clauses) {
      std::string label;
      switch (c.kind) {
        case FlworClause::Kind::kFor:
          label = "for $" + c.var;
          if (!c.pos_var.empty()) label += " at $" + c.pos_var;
          break;
        case FlworClause::Kind::kLet:
          label = "let $" + c.var;
          break;
        case FlworClause::Kind::kWhere:
          label = "where";
          break;
      }
      Line(depth + 1, label + ":");
      Print(*c.expr, depth + 2);
    }
    for (const auto& o : e.order_by) {
      Line(depth + 1, o.descending ? "order by (descending):" : "order by:");
      Print(*o.key, depth + 2);
    }
    for (const auto& attr : e.attributes) {
      Line(depth + 1, "attribute " + attr.name + ":");
      for (const auto& part : attr.value_parts) Print(*part, depth + 2);
    }
    for (size_t i = child_start; i < e.children.size(); ++i) {
      Print(*e.children[i], depth + 1);
    }
  }
};

std::string ExplainExprForDoc(const xq::Expr& expr, size_t max_depth,
                              const xml::Document* context_doc) {
  PlanPrinter printer{std::string(), max_depth, context_doc};
  printer.Print(expr, 0);
  return printer.out;
}

}  // namespace

std::string ExplainExpr(const xq::Expr& expr, size_t max_depth) {
  return ExplainExprForDoc(expr, max_depth, nullptr);
}

std::string Explain(const xq::CompiledQuery& query,
                    const ExplainOptions& options) {
  const xq::OptimizerStats& stats = query.optimizer_stats();
  std::string out = "EXPLAIN";
  if (!options.provenance.empty()) out += " [" + options.provenance + "]";
  out.push_back('\n');

  const xq::Module& module = query.module();
  for (const auto& fn : module.functions) {
    out += "== function " + fn.name + "#" + std::to_string(fn.params.size()) +
           " ==\n";
    out += ExplainExprForDoc(*fn.body, options.max_depth,
                             options.context_document);
  }
  for (const auto& var : module.variables) {
    out += "== variable $" + var.name + " ==\n";
    out += ExplainExprForDoc(*var.expr, options.max_depth,
                             options.context_document);
  }
  out += "== plan ==\n";
  out += ExplainExprForDoc(*module.body, options.max_depth,
                           options.context_document);

  out += "== rewrites ==\n";
  if (stats.notes.empty()) {
    out += "  (none)\n";
  } else {
    for (const RewriteNote& note : stats.notes) {
      std::string line = "  ";
      line += xq::RewriteNoteKindName(note.kind);
      AppendLocation(&line, note.line, note.col);
      line += ": " + note.detail;
      out += line;
      out.push_back('\n');
    }
  }

  out += "== summary ==\n";
  out += "  folded_constants: " + std::to_string(stats.folded_constants) +
         "\n  eliminated_lets: " + std::to_string(stats.eliminated_lets) +
         "\n  eliminated_trace_calls: " +
         std::to_string(stats.eliminated_trace_calls) +
         "\n  ordered_steps_annotated: " +
         std::to_string(stats.ordered_steps_annotated) +
         "\n  limits_pushed: " + std::to_string(stats.limits_pushed) +
         "\n  fused_descendant_steps: " +
         std::to_string(stats.fused_descendant_steps) +
         "\n  probe_predicates: " + std::to_string(stats.probe_predicates) +
         "\n";
  return out;
}

}  // namespace lll::obs
