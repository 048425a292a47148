#include "xquery/parser.h"

#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/string_util.h"

namespace lll::xq {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
// Names continue through '-' and '.' -- the paper's quirk #3: "$n-1 is a
// variable with a three-letter name, not a sensible index".
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.' ||
         c == '_';
}

class Parser {
 public:
  explicit Parser(std::string_view src) : src_(src) {}

  Result<Module> ParseMainModule() {
    Module module;
    LLL_RETURN_IF_ERROR(ParseProlog(&module));
    LLL_ASSIGN_OR_RETURN(module.body, ParseExpr());
    SkipWs();
    if (!AtEnd()) return Err("unexpected trailing input");
    LLL_RETURN_IF_ERROR(CheckTreeNesting(module));
    return module;
  }

  Result<Module> ParseBodyOnly() {
    Module module;
    LLL_ASSIGN_OR_RETURN(module.body, ParseExpr());
    SkipWs();
    if (!AtEnd()) return Err("unexpected trailing input");
    LLL_RETURN_IF_ERROR(CheckTreeNesting(module));
    return module;
  }

  Result<SequenceType> ParseTypeOnly() {
    LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
    SkipWs();
    if (!AtEnd()) return Err("unexpected trailing input");
    return t;
  }

 private:
  // --- Cursor ---------------------------------------------------------------

  struct Mark {
    size_t pos, line, col;
  };

  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  char PeekAt(size_t k) const {
    return pos_ + k < src_.size() ? src_[pos_ + k] : '\0';
  }
  char Advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  Mark Save() const { return {pos_, line_, col_}; }
  void Restore(const Mark& m) {
    pos_ = m.pos;
    line_ = m.line;
    col_ = m.col;
  }

  Status Err(std::string message) const {
    char loc[48];
    std::snprintf(loc, sizeof(loc), " at line %zu, column %zu", line_, col_);
    return Status::ParseError(message + loc);
  }

  // --- Nesting cap (kMaxExprNesting) -------------------------------------

  static Status NestingError(size_t line, size_t col) {
    char loc[48];
    std::snprintf(loc, sizeof(loc), " at line %zu, column %zu", line, col);
    return Status::Invalid("expression nesting exceeds " +
                           std::to_string(kMaxExprNesting) + " levels" + loc);
  }

  // One level of the recursive descent: every self-recursive production
  // (ParseExprSingle, sign chains, nested direct constructors) holds one,
  // so hostile input cannot recurse the parser off the stack.
  class Nesting {
   public:
    explicit Nesting(Parser* p) : p_(p) { ++p_->nesting_; }
    ~Nesting() { --p_->nesting_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    Status Check() const {
      return p_->nesting_ > kMaxExprNesting
                 ? NestingError(p_->line_, p_->col_)
                 : Status::Ok();
    }

   private:
    Parser* p_;
  };

  // The built tree's depth, counted like the plan decoder counts it: a left-
  // deep operator chain (1+1+...+1) nests without recursing the parser, and
  // every later pass recurses over the tree. Iterative.
  static Status CheckTreeNesting(const Module& module) {
    std::vector<std::pair<const Expr*, size_t>> stack;
    for (const FunctionDecl& fn : module.functions) {
      stack.emplace_back(fn.body.get(), 0);
    }
    for (const VariableDecl& var : module.variables) {
      stack.emplace_back(var.expr.get(), 0);
    }
    stack.emplace_back(module.body.get(), 0);
    while (!stack.empty()) {
      auto [e, depth] = stack.back();
      stack.pop_back();
      if (e == nullptr) continue;
      if (depth > kMaxExprNesting) return NestingError(e->line, e->col);
      auto push = [&stack, depth = depth](const ExprPtr& c) {
        stack.emplace_back(c.get(), depth + 1);
      };
      for (const ExprPtr& c : e->children) push(c);
      for (const PathStep& s : e->steps) {
        for (const ExprPtr& p : s.predicates) push(p);
      }
      for (const FlworClause& c : e->clauses) push(c.expr);
      for (const OrderSpec& o : e->order_by) push(o.key);
      for (const DirectAttribute& a : e->attributes) {
        for (const ExprPtr& p : a.value_parts) push(p);
      }
    }
    return Status::Ok();
  }

  // Skips whitespace and nested (: ... :) comments.
  void SkipWs() {
    while (!AtEnd()) {
      char c = Peek();
      if (IsXmlWhitespace(c)) {
        Advance();
        continue;
      }
      if (c == '(' && PeekAt(1) == ':') {
        Advance();
        Advance();
        int depth = 1;
        while (!AtEnd() && depth > 0) {
          if (Peek() == '(' && PeekAt(1) == ':') {
            Advance();
            Advance();
            ++depth;
          } else if (Peek() == ':' && PeekAt(1) == ')') {
            Advance();
            Advance();
            --depth;
          } else {
            Advance();
          }
        }
        continue;
      }
      return;
    }
  }

  // True if the literal token is next (after whitespace) and consumes it.
  bool ConsumeTok(std::string_view tok) {
    SkipWs();
    if (src_.substr(pos_).substr(0, tok.size()) != tok) return false;
    for (size_t i = 0; i < tok.size(); ++i) Advance();
    return true;
  }

  // Consumes `word` only if it is a whole name (not a prefix of a longer
  // name). Keywords in XQuery are contextual.
  bool ConsumeKeyword(std::string_view word) {
    SkipWs();
    Mark m = Save();
    if (src_.substr(pos_).substr(0, word.size()) != word) return false;
    if (pos_ + word.size() < src_.size() && IsNameChar(src_[pos_ + word.size()])) {
      return false;
    }
    // Also require that what precedes can't glue (caller sits at a boundary).
    for (size_t i = 0; i < word.size(); ++i) Advance();
    (void)m;
    return true;
  }

  // Lexes a QName (prefix:local allowed). Empty result means "not a name".
  std::string LexName() {
    SkipWs();
    if (AtEnd() || !IsNameStart(Peek())) return {};
    std::string name;
    name.push_back(Advance());
    while (!AtEnd() && IsNameChar(Peek())) name.push_back(Advance());
    // One optional ':' for prefix:local (but not '::' which is an axis).
    if (Peek() == ':' && PeekAt(1) != ':' && IsNameStart(PeekAt(1))) {
      name.push_back(Advance());
      name.push_back(Advance());
      while (!AtEnd() && IsNameChar(Peek())) name.push_back(Advance());
    }
    return name;
  }

  Result<std::string> ExpectName(const char* what) {
    std::string name = LexName();
    if (name.empty()) return Err(std::string("expected ") + what);
    return name;
  }

  ExprPtr MakeExpr(ExprKind kind) {
    auto e = std::make_unique<Expr>(kind);
    e->line = line_;
    e->col = col_;
    return e;
  }

  // Stamps the node with a SAVED position -- the start of the construct --
  // instead of wherever the cursor drifted to by the time the node is built.
  // Diagnostics and profiler labels point at what the user wrote, not at the
  // token after it.
  ExprPtr MakeExprAt(ExprKind kind, const Mark& at) {
    auto e = std::make_unique<Expr>(kind);
    e->line = at.line;
    e->col = at.col;
    return e;
  }

  // --- Prolog ---------------------------------------------------------------

  Status ParseProlog(Module* module) {
    while (true) {
      SkipWs();
      Mark m = Save();
      if (!ConsumeKeyword("declare")) return Status::Ok();
      SkipWs();
      if (ConsumeKeyword("function")) {
        LLL_RETURN_IF_ERROR(ParseFunctionDecl(module));
      } else if (ConsumeKeyword("variable")) {
        LLL_RETURN_IF_ERROR(ParseVariableDecl(module));
      } else if (ConsumeKeyword("boundary-space")) {
        std::string mode = LexName();
        if (mode == "preserve") {
          boundary_preserve_ = true;
        } else if (mode == "strip") {
          boundary_preserve_ = false;
        } else {
          return Err("boundary-space wants 'preserve' or 'strip'");
        }
        if (!ConsumeTok(";")) return Err("expected ';' after declaration");
      } else if (ConsumeKeyword("namespace")) {
        // declare namespace p = "uri"; -- prefixes are kept verbatim in
        // names, so the binding itself is a no-op for us.
        LexName();
        if (!ConsumeTok("=")) return Err("expected '=' in namespace declaration");
        LLL_ASSIGN_OR_RETURN(std::string uri, LexStringLiteral());
        (void)uri;
        if (!ConsumeTok(";")) return Err("expected ';' after declaration");
      } else {
        Restore(m);
        return Status::Ok();
      }
    }
  }

  Status ParseFunctionDecl(Module* module) {
    FunctionDecl fn;
    LLL_ASSIGN_OR_RETURN(fn.name, ExpectName("function name"));
    if (!ConsumeTok("(")) return Err("expected '(' after function name");
    SkipWs();
    if (Peek() != ')') {
      while (true) {
        if (!ConsumeTok("$")) return Err("expected '$' starting a parameter");
        LLL_ASSIGN_OR_RETURN(std::string pname, ExpectName("parameter name"));
        fn.params.push_back(pname);
        SkipWs();
        if (ConsumeKeyword("as")) {
          LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
          fn.param_types.push_back(t);
          fn.has_param_type.push_back(true);
        } else {
          fn.param_types.push_back(SequenceType{});
          fn.has_param_type.push_back(false);
        }
        if (ConsumeTok(",")) continue;
        break;
      }
    }
    if (!ConsumeTok(")")) return Err("expected ')' after parameters");
    if (ConsumeKeyword("as")) {
      LLL_ASSIGN_OR_RETURN(fn.return_type, ParseSequenceType());
      fn.has_return_type = true;
    }
    if (!ConsumeTok("{")) return Err("expected '{' before function body");
    LLL_ASSIGN_OR_RETURN(fn.body, ParseExpr());
    if (!ConsumeTok("}")) return Err("expected '}' after function body");
    if (!ConsumeTok(";")) return Err("expected ';' after function declaration");
    module->functions.push_back(std::move(fn));
    return Status::Ok();
  }

  Status ParseVariableDecl(Module* module) {
    VariableDecl var;
    if (!ConsumeTok("$")) return Err("expected '$' after 'declare variable'");
    LLL_ASSIGN_OR_RETURN(var.name, ExpectName("variable name"));
    if (ConsumeKeyword("as")) {
      LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
      (void)t;  // accepted, not enforced on global variables
    }
    if (!ConsumeTok(":=")) return Err("expected ':=' in variable declaration");
    LLL_ASSIGN_OR_RETURN(var.expr, ParseExprSingle());
    if (!ConsumeTok(";")) return Err("expected ';' after variable declaration");
    module->variables.push_back(std::move(var));
    return Status::Ok();
  }

  // --- Types ------------------------------------------------------------

  Result<SequenceType> ParseSequenceType() {
    SkipWs();
    SequenceType t;
    if (ConsumeKeyword("empty-sequence")) {
      if (!ConsumeTok("(") || !ConsumeTok(")")) {
        return Err("expected '()' after empty-sequence");
      }
      t.item_type = SequenceType::ItemType::kEmpty;
      t.occurrence = SequenceType::Occurrence::kOne;
      return t;
    }
    std::string name = LexName();
    if (name.empty()) return Err("expected a type name");
    using IT = SequenceType::ItemType;
    if (name == "item") {
      if (!ConsumeTok("(") || !ConsumeTok(")")) return Err("expected item()");
      t.item_type = IT::kItem;
    } else if (name == "node") {
      if (!ConsumeTok("(") || !ConsumeTok(")")) return Err("expected node()");
      t.item_type = IT::kNode;
    } else if (name == "text") {
      if (!ConsumeTok("(") || !ConsumeTok(")")) return Err("expected text()");
      t.item_type = IT::kTextNode;
    } else if (name == "document-node") {
      if (!ConsumeTok("(") || !ConsumeTok(")")) {
        return Err("expected document-node()");
      }
      t.item_type = IT::kDocumentNode;
    } else if (name == "element") {
      if (!ConsumeTok("(")) return Err("expected '(' after element");
      SkipWs();
      if (Peek() != ')') {
        LLL_ASSIGN_OR_RETURN(t.element_name, ExpectName("element name"));
      }
      if (!ConsumeTok(")")) return Err("expected ')' after element(...)");
      t.item_type = IT::kElement;
    } else if (name == "attribute") {
      if (!ConsumeTok("(")) return Err("expected '(' after attribute");
      SkipWs();
      if (Peek() != ')') LexName();  // name restriction accepted, ignored
      if (!ConsumeTok(")")) return Err("expected ')' after attribute(...)");
      t.item_type = IT::kAttribute;
    } else if (name == "xs:string") {
      t.item_type = IT::kString;
    } else if (name == "xs:integer" || name == "xs:int" ||
               name == "xs:long" || name == "xs:nonNegativeInteger" ||
               name == "xs:positiveInteger") {
      t.item_type = IT::kInteger;
    } else if (name == "xs:decimal") {
      t.item_type = IT::kDecimal;
    } else if (name == "xs:double" || name == "xs:float") {
      t.item_type = IT::kDouble;
    } else if (name == "xs:boolean") {
      t.item_type = IT::kBoolean;
    } else if (name == "xs:untypedAtomic") {
      t.item_type = IT::kUntyped;
    } else if (name == "xs:anyAtomicType" || name == "xs:anySimpleType") {
      t.item_type = IT::kAnyAtomic;
    } else {
      return Err("unknown type name '" + name + "'");
    }
    // Occurrence indicator, glued or spaced.
    SkipWs();
    if (Peek() == '?') {
      Advance();
      t.occurrence = SequenceType::Occurrence::kOptional;
    } else if (Peek() == '*') {
      Advance();
      t.occurrence = SequenceType::Occurrence::kStar;
    } else if (Peek() == '+') {
      Advance();
      t.occurrence = SequenceType::Occurrence::kPlus;
    } else {
      t.occurrence = SequenceType::Occurrence::kOne;
    }
    return t;
  }

  // --- Literals ---------------------------------------------------------

  Result<std::string> LexStringLiteral() {
    SkipWs();
    if (Peek() != '"' && Peek() != '\'') return Err("expected string literal");
    char quote = Advance();
    std::string out;
    while (!AtEnd()) {
      char c = Advance();
      if (c == quote) {
        if (Peek() == quote) {  // doubled quote escapes itself
          out.push_back(Advance());
          continue;
        }
        return out;
      }
      if (c == '&') {
        LLL_ASSIGN_OR_RETURN(std::string ent, LexEntity());
        out += ent;
        continue;
      }
      out.push_back(c);
    }
    return Err("unterminated string literal");
  }

  // After '&': decode the five predefined entities and char refs.
  Result<std::string> LexEntity() {
    std::string ent;
    while (!AtEnd() && Peek() != ';') {
      ent.push_back(Advance());
      if (ent.size() > 8) return Err("unterminated entity reference");
    }
    if (AtEnd()) return Err("unterminated entity reference");
    Advance();
    if (ent == "lt") return std::string("<");
    if (ent == "gt") return std::string(">");
    if (ent == "amp") return std::string("&");
    if (ent == "quot") return std::string("\"");
    if (ent == "apos") return std::string("'");
    if (!ent.empty() && ent[0] == '#') {
      long code =
          ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')
              ? std::strtol(ent.c_str() + 2, nullptr, 16)
              : std::strtol(ent.c_str() + 1, nullptr, 10);
      if (code > 0 && code < 128) return std::string(1, static_cast<char>(code));
      return Err("unsupported character reference &" + ent + ";");
    }
    return Err("unknown entity &" + ent + ";");
  }

  // --- Expressions --------------------------------------------------------

  Result<ExprPtr> ParseExpr() {
    LLL_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
    SkipWs();
    if (Peek() != ',') return first;
    auto seq = MakeExpr(ExprKind::kSequence);
    seq->children.push_back(std::move(first));
    while (ConsumeTok(",")) {
      LLL_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  Result<ExprPtr> ParseExprSingle() {
    SkipWs();
    Nesting nesting(this);
    LLL_RETURN_IF_ERROR(nesting.Check());
    Mark m = Save();
    // FLWOR: "for $" / "let $".
    if (ConsumeKeyword("for") || ConsumeKeyword("let")) {
      SkipWs();
      if (Peek() == '$') {
        Restore(m);
        return ParseFlwor();
      }
      Restore(m);
    }
    if (ConsumeKeyword("some") || ConsumeKeyword("every")) {
      SkipWs();
      if (Peek() == '$') {
        Restore(m);
        return ParseQuantified();
      }
      Restore(m);
    }
    if (ConsumeKeyword("if")) {
      SkipWs();
      if (Peek() == '(') {
        Restore(m);
        return ParseIf();
      }
      Restore(m);
    }
    // Extension (Moral #4): try { Expr } catch { Expr }. The catch body sees
    // $err:description bound to the error message.
    if (ConsumeKeyword("try")) {
      SkipWs();
      if (Peek() == '{') {
        Advance();
        LLL_ASSIGN_OR_RETURN(ExprPtr body, ParseExpr());
        if (!ConsumeTok("}")) return Err("expected '}' after try body");
        if (!ConsumeKeyword("catch")) return Err("expected 'catch'");
        ConsumeTok("*");  // optional XQuery 3.0-style catch-all marker
        if (!ConsumeTok("{")) return Err("expected '{' after catch");
        LLL_ASSIGN_OR_RETURN(ExprPtr handler, ParseExpr());
        if (!ConsumeTok("}")) return Err("expected '}' after catch body");
        auto e = MakeExpr(ExprKind::kTryCatch);
        e->children.push_back(std::move(body));
        e->children.push_back(std::move(handler));
        return e;
      }
      Restore(m);
    }
    return ParseOr();
  }

  Result<ExprPtr> ParseFlwor() {
    auto flwor = MakeExpr(ExprKind::kFlwor);
    while (true) {
      SkipWs();
      Mark m = Save();
      bool is_for = ConsumeKeyword("for");
      bool is_let = !is_for && ConsumeKeyword("let");
      if (!is_for && !is_let) break;
      SkipWs();
      if (Peek() != '$') {
        Restore(m);
        break;
      }
      // One keyword introduces a comma-separated list of bindings.
      while (true) {
        FlworClause clause;
        clause.kind =
            is_for ? FlworClause::Kind::kFor : FlworClause::Kind::kLet;
        if (!ConsumeTok("$")) return Err("expected '$'");
        LLL_ASSIGN_OR_RETURN(clause.var, ExpectName("variable name"));
        if (is_for) {
          if (ConsumeKeyword("at")) {
            if (!ConsumeTok("$")) return Err("expected '$' after 'at'");
            LLL_ASSIGN_OR_RETURN(clause.pos_var,
                                 ExpectName("positional variable name"));
          }
          if (ConsumeKeyword("as")) {
            LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
            (void)t;
          }
          if (!ConsumeKeyword("in")) return Err("expected 'in' in for clause");
        } else {
          if (ConsumeKeyword("as")) {
            LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
            (void)t;
          }
          if (!ConsumeTok(":=")) return Err("expected ':=' in let clause");
        }
        LLL_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
        flwor->clauses.push_back(std::move(clause));
        SkipWs();
        if (ConsumeTok(",")) continue;
        break;
      }
    }
    if (flwor->clauses.empty()) return Err("expected for/let clause");
    if (ConsumeKeyword("where")) {
      FlworClause clause;
      clause.kind = FlworClause::Kind::kWhere;
      LLL_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
      flwor->clauses.push_back(std::move(clause));
    }
    SkipWs();
    {
      Mark m = Save();
      bool stable = ConsumeKeyword("stable");
      if (ConsumeKeyword("order")) {
        if (!ConsumeKeyword("by")) return Err("expected 'by' after 'order'");
        while (true) {
          OrderSpec spec;
          LLL_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
          if (ConsumeKeyword("descending")) {
            spec.descending = true;
          } else {
            ConsumeKeyword("ascending");
          }
          flwor->order_by.push_back(std::move(spec));
          if (ConsumeTok(",")) continue;
          break;
        }
      } else if (stable) {
        Restore(m);
      }
    }
    if (!ConsumeKeyword("return")) return Err("expected 'return' in FLWOR");
    LLL_ASSIGN_OR_RETURN(ExprPtr body, ParseExprSingle());
    flwor->children.push_back(std::move(body));
    return flwor;
  }

  Result<ExprPtr> ParseQuantified() {
    auto quant = MakeExpr(ExprKind::kQuantified);
    if (ConsumeKeyword("every")) {
      quant->quantifier_every = true;
    } else if (!ConsumeKeyword("some")) {
      return Err("expected 'some' or 'every'");
    }
    if (!ConsumeTok("$")) return Err("expected '$'");
    LLL_ASSIGN_OR_RETURN(quant->name, ExpectName("variable name"));
    if (!ConsumeKeyword("in")) return Err("expected 'in'");
    LLL_ASSIGN_OR_RETURN(ExprPtr domain, ParseExprSingle());
    if (!ConsumeKeyword("satisfies")) return Err("expected 'satisfies'");
    LLL_ASSIGN_OR_RETURN(ExprPtr condition, ParseExprSingle());
    quant->children.push_back(std::move(domain));
    quant->children.push_back(std::move(condition));
    return quant;
  }

  Result<ExprPtr> ParseIf() {
    SkipWs();
    Mark start = Save();
    if (!ConsumeKeyword("if")) return Err("expected 'if'");
    if (!ConsumeTok("(")) return Err("expected '(' after 'if'");
    LLL_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    if (!ConsumeTok(")")) return Err("expected ')' after condition");
    if (!ConsumeKeyword("then")) return Err("expected 'then'");
    LLL_ASSIGN_OR_RETURN(ExprPtr then_branch, ParseExprSingle());
    if (!ConsumeKeyword("else")) return Err("expected 'else'");
    LLL_ASSIGN_OR_RETURN(ExprPtr else_branch, ParseExprSingle());
    auto e = MakeExprAt(ExprKind::kIf, start);
    e->children.push_back(std::move(cond));
    e->children.push_back(std::move(then_branch));
    e->children.push_back(std::move(else_branch));
    return e;
  }

  ExprPtr MakeBinary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = MakeExpr(ExprKind::kBinary);
    e->op = op;
    // The whole expression starts where its left operand does.
    if (lhs->line != 0) {
      e->line = lhs->line;
      e->col = lhs->col;
    }
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  Result<ExprPtr> ParseOr() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeKeyword("or")) {
      LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
    while (ConsumeKeyword("and")) {
      LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
      lhs = MakeBinary(BinOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparison() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRange());
    SkipWs();
    BinOp op;
    bool found = true;
    if (ConsumeTok("!=")) {
      op = BinOp::kGenNe;
    } else if (ConsumeTok("<=")) {
      op = BinOp::kGenLe;
    } else if (ConsumeTok(">=")) {
      op = BinOp::kGenGe;
    } else if (ConsumeTok("=")) {
      op = BinOp::kGenEq;
    } else if (Peek() == '<' && PeekAt(1) != '<') {
      Advance();
      op = BinOp::kGenLt;
    } else if (Peek() == '>' && PeekAt(1) != '>') {
      Advance();
      op = BinOp::kGenGt;
    } else if (ConsumeKeyword("eq")) {
      op = BinOp::kValEq;
    } else if (ConsumeKeyword("ne")) {
      op = BinOp::kValNe;
    } else if (ConsumeKeyword("lt")) {
      op = BinOp::kValLt;
    } else if (ConsumeKeyword("le")) {
      op = BinOp::kValLe;
    } else if (ConsumeKeyword("gt")) {
      op = BinOp::kValGt;
    } else if (ConsumeKeyword("ge")) {
      op = BinOp::kValGe;
    } else if (ConsumeKeyword("is")) {
      op = BinOp::kIs;
    } else {
      found = false;
      op = BinOp::kOr;
    }
    if (!found) return lhs;
    LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRange());
    return MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseRange() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (ConsumeKeyword("to")) {
      LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      return MakeBinary(BinOp::kTo, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      SkipWs();
      if (Peek() == '+') {
        Advance();
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = MakeBinary(BinOp::kAdd, std::move(lhs), std::move(rhs));
      } else if (Peek() == '-') {
        Advance();
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = MakeBinary(BinOp::kSub, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnion());
    while (true) {
      SkipWs();
      if (Peek() == '*' && PeekAt(1) != '*') {
        Advance();
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnion());
        lhs = MakeBinary(BinOp::kMul, std::move(lhs), std::move(rhs));
      } else if (ConsumeKeyword("div")) {
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnion());
        lhs = MakeBinary(BinOp::kDiv, std::move(lhs), std::move(rhs));
      } else if (ConsumeKeyword("idiv")) {
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnion());
        lhs = MakeBinary(BinOp::kIdiv, std::move(lhs), std::move(rhs));
      } else if (ConsumeKeyword("mod")) {
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnion());
        lhs = MakeBinary(BinOp::kMod, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseUnion() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseIntersectExcept());
    while (true) {
      SkipWs();
      if (Peek() == '|') {
        Advance();
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseIntersectExcept());
        lhs = MakeBinary(BinOp::kUnion, std::move(lhs), std::move(rhs));
      } else if (ConsumeKeyword("union")) {
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseIntersectExcept());
        lhs = MakeBinary(BinOp::kUnion, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseIntersectExcept() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseInstanceOf());
    while (true) {
      if (ConsumeKeyword("intersect")) {
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseInstanceOf());
        lhs = MakeBinary(BinOp::kIntersect, std::move(lhs), std::move(rhs));
      } else if (ConsumeKeyword("except")) {
        LLL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseInstanceOf());
        lhs = MakeBinary(BinOp::kExcept, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  // Stamps a wrapper node (cast/instance-of) at its operand's position.
  ExprPtr MakeWrapper(ExprKind kind, ExprPtr operand) {
    auto e = MakeExpr(kind);
    if (operand->line != 0) {
      e->line = operand->line;
      e->col = operand->col;
    }
    e->children.push_back(std::move(operand));
    return e;
  }

  Result<ExprPtr> ParseInstanceOf() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCast());
    if (ConsumeKeyword("instance")) {
      if (!ConsumeKeyword("of")) return Err("expected 'of' after 'instance'");
      LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
      auto e = MakeWrapper(ExprKind::kInstanceOf, std::move(lhs));
      e->type = t;
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseCast() {
    LLL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    if (ConsumeKeyword("castable")) {
      if (!ConsumeKeyword("as")) return Err("expected 'as' after 'castable'");
      LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
      auto e = MakeWrapper(ExprKind::kCastableAs, std::move(lhs));
      e->type = t;
      return e;
    }
    if (ConsumeKeyword("cast")) {
      if (!ConsumeKeyword("as")) return Err("expected 'as' after 'cast'");
      LLL_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
      auto e = MakeWrapper(ExprKind::kCastAs, std::move(lhs));
      e->type = t;
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    SkipWs();
    if (Peek() != '-' && Peek() != '+') return ParsePath();
    Nesting nesting(this);  // a sign chain recurses once per sign
    LLL_RETURN_IF_ERROR(nesting.Check());
    if (Advance() == '+') return ParseUnary();  // unary plus is the identity
    LLL_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    auto e = MakeExpr(ExprKind::kUnary);
    e->children.push_back(std::move(operand));
    return e;
  }

  // --- Paths ------------------------------------------------------------

  Result<ExprPtr> ParsePath() {
    SkipWs();
    auto path = MakeExpr(ExprKind::kPath);
    bool need_step = false;
    if (Peek() == '/' && PeekAt(1) == '/') {
      Advance();
      Advance();
      path->rooted = true;
      PathStep implicit;
      implicit.axis = Axis::kDescendantOrSelf;
      implicit.test.kind = NodeTestKind::kAnyNode;
      path->steps.push_back(std::move(implicit));
      need_step = true;
    } else if (Peek() == '/') {
      Advance();
      path->rooted = true;
      SkipWs();
      // A lone "/" selects the root itself.
      if (!CanStartStep()) return path;
      need_step = true;
    }

    if (!path->rooted) {
      // Either a primary expression (possibly followed by /steps) or a step.
      LLL_ASSIGN_OR_RETURN(ExprPtr first, ParseStepOrPrimary(path.get()));
      if (first != nullptr) {
        // Primary expression base.
        SkipWs();
        if (Peek() != '/') {
          return first;  // no path at all: unwrap
        }
        path->has_base = true;
        path->children.push_back(std::move(first));
      }
    } else if (need_step) {
      LLL_ASSIGN_OR_RETURN(ExprPtr ignored, ParseStepOrPrimary(path.get()));
      if (ignored != nullptr) {
        return Err("expected a path step after '/'");
      }
    }

    while (true) {
      SkipWs();
      if (Peek() != '/') break;
      Advance();
      if (Peek() == '/') {
        Advance();
        PathStep implicit;
        implicit.axis = Axis::kDescendantOrSelf;
        implicit.test.kind = NodeTestKind::kAnyNode;
        path->steps.push_back(std::move(implicit));
      }
      LLL_ASSIGN_OR_RETURN(ExprPtr primary, ParseStepOrPrimary(path.get()));
      if (primary != nullptr) {
        return Err("primary expression not allowed as a non-initial path step");
      }
    }
    // Unwrap a degenerate path (single primary already handled above).
    return path;
  }

  bool CanStartStep() {
    SkipWs();
    char c = Peek();
    return IsNameStart(c) || c == '@' || c == '*' || c == '.';
  }

  // Parses either an axis step (appended to `path`, returns nullptr) or a
  // primary expression (returned). Distinguishing the two needs lookahead:
  // `text()` is a node test, `concat(...)` is a function call, `for` is a
  // keyword that cannot reach here.
  Result<ExprPtr> ParseStepOrPrimary(Expr* path) {
    SkipWs();
    char c = Peek();

    // Primary expressions.
    if (c == '(' || c == '"' || c == '\'' || c == '$' ||
        std::isdigit(static_cast<unsigned char>(c))) {
      return ParsePrimary();
    }
    if (c == '<') return ParsePrimary();

    if (c == '.') {
      Advance();
      if (Peek() == '.') {
        Advance();
        PathStep step;
        step.axis = Axis::kParent;
        step.test.kind = NodeTestKind::kAnyNode;
        LLL_RETURN_IF_ERROR(ParsePredicates(&step));
        path->steps.push_back(std::move(step));
        return ExprPtr();
      }
      // "." alone: context item; as a path base it is a primary.
      auto ctx = MakeExpr(ExprKind::kContextItem);
      // Predicates on '.' are rare; treat as filter via self step.
      SkipWs();
      if (Peek() == '[') {
        return ApplyFilterPredicates(std::move(ctx));
      }
      return ctx;
    }

    PathStep step;
    if (c == '@') {
      Advance();
      step.axis = Axis::kAttribute;
      LLL_RETURN_IF_ERROR(ParseNodeTest(&step));
      LLL_RETURN_IF_ERROR(ParsePredicates(&step));
      path->steps.push_back(std::move(step));
      return ExprPtr();
    }
    if (c == '*') {
      Advance();
      step.axis = Axis::kChild;
      step.test.kind = NodeTestKind::kAnyName;
      LLL_RETURN_IF_ERROR(ParsePredicates(&step));
      path->steps.push_back(std::move(step));
      return ExprPtr();
    }
    if (!IsNameStart(c)) {
      return Err("expected an expression");
    }

    // A name: axis::test, node-test(), function call, keyword constructor,
    // or a plain child-step name. All need the name first.
    Mark m = Save();
    std::string name = LexName();

    // axis::  ?
    SkipWs();
    if (Peek() == ':' && PeekAt(1) == ':') {
      Axis axis;
      if (name == "child") {
        axis = Axis::kChild;
      } else if (name == "descendant") {
        axis = Axis::kDescendant;
      } else if (name == "descendant-or-self") {
        axis = Axis::kDescendantOrSelf;
      } else if (name == "self") {
        axis = Axis::kSelf;
      } else if (name == "parent") {
        axis = Axis::kParent;
      } else if (name == "ancestor") {
        axis = Axis::kAncestor;
      } else if (name == "ancestor-or-self") {
        axis = Axis::kAncestorOrSelf;
      } else if (name == "attribute") {
        axis = Axis::kAttribute;
      } else if (name == "following-sibling") {
        axis = Axis::kFollowingSibling;
      } else if (name == "preceding-sibling") {
        axis = Axis::kPrecedingSibling;
      } else {
        return Err("unknown axis '" + name + "'");
      }
      Advance();
      Advance();  // '::'
      step.axis = axis;
      LLL_RETURN_IF_ERROR(ParseNodeTest(&step));
      LLL_RETURN_IF_ERROR(ParsePredicates(&step));
      path->steps.push_back(std::move(step));
      return ExprPtr();
    }

    // Node-test kinds (also valid as steps): text(), node(), comment(), pi().
    if (Peek() == '(') {
      if (name == "text" || name == "node" || name == "comment" ||
          name == "processing-instruction") {
        Advance();
        SkipWs();
        if (name == "processing-instruction" && Peek() != ')') {
          LexStringLiteral().ok();  // optional target, accepted and ignored
        }
        if (!ConsumeTok(")")) return Err("expected ')' in node test");
        step.axis = Axis::kChild;
        step.test.kind = name == "text"      ? NodeTestKind::kText
                         : name == "node"    ? NodeTestKind::kAnyNode
                         : name == "comment" ? NodeTestKind::kComment
                                             : NodeTestKind::kPi;
        LLL_RETURN_IF_ERROR(ParsePredicates(&step));
        path->steps.push_back(std::move(step));
        return ExprPtr();
      }
      // Computed constructors use a following '{', not '('; anything else
      // with '(' here is a function call.
      Restore(m);
      return ParsePrimary();
    }

    // Computed constructor keywords: element/attribute/text/comment/document
    // followed by a name or '{'.
    if (name == "element" || name == "attribute" || name == "text" ||
        name == "comment" || name == "document") {
      SkipWs();
      if (Peek() == '{' || IsNameStart(Peek())) {
        Mark after_kw = Save();
        ExprPtr computed;
        Status st = ParseComputedConstructor(name, &computed);
        if (st.ok()) return computed;
        Restore(after_kw);
        // fall through: treat as a plain child step named e.g. "text"
      }
    }

    // Plain child step.
    step.axis = Axis::kChild;
    step.test.kind = NodeTestKind::kName;
    step.test.name = name;
    LLL_RETURN_IF_ERROR(ParsePredicates(&step));
    path->steps.push_back(std::move(step));
    return ExprPtr();
  }

  Status ParseNodeTest(PathStep* step) {
    SkipWs();
    if (Peek() == '*') {
      Advance();
      step->test.kind = NodeTestKind::kAnyName;
      return Status::Ok();
    }
    std::string name = LexName();
    if (name.empty()) return Err("expected a node test");
    SkipWs();
    if (Peek() == '(') {
      if (name == "text" || name == "node" || name == "comment" ||
          name == "processing-instruction") {
        Advance();
        SkipWs();
        if (!ConsumeTok(")")) return Err("expected ')' in node test");
        step->test.kind = name == "text"      ? NodeTestKind::kText
                          : name == "node"    ? NodeTestKind::kAnyNode
                          : name == "comment" ? NodeTestKind::kComment
                                              : NodeTestKind::kPi;
        return Status::Ok();
      }
      return Err("unexpected '(' after node test name");
    }
    step->test.kind = NodeTestKind::kName;
    step->test.name = name;
    return Status::Ok();
  }

  Status ParsePredicates(PathStep* step) {
    while (true) {
      SkipWs();
      if (Peek() != '[') return Status::Ok();
      Advance();
      LLL_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      if (!ConsumeTok("]")) return Err("expected ']' after predicate");
      step->predicates.push_back(std::move(pred));
    }
  }

  // --- Primary expressions ----------------------------------------------

  Result<ExprPtr> ParsePrimary() {
    SkipWs();
    Mark start = Save();
    char c = Peek();
    if (c == '(') {
      Advance();
      SkipWs();
      if (Peek() == ')') {
        Advance();
        auto empty = MakeExpr(ExprKind::kEmptySequence);
        return ApplyFilterPredicates(std::move(empty));
      }
      LLL_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      if (!ConsumeTok(")")) return Err("expected ')'");
      return ApplyFilterPredicates(std::move(inner));
    }
    if (c == '"' || c == '\'') {
      LLL_ASSIGN_OR_RETURN(std::string s, LexStringLiteral());
      auto lit = MakeExprAt(ExprKind::kLiteral, start);
      lit->literal_type = Expr::LiteralType::kString;
      lit->text = std::move(s);
      return ApplyFilterPredicates(std::move(lit));
    }
    if (c == '$') {
      Advance();
      LLL_ASSIGN_OR_RETURN(std::string name, ExpectName("variable name"));
      auto var = MakeExprAt(ExprKind::kVarRef, start);
      var->name = std::move(name);
      return ApplyFilterPredicates(std::move(var));
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    if (c == '<') {
      return ParseDirectConstructor();
    }
    // Function call (the only name-form primary that reaches here).
    std::string name = LexName();
    if (name.empty()) return Err("expected an expression");
    SkipWs();
    if (Peek() != '(') return Err("unexpected name '" + name + "'");
    Advance();
    auto call = MakeExprAt(ExprKind::kFunctionCall, start);
    call->name = std::move(name);
    SkipWs();
    if (Peek() != ')') {
      while (true) {
        LLL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
        call->children.push_back(std::move(arg));
        if (ConsumeTok(",")) continue;
        break;
      }
    }
    if (!ConsumeTok(")")) return Err("expected ')' after arguments");
    return ApplyFilterPredicates(std::move(call));
  }

  // Filter expressions: primary followed by [pred]... ; desugared into a
  // self::node() step so the evaluator has one predicate code path.
  Result<ExprPtr> ApplyFilterPredicates(ExprPtr primary) {
    SkipWs();
    if (Peek() != '[') return primary;
    auto path = MakeExpr(ExprKind::kPath);
    path->has_base = true;
    path->children.push_back(std::move(primary));
    PathStep step;
    step.axis = Axis::kSelf;
    step.test.kind = NodeTestKind::kAnyNode;
    step.is_filter = true;
    LLL_RETURN_IF_ERROR(ParsePredicates(&step));
    path->steps.push_back(std::move(step));
    return path;
  }

  Result<ExprPtr> ParseNumber() {
    SkipWs();
    Mark start = Save();
    std::string digits;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      digits.push_back(Advance());
    }
    bool is_double = false;
    if (Peek() == '.' && std::isdigit(static_cast<unsigned char>(PeekAt(1)))) {
      is_double = true;
      digits.push_back(Advance());
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        digits.push_back(Advance());
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      char next = PeekAt(1);
      if (std::isdigit(static_cast<unsigned char>(next)) || next == '+' ||
          next == '-') {
        is_double = true;
        digits.push_back(Advance());
        if (Peek() == '+' || Peek() == '-') digits.push_back(Advance());
        while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
          digits.push_back(Advance());
        }
      }
    }
    auto lit = MakeExprAt(ExprKind::kLiteral, start);
    if (is_double) {
      auto d = ParseDouble(digits);
      if (!d) return Err("bad numeric literal '" + digits + "'");
      lit->literal_type = Expr::LiteralType::kDouble;
      lit->number = *d;
    } else {
      auto i = ParseInt(digits);
      if (!i) return Err("bad integer literal '" + digits + "'");
      lit->literal_type = Expr::LiteralType::kInteger;
      lit->integer = *i;
    }
    return ApplyFilterPredicates(std::move(lit));
  }

  // --- Constructors -------------------------------------------------------

  Status ParseComputedConstructor(const std::string& keyword, ExprPtr* out) {
    ExprKind kind;
    bool named = keyword == "element" || keyword == "attribute";
    if (keyword == "element") {
      kind = ExprKind::kCompElement;
    } else if (keyword == "attribute") {
      kind = ExprKind::kCompAttribute;
    } else if (keyword == "text") {
      kind = ExprKind::kCompText;
    } else if (keyword == "comment") {
      kind = ExprKind::kCompComment;
    } else {
      kind = ExprKind::kCompDocument;
    }
    auto e = MakeExpr(kind);
    SkipWs();
    if (named) {
      if (Peek() == '{') {
        // Computed name: element {expr} {content}
        Advance();
        LLL_ASSIGN_OR_RETURN(ExprPtr name_expr, ParseExpr());
        if (!ConsumeTok("}")) return Err("expected '}' after computed name");
        e->computed_name = true;
        e->children.push_back(std::move(name_expr));
      } else {
        std::string name = LexName();
        if (name.empty()) return Err("expected a name");
        e->name = std::move(name);
      }
      SkipWs();
    }
    if (Peek() != '{') return Err("expected '{' in computed constructor");
    Advance();
    SkipWs();
    if (Peek() == '}') {
      Advance();
      auto empty = MakeExpr(ExprKind::kEmptySequence);
      e->children.push_back(std::move(empty));
    } else {
      LLL_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
      if (!ConsumeTok("}")) return Err("expected '}' after content");
      e->children.push_back(std::move(content));
    }
    *out = std::move(e);
    return Status::Ok();
  }

  // Direct constructor: the cursor sits on '<'. Character-level scan.
  Result<ExprPtr> ParseDirectConstructor() {
    Nesting nesting(this);
    LLL_RETURN_IF_ERROR(nesting.Check());
    Advance();  // '<'
    if (Peek() == '!') {
      if (!ConsumeTok("!--")) return Err("expected '<!--'");
      std::string body;
      while (!AtEnd()) {
        if (Peek() == '-' && PeekAt(1) == '-' && PeekAt(2) == '>') {
          Advance();
          Advance();
          Advance();
          auto e = MakeExpr(ExprKind::kCompComment);
          auto lit = MakeExpr(ExprKind::kLiteral);
          lit->literal_type = Expr::LiteralType::kString;
          lit->text = std::move(body);
          e->children.push_back(std::move(lit));
          return e;
        }
        body.push_back(Advance());
      }
      return Err("unterminated comment constructor");
    }
    if (!IsNameStart(Peek())) return Err("expected element name after '<'");
    std::string name;
    name.push_back(Advance());
    while (!AtEnd() && (IsNameChar(Peek()) || (Peek() == ':' && IsNameStart(PeekAt(1))))) {
      name.push_back(Advance());
    }

    auto e = MakeExpr(ExprKind::kDirectElement);
    e->name = name;

    // Attributes.
    while (true) {
      SkipRawWs();
      if (AtEnd()) return Err("unterminated start tag <" + name);
      if (Peek() == '/' && PeekAt(1) == '>') {
        Advance();
        Advance();
        return e;
      }
      if (Peek() == '>') {
        Advance();
        break;
      }
      DirectAttribute attr;
      if (!IsNameStart(Peek())) return Err("expected attribute name");
      attr.name.push_back(Advance());
      while (!AtEnd() && (IsNameChar(Peek()) ||
                          (Peek() == ':' && IsNameStart(PeekAt(1))))) {
        attr.name.push_back(Advance());
      }
      SkipRawWs();
      if (Peek() != '=') return Err("expected '=' after attribute name");
      Advance();
      SkipRawWs();
      if (Peek() != '"' && Peek() != '\'') {
        return Err("expected quoted attribute value");
      }
      char quote = Advance();
      std::string text;
      auto flush = [&]() {
        if (text.empty()) return;
        auto lit = MakeExpr(ExprKind::kTextLiteral);
        lit->text = std::move(text);
        text.clear();
        attr.value_parts.push_back(std::move(lit));
      };
      while (true) {
        if (AtEnd()) return Err("unterminated attribute value");
        char c = Peek();
        if (c == quote) {
          Advance();
          if (Peek() == quote) {  // doubled quote
            text.push_back(Advance());
            continue;
          }
          break;
        }
        if (c == '{') {
          if (PeekAt(1) == '{') {
            Advance();
            Advance();
            text.push_back('{');
            continue;
          }
          Advance();
          flush();
          LLL_ASSIGN_OR_RETURN(ExprPtr enclosed, ParseExpr());
          if (!ConsumeTok("}")) return Err("expected '}' in attribute value");
          attr.value_parts.push_back(std::move(enclosed));
          continue;
        }
        if (c == '}') {
          if (PeekAt(1) == '}') {
            Advance();
            Advance();
            text.push_back('}');
            continue;
          }
          return Err("bare '}' in attribute value");
        }
        if (c == '&') {
          Advance();
          LLL_ASSIGN_OR_RETURN(std::string ent, LexEntity());
          text += ent;
          continue;
        }
        text.push_back(Advance());
      }
      flush();
      e->attributes.push_back(std::move(attr));
    }

    // Content until matching close tag.
    std::string text;
    bool text_has_nonspace = false;
    auto flush_text = [&]() {
      if (text.empty()) return;
      // Boundary whitespace is stripped unless the prolog declared
      // `boundary-space preserve` (strip is the XQuery default).
      if (text_has_nonspace || boundary_preserve_) {
        auto lit = MakeExpr(ExprKind::kTextLiteral);
        lit->text = std::move(text);
        e->children.push_back(std::move(lit));
      }
      text.clear();
      text_has_nonspace = false;
    };

    while (true) {
      if (AtEnd()) return Err("missing close tag </" + name + ">");
      char c = Peek();
      if (c == '<') {
        if (PeekAt(1) == '/') {
          flush_text();
          Advance();
          Advance();
          std::string close;
          while (!AtEnd() && (IsNameChar(Peek()) || Peek() == ':')) {
            close.push_back(Advance());
          }
          SkipRawWs();
          if (Peek() != '>') return Err("malformed close tag");
          Advance();
          if (close != name) {
            return Err("mismatched close tag: <" + name + "> vs </" + close + ">");
          }
          return e;
        }
        if (PeekAt(1) == '!' && PeekAt(2) == '-') {
          flush_text();
          Advance();
          LLL_ASSIGN_OR_RETURN(ExprPtr comment, [&]() -> Result<ExprPtr> {
            if (!ConsumeTok("!--")) return Err("expected comment");
            std::string body;
            while (!AtEnd()) {
              if (Peek() == '-' && PeekAt(1) == '-' && PeekAt(2) == '>') {
                Advance();
                Advance();
                Advance();
                auto ce = MakeExpr(ExprKind::kCompComment);
                auto lit = MakeExpr(ExprKind::kLiteral);
                lit->literal_type = Expr::LiteralType::kString;
                lit->text = std::move(body);
                ce->children.push_back(std::move(lit));
                return ce;
              }
              body.push_back(Advance());
            }
            return Err("unterminated comment");
          }());
          e->children.push_back(std::move(comment));
          continue;
        }
        // CDATA?
        if (src_.substr(pos_).substr(0, 9) == "<![CDATA[") {
          for (int i = 0; i < 9; ++i) Advance();
          while (!AtEnd() && src_.substr(pos_).substr(0, 3) != "]]>") {
            text.push_back(Advance());
            text_has_nonspace = true;
          }
          if (AtEnd()) return Err("unterminated CDATA");
          Advance();
          Advance();
          Advance();
          continue;
        }
        flush_text();
        LLL_ASSIGN_OR_RETURN(ExprPtr child, ParseDirectConstructor());
        e->children.push_back(std::move(child));
        continue;
      }
      if (c == '{') {
        if (PeekAt(1) == '{') {
          Advance();
          Advance();
          text.push_back('{');
          text_has_nonspace = true;
          continue;
        }
        flush_text();
        Advance();
        LLL_ASSIGN_OR_RETURN(ExprPtr enclosed, ParseExpr());
        if (!ConsumeTok("}")) return Err("expected '}' in element content");
        e->children.push_back(std::move(enclosed));
        continue;
      }
      if (c == '}') {
        if (PeekAt(1) == '}') {
          Advance();
          Advance();
          text.push_back('}');
          text_has_nonspace = true;
          continue;
        }
        return Err("bare '}' in element content");
      }
      if (c == '&') {
        Advance();
        LLL_ASSIGN_OR_RETURN(std::string ent, LexEntity());
        text += ent;
        text_has_nonspace = true;
        continue;
      }
      if (!IsXmlWhitespace(c)) text_has_nonspace = true;
      text.push_back(Advance());
    }
  }

  // Raw whitespace skip (no XQuery comments inside tags).
  void SkipRawWs() {
    while (!AtEnd() && IsXmlWhitespace(Peek())) Advance();
  }

  std::string_view src_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
  bool boundary_preserve_ = false;
  size_t nesting_ = 0;  // open Nesting levels
};

}  // namespace

Result<Module> ParseModule(std::string_view source) {
  return Parser(source).ParseMainModule();
}

Result<Module> ParseExpression(std::string_view source) {
  return Parser(source).ParseBodyOnly();
}

Result<SequenceType> ParseSequenceTypeString(std::string_view source) {
  return Parser(source).ParseTypeOnly();
}

}  // namespace lll::xq
