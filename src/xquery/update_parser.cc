#include "xquery/update_parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "xml/node.h"

namespace lll::xq {

namespace {

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// flags[i] == true iff byte i of `s` sits at top level: outside quotes,
// outside any XML fragment, and outside predicate brackets/parens. A '<'
// opens a fragment tag only at bracket/paren depth 0 and only when followed
// by a name-start character or '/' -- inside predicates '<' is the
// comparison operator, and this grammar never puts a fragment there.
std::vector<bool> TopLevelMap(std::string_view s) {
  std::vector<bool> top(s.size(), false);
  int elem_depth = 0;
  int bracket = 0;
  int paren = 0;
  char quote = 0;
  bool in_tag = false;
  bool tag_close = false;     // the current tag is </...>
  bool tag_neutral = false;   // <!...> / <?...>: neither opens nor closes
  bool pending_self = false;  // last tag byte was '/', as in <a/>
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      continue;
    }
    if (in_tag) {
      if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '>') {
        in_tag = false;
        if (tag_neutral) {
          // comments / PIs leave the depth alone
        } else if (tag_close) {
          if (elem_depth > 0) --elem_depth;
        } else if (!pending_self) {
          ++elem_depth;
        }
        pending_self = false;
      } else {
        pending_self = (c == '/');
      }
      continue;
    }
    if (elem_depth == 0 && (c == '"' || c == '\'')) {
      quote = c;
      continue;
    }
    // A '<' starts a tag inside a fragment always (well-formed text content
    // never holds a raw '<'); at top level only at bracket/paren depth 0 and
    // only when followed by a name-start character or '/' -- inside
    // predicates '<' is the comparison operator.
    if (c == '<' &&
        (elem_depth > 0 ||
         (bracket == 0 && paren == 0 && i + 1 < s.size() &&
          (std::isalpha(static_cast<unsigned char>(s[i + 1])) ||
           s[i + 1] == '_' || s[i + 1] == '/')))) {
      in_tag = true;
      tag_close = i + 1 < s.size() && s[i + 1] == '/';
      tag_neutral =
          i + 1 < s.size() && (s[i + 1] == '!' || s[i + 1] == '?');
      pending_self = false;
      continue;
    }
    if (elem_depth > 0) continue;  // text content inside a fragment
    if (c == '[') {
      ++bracket;
    } else if (c == ']' && bracket > 0) {
      --bracket;
    } else if (c == '(') {
      ++paren;
    } else if (c == ')' && paren > 0) {
      --paren;
    }
    top[i] = (bracket == 0 && paren == 0);
  }
  return top;
}

// First top-level, whitespace-delimited occurrence of `word` in `s`, or
// npos. Requires whitespace on BOTH sides (the grammar always has a payload
// or path on either side of a keyword).
size_t FindTopLevelKeyword(std::string_view s, const std::vector<bool>& top,
                           std::string_view word) {
  if (s.size() < word.size() + 2) return std::string_view::npos;
  for (size_t i = 1; i + word.size() + 1 <= s.size(); ++i) {
    if (!top[i]) continue;
    if (!std::isspace(static_cast<unsigned char>(s[i - 1]))) continue;
    if (s.compare(i, word.size(), word) != 0) continue;
    if (!std::isspace(static_cast<unsigned char>(s[i + word.size()]))) {
      continue;
    }
    return i;
  }
  return std::string_view::npos;
}

// The insert/replace payload: a quoted string (text node) or an XML
// fragment starting with '<' (well-formedness is checked at compile time,
// where the fragment is actually parsed).
Status ParsePayload(std::string_view text, UpdateStatement* s) {
  text = Trim(text);
  if (text.empty()) {
    return Status::ParseError("update: missing node payload");
  }
  if (text.front() == '"' || text.front() == '\'') {
    const char q = text.front();
    if (text.size() < 2 || text.back() != q) {
      return Status::ParseError("update: unterminated string payload " +
                                std::string(text));
    }
    std::string_view inner = text.substr(1, text.size() - 2);
    if (inner.find(q) != std::string_view::npos) {
      return Status::ParseError(
          "update: string payload must not contain its own quote: " +
          std::string(text));
    }
    s->node_xml = std::string(inner);
    s->node_is_text = true;
    return Status::Ok();
  }
  if (text.front() == '<') {
    s->node_xml = std::string(text);
    s->node_is_text = false;
    return Status::Ok();
  }
  return Status::ParseError(
      "update: node payload must be an XML fragment or a quoted string, got " +
      std::string(text));
}

Result<UpdateStatement> ParseStatement(std::string_view stmt) {
  stmt = Trim(stmt);
  size_t we = 0;
  while (we < stmt.size() &&
         !std::isspace(static_cast<unsigned char>(stmt[we]))) {
    ++we;
  }
  const std::string_view verb = stmt.substr(0, we);
  const std::string_view rest = Trim(stmt.substr(we));
  UpdateStatement s;
  if (verb == "insert") {
    s.op = UpdateOp::kInsert;
    const std::vector<bool> top = TopLevelMap(rest);
    struct PositionKeyword {
      std::string_view word;
      InsertPosition position;
    };
    constexpr PositionKeyword kPositions[] = {
        {"into", InsertPosition::kInto},
        {"before", InsertPosition::kBefore},
        {"after", InsertPosition::kAfter},
    };
    size_t kw = std::string_view::npos;
    size_t kw_len = 0;
    for (const PositionKeyword& p : kPositions) {
      const size_t at = FindTopLevelKeyword(rest, top, p.word);
      if (at < kw) {
        kw = at;
        kw_len = p.word.size();
        s.position = p.position;
      }
    }
    if (kw == std::string_view::npos) {
      return Status::ParseError(
          "update: insert needs 'into', 'before', or 'after': " +
          std::string(stmt));
    }
    LLL_RETURN_IF_ERROR(ParsePayload(rest.substr(0, kw), &s));
    s.target_path = std::string(Trim(rest.substr(kw + kw_len)));
  } else if (verb == "delete") {
    s.op = UpdateOp::kDelete;
    s.target_path = std::string(rest);
  } else if (verb == "replace") {
    s.op = UpdateOp::kReplace;
    const std::vector<bool> top = TopLevelMap(rest);
    const size_t kw = FindTopLevelKeyword(rest, top, "with");
    if (kw == std::string_view::npos) {
      return Status::ParseError("update: replace needs 'with': " +
                                std::string(stmt));
    }
    s.target_path = std::string(Trim(rest.substr(0, kw)));
    LLL_RETURN_IF_ERROR(ParsePayload(rest.substr(kw + 4), &s));
  } else if (verb == "rename") {
    s.op = UpdateOp::kRename;
    const std::vector<bool> top = TopLevelMap(rest);
    const size_t kw = FindTopLevelKeyword(rest, top, "as");
    if (kw == std::string_view::npos) {
      return Status::ParseError("update: rename needs 'as': " +
                                std::string(stmt));
    }
    s.target_path = std::string(Trim(rest.substr(0, kw)));
    s.qname = std::string(Trim(rest.substr(kw + 2)));
    if (!xml::IsWellFormedQName(s.qname)) {
      return Status::ParseError("update: '" + s.qname +
                                "' is not a well-formed QName");
    }
  } else {
    return Status::ParseError(
        "update: expected insert/delete/replace/rename, got '" +
        std::string(verb) + "'");
  }
  if (s.target_path.empty()) {
    return Status::ParseError("update: missing target path: " +
                              std::string(stmt));
  }
  return s;
}

}  // namespace

bool IsUpdateScript(std::string_view source) {
  const std::string_view s = Trim(source);
  for (std::string_view verb : {"insert", "delete", "replace", "rename"}) {
    if (s.size() > verb.size() && s.compare(0, verb.size(), verb) == 0 &&
        std::isspace(static_cast<unsigned char>(s[verb.size()]))) {
      return true;
    }
  }
  return false;
}

Result<UpdateScript> ParseUpdateScript(std::string_view source) {
  UpdateScript script;
  script.source = std::string(Trim(source));
  const std::string_view s = script.source;
  if (s.empty()) {
    return Status::ParseError("update: empty script");
  }
  const std::vector<bool> top = TopLevelMap(s);
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i < s.size() && !(top[i] && s[i] == ';')) continue;
    const std::string_view stmt = Trim(s.substr(start, i - start));
    if (stmt.empty()) {
      return Status::ParseError("update: empty statement in script");
    }
    LLL_ASSIGN_OR_RETURN(UpdateStatement parsed, ParseStatement(stmt));
    script.statements.push_back(std::move(parsed));
    start = i + 1;
  }
  return script;
}

}  // namespace lll::xq
