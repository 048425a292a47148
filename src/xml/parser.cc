#include "xml/parser.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/string_util.h"

namespace lll::xml {

namespace {

class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Result<std::unique_ptr<Document>> Run() {
    auto doc = std::make_unique<Document>();
    doc_ = doc.get();
    SkipProlog();
    LLL_RETURN_IF_ERROR(ParseContent(doc_->root()));
    SkipMisc();
    if (!AtEnd()) {
      return Err("unexpected content after document element");
    }
    size_t element_count = 0;
    for (const Node* c : doc_->root()->children()) {
      if (c->is_element()) ++element_count;
    }
    if (element_count == 0) return Err("document has no root element");
    if (element_count > 1) {
      return Err("unexpected content after document element");
    }
    // Squeeze pool slack: a freshly parsed document is read-mostly, and no
    // NodeList views escape the parser.
    doc_->CompactStorage();
    // A finished parse is edit-history origin: epoch 0, same as a snapshot
    // load, so warm- and cold-booted documents report identical histories.
    doc_->ResetEditEpoch();
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < input_.size() ? input_[pos_ + offset] : '\0';
  }

  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  bool Consume(std::string_view token) {
    if (input_.substr(pos_).substr(0, token.size()) != token) return false;
    for (size_t i = 0; i < token.size(); ++i) Advance();
    return true;
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsXmlWhitespace(Peek())) Advance();
  }

  Status Err(std::string message) const {
    char loc[48];
    std::snprintf(loc, sizeof(loc), " at line %zu, column %zu", line_, col_);
    return Status::ParseError(message + loc);
  }

  // Skips the XML declaration, doctype, and inter-element misc before the
  // root element.
  void SkipProlog() {
    SkipWhitespace();
    if (Consume("<?xml")) {
      while (!AtEnd() && !Consume("?>")) Advance();
      SkipWhitespace();
    }
    if (Consume("<!DOCTYPE")) {
      // Skip to the matching '>'; internal subsets in [] are skipped whole.
      int bracket_depth = 0;
      while (!AtEnd()) {
        char c = Advance();
        if (c == '[') ++bracket_depth;
        if (c == ']') --bracket_depth;
        if (c == '>' && bracket_depth == 0) break;
      }
      SkipWhitespace();
    }
  }

  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (Consume("<!--")) {
        while (!AtEnd() && !Consume("-->")) Advance();
      } else if (Peek() == '<' && PeekAt(1) == '?') {
        while (!AtEnd() && !Consume("?>")) Advance();
      } else {
        return;
      }
    }
  }

  bool IsNameStart(char c) const {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  bool IsNameChar(char c) const {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
           c == '.' || c == '_' || c == ':';
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Err("expected a name");
    std::string name;
    name.push_back(Advance());
    while (!AtEnd() && IsNameChar(Peek())) name.push_back(Advance());
    return name;
  }

  // Decodes one entity/char reference starting after '&'.
  Result<std::string> ParseReference() {
    std::string ent;
    while (!AtEnd() && Peek() != ';') {
      ent.push_back(Advance());
      if (ent.size() > 10) return Err("unterminated entity reference");
    }
    if (AtEnd()) return Err("unterminated entity reference");
    Advance();  // ';'
    if (ent == "lt") return std::string("<");
    if (ent == "gt") return std::string(">");
    if (ent == "amp") return std::string("&");
    if (ent == "quot") return std::string("\"");
    if (ent == "apos") return std::string("'");
    if (!ent.empty() && ent[0] == '#') {
      long code = 0;
      bool ok = false;
      if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
        char* end = nullptr;
        code = std::strtol(ent.c_str() + 2, &end, 16);
        ok = end != nullptr && *end == '\0';
      } else if (ent.size() > 1) {
        char* end = nullptr;
        code = std::strtol(ent.c_str() + 1, &end, 10);
        ok = end != nullptr && *end == '\0';
      }
      if (!ok || code <= 0 || code > 0x10FFFF) {
        return Err("bad character reference &" + ent + ";");
      }
      // UTF-8 encode.
      std::string out;
      unsigned cp = static_cast<unsigned>(code);
      if (cp < 0x80) {
        out.push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else if (cp < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      }
      return out;
    }
    return Err("unknown entity &" + ent + ";");
  }

  Result<std::string> ParseAttributeValue() {
    if (Peek() != '"' && Peek() != '\'') {
      return Err("expected quoted attribute value");
    }
    char quote = Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      char c = Advance();
      if (c == '&') {
        LLL_ASSIGN_OR_RETURN(std::string decoded, ParseReference());
        value += decoded;
      } else if (c == '<') {
        return Err("'<' not allowed in attribute value");
      } else {
        value.push_back(c);
      }
    }
    if (AtEnd()) return Err("unterminated attribute value");
    Advance();  // closing quote
    return value;
  }

  // Parses the content tree under `root` with an explicit open-element
  // stack, so nesting depth is bounded by the heap, not the call stack
  // (100k-deep documents parse). Stops (without consuming) at an end tag
  // that has no matching open element, or at end of input.
  Status ParseContent(Node* root) {
    struct Open {
      Node* element;
      std::string name;
    };
    std::vector<Open> open;
    Node* parent = root;
    std::string text;
    auto flush_text = [&]() -> Status {
      if (text.empty()) return Status::Ok();
      bool keep = true;
      if (options_.strip_insignificant_whitespace &&
          TrimWhitespace(text).empty()) {
        keep = false;
      }
      if (keep) {
        LLL_RETURN_IF_ERROR(parent->AppendChild(doc_->CreateText(text)));
      }
      text.clear();
      return Status::Ok();
    };

    while (true) {
      if (AtEnd()) {
        LLL_RETURN_IF_ERROR(flush_text());
        if (!open.empty()) {
          return Err("missing end tag for <" + open.back().name + ">");
        }
        return Status::Ok();
      }
      if (Peek() != '<') {
        char c = Advance();
        if (c == '&') {
          LLL_ASSIGN_OR_RETURN(std::string decoded, ParseReference());
          text += decoded;
        } else {
          text.push_back(c);
        }
        continue;
      }
      if (PeekAt(1) == '/') {
        LLL_RETURN_IF_ERROR(flush_text());
        if (open.empty()) {
          return Status::Ok();  // stray end tag; the caller reports it
        }
        Advance();
        Advance();  // "</"
        LLL_ASSIGN_OR_RETURN(std::string end_name, ParseName());
        if (end_name != open.back().name) {
          return Err("mismatched end tag: expected </" + open.back().name +
                     ">, found </" + end_name + ">");
        }
        SkipWhitespace();
        if (Peek() != '>') return Err("malformed end tag </" + end_name + ">");
        Advance();
        open.pop_back();
        parent = open.empty() ? root : open.back().element;
        continue;
      }
      if (Consume("<!--")) {
        LLL_RETURN_IF_ERROR(flush_text());
        std::string body;
        while (!AtEnd() && !Consume("-->")) body.push_back(Advance());
        if (options_.keep_comments) {
          LLL_RETURN_IF_ERROR(parent->AppendChild(doc_->CreateComment(body)));
        }
        continue;
      }
      if (Consume("<![CDATA[")) {
        while (!AtEnd() && !Consume("]]>")) text.push_back(Advance());
        continue;
      }
      if (PeekAt(1) == '?') {
        LLL_RETURN_IF_ERROR(flush_text());
        Advance();
        Advance();  // "<?"
        LLL_ASSIGN_OR_RETURN(std::string target, ParseName());
        SkipWhitespace();
        std::string data;
        while (!AtEnd() && !Consume("?>")) data.push_back(Advance());
        if (options_.keep_processing_instructions) {
          LLL_RETURN_IF_ERROR(parent->AppendChild(
              doc_->CreateProcessingInstruction(target, data)));
        }
        continue;
      }

      // Start tag.
      LLL_RETURN_IF_ERROR(flush_text());
      Advance();  // '<'
      LLL_ASSIGN_OR_RETURN(std::string name, ParseName());
      Node* element = doc_->CreateElement(name);
      LLL_RETURN_IF_ERROR(parent->AppendChild(element));
      bool self_closed = false;
      while (true) {
        SkipWhitespace();
        if (AtEnd()) return Err("unterminated start tag <" + name);
        if (Consume("/>")) {
          self_closed = true;
          break;
        }
        if (Peek() == '>') {
          Advance();
          break;
        }
        LLL_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
        SkipWhitespace();
        if (Peek() != '=') return Err("expected '=' after attribute name");
        Advance();
        SkipWhitespace();
        LLL_ASSIGN_OR_RETURN(std::string attr_value, ParseAttributeValue());
        if (element->AttributeValue(attr_name).has_value()) {
          return Err("duplicate attribute '" + attr_name + "' on <" + name +
                     ">");
        }
        element->SetAttribute(attr_name, attr_value);
      }
      if (!self_closed) {
        open.push_back(Open{element, std::move(name)});
        parent = element;
      }
    }
  }

  std::string_view input_;
  const ParseOptions& options_;
  Document* doc_ = nullptr;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
};

}  // namespace

Result<std::unique_ptr<Document>> Parse(std::string_view input,
                                        const ParseOptions& options) {
  return Parser(input, options).Run();
}

Result<std::unique_ptr<Document>> ParseFile(const std::string& path,
                                            const ParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string content = buffer.str();
  auto result = Parse(content, options);
  if (!result.ok()) {
    return Status(result.status().code(),
                  path + ": " + result.status().message());
  }
  return result;
}

}  // namespace lll::xml
