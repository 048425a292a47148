#include "xml/serializer.h"

#include <vector>

namespace lll::xml {

bool IsHtmlVoidElement(std::string_view name) {
  // Case-insensitive: HTML tag names are.
  for (std::string_view v : {"br", "hr", "img", "input", "meta", "link", "area",
                             "base", "col", "embed", "source", "track",
                             "wbr"}) {
    if (name.size() != v.size()) continue;
    size_t i = 0;
    while (i < v.size()) {
      char c = name[i];
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      if (c != v[i]) break;
      ++i;
    }
    if (i == v.size()) return true;
  }
  return false;
}

namespace {

// Appends `s` to `out` with '&' and '<' escaped, plus '"' in an attribute
// value or '>' in text. Unescaped runs are copied whole.
void AppendEscaped(std::string_view s, bool attribute, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char* entity = nullptr;
    switch (s[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        if (!attribute) entity = "&gt;";
        break;
      case '"':
        if (attribute) entity = "&quot;";
        break;
      default:
        break;
    }
    if (entity == nullptr) continue;
    out->append(s.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

void AppendAttribute(const Node* attr, std::string* out) {
  out->append(attr->name());
  out->append("=\"");
  AppendEscaped(attr->value(), /*attribute=*/true, out);
  out->push_back('"');
}

// One open element (or the document node) whose children are being
// rendered.
struct Frame {
  const Node* node;
  uint32_t next;  // index of the next child to render
  int depth;      // depth of the children
  // Children go on their own indented lines (element-only content under a
  // nonzero indent); for a document node, newline-separated.
  bool pretty;
};

class Writer {
 public:
  Writer(const SerializeOptions& options, std::string* out)
      : options_(options), out_(out) {}

  // Explicit stack, one frame per open element, so 100k-deep documents
  // cannot exhaust the call stack.
  void Run(const Node* root) {
    Open(root, 0);
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      NodeList children = top.node->children();
      if (top.next < children.size()) {
        const Node* child = children[top.next++];
        const int depth = top.depth;
        if (top.node->is_document()) {
          if (top.next > 1 && top.pretty) out_->push_back('\n');
        } else if (top.pretty) {
          Newline(depth);
        }
        Open(child, depth);  // may push, invalidating `top`
        continue;
      }
      if (top.node->is_element()) {
        if (top.pretty) Newline(top.depth - 1);
        CloseTag(top.node);
      }
      stack_.pop_back();
    }
  }

 private:
  void Newline(int depth) {
    out_->push_back('\n');
    out_->append(static_cast<size_t>(depth * options_.indent), ' ');
  }

  void CloseTag(const Node* element) {
    out_->append("</");
    out_->append(element->name());
    out_->push_back('>');
  }

  // Renders a leaf whole, or an element's start tag (and, when it has no
  // children, its end); pushes a frame for children still to render.
  void Open(const Node* node, int depth) {
    switch (node->kind()) {
      case NodeKind::kDocument:
        if (options_.declaration) {
          out_->append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
          if (options_.indent > 0) out_->push_back('\n');
        }
        stack_.push_back(Frame{node, 0, depth, options_.indent > 0});
        return;
      case NodeKind::kElement: {
        out_->push_back('<');
        out_->append(node->name());
        for (const Node* a : node->attributes()) {
          out_->push_back(' ');
          AppendAttribute(a, out_);
        }
        NodeList children = node->children();
        if (children.empty()) {
          if (options_.html) {
            out_->push_back('>');
            if (!IsHtmlVoidElement(node->name())) CloseTag(node);
          } else if (options_.self_close_empty) {
            out_->append("/>");
          } else {
            out_->push_back('>');
            CloseTag(node);
          }
          return;
        }
        out_->push_back('>');
        // Mixed content (any text child) is serialized inline; element-only
        // content gets the pretty indentation.
        bool pretty = options_.indent > 0;
        for (const Node* c : children) {
          if (c->is_text()) {
            pretty = false;
            break;
          }
        }
        stack_.push_back(Frame{node, 0, depth + 1, pretty});
        return;
      }
      case NodeKind::kText:
        AppendEscaped(node->value(), /*attribute=*/false, out_);
        return;
      case NodeKind::kComment:
        out_->append("<!--");
        out_->append(node->value());
        out_->append("-->");
        return;
      case NodeKind::kProcessingInstruction:
        out_->append("<?");
        out_->append(node->name());
        if (!node->value().empty()) {
          out_->push_back(' ');
          out_->append(node->value());
        }
        out_->append("?>");
        return;
      case NodeKind::kAttribute:
        AppendAttribute(node, out_);
        return;
    }
  }

  const SerializeOptions& options_;
  std::string* out_;
  std::vector<Frame> stack_;
};

}  // namespace

void SerializeTo(const Node* node, const SerializeOptions& options,
                 std::string* out) {
  Writer(options, out).Run(node);
}

std::string Serialize(const Node* node, const SerializeOptions& options) {
  std::string out;
  SerializeTo(node, options, &out);
  return out;
}

}  // namespace lll::xml
