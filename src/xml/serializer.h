#ifndef LLL_XML_SERIALIZER_H_
#define LLL_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/node.h"

namespace lll::xml {

struct SerializeOptions {
  // Indent child elements by `indent` spaces per depth level. 0 = compact.
  int indent = 0;
  // Emit an "<?xml version=...?>" declaration for document nodes.
  bool declaration = false;
  // Self-close empty elements ("<a/>") instead of "<a></a>".
  bool self_close_empty = true;
  // HTML-compatible output (the document generator's real target): void
  // elements (br, hr, img, ...) emit as "<br>"; other empty elements emit
  // open+close pairs ("<div></div>"), since "<div/>" is not HTML.
  bool html = false;
};

// True if `name` is an HTML void element (br, hr, img, input, meta, link,
// area, base, col, embed, source, track, wbr).
bool IsHtmlVoidElement(std::string_view name);

// Serializes a node (document, element, text, comment, or PI) to XML text.
// Text escapes '&', '<', '>'; double-quoted attribute values escape '&',
// '<', '"'. A detached attribute node serializes as `name="value"` -- useful
// for diagnostics, not valid document content.
std::string Serialize(const Node* node, const SerializeOptions& options = {});
// Serialize, appended to `out`.
void SerializeTo(const Node* node, const SerializeOptions& options,
                 std::string* out);

}  // namespace lll::xml

#endif  // LLL_XML_SERIALIZER_H_
