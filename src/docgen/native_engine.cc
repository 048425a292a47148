#include "docgen/native_engine.h"

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "awbql/native.h"
#include "awbql/query.h"
#include "core/string_util.h"
#include "xml/name_table.h"
#include "xml/parser.h"

namespace lll::docgen {

namespace {

using awb::Model;
using awb::ModelNode;

struct TocEntry {
  int depth;
  std::string text;
};

void CopyAttributes(const xml::Node* from, xml::Node* to) {
  for (const xml::Node* attr : from->attributes()) {
    to->SetAttribute(attr->name(), attr->value());
  }
}

// The generation engine, in two halves:
//
//   * the WALK (Gen and the directive handlers): a recursive walk of
//     (template, model, focus) that appends output nodes to a parent in the
//     `out` document and feeds the mutable accumulators;
//   * the PATCH phase (PatchAll): resolves table-of-contents and omissions
//     markers and substitutes placeholders over the finished tree, using the
//     accumulated state.
//
// One Generator renders one report on one thread.
class Generator {
 public:
  Generator(const Model& model, const GenerateOptions& options,
            xml::Document* out)
      : model_(model), options_(options), out_(out) {}

  // --- The recursive walk ---------------------------------------------------

  // "The heart of the document generator is a quite straightforward
  // recursive walk ... AWB directives like for, if, and focus-is-type are
  // dispatched to special-purpose code for execution; everything else is
  // simply copied."
  Status Gen(const xml::Node* t, xml::Node* parent, const ModelNode* focus,
             int depth) {
    switch (t->kind()) {
      case xml::NodeKind::kText:
        return parent->AppendChild(out_->CreateText(t->value()));
      case xml::NodeKind::kComment:
      case xml::NodeKind::kProcessingInstruction:
      case xml::NodeKind::kDocument:
      case xml::NodeKind::kAttribute:
        return Status::Ok();  // dropped from output
      case xml::NodeKind::kElement:
        break;
    }
    const std::string& tag = t->name();
    if (tag == "for") return GenerateFor(t, parent, focus, depth);
    if (tag == "if") return GenerateIf(t, parent, focus, depth);
    if (tag == "label") return GenerateLabel(t, parent, focus);
    if (tag == "value-of") return GenerateValueOf(t, parent, focus);
    if (tag == "section") return GenerateSection(t, parent, focus, depth);
    if (tag == "table-of-contents") return GenerateTocMarker(parent);
    if (tag == "table-of-omissions") return GenerateOmissionsMarker(t, parent);
    if (tag == "table") return GenerateTable(t, parent, focus);
    if (tag == "rich-text") return GenerateRichText(t, parent, focus);
    if (tag == "placeholder") return GeneratePlaceholder(t, focus, depth);
    if (tag == "query") return Status::Ok();  // data for an enclosing for

    // Plain HTML: copy the element, recurse into children.
    xml::Node* copy = out_->CreateElement(tag);
    CopyAttributes(t, copy);
    LLL_RETURN_IF_ERROR(parent->AppendChild(copy));
    for (const xml::Node* child : t->children()) {
      LLL_RETURN_IF_ERROR(Gen(child, copy, focus, depth));
    }
    return Status::Ok();
  }

  // --- Accumulators ---------------------------------------------------------

  DocGenStats stats() const {
    DocGenStats stats = stats_;
    stats.nodes_visited = visited_.size();
    stats.toc_entries = toc_.size();
    return stats;
  }

  void Visit(const ModelNode* node) { visited_.insert(node->id()); }

  // --- Patch phase ------------------------------------------------------

  // Phase 2, the "very modest second phase": patch markers in place. Markers
  // are found by scanning the finished tree and any detached placeholder
  // bodies.
  Status PatchAll(xml::Node* root) {
    LLL_RETURN_IF_ERROR(PatchTableOfContents(root));
    LLL_RETURN_IF_ERROR(PatchOmissions(root));
    LLL_RETURN_IF_ERROR(PatchPlaceholders(root));
    return Status::Ok();
  }

 private:
  // --- Directives --------------------------------------------------------

  Status GenerateFor(const xml::Node* t, xml::Node* parent,
                     const ModelNode* focus, int depth) {
    ++stats_.directives_processed;
    auto nodes = EvalQueryOn(t, focus);
    if (!nodes.ok()) {
      return Trouble(parent,
                     nodes.status(), t, focus, "while expanding <for>");
    }
    for (const ModelNode* node : *nodes) {
      Visit(node);
      for (const xml::Node* child : t->children()) {
        if (child->is_element() && child->name() == "query") continue;
        LLL_RETURN_IF_ERROR(Gen(child, parent, node, depth));
      }
    }
    return Status::Ok();
  }

  Status GenerateIf(const xml::Node* t, xml::Node* parent,
                    const ModelNode* focus, int depth) {
    ++stats_.directives_processed;
    const xml::Node* test = t->FirstChildElement("test");
    const xml::Node* then_branch = t->FirstChildElement("then");
    const xml::Node* else_branch = t->FirstChildElement("else");
    if (test == nullptr || then_branch == nullptr) {
      return Trouble(parent,
                     Status::Invalid("<if> needs <test> and <then> children"),
                     t, focus, "while expanding <if>");
    }
    const xml::Node* condition = nullptr;
    for (const xml::Node* c : test->children()) {
      if (c->is_element()) {
        condition = c;
        break;
      }
    }
    if (condition == nullptr) {
      return Trouble(parent, Status::Invalid("<test> is empty"), t, focus,
                     "while expanding <if>");
    }
    auto truth = EvalCondition(condition, focus);
    if (!truth.ok()) {
      return Trouble(parent, truth.status(), t, focus,
                     "while evaluating <test>");
    }
    const xml::Node* branch = *truth ? then_branch : else_branch;
    if (branch == nullptr) return Status::Ok();
    for (const xml::Node* child : branch->children()) {
      LLL_RETURN_IF_ERROR(Gen(child, parent, focus, depth));
    }
    return Status::Ok();
  }

  Result<bool> EvalCondition(const xml::Node* c, const ModelNode* focus) {
    const std::string& tag = c->name();
    auto need_focus = [&]() -> Result<const ModelNode*> {
      if (focus == nullptr) {
        return Status::Invalid("<" + tag + "> requires a focus node");
      }
      return focus;
    };
    if (tag == "focus-is-type") {
      auto type = c->AttributeValue("type");
      if (!type.has_value()) {
        return Status::Invalid("<focus-is-type> needs a type attribute");
      }
      LLL_ASSIGN_OR_RETURN(const ModelNode* f, need_focus());
      return model_.metamodel().IsNodeSubtype(f->type(), *type);
    }
    if (tag == "focus-has-property") {
      auto name = c->AttributeValue("name");
      if (!name.has_value()) {
        return Status::Invalid("<focus-has-property> needs a name attribute");
      }
      LLL_ASSIGN_OR_RETURN(const ModelNode* f, need_focus());
      return f->Property(*name) != nullptr;
    }
    if (tag == "focus-property-equals") {
      auto name = c->AttributeValue("name");
      auto value = c->AttributeValue("value");
      if (!name.has_value() || !value.has_value()) {
        return Status::Invalid(
            "<focus-property-equals> needs name and value attributes");
      }
      LLL_ASSIGN_OR_RETURN(const ModelNode* f, need_focus());
      const std::string* actual = f->Property(*name);
      return actual != nullptr && *actual == *value;
    }
    if (tag == "nonempty") {
      LLL_ASSIGN_OR_RETURN(auto nodes, EvalQueryOn(c, focus));
      return !nodes.empty();
    }
    if (tag == "not") {
      for (const xml::Node* child : c->children()) {
        if (child->is_element()) {
          LLL_ASSIGN_OR_RETURN(bool inner, EvalCondition(child, focus));
          return !inner;
        }
      }
      return Status::Invalid("<not> needs a condition child");
    }
    if (tag == "and" || tag == "or") {
      bool is_and = tag == "and";
      bool result = is_and;
      bool any = false;
      for (const xml::Node* child : c->children()) {
        if (!child->is_element()) continue;
        any = true;
        LLL_ASSIGN_OR_RETURN(bool inner, EvalCondition(child, focus));
        if (is_and && !inner) return false;
        if (!is_and && inner) return true;
        result = is_and;
      }
      if (!any) return Status::Invalid("<" + tag + "> needs condition children");
      return result;
    }
    return Status::Invalid("unknown condition <" + tag + ">");
  }

  Status GenerateLabel(const xml::Node* t, xml::Node* parent,
                       const ModelNode* focus) {
    ++stats_.directives_processed;
    if (focus == nullptr) {
      return Trouble(parent, Status::Invalid("<label/> requires a focus node"),
                     t, focus, "while expanding <label>");
    }
    return parent->AppendChild(out_->CreateText(model_.Label(focus)));
  }

  Status GenerateValueOf(const xml::Node* t, xml::Node* parent,
                         const ModelNode* focus) {
    ++stats_.directives_processed;
    auto property = t->AttributeValue("property");
    if (!property.has_value()) {
      return Trouble(parent,
                     Status::Invalid("<value-of> needs a property attribute"),
                     t, focus, "while expanding <value-of>");
    }
    if (focus == nullptr) {
      return Trouble(parent,
                     Status::Invalid("<value-of> requires a focus node"), t,
                     focus, "while expanding <value-of>");
    }
    const std::string* value = focus->Property(*property);
    if (value == nullptr) {
      auto fallback = t->AttributeValue("default");
      if (!fallback.has_value()) {
        // The E3 workload: missing data without a default is an error, with
        // the offending node attached GenTrouble-style.
        return Trouble(
            parent,
            Status::NotFound("node " + focus->id() + " (" +
                             model_.Label(focus) + ") has no property '" +
                             std::string(*property) + "'"),
            t, focus,
            "while expanding <value-of property=\"" + std::string(*property) +
                "\">");
      }
      return parent->AppendChild(out_->CreateText(*fallback));
    }
    return parent->AppendChild(out_->CreateText(*value));
  }

  Status GenerateSection(const xml::Node* t, xml::Node* parent,
                         const ModelNode* focus, int depth) {
    ++stats_.directives_processed;
    auto heading = t->AttributeValue("heading");
    if (!heading.has_value()) {
      return Trouble(parent,
                     Status::Invalid("<section> needs a heading attribute"), t,
                     focus, "while expanding <section>");
    }
    // Heading text may reference the focus label via the token "{label}".
    std::string text(*heading);
    if (Contains(text, "{label}")) {
      if (focus == nullptr) {
        return Trouble(parent,
                       Status::Invalid("heading uses {label} without a focus"),
                       t, focus, "while expanding <section>");
      }
      text = ReplaceAll(text, "{label}", model_.Label(focus));
    }
    // Mutable accumulator #1: "whenever a heading that goes in the table of
    // contents is produced, toss it into a list."
    toc_.push_back({depth + 1, text});

    xml::Node* div = out_->CreateElement("div");
    div->SetAttribute("class", "section");
    LLL_RETURN_IF_ERROR(parent->AppendChild(div));
    int level = depth + 1 > 6 ? 6 : depth + 1;
    xml::Node* h = out_->CreateElement("h" + std::to_string(level));
    LLL_RETURN_IF_ERROR(h->AppendChild(out_->CreateText(text)));
    LLL_RETURN_IF_ERROR(div->AppendChild(h));
    for (const xml::Node* child : t->children()) {
      LLL_RETURN_IF_ERROR(Gen(child, div, focus, depth + 1));
    }
    return Status::Ok();
  }

  Status GenerateTocMarker(xml::Node* parent) {
    ++stats_.directives_processed;
    return parent->AppendChild(out_->CreateElement("lll-toc-marker"));
  }

  Status GenerateOmissionsMarker(const xml::Node* t, xml::Node* parent) {
    ++stats_.directives_processed;
    xml::Node* marker = out_->CreateElement("lll-omissions-marker");
    auto types = t->AttributeValue("types");
    if (types.has_value()) marker->SetAttribute("types", *types);
    return parent->AppendChild(marker);
  }

  // The E7 artifact, Java style: "We constructed the skeleton of the table
  // ... in a straightforward loop, and stored references to the <td>s in a
  // two-dimensional array. Then we filled in the corner, the row titles, the
  // column titles, and the values, each in a separate loop."
  Status GenerateTable(const xml::Node* t, xml::Node* parent,
                       const ModelNode* focus) {
    ++stats_.directives_processed;
    auto rows = EvalTableQuery(t, "rows", focus);
    if (!rows.ok()) {
      return Trouble(parent, rows.status(), t, focus,
                     "while expanding <table> rows");
    }
    auto cols = EvalTableQuery(t, "cols", focus);
    if (!cols.ok()) {
      return Trouble(parent, cols.status(), t, focus,
                     "while expanding <table> cols");
    }
    auto relation = t->AttributeValue("relation");
    if (!relation.has_value()) {
      return Trouble(parent,
                     Status::Invalid("<table> needs a relation attribute"), t,
                     focus, "while expanding <table>");
    }
    auto corner = t->AttributeValue("corner");

    // Skeleton: (rows+1) x (cols+1) of empty <td>s.
    size_t height = rows->size() + 1;
    size_t width = cols->size() + 1;
    xml::Node* table = out_->CreateElement("table");
    LLL_RETURN_IF_ERROR(parent->AppendChild(table));
    std::vector<std::vector<xml::Node*>> cells(height,
                                               std::vector<xml::Node*>(width));
    for (size_t r = 0; r < height; ++r) {
      xml::Node* tr = out_->CreateElement("tr");
      LLL_RETURN_IF_ERROR(table->AppendChild(tr));
      for (size_t c = 0; c < width; ++c) {
        cells[r][c] = out_->CreateElement("td");
        LLL_RETURN_IF_ERROR(tr->AppendChild(cells[r][c]));
      }
    }
    auto fill = [this](xml::Node* td, const std::string& text) {
      return td->AppendChild(out_->CreateText(text));
    };
    // Corner.
    LLL_RETURN_IF_ERROR(
        fill(cells[0][0], corner.has_value() ? std::string(*corner)
                                             : std::string("row\\col")));
    // Column titles.
    for (size_t c = 0; c < cols->size(); ++c) {
      Visit((*cols)[c]);
      LLL_RETURN_IF_ERROR(fill(cells[0][c + 1], model_.Label((*cols)[c])));
    }
    // Row titles.
    for (size_t r = 0; r < rows->size(); ++r) {
      Visit((*rows)[r]);
      LLL_RETURN_IF_ERROR(fill(cells[r + 1][0], model_.Label((*rows)[r])));
    }
    // Values -- "There was no need to mingle the computations of row titles
    // and cell values."
    for (size_t r = 0; r < rows->size(); ++r) {
      for (size_t c = 0; c < cols->size(); ++c) {
        bool connected = false;
        for (const awb::RelationObject* edge :
             model_.Outgoing((*rows)[r], *relation)) {
          if (edge->target_id() == (*cols)[c]->id()) {
            connected = true;
            break;
          }
        }
        if (connected) {
          LLL_RETURN_IF_ERROR(fill(cells[r + 1][c + 1], "x"));
        }
      }
    }
    return Status::Ok();
  }

  Status GenerateRichText(const xml::Node* t, xml::Node* parent,
                          const ModelNode* focus) {
    ++stats_.directives_processed;
    auto property = t->AttributeValue("property");
    if (!property.has_value()) {
      return Trouble(parent,
                     Status::Invalid("<rich-text> needs a property attribute"),
                     t, focus, "while expanding <rich-text>");
    }
    if (focus == nullptr) {
      return Trouble(parent,
                     Status::Invalid("<rich-text> requires a focus node"), t,
                     focus, "while expanding <rich-text>");
    }
    const std::string* value = focus->Property(*property);
    std::string text = value != nullptr ? *value : std::string();
    xml::Node* div = out_->CreateElement("div");
    div->SetAttribute("class", "rich-text");
    LLL_RETURN_IF_ERROR(parent->AppendChild(div));
    auto fragment = xml::Parse("<w>" + text + "</w>");
    if (fragment.ok()) {
      for (const xml::Node* child : (*fragment)->DocumentElement()->children()) {
        LLL_RETURN_IF_ERROR(div->AppendChild(out_->ImportNode(child)));
      }
    } else {
      // The blob didn't parse: keep it as escaped text.
      LLL_RETURN_IF_ERROR(div->AppendChild(out_->CreateText(text)));
    }
    return Status::Ok();
  }

  Status GeneratePlaceholder(const xml::Node* t, const ModelNode* focus,
                             int depth) {
    ++stats_.directives_processed;
    auto name = t->AttributeValue("name");
    if (!name.has_value() || name->empty()) {
      // Placeholders produce no output node to attach an embedded error to,
      // so this one always propagates.
      return Status::Invalid("<placeholder> needs a name attribute");
    }
    // Generate the content into a detached holding element.
    xml::Node* holder = out_->CreateElement("lll-placeholder-content");
    for (const xml::Node* child : t->children()) {
      LLL_RETURN_IF_ERROR(Gen(child, holder, focus, depth));
    }
    placeholders_[std::string(*name)] = holder;
    ++stats_.placeholders_defined;
    return Status::Ok();
  }

  // --- Patch phase ------------------------------------------------------

  // Collects markers named `name` in document order, in the finished tree
  // AND in detached placeholder bodies (a <table-of-contents/> inside a
  // placeholder must be expanded before the placeholder is spliced in).
  std::vector<xml::Node*> CollectMarkers(xml::Node* root,
                                         std::string_view name) {
    std::vector<xml::Node*> markers = root->DescendantElements(name);
    for (const auto& [placeholder_name, holder] : placeholders_) {
      (void)placeholder_name;
      std::vector<xml::Node*> inner = holder->DescendantElements(name);
      markers.insert(markers.end(), inner.begin(), inner.end());
    }
    return markers;
  }

  Status PatchTableOfContents(xml::Node* root) {
    for (xml::Node* marker : CollectMarkers(root, "lll-toc-marker")) {
      xml::Node* list = out_->CreateElement("ul");
      list->SetAttribute("class", "toc");
      for (const TocEntry& entry : toc_) {
        xml::Node* li = out_->CreateElement("li");
        li->SetAttribute("class", "toc-depth-" + std::to_string(entry.depth));
        LLL_RETURN_IF_ERROR(li->AppendChild(out_->CreateText(entry.text)));
        LLL_RETURN_IF_ERROR(list->AppendChild(li));
      }
      LLL_RETURN_IF_ERROR(marker->parent()->ReplaceChild(marker, {list}));
    }
    return Status::Ok();
  }

  Status PatchOmissions(xml::Node* root) {
    for (xml::Node* marker : CollectMarkers(root, "lll-omissions-marker")) {
      std::vector<std::string> wanted_types;
      if (auto types = marker->AttributeValue("types")) {
        for (const std::string& type : Split(*types, ',')) {
          std::string_view trimmed = TrimWhitespace(type);
          if (!trimmed.empty()) wanted_types.emplace_back(trimmed);
        }
      }
      xml::Node* list = out_->CreateElement("ul");
      list->SetAttribute("class", "omissions");
      for (const ModelNode* node : model_.nodes()) {
        if (visited_.count(node->id()) != 0) continue;
        if (!wanted_types.empty()) {
          bool match = false;
          for (const std::string& type : wanted_types) {
            if (model_.metamodel().IsNodeSubtype(node->type(), type)) {
              match = true;
              break;
            }
          }
          if (!match) continue;
        }
        xml::Node* li = out_->CreateElement("li");
        LLL_RETURN_IF_ERROR(li->AppendChild(out_->CreateText(
            model_.Label(node) + " (" + node->type() + ")")));
        LLL_RETURN_IF_ERROR(list->AppendChild(li));
        ++stats_.omissions_listed;
      }
      LLL_RETURN_IF_ERROR(marker->parent()->ReplaceChild(marker, {list}));
    }
    return Status::Ok();
  }

  // "search for the phrase in the HTML structure. It will probably be in the
  // middle of an XML Text node, so rip that node apart and shove Table 1's
  // HTML bodily into the gap." Exactly what we do.
  Status PatchPlaceholders(xml::Node* root) {
    for (const auto& [name, holder] : placeholders_) {
      std::string token = name + "-GOES-HERE";
      bool changed = true;
      int guard = 16;  // placeholder content mentioning other placeholders
      while (changed && guard-- > 0) {
        changed = false;
        LLL_RETURN_IF_ERROR(
            ReplaceTokenOnce(root, token, holder, &changed));
      }
    }
    return Status::Ok();
  }

  Status ReplaceTokenOnce(xml::Node* element, const std::string& token,
                          const xml::Node* holder, bool* changed) {
    // Children vector mutates during replacement; take a snapshot.
    std::vector<xml::Node*> snapshot(element->children().begin(),
                                     element->children().end());
    for (xml::Node* child : snapshot) {
      if (child->is_element()) {
        if (child == holder) continue;
        LLL_RETURN_IF_ERROR(ReplaceTokenOnce(child, token, holder, changed));
        continue;
      }
      if (!child->is_text()) continue;
      size_t hit = child->value().find(token);
      if (hit == std::string::npos) continue;
      std::string before(child->value().substr(0, hit));
      std::string after(child->value().substr(hit + token.size()));
      std::vector<xml::Node*> replacement;
      if (!before.empty()) replacement.push_back(out_->CreateText(before));
      for (const xml::Node* content : holder->children()) {
        replacement.push_back(out_->ImportNode(content));
      }
      if (!after.empty()) replacement.push_back(out_->CreateText(after));
      LLL_RETURN_IF_ERROR(element->ReplaceChild(child, replacement));
      ++stats_.placeholder_replacements;
      *changed = true;
      return Status::Ok();  // restart the scan from the top
    }
    return Status::Ok();
  }

  // --- Helpers ------------------------------------------------------------

  // Converts a '; '-separated `nodes` attribute into the newline text form
  // (the canonical key of the shared parse cache).
  static std::string NodesAttributeToQueryText(const std::string& attr) {
    std::string text;
    for (const std::string& part : Split(attr, ';')) {
      std::string_view trimmed = TrimWhitespace(part);
      if (!trimmed.empty()) {
        text.append(trimmed);
        text.push_back('\n');
      }
    }
    return text;
  }

  // XML-form queries are memoized per template element: a <for> body that
  // expands once per focus node parses its <query> child exactly once per
  // generation instead of once per iteration. The memo is confined to this
  // Generator (and thus to one thread).
  Result<const awbql::Query*> ParsedXmlQuery(const xml::Node* query_element) {
    auto it = xml_query_memo_.find(query_element);
    if (it != xml_query_memo_.end()) return it->second.get();
    LLL_ASSIGN_OR_RETURN(awbql::Query query,
                         awbql::ParseQueryXml(query_element));
    auto handle = std::make_unique<const awbql::Query>(std::move(query));
    const awbql::Query* raw = handle.get();
    xml_query_memo_[query_element] = std::move(handle);
    return raw;
  }

  // Evaluates the query attached to a directive: a <query> child (normalized
  // form) or a `nodes` text attribute.
  Result<std::vector<const ModelNode*>> EvalQueryOn(const xml::Node* t,
                                                    const ModelNode* focus) {
    const xml::Node* query_element = t->FirstChildElement("query");
    if (query_element != nullptr) {
      LLL_ASSIGN_OR_RETURN(const awbql::Query* query,
                           ParsedXmlQuery(query_element));
      return awbql::EvalNative(*query, model_, focus);
    }
    auto nodes_attr = t->AttributeValue("nodes");
    if (!nodes_attr.has_value()) {
      return Status::Invalid("<" + t->name() +
                             "> needs a nodes attribute or <query> child");
    }
    LLL_ASSIGN_OR_RETURN(std::shared_ptr<const awbql::Query> query,
                         awbql::SharedQueryParseCache().GetOrParse(
                             NodesAttributeToQueryText(std::string(*nodes_attr))));
    return awbql::EvalNative(*query, model_, focus);
  }

  Result<std::vector<const ModelNode*>> EvalTableQuery(
      const xml::Node* t, const std::string& which, const ModelNode* focus) {
    // Normalized form: <rows-query><query>...</query></rows-query>.
    const xml::Node* wrapper = t->FirstChildElement(which + "-query");
    if (wrapper != nullptr) {
      const xml::Node* query_element = wrapper->FirstChildElement("query");
      if (query_element == nullptr) {
        return Status::Invalid("<" + which + "-query> without a <query>");
      }
      LLL_ASSIGN_OR_RETURN(const awbql::Query* query,
                           ParsedXmlQuery(query_element));
      return awbql::EvalNative(*query, model_, focus);
    }
    auto attr = t->AttributeValue(which);
    if (!attr.has_value()) {
      return Status::Invalid("<table> needs a '" + which + "' query");
    }
    LLL_ASSIGN_OR_RETURN(std::shared_ptr<const awbql::Query> query,
                         awbql::SharedQueryParseCache().GetOrParse(
                             NodesAttributeToQueryText(std::string(*attr))));
    return awbql::EvalNative(*query, model_, focus);
  }

  // Error handling: under kPropagate, attach GenTrouble context and bubble
  // up (the caller's LLL_RETURN_IF_ERROR is the "one line per call site");
  // under kEmbed, append an <error> element and continue.
  Status Trouble(xml::Node* parent, Status status, const xml::Node* t,
                 const ModelNode* focus, const std::string& doing) {
    std::string where = doing;
    if (focus != nullptr) {
      where += " (focus: " + model_.Label(focus) + " [" + focus->id() + "])";
    }
    if (options_.error_policy == GenerateOptions::ErrorPolicy::kEmbed) {
      ++stats_.errors_embedded;
      xml::Node* error = out_->CreateElement("error");
      xml::Node* message = out_->CreateElement("message");
      (void)message->AppendChild(out_->CreateText(status.message()));
      (void)error->AppendChild(message);
      xml::Node* location = out_->CreateElement("location");
      (void)location->AppendChild(out_->CreateText(where));
      (void)error->AppendChild(location);
      (void)parent->AppendChild(error);
      (void)t;
      return Status::Ok();
    }
    return status.AddContext(where + ", at template element <" + t->name() +
                             ">");
  }

  const Model& model_;
  const GenerateOptions& options_;
  xml::Document* out_ = nullptr;
  DocGenStats stats_;

  // Mutable accumulators -- the whole point of the Java rewrite.
  std::set<std::string> visited_;
  std::vector<TocEntry> toc_;
  std::map<std::string, xml::Node*> placeholders_;
  std::map<const xml::Node*, std::unique_ptr<const awbql::Query>>
      xml_query_memo_;
};

Result<const ModelNode*> ResolveInitialFocus(const Model& model,
                                             const GenerateOptions& options) {
  if (options.initial_focus_id.empty()) {
    return static_cast<const ModelNode*>(nullptr);
  }
  const ModelNode* focus = model.FindNode(options.initial_focus_id);
  if (focus == nullptr) {
    return Status::NotFound("initial focus node '" + options.initial_focus_id +
                            "' not found");
  }
  return focus;
}

}  // namespace

Result<DocGenResult> GenerateNative(const xml::Node* template_root,
                                    const awb::Model& model,
                                    const GenerateOptions& options) {
  if (template_root == nullptr || !template_root->is_element()) {
    return Status::Invalid("template root must be an element");
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("docgen.native.generations").Increment();
  }
  DocGenResult result;
  result.document = std::make_unique<xml::Document>();
  Generator generator(model, options, result.document.get());

  LLL_ASSIGN_OR_RETURN(const ModelNode* focus,
                       ResolveInitialFocus(model, options));
  if (focus != nullptr) generator.Visit(focus);

  xml::Node* root = result.document->CreateElement(template_root->name());
  CopyAttributes(template_root, root);
  LLL_RETURN_IF_ERROR(result.document->root()->AppendChild(root));
  for (const xml::Node* child : template_root->children()) {
    LLL_RETURN_IF_ERROR(generator.Gen(child, root, focus, /*depth=*/0));
  }

  LLL_RETURN_IF_ERROR(generator.PatchAll(root));
  NormalizeTextNodes(root);

  result.root = root;
  result.stats = generator.stats();
  if (options.metrics != nullptr) {
    const xml::DocumentStorageStats storage =
        result.document->storage_stats();
    options.metrics->gauge("xml.doc.nodes")
        .Set(static_cast<int64_t>(storage.node_count));
    options.metrics->gauge("xml.doc.bytes")
        .Set(static_cast<int64_t>(storage.total_bytes));
    options.metrics->gauge("xml.names.interned")
        .Set(static_cast<int64_t>(xml::NameTable::interned_count()));
  }
  return result;
}

Result<DocGenResult> GenerateNativeFromText(const std::string& template_xml,
                                            const awb::Model& model,
                                            const GenerateOptions& options) {
  LLL_ASSIGN_OR_RETURN(auto doc, ParseTemplate(template_xml));
  return GenerateNative(doc->DocumentElement(), model, options);
}

}  // namespace lll::docgen
