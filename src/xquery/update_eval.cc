#include "xquery/update_eval.h"

#include <map>
#include <set>
#include <utility>

#include "xml/parser.h"
#include "xquery/update_parser.h"

namespace lll::xq {

namespace {

std::string StatementLabel(size_t index, const UpdateStatement& s) {
  return "statement " + std::to_string(index + 1) + " (" + ToString(s) + ")";
}

// What applying `s` to `target` bumps (DESIGN.md section 14): the element
// and attribute names of every subtree it moves -- the target's for a
// delete or replace, the payload's for an insert or replace -- or, for a
// rename, the old and the new name. Returns whether it moves the document
// version, which every attach and detach does.
bool AddBumpedNames(const CompiledUpdateStatement& cs,
                    const xml::Node* target, std::set<std::string>* elements,
                    std::set<std::string>* attributes) {
  const UpdateStatement& s = cs.statement;
  if (s.op == UpdateOp::kRename) {
    if (target->is_element() || target->is_attribute()) {
      std::set<std::string>* names =
          target->is_attribute() ? attributes : elements;
      names->insert(target->name());
      names->insert(s.qname);
    }
    return false;
  }
  std::vector<const xml::Node*> stack;
  if (s.op != UpdateOp::kInsert) stack.push_back(target);
  if (s.op != UpdateOp::kDelete && !s.node_is_text) {
    stack.push_back(cs.payload->DocumentElement());
  }
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    if (n->is_element()) elements->insert(n->name());
    if (n->is_attribute()) attributes->insert(n->name());
    for (const xml::Node* a : n->attributes()) attributes->insert(a->name());
    for (const xml::Node* c : n->children()) stack.push_back(c);
  }
  return true;
}

template <typename Names>
std::string Join(const Names& names, const char* separator) {
  std::string out;
  for (const std::string& name : names) {
    out += (out.empty() ? "" : separator) + name;
  }
  return out;
}

// Per-op target validation, run against the pre-update snapshot before any
// mutation: a failure rejects the whole script with the document untouched.
Status ValidateTarget(const UpdateStatement& s, const xml::Node* node) {
  switch (s.op) {
    case UpdateOp::kDelete:
      if (node->is_document()) {
        return Status::Invalid("update: cannot delete the document node");
      }
      return Status::Ok();
    case UpdateOp::kRename:
      if (!node->is_element() && !node->is_attribute() &&
          node->kind() != xml::NodeKind::kProcessingInstruction) {
        return Status::Invalid(
            "update: rename targets must be elements, attributes, or "
            "processing instructions, got " +
            NodePathOf(node));
      }
      return Status::Ok();
    case UpdateOp::kReplace:
      if (node->is_document() || node->is_attribute() ||
          node->parent() == nullptr) {
        return Status::Invalid(
            "update: replace targets must be attached non-attribute "
            "children, got " +
            NodePathOf(node));
      }
      return Status::Ok();
    case UpdateOp::kInsert:
      if (s.position == InsertPosition::kInto) {
        if (!node->is_element() && !node->is_document()) {
          return Status::Invalid(
              "update: insert-into targets must be elements or the "
              "document node, got " +
              NodePathOf(node));
        }
        return Status::Ok();
      }
      if (node->is_document() || node->is_attribute() ||
          node->parent() == nullptr) {
        return Status::Invalid(
            "update: insert before/after targets must be attached "
            "non-attribute children, got " +
            NodePathOf(node));
      }
      return Status::Ok();
  }
  return Status::Internal("update: unknown op");
}

// A fresh copy of the statement's payload, owned by `doc` and detached:
// each target of an insert/replace receives its own copy.
xml::Node* MaterializePayload(const CompiledUpdateStatement& cs,
                              xml::Document* doc) {
  if (cs.statement.node_is_text) {
    return doc->CreateText(cs.statement.node_xml);
  }
  return doc->ImportNode(cs.payload->DocumentElement());
}

// At most the number of nodes one copy of the statement's payload holds: a
// text node, or every node of the parsed payload but its document node.
size_t PayloadNodes(const CompiledUpdateStatement& cs) {
  return cs.statement.node_is_text ? 1 : cs.payload->node_count() - 1;
}

// Evaluates one statement's target path against the document, enforcing
// that every selected item is a node of THAT document (constructed nodes
// and atomics make no sense as update targets). Read-only: concurrent
// read-only evaluation over one tree is the engine's audited contract.
Result<std::vector<xml::Node*>> SelectTargets(const CompiledUpdateStatement& cs,
                                              size_t index,
                                              const xml::Document& doc,
                                              const EvalOptions& eval,
                                              const ExecMetrics* metrics) {
  ExecuteOptions eopts;
  eopts.context_node = doc.NodeAt(0);
  eopts.eval = eval;
  eopts.metrics = metrics;
  Result<QueryResult> r = Execute(cs.target, eopts);
  if (!r.ok()) {
    return r.status().AddContext("while selecting targets of " +
                                 StatementLabel(index, cs.statement));
  }
  std::vector<xml::Node*> nodes;
  nodes.reserve(r->sequence.size());
  for (const xdm::Item& item : r->sequence.items()) {
    if (!item.is_node() || item.node()->document() != &doc) {
      return Status::Invalid("update: target path of " +
                             StatementLabel(index, cs.statement) +
                             " selected an item that is not a node of the "
                             "target document");
    }
    nodes.push_back(item.node());
  }
  return nodes;
}

}  // namespace

Result<CompiledUpdate> CompileUpdate(const UpdateScript& script,
                                     const CompileOptions& options) {
  CompiledUpdate compiled;
  compiled.source = script.source.empty() ? ToString(script) : script.source;
  compiled.statements.reserve(script.statements.size());
  for (size_t i = 0; i < script.statements.size(); ++i) {
    const UpdateStatement& s = script.statements[i];
    Result<CompiledQuery> target = Compile(s.target_path, options);
    if (!target.ok()) {
      return target.status().AddContext("while compiling the target path of " +
                                        StatementLabel(i, s));
    }
    CompiledUpdateStatement cs{s, std::move(*target), nullptr};
    if ((s.op == UpdateOp::kInsert || s.op == UpdateOp::kReplace) &&
        !s.node_is_text) {
      Result<std::unique_ptr<xml::Document>> payload = xml::Parse(s.node_xml);
      if (!payload.ok()) {
        return payload.status().AddContext(
            "while parsing the node payload of " + StatementLabel(i, s));
      }
      if ((*payload)->DocumentElement() == nullptr) {
        return Status::Invalid("update: node payload of " +
                               StatementLabel(i, s) + " has no element");
      }
      cs.payload = std::move(*payload);
    }
    compiled.statements.push_back(std::move(cs));
  }
  if (compiled.statements.empty()) {
    return Status::Invalid("update: empty script");
  }
  return compiled;
}

Result<CompiledUpdate> CompileUpdateText(std::string_view source,
                                         const CompileOptions& options) {
  LLL_ASSIGN_OR_RETURN(UpdateScript script, ParseUpdateScript(source));
  return CompileUpdate(script, options);
}

Result<BoundUpdate> BindUpdate(const CompiledUpdate& update,
                               const xml::Document& doc,
                               const UpdateOptions& options,
                               const ExecMetrics* exec) {
  BoundUpdate bound;

  // Phase 1 -- snapshot reads: every target path binds against the
  // pre-update document, before the first mutation.
  std::vector<std::vector<xml::Node*>>& targets = bound.targets;
  targets.resize(update.statements.size());
  for (size_t i = 0; i < update.statements.size(); ++i) {
    const CompiledUpdateStatement& cs = update.statements[i];
    LLL_ASSIGN_OR_RETURN(
        targets[i], SelectTargets(cs, i, doc, options.eval, exec));
    for (const xml::Node* node : targets[i]) {
      LLL_RETURN_IF_ERROR(ValidateTarget(cs.statement, node));
    }
    if (cs.statement.op == UpdateOp::kInsert ||
        cs.statement.op == UpdateOp::kReplace) {
      bound.created_nodes += targets[i].size() * PayloadNodes(cs);
    }
  }

  // Phase 2 -- conflict detection. delete/replace/rename claim their target
  // exclusively (two such claims on one node contradict, except
  // delete+delete, which agree); insert before/after additionally requires
  // its anchor to survive, so an anchor claimed by delete or replace
  // conflicts too. Any conflict rejects the whole script atomically.
  struct Claim {
    size_t statement;
    UpdateOp op;
  };
  std::map<const xml::Node*, Claim> exclusive;
  std::string first_conflict;
  size_t conflicts = 0;
  for (size_t i = 0; i < update.statements.size(); ++i) {
    const UpdateOp op = update.statements[i].statement.op;
    if (op == UpdateOp::kInsert) continue;
    for (const xml::Node* node : targets[i]) {
      auto [it, inserted] = exclusive.emplace(node, Claim{i, op});
      if (inserted) continue;
      if (op == UpdateOp::kDelete && it->second.op == UpdateOp::kDelete) {
        continue;
      }
      ++conflicts;
      if (first_conflict.empty()) {
        first_conflict = "statements " + std::to_string(it->second.statement + 1) +
                         " and " + std::to_string(i + 1) + " both claim " +
                         NodePathOf(node);
      }
    }
  }
  for (size_t i = 0; i < update.statements.size(); ++i) {
    const UpdateStatement& s = update.statements[i].statement;
    if (s.op != UpdateOp::kInsert || s.position == InsertPosition::kInto) {
      continue;
    }
    for (const xml::Node* node : targets[i]) {
      auto it = exclusive.find(node);
      if (it == exclusive.end() || it->second.op == UpdateOp::kRename) {
        continue;
      }
      ++conflicts;
      if (first_conflict.empty()) {
        first_conflict = "statement " + std::to_string(i + 1) +
                         " anchors an insert at " + NodePathOf(node) +
                         ", which statement " +
                         std::to_string(it->second.statement + 1) + " " +
                         UpdateOpName(it->second.op) + "s";
      }
    }
  }
  if (conflicts > 0) {
    if (options.metrics != nullptr) {
      options.metrics->counter("xq.update.conflicts_rejected")
          .Increment(conflicts);
    }
    return Status::Invalid(
        "update: conflicting claims, script rejected (" +
        std::to_string(conflicts) + " conflict(s); first: " +
        first_conflict + ")");
  }
  return bound;
}

Result<UpdateStats> ApplyBoundUpdate(const CompiledUpdate& update,
                                     const BoundUpdate& bound,
                                     xml::Document* doc,
                                     const std::vector<uint32_t>* node_map,
                                     const UpdateOptions& options) {
  UpdateStats stats;
  // Phase 3 -- apply, in script order, each target mapped into `doc`.
  // Validation above makes these primitive calls infallible in principle;
  // failures are still propagated (with the statement named) rather than
  // swallowed.
  for (size_t i = 0; i < update.statements.size(); ++i) {
    const CompiledUpdateStatement& cs = update.statements[i];
    const UpdateStatement& s = cs.statement;
    ++stats.statements;
    stats.target_nodes += bound.targets[i].size();
    for (xml::Node* bound_node : bound.targets[i]) {
      xml::Node* node = bound_node;
      if (node_map != nullptr) {
        const uint32_t mapped = bound_node->index() < node_map->size()
                                    ? (*node_map)[bound_node->index()]
                                    : xml::kNilNode;
        if (mapped == xml::kNilNode) {
          return Status::Internal("update: a target of " +
                                  StatementLabel(i, s) +
                                  " has no node in the publish copy");
        }
        node = doc->NodeAt(mapped);
      }
      Status st = Status::Ok();
      switch (s.op) {
        case UpdateOp::kDelete:
          node->Detach();
          break;
        case UpdateOp::kRename:
          st = node->Rename(s.qname);
          break;
        case UpdateOp::kReplace:
          st = node->parent()->ReplaceChild(node,
                                            {MaterializePayload(cs, doc)});
          break;
        case UpdateOp::kInsert: {
          xml::Node* payload = MaterializePayload(cs, doc);
          if (s.position == InsertPosition::kInto) {
            st = node->AppendChild(payload);
          } else {
            const size_t at = node->IndexInParent();
            st = node->parent()->InsertChildAt(
                s.position == InsertPosition::kBefore ? at : at + 1, payload);
          }
          break;
        }
      }
      if (!st.ok()) {
        return st.AddContext("while applying " + StatementLabel(i, s));
      }
    }
  }

  if (options.metrics != nullptr) {
    options.metrics->counter("xq.update.statements").Increment(stats.statements);
    options.metrics->counter("xq.update.target_nodes")
        .Increment(stats.target_nodes);
  }
  return stats;
}

Result<UpdateStats> ApplyUpdate(const CompiledUpdate& update,
                                xml::Document* doc,
                                const UpdateOptions& options) {
  LLL_ASSIGN_OR_RETURN(BoundUpdate bound, BindUpdate(update, *doc, options));
  return ApplyBoundUpdate(update, bound, doc, /*node_map=*/nullptr, options);
}

std::string NodePathOf(const xml::Node* node) {
  if (node == nullptr) return "";
  if (node->is_document()) return "/";
  std::vector<std::string> parts;
  const xml::Node* cur = node;
  while (cur != nullptr && !cur->is_document()) {
    const xml::Node* parent = cur->parent();
    if (cur->is_attribute()) {
      parts.push_back("@" + cur->name());
      cur = parent;
      continue;
    }
    std::string test;
    switch (cur->kind()) {
      case xml::NodeKind::kElement:
        test = cur->name();
        break;
      case xml::NodeKind::kText:
        test = "text()";
        break;
      case xml::NodeKind::kComment:
        test = "comment()";
        break;
      case xml::NodeKind::kProcessingInstruction:
        test = "processing-instruction()";
        break;
      default:
        test = "node()";
        break;
    }
    // 1-based position among same-test siblings, XPath positional style.
    size_t pos = 1;
    if (parent != nullptr) {
      for (xml::Node* sib : parent->children()) {
        if (sib == cur) break;
        if (cur->is_element() ? (sib->is_element() &&
                                 sib->name_id() == cur->name_id())
                              : sib->kind() == cur->kind()) {
          ++pos;
        }
      }
    }
    parts.push_back(test + "[" + std::to_string(pos) + "]");
    cur = parent;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += "/" + *it;
  }
  return out;
}

std::string ExplainUpdate(const CompiledUpdate& update,
                          const xml::Document* doc) {
  std::string out = "update script: " +
                    std::to_string(update.statements.size()) +
                    (update.statements.size() == 1 ? " statement" :
                                                     " statements");
  out += "\n";
  for (size_t i = 0; i < update.statements.size(); ++i) {
    const CompiledUpdateStatement& cs = update.statements[i];
    out += "[" + std::to_string(i + 1) + "] " + ToString(cs.statement) + "\n";
    if (doc == nullptr) continue;
    // Read-only target resolution (concurrent read-only evaluation over one
    // tree is the engine's audited contract; root() needs a non-const
    // handle by the engine's signature only).
    ExecuteOptions eopts;
    eopts.context_node = const_cast<xml::Document*>(doc)->root();
    Result<QueryResult> r = Execute(cs.target, eopts);
    if (!r.ok()) {
      out += "    targets: <" + r.status().ToString() + ">\n";
      continue;
    }
    out += "    targets: " + std::to_string(r->sequence.size()) +
           (r->sequence.size() == 1 ? " node" : " nodes") + "\n";
    constexpr size_t kMaxShown = 4;
    size_t shown = 0;
    std::set<std::string> elements, attributes;
    bool document = false;
    for (const xdm::Item& item : r->sequence.items()) {
      if (!item.is_node() || item.node()->document() != doc) continue;
      document = AddBumpedNames(cs, item.node(), &elements, &attributes) ||
                 document;
      if (shown < kMaxShown) {
        out += "      " + NodePathOf(item.node()) + "\n";
      } else if (shown == kMaxShown) {
        out += "      ... and " +
               std::to_string(r->sequence.size() - kMaxShown) + " more\n";
      }
      ++shown;
    }
    std::vector<std::string> bumps;
    if (!elements.empty()) bumps.push_back("elements " + Join(elements, ", "));
    if (!attributes.empty()) {
      bumps.push_back("attributes " + Join(attributes, ", "));
    }
    if (document) bumps.push_back("the document version");
    out += "    bumps: " + (bumps.empty() ? "nothing" : Join(bumps, "; ")) +
           "\n";
  }
  return out;
}

}  // namespace lll::xq
