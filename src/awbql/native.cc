#include "awbql/native.h"

#include <algorithm>
#include <set>

#include "core/metrics.h"

namespace lll::awbql {

using awb::Model;
using awb::ModelNode;
using awb::RelationObject;

Result<std::vector<const ModelNode*>> EvalNative(const Query& query,
                                                 const Model& model,
                                                 const ModelNode* focus) {
  // Static handle: the registry's name lookup happens once, every eval pays
  // one relaxed atomic add.
  static Counter& evals = GlobalMetrics().counter("awbql.native.evals");
  evals.Increment();
  std::vector<const ModelNode*> current;

  switch (query.source_kind) {
    case Query::SourceKind::kFocus:
      if (focus == nullptr) {
        return Status::Invalid("query starts 'from focus' but no focus is set");
      }
      current.push_back(focus);
      break;
    case Query::SourceKind::kAll:
      current = model.nodes();
      break;
    case Query::SourceKind::kType:
      current = model.NodesOfType(query.source_arg);
      break;
    case Query::SourceKind::kNode: {
      const ModelNode* node = model.FindNode(query.source_arg);
      if (node == nullptr) {
        return Status::NotFound("no node with id '" + query.source_arg + "'");
      }
      current.push_back(node);
      break;
    }
  }

  for (const QueryStep& step : query.steps) {
    switch (step.kind) {
      case QueryStep::Kind::kFollowForward:
      case QueryStep::Kind::kFollowBackward: {
        bool forward = step.kind == QueryStep::Kind::kFollowForward;
        std::vector<const ModelNode*> next;
        std::set<const ModelNode*> seen;
        for (const ModelNode* node : current) {
          auto edges = forward ? model.Outgoing(node, step.relation)
                               : model.Incoming(node, step.relation);
          for (const RelationObject* edge : edges) {
            const ModelNode* other =
                model.FindNode(forward ? edge->target_id() : edge->source_id());
            if (other == nullptr) continue;
            if (!step.target_type.empty() &&
                !model.metamodel().IsNodeSubtype(other->type(),
                                                 step.target_type)) {
              continue;
            }
            // "collect all the objects reached from that into a set without
            // duplicates".
            if (seen.insert(other).second) next.push_back(other);
          }
        }
        // Collected sets are canonically in model (creation) order -- the
        // same order the XQuery backend's document-order union produces.
        std::sort(next.begin(), next.end(),
                  [](const ModelNode* a, const ModelNode* b) {
                    return a->ordinal() < b->ordinal();
                  });
        current = std::move(next);
        break;
      }
      case QueryStep::Kind::kFilterType: {
        std::vector<const ModelNode*> kept;
        for (const ModelNode* node : current) {
          if (model.metamodel().IsNodeSubtype(node->type(), step.target_type)) {
            kept.push_back(node);
          }
        }
        current = std::move(kept);
        break;
      }
      case QueryStep::Kind::kFilterHasProperty:
      case QueryStep::Kind::kFilterNotHasProperty: {
        bool want_present = step.kind == QueryStep::Kind::kFilterHasProperty;
        std::vector<const ModelNode*> kept;
        for (const ModelNode* node : current) {
          bool present = node->Property(step.property) != nullptr;
          if (present == want_present) kept.push_back(node);
        }
        current = std::move(kept);
        break;
      }
      case QueryStep::Kind::kFilterPropertyEquals: {
        std::vector<const ModelNode*> kept;
        for (const ModelNode* node : current) {
          const std::string* value = node->Property(step.property);
          if (value != nullptr && *value == step.value) kept.push_back(node);
        }
        current = std::move(kept);
        break;
      }
      case QueryStep::Kind::kSortByLabel: {
        std::stable_sort(current.begin(), current.end(),
                         [&model](const ModelNode* a, const ModelNode* b) {
                           return model.Label(a) < model.Label(b);
                         });
        break;
      }
      case QueryStep::Kind::kSortByProperty: {
        auto key = [&step](const ModelNode* n) {
          const std::string* v = n->Property(step.property);
          return v != nullptr ? *v : std::string();
        };
        std::stable_sort(current.begin(), current.end(),
                         [&key](const ModelNode* a, const ModelNode* b) {
                           return key(a) < key(b);
                         });
        break;
      }
      case QueryStep::Kind::kLimit:
        if (current.size() > step.limit) current.resize(step.limit);
        break;
    }
  }
  return current;
}

std::vector<std::string> OmissionsReport(const awb::Model& model) {
  std::vector<std::string> report;
  // Omission class 1: recommended properties that are absent, found via the
  // calculus itself (one query per recommended property per type).
  for (const awb::NodeTypeDecl& type : model.metamodel().node_types()) {
    for (const awb::PropertyDecl& prop :
         model.metamodel().AllProperties(type.name)) {
      if (!prop.recommended) continue;
      Query query;
      query.source_kind = Query::SourceKind::kType;
      query.source_arg = type.name;
      QueryStep missing;
      missing.kind = QueryStep::Kind::kFilterNotHasProperty;
      missing.property = prop.name;
      query.steps.push_back(missing);
      QueryStep sort;
      sort.kind = QueryStep::Kind::kSortByLabel;
      query.steps.push_back(sort);
      auto result = EvalNative(query, model);
      if (!result.ok()) continue;
      for (const ModelNode* node : *result) {
        if (node->type() != type.name) continue;  // report at the exact type
        report.push_back(model.Label(node) + ": missing " + prop.name);
      }
    }
  }
  // Omission class 2: cardinality recommendations.
  for (const awb::ModelWarning& warning : model.Validate()) {
    if (warning.kind == awb::ModelWarning::Kind::kCardinality) {
      report.push_back(warning.message);
    }
  }
  return report;
}

}  // namespace lll::awbql
