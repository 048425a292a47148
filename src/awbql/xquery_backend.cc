#include "awbql/xquery_backend.h"

#include "awb/xml_io.h"
#include "core/string_util.h"
#include "obs/explain.h"
#include "xml/parser.h"

namespace lll::awbql {

namespace {

// Escapes a string for inclusion in a double-quoted XQuery string literal.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

// The prolog shared by all compiled queries: subtype walks over the
// metamodel document, and the label function. This is the "interpreter in
// XQuery" core.
constexpr char kPrologTemplate[] = R"XQ(
declare function local:is-node-subtype($t, $super) {
  if ($t eq $super) then true()
  else
    let $decl := doc("metamodel")//node-type[@name = $t]
    return
      if (empty($decl)) then false()
      else if (empty($decl/@extends)) then false()
      else local:is-node-subtype(string($decl/@extends), $super)
};

declare function local:is-rel-subtype($t, $super) {
  if ($t eq $super) then true()
  else
    let $decl := doc("metamodel")//relation-type[@name = $t]
    return
      if (empty($decl)) then false()
      else if (empty($decl/@extends)) then false()
      else local:is-rel-subtype(string($decl/@extends), $super)
};

declare function local:label-prop($t) {
  let $decl := doc("metamodel")//node-type[@name = $t]
  return
    if (empty($decl)) then "name"
    else if (empty($decl/@label-property)) then "name"
    else string($decl/@label-property)
};

declare function local:label($n) {
  let $lp := local:label-prop(string($n/@type))
  let $v := $n/property[@name = $lp]
  return if (empty($v)) then string($n/@id) else string($v[1])
};
)XQ";

}  // namespace

XQueryBackend::XQueryBackend(const awb::Model* model,
                             size_t compile_cache_capacity)
    : model_(model), compile_cache_(compile_cache_capacity) {
  model_doc_ = awb::ModelToXml(*model);
  // The metamodel travels as XML too -- AWB structures "are defined in a pile
  // of files", and the XQuery programs read them back.
  auto parsed = xml::Parse(awb::ExportMetamodelXml(model->metamodel()),
                           {.strip_insignificant_whitespace = true});
  // ExportMetamodelXml output is always well-formed; an error here is a bug.
  metamodel_doc_ = parsed.ok() ? std::move(*parsed) : nullptr;
}

XQueryBackend::Metrics::Metrics(MetricsRegistry& registry)
    : registry(registry),
      exec(registry),
      evals(registry.counter("awbql.xquery.evals")),
      compile_cache_hits(registry.counter("awbql.xquery.compile_cache_hits")),
      compile_cache_misses(
          registry.counter("awbql.xquery.compile_cache_misses")) {}

void XQueryBackend::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics != nullptr ? std::make_unique<Metrics>(*metrics) : nullptr;
}

std::string XQueryBackend::CompileToXQuery(const Query& query) const {
  std::string out = kPrologTemplate;
  out += "\nlet $nodes := doc(\"model\")/awb-model/node\n";
  out += "let $rels := doc(\"model\")/awb-model/relation\n";

  // The source set.
  std::string current = "s0";
  switch (query.source_kind) {
    case Query::SourceKind::kAll:
      out += "let $s0 := $nodes\n";
      break;
    case Query::SourceKind::kType:
      out += "let $s0 := $nodes[local:is-node-subtype(string(@type), " +
             Quote(query.source_arg) + ")]\n";
      break;
    case Query::SourceKind::kNode:
      out += "let $s0 := $nodes[@id = " + Quote(query.source_arg) + "]\n";
      break;
    case Query::SourceKind::kFocus:
      // The focus arrives as the external variable $focus-id.
      out += "let $s0 := $nodes[@id = $focus-id]\n";
      break;
  }

  size_t index = 1;
  for (const QueryStep& step : query.steps) {
    std::string next = "s" + std::to_string(index++);
    switch (step.kind) {
      case QueryStep::Kind::kFollowForward:
      case QueryStep::Kind::kFollowBackward: {
        bool forward = step.kind == QueryStep::Kind::kFollowForward;
        const char* from_attr = forward ? "source" : "target";
        const char* to_attr = forward ? "target" : "source";
        // The union with () is the XQuery idiom for "sort into document
        // order and drop duplicates": exactly 'collect into a set'.
        out += "let $" + next + " := (for $n in $" + current + "\n";
        out += "  for $r in $rels[@" + std::string(from_attr) +
               " = $n/@id][local:is-rel-subtype(string(@type), " +
               Quote(step.relation) + ")]\n";
        out += "  return $nodes[@id = $r/@" + std::string(to_attr) + "]";
        if (!step.target_type.empty()) {
          out += "[local:is-node-subtype(string(@type), " +
                 Quote(step.target_type) + ")]";
        }
        out += ") | ()\n";
        break;
      }
      case QueryStep::Kind::kFilterType:
        out += "let $" + next + " := $" + current +
               "[local:is-node-subtype(string(@type), " +
               Quote(step.target_type) + ")]\n";
        break;
      case QueryStep::Kind::kFilterHasProperty:
        out += "let $" + next + " := $" + current +
               "[exists(property[@name = " + Quote(step.property) + "])]\n";
        break;
      case QueryStep::Kind::kFilterNotHasProperty:
        out += "let $" + next + " := $" + current +
               "[empty(property[@name = " + Quote(step.property) + "])]\n";
        break;
      case QueryStep::Kind::kFilterPropertyEquals:
        out += "let $" + next + " := $" + current +
               "[property[@name = " + Quote(step.property) +
               "] = " + Quote(step.value) + "]\n";
        break;
      case QueryStep::Kind::kSortByLabel:
        out += "let $" + next + " := for $n in $" + current +
               " order by local:label($n) return $n\n";
        break;
      case QueryStep::Kind::kSortByProperty:
        out += "let $" + next + " := for $n in $" + current +
               " order by string($n/property[@name = " + Quote(step.property) +
               "][1]) return $n\n";
        break;
      case QueryStep::Kind::kLimit:
        out += "let $" + next + " := subsequence($" + current + ", 1, " +
               std::to_string(step.limit) + ")\n";
        break;
    }
    current = next;
  }
  out += "return for $n in $" + current + " return string($n/@id)\n";
  return out;
}

Result<std::string> XQueryBackend::Explain(const Query& query) {
  std::string program = CompileToXQuery(query);
  bool cache_hit = false;
  LLL_ASSIGN_OR_RETURN(std::shared_ptr<const xq::CompiledQuery> compiled,
                       compile_cache_.GetOrCompile(program, {}, &cache_hit));
  obs::ExplainOptions explain_opts;
  explain_opts.provenance =
      cache_hit ? "compile cache hit" : "compile cache miss (compiled)";
  std::string out = "-- calculus: " + QueryToText(query) + "\n";
  out += obs::Explain(*compiled, explain_opts);
  return out;
}

Result<std::vector<const awb::ModelNode*>> XQueryBackend::Eval(
    const Query& query, const awb::ModelNode* focus) {
  if (metamodel_doc_ == nullptr) {
    return Status::Internal("metamodel XML failed to round-trip");
  }
  if (query.source_kind == Query::SourceKind::kFocus && focus == nullptr) {
    return Status::Invalid("query starts 'from focus' but no focus is set");
  }
  // Match EvalNative: an unknown start node is an error, not an empty result.
  // (The generated XQuery program would just select nothing; differential
  // testing flushed this divergence out.)
  if (query.source_kind == Query::SourceKind::kNode &&
      model_->FindNode(query.source_arg) == nullptr) {
    return Status::NotFound("no node with id '" + query.source_arg + "'");
  }
  std::string program = CompileToXQuery(query);
  xq::ExecuteOptions opts;
  opts.documents["model"] = model_doc_->root();
  opts.documents["metamodel"] = metamodel_doc_->root();
  if (focus != nullptr) {
    opts.variables["focus-id"] =
        xdm::Sequence(xdm::Item::String(focus->id()));
  }
  bool cache_hit = false;
  LLL_ASSIGN_OR_RETURN(std::shared_ptr<const xq::CompiledQuery> compiled,
                       compile_cache_.GetOrCompile(program, {}, &cache_hit));
  if (metrics_ != nullptr) opts.metrics = &metrics_->exec;
  // The snapshots never mutate after construction, so interned node sets
  // (doc("model")/relation chains, metamodel subtype walks) stay valid for
  // the backend's whole lifetime.
  opts.eval.nodeset_cache = &nodeset_cache_;
  LLL_ASSIGN_OR_RETURN(xq::QueryResult result, xq::Execute(*compiled, opts));
  last_stats_ = result.stats;
  if (metrics_ != nullptr) {
    metrics_->evals.Increment();
    (cache_hit ? metrics_->compile_cache_hits : metrics_->compile_cache_misses)
        .Increment();
    compile_cache_.ExportTo(&metrics_->registry, "awbql.xquery.cache");
    nodeset_cache_.ExportTo(&metrics_->registry, "awbql.xquery.nodeset");
  }
  std::vector<const awb::ModelNode*> nodes;
  nodes.reserve(result.sequence.size());
  for (const xdm::Item& item : result.sequence.items()) {
    const awb::ModelNode* node = model_->FindNode(item.StringForm());
    if (node == nullptr) {
      return Status::Internal("XQuery backend produced unknown node id '" +
                              item.StringForm() + "'");
    }
    nodes.push_back(node);
  }
  return nodes;
}

}  // namespace lll::awbql
