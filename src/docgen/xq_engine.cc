#include "docgen/xq_engine.h"

#include <chrono>
#include <vector>

#include "awb/xml_io.h"
#include "docgen/xq_programs.h"
#include "obs/explain.h"
#include "persist/plan_serde.h"
#include "xml/name_table.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"
#include "xquery/query_cache.h"

namespace lll::docgen {

namespace {

// The five phase programs are fixed strings, so every generation after the
// first reuses their compiled form. Process-wide and thread-safe; leaked on
// purpose (immortal, like the builtin registry).
xq::QueryCache& PhaseProgramCache() {
  static xq::QueryCache& cache = *new xq::QueryCache(/*capacity=*/8);
  return cache;
}

struct PhaseSpec {
  const char* name;
  const std::string* program;
};

std::vector<PhaseSpec> AllPhases() {
  return {{"phase1-interpret", &Phase1InterpretProgram()},
          {"phase2-omissions", &Phase2OmissionsProgram()},
          {"phase3-toc", &Phase3TocProgram()},
          {"phase4-placeholders", &Phase4PlaceholdersProgram()},
          {"phase5-strip", &Phase5StripProgram()}};
}

// Counts descendant elements with a given name (stats extraction from the
// intermediate INTERNAL-DATA markers).
size_t CountDescendants(const xml::Node* root, const std::string& name) {
  return root->DescendantElements(name).size();
}

size_t CountDistinctVisited(const xml::Node* root) {
  std::vector<std::string> ids;
  for (const xml::Node* v : root->DescendantElements("VISITED")) {
    auto id = v->AttributeValue("node-id");
    if (id.has_value()) ids.push_back(std::string(*id));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids.size();
}

// The shared five-phase pipeline. The caller owns the model/metamodel
// documents and the interning cache: the free GenerateXQuery builds all
// three per call (generation-scoped cache), an XQuerySession pins them
// across calls (cross-generation interning).
Result<DocGenResult> RunPhases(const xml::Node* template_root,
                               const awb::Model& model,
                               xml::Document* model_doc,
                               xml::Document* metamodel_doc,
                               xq::NodeSetCache* nodeset_cache,
                               const GenerateOptions& options) {
  if (template_root == nullptr || !template_root->is_element()) {
    return Status::Invalid("template root must be an element");
  }
  if (!options.initial_focus_id.empty() &&
      model.FindNode(options.initial_focus_id) == nullptr) {
    return Status::NotFound("initial focus node '" + options.initial_focus_id +
                            "' not found");
  }

  // The XQuery implementation reads everything as XML documents: the
  // template must be in normalized form (<query> children, not `nodes`
  // attributes), and model + metamodel travel as their exported XML.
  auto template_doc = std::make_unique<xml::Document>();
  (void)template_doc->root()->AppendChild(
      template_doc->ImportNode(template_root));
  LLL_RETURN_IF_ERROR(NormalizeTemplateQueries(template_doc.get()));

  DocGenStats stats;
  std::vector<std::string> phase_profiles;

  // Compiles (cached) and runs one phase, timing it and routing the caller's
  // observability options (profiler, trace sink, metrics) into the engine.
  auto run_phase = [&](const char* name, const std::string& program,
                       xq::ExecuteOptions& opts) -> Result<xq::QueryResult> {
    opts.eval.profile = options.profile;
    opts.eval.trace_sink = options.trace_sink;
    opts.eval.nodeset_cache = nodeset_cache;
    opts.metrics = options.metrics;
    const auto started = std::chrono::steady_clock::now();
    LLL_ASSIGN_OR_RETURN(std::shared_ptr<const xq::CompiledQuery> compiled,
                         PhaseProgramCache().GetOrCompile(program));
    LLL_ASSIGN_OR_RETURN(xq::QueryResult r, xq::Execute(*compiled, opts));
    const uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    stats.phase_us.push_back(us);
    if (options.metrics != nullptr) {
      options.metrics
          ->histogram(std::string("docgen.xq.phase_us.") + name)
          .Observe(us);
    }
    if (options.profile && r.profile != nullptr) {
      phase_profiles.push_back(std::string("== ") + name + " ==\n" +
                               r.profile->Render());
    }
    return r;
  };

  const std::vector<PhaseSpec> phases = AllPhases();

  // Phase 1: interpret the template.
  xq::ExecuteOptions phase1;
  phase1.documents["template"] = template_doc->root();
  phase1.documents["model"] = model_doc->root();
  phase1.documents["metamodel"] = metamodel_doc->root();
  phase1.variables["initial-focus-id"] =
      xdm::Sequence(xdm::Item::String(options.initial_focus_id));
  LLL_ASSIGN_OR_RETURN(
      xq::QueryResult r1,
      run_phase(phases[0].name, *phases[0].program, phase1));
  if (r1.sequence.size() != 1 || !r1.sequence.at(0).is_node()) {
    return Status::Internal("phase 1 did not produce a single root element");
  }
  auto accumulate_eval_stats = [&stats](const xq::EvalStats& s) {
    stats.eval_steps += s.steps;
    stats.sorts_performed += s.sorts_performed;
    stats.sorts_skipped += s.sorts_skipped;
    stats.nodes_pulled += s.nodes_pulled;
    stats.nodes_skipped_early_exit += s.nodes_skipped_early_exit;
    stats.reverse_runs_merged += s.reverse_runs_merged;
    stats.limit_pushdowns += s.limit_pushdowns;
    stats.nodeset_cache_hits += s.nodeset_cache_hits;
    stats.nodeset_cache_misses += s.nodeset_cache_misses;
    stats.nodeset_cache_invalidations += s.nodeset_cache_invalidations;
    stats.nodeset_cache_partial_invalidations +=
        s.nodeset_cache_partial_invalidations;
    stats.probe_filters += s.probe_filters;
    stats.probe_index_builds += s.probe_index_builds;
  };
  accumulate_eval_stats(r1.stats);

  // The intermediate arenas must outlive the phases that read them.
  std::vector<std::unique_ptr<xml::Document>> arenas;
  xml::Node* current = r1.sequence.at(0).node();
  arenas.push_back(std::move(r1.arena));

  stats.toc_entries = CountDescendants(current, "TOC-ENTRY");
  stats.placeholders_defined = CountDescendants(current, "PLACEHOLDER");
  stats.nodes_visited = CountDistinctVisited(current);
  stats.errors_embedded = CountDescendants(current, "error");
  // Directive markers double as a proxy for directives processed; the real
  // count lives in the interpreter, which has no side channel to report it
  // (the paper's observability complaint, live and well). Leave it at 0.

  for (size_t i = 1; i < phases.size(); ++i) {
    // Only phase 2 (omissions) reads the model and metamodel again.
    const bool needs_model = (i == 1);
    xq::ExecuteOptions opts;
    opts.documents["doc"] = current;
    if (needs_model) {
      opts.documents["model"] = model_doc->root();
      opts.documents["metamodel"] = metamodel_doc->root();
    }
    LLL_ASSIGN_OR_RETURN(xq::QueryResult r,
                         run_phase(phases[i].name, *phases[i].program, opts));
    if (r.sequence.size() != 1 || !r.sequence.at(0).is_node()) {
      return Status::Internal("a docgen phase did not produce a single root");
    }
    accumulate_eval_stats(r.stats);
    // Each phase copies the entire document -- the E4 cost, counted.
    ++stats.document_copies;
    current = r.sequence.at(0).node();
    arenas.push_back(std::move(r.arena));
  }

  // Count omissions from the final document.
  for (const xml::Node* list : current->DescendantElements("ul")) {
    auto cls = list->AttributeValue("class");
    if (cls.has_value() && *cls == "omissions") {
      stats.omissions_listed += list->ChildElements("li").size();
    }
  }

  if (options.metrics != nullptr) {
    options.metrics->counter("docgen.xq.generations").Increment();
    PhaseProgramCache().ExportTo(options.metrics, "docgen.xq.cache");
    nodeset_cache->ExportTo(options.metrics, "docgen.xq.nodeset");
    // Storage gauges: the model document is the generation's dominant arena.
    const xml::DocumentStorageStats storage = model_doc->storage_stats();
    options.metrics->gauge("xml.doc.nodes")
        .Set(static_cast<int64_t>(storage.node_count));
    options.metrics->gauge("xml.doc.bytes")
        .Set(static_cast<int64_t>(storage.total_bytes));
    options.metrics->gauge("xml.names.interned")
        .Set(static_cast<int64_t>(xml::NameTable::interned_count()));
  }

  DocGenResult result;
  // Keep only the final arena alive: re-import the finished tree into a
  // fresh document so the intermediate arenas (and their whole-document
  // copies) can be freed.
  result.document = std::make_unique<xml::Document>();
  xml::Node* root = result.document->ImportNode(current);
  (void)result.document->root()->AppendChild(root);
  NormalizeTextNodes(root);
  result.root = root;
  result.stats = stats;
  result.phase_profiles = std::move(phase_profiles);
  return result;
}

}  // namespace

Result<DocGenResult> GenerateXQuery(const xml::Node* template_root,
                                    const awb::Model& model,
                                    const GenerateOptions& options) {
  auto model_doc = awb::ModelToXml(model);
  LLL_ASSIGN_OR_RETURN(
      auto metamodel_doc,
      xml::Parse(awb::ExportMetamodelXml(model.metamodel()),
                 {.strip_insignificant_whitespace = true}));
  // One node-set interning cache per generation: the repeated-directive
  // phases re-walk the same model/metamodel chains many times, and the
  // generation scope bounds the cached raw node pointers' lifetime to the
  // documents above (which outlive every phase).
  xq::NodeSetCache nodeset_cache(/*capacity=*/128);
  return RunPhases(template_root, model, model_doc.get(), metamodel_doc.get(),
                   &nodeset_cache, options);
}

Result<std::unique_ptr<XQuerySession>> XQuerySession::Create(
    const awb::Model& model) {
  auto model_doc = awb::ModelToXml(model);
  LLL_ASSIGN_OR_RETURN(
      auto metamodel_doc,
      xml::Parse(awb::ExportMetamodelXml(model.metamodel()),
                 {.strip_insignificant_whitespace = true}));
  return std::unique_ptr<XQuerySession>(new XQuerySession(
      model, std::move(model_doc), std::move(metamodel_doc)));
}

Result<DocGenResult> XQuerySession::Generate(const xml::Node* template_root,
                                             const GenerateOptions& options) {
  Result<DocGenResult> result =
      RunPhases(template_root, *model_, model_doc_.get(), metamodel_doc_.get(),
                &nodeset_cache_, options);
  // Drop entries interned against this generation's scratch documents (the
  // normalized template, intermediate phase outputs): their node pointers
  // die with the generation. Entries over the pinned model/metamodel
  // survive into the next generation -- the cross-generation warm set.
  nodeset_cache_.RetainDocuments(
      {model_doc_->doc_id(), metamodel_doc_->doc_id()});
  if (result.ok()) ++generations_;
  return result;
}

Result<DocGenResult> GenerateXQueryFromText(const std::string& template_xml,
                                            const awb::Model& model,
                                            const GenerateOptions& options) {
  LLL_ASSIGN_OR_RETURN(auto doc, ParseTemplate(template_xml));
  return GenerateXQuery(doc->DocumentElement(), model, options);
}

Result<std::string> ExplainXQueryPhases() {
  std::string out;
  for (const PhaseSpec& phase : AllPhases()) {
    xq::CacheProvenance provenance = xq::CacheProvenance::kCompiled;
    LLL_ASSIGN_OR_RETURN(std::shared_ptr<const xq::CompiledQuery> compiled,
                         PhaseProgramCache().GetOrCompile(
                             *phase.program, {}, nullptr, &provenance));
    obs::ExplainOptions eo;
    eo.provenance = std::string(phase.name) + ", plan: " +
                    xq::CacheProvenanceName(provenance);
    out += obs::Explain(*compiled, eo);
    out += "\n";
  }
  return out;
}

xq::QueryCache& XQueryPhaseCache() { return PhaseProgramCache(); }

Status AotCompileXQueryPhases(const std::string& path) {
  for (const PhaseSpec& phase : AllPhases()) {
    LLL_RETURN_IF_ERROR(
        PhaseProgramCache().GetOrCompile(*phase.program).status());
  }
  return persist::SavePlanCache(PhaseProgramCache(), path);
}

Result<size_t> LoadXQueryPhaseCache(const std::string& path) {
  return persist::LoadPlanCache(path, &PhaseProgramCache());
}

}  // namespace lll::docgen
