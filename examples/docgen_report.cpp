// docgen_report: the paper's central scenario, end to end.
//
// Generates a synthetic IT-architecture model, then produces a "System
// Context" style document from the same template with BOTH generator
// engines -- the XQuery multi-phase pipeline and the native (Java-rewrite)
// engine -- verifies they agree, and prints the cost comparison.
//
//   ./build/examples/docgen_report [--explain] [--profile] [output-prefix]
//
// writes <prefix>-native.html and <prefix>-xquery.html (default prefix
// "/tmp/awb-report").
//
//   --explain   after generation, EXPLAIN all five XQuery phase programs:
//               optimized plans plus every rewrite decision (including the
//               phase-2 trace() call the optimizer silently deletes) and
//               compile-cache provenance.
//   --profile   per-expression hot-spot report for each phase, generator
//               trace events, and a JSON metrics snapshot.

#include <cstdio>
#include <fstream>
#include <string>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "core/metrics.h"
#include "docgen/native_engine.h"
#include "docgen/xq_engine.h"
#include "obs/trace_sink.h"
#include "xml/deep_equal.h"

namespace {

constexpr char kSystemContextTemplate[] = R"TPL(<html>
  <head><title>System Context</title></head>
  <body>
    <h1>System Context</h1>
    <table-of-contents/>
    <for nodes="from type:SystemBeingDesigned">
      <section heading="System: {label}">
        <p>Version: <value-of property="version" default="(unversioned)"/></p>
        <section heading="Users">
          <ol>
            <for nodes="from focus; follow has> to:User; sort label">
              <li>
                <if>
                  <test><focus-is-type type="Superuser"/></test>
                  <then><b><label/></b></then>
                  <else><label/></else>
                </if>
                (<value-of property="role" default="no role"/>)
              </li>
            </for>
          </ol>
        </section>
        <section heading="Deployment">
          <table rows="from type:Server; sort label"
                 cols="from type:Program; sort label"
                 relation="runs" corner="server\program"/>
        </section>
        <section heading="Documents">
          <for nodes="from focus; follow has> to:Document; sort label">
            <p><label/> - version <value-of property="version" default="MISSING"/></p>
          </for>
        </section>
      </section>
    </for>
    <section heading="Omissions">
      <p>Model nodes never mentioned above:</p>
      <table-of-omissions/>
    </section>
  </body>
</html>)TPL";

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string prefix = "/tmp/awb-report";
  bool explain = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--explain") {
      explain = true;
    } else if (arg == "--profile") {
      profile = true;
    } else {
      prefix = arg;
    }
  }

  // Generation progress and fn:trace events land here instead of a printf
  // buffer; replayed at the end under --profile.
  lll::obs::RingBufferTraceSink trace_sink(/*capacity=*/256);

  lll::awb::Metamodel metamodel = lll::awb::MakeItArchitectureMetamodel();
  lll::awb::GeneratorConfig config;
  config.seed = 2026;
  config.users = 8;
  config.documents = 5;
  config.omission_rate = 0.4;
  if (profile) config.trace_sink = &trace_sink;
  lll::awb::Model model = lll::awb::GenerateItModel(&metamodel, config);
  std::printf("model: %zu nodes, %zu relations\n", model.node_count(),
              model.relation_count());

  lll::docgen::GenerateOptions gen_options;
  if (profile) {
    gen_options.profile = true;
    gen_options.trace_sink = &trace_sink;
    gen_options.metrics = &lll::GlobalMetrics();
  }

  auto native = lll::docgen::GenerateNativeFromText(kSystemContextTemplate,
                                                    model, gen_options);
  if (!native.ok()) {
    std::printf("native engine failed: %s\n",
                native.status().ToString().c_str());
    return 1;
  }
  auto xquery = lll::docgen::GenerateXQueryFromText(kSystemContextTemplate,
                                                    model, gen_options);
  if (!xquery.ok()) {
    std::printf("xquery engine failed: %s\n",
                xquery.status().ToString().c_str());
    return 1;
  }

  bool equal = lll::xml::DeepEqual(native->root, xquery->root);
  std::printf("engines agree: %s\n", equal ? "yes" : "NO");
  if (!equal) {
    std::printf("  first difference: %s\n",
                lll::xml::ExplainDifference(native->root, xquery->root).c_str());
  }

  std::printf("\n%-28s %12s %12s\n", "", "native", "xquery");
  std::printf("%-28s %12zu %12zu\n", "nodes visited",
              native->stats.nodes_visited, xquery->stats.nodes_visited);
  std::printf("%-28s %12zu %12zu\n", "toc entries",
              native->stats.toc_entries, xquery->stats.toc_entries);
  std::printf("%-28s %12zu %12zu\n", "omissions listed",
              native->stats.omissions_listed, xquery->stats.omissions_listed);
  std::printf("%-28s %12zu %12zu\n", "whole-document copies",
              native->stats.document_copies, xquery->stats.document_copies);
  std::printf("%-28s %12s %12zu\n", "evaluator steps", "-",
              xquery->stats.eval_steps);
  std::printf("%-28s %12s %12zu\n", "nodes pulled (streamed)", "-",
              xquery->stats.nodes_pulled);
  std::printf("%-28s %12s %12zu\n", "nodes skipped (early exit)", "-",
              xquery->stats.nodes_skipped_early_exit);
  std::printf("%-28s %12s %12zu\n", "reverse runs merged", "-",
              xquery->stats.reverse_runs_merged);
  std::printf("%-28s %12s %12zu\n", "limited paths", "-",
              xquery->stats.limit_pushdowns);
  std::printf("%-28s %12s %12zu\n", "nodeset cache hits", "-",
              xquery->stats.nodeset_cache_hits);
  std::printf("%-28s %12s %12zu\n", "nodeset cache misses", "-",
              xquery->stats.nodeset_cache_misses);
  std::printf("%-28s %12s %12zu\n", "nodeset cache invalidations", "-",
              xquery->stats.nodeset_cache_invalidations);
  std::printf("%-28s %12s %12zu\n", "  partial (name-guarded)", "-",
              xquery->stats.nodeset_cache_partial_invalidations);
  std::printf("%-28s %12s %12zu\n", "  full (whole-document)", "-",
              xquery->stats.nodeset_cache_invalidations -
                  xquery->stats.nodeset_cache_partial_invalidations);
  std::printf("%-28s %12s %12zu\n", "probe filters (hash index)", "-",
              xquery->stats.probe_filters);
  std::printf("%-28s %12s %12zu\n", "  probe indexes built", "-",
              xquery->stats.probe_index_builds);

  if (explain) {
    auto explained = lll::docgen::ExplainXQueryPhases();
    if (!explained.ok()) {
      std::printf("explain failed: %s\n",
                  explained.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s", explained->c_str());
  }

  if (profile) {
    for (const std::string& report : xquery->phase_profiles) {
      std::printf("\n%s", report.c_str());
    }
    auto events = trace_sink.Snapshot();
    std::printf("\n== trace events (%zu, %zu dropped) ==\n", events.size(),
                trace_sink.dropped());
    for (const auto& event : events) {
      std::printf("%s\n", lll::obs::FormatTraceEvent(event).c_str());
    }
    std::printf("\n== metrics ==\n%s\n",
                lll::GlobalMetrics().ToJson().c_str());
  }

  std::string native_path = prefix + "-native.html";
  std::string xquery_path = prefix + "-xquery.html";
  if (!WriteFile(native_path, native->Serialized(2)) ||
      !WriteFile(xquery_path, xquery->Serialized(2))) {
    std::printf("could not write output files under %s\n", prefix.c_str());
    return 1;
  }
  std::printf("\nwrote %s and %s\n", native_path.c_str(), xquery_path.c_str());
  return equal ? 0 : 2;
}
