// docgen_reports: generating a report with each docgen engine.
//
// A single-threaded closed loop over a fixed set of 3 error-free templates x
// 3 model sizes x 5 seeded models per size, in a seeded round-robin order.
// (Five models per size keep one model's random edges from moving the
// median; an odd number of equally weighted pairs keeps the nearest-rank
// median inside one pair's samples instead of on the edge between two.)
// Each cycle renders every (template, model) pair with GenerateXQuery --
// the five-phase XQuery program with its UDFs, FLWORs, node construction
// and whole-document copies, plus the awb model export it pays on every
// call -- then every pair with GenerateNative, serializes each report, and
// requires xml::DeepEqual outputs per pair. Nothing writes; the 5 phase
// plans fit the phase cache, which set-up clears and re-warms.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "awb/xml_io.h"
#include "bench.h"
#include "core/metrics.h"
#include "docgen/docgen.h"
#include "docgen/native_engine.h"
#include "docgen/xq_engine.h"
#include "xml/deep_equal.h"
#include "xml/parser.h"
#include "xquery/engine.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr uint64_t kModelsPerSize = 5;
constexpr int kLoadRepeats = 5;
constexpr int kPhases = 5;
const char* const kPhaseMetric[kPhases] = {
    "docgen.xquery.phase1_us", "docgen.xquery.phase2_us",
    "docgen.xquery.phase3_us", "docgen.xquery.phase4_us",
    "docgen.xquery.phase5_us"};

// The System Context report of examples/docgen_report, a social report
// with nested <for> and omissions, and a deployment/requirements report
// with a relation table, conditionals and placeholders.
const char* const kTemplates[] = {
    R"TPL(<html><head><title>System Context</title></head><body>
<h1>System Context</h1><table-of-contents/>
<for nodes="from type:SystemBeingDesigned">
<section heading="System: {label}">
<p>Version: <value-of property="version" default="(unversioned)"/></p>
<section heading="Users"><ol>
<for nodes="from focus; follow has> to:User; sort label"><li>
<if><test><focus-is-type type="Superuser"/></test>
<then><b><label/></b></then><else><label/></else></if>
(<value-of property="role" default="no role"/>)</li></for></ol></section>
<section heading="Deployment">
<table rows="from type:Server; sort label" cols="from type:Program; sort label"
       relation="runs" corner="server\program"/></section>
<section heading="Documents">
<for nodes="from focus; follow has> to:Document; sort label">
<p><label/> - version <value-of property="version" default="MISSING"/></p>
</for></section></section></for>
<section heading="Omissions"><p>Model nodes never mentioned above:</p>
<table-of-omissions/></section></body></html>)TPL",

    R"TPL(<doc><table-of-contents/>
<for nodes="from type:User; sort label">
<section heading="About {label}"><label/>
<for nodes="from focus; follow likes>; sort label"><p>likes <label/></p></for>
<for nodes="from focus; follow &lt;likes; sort label"><p>liked by <label/></p></for>
</section></for>
<section heading="Programs">
<for nodes="from type:Program; sort label">
<p><label/>: <value-of property="language" default="?"/></p></for></section>
<table-of-omissions types="Document"/></doc>)TPL",

    R"TPL(<doc><placeholder name="OWNER">the architecture team</placeholder>
<p>Maintained by OWNER-GOES-HERE.</p><table-of-contents/>
<section heading="Servers">
<for nodes="from type:Server; sort label">
<section heading="{label}">
<p>cores: <value-of property="cores" default="?"/></p><ul>
<for nodes="from focus; follow runs>; sort label">
<li><label/> (<value-of property="language" default="?"/>)</li></for>
</ul></section></for></section>
<section heading="Requirements">
<for nodes="from type:Requirement; sort label"><p><label/>:
<if><test><focus-is-type type="PerformanceRequirement"/></test>
<then>latency <value-of property="latencyMs" default="?"/> ms</then>
<else>priority <value-of property="priority" default="?"/></else></if>
</p></for></section>
<section heading="Subsystems">
<table rows="from type:Subsystem; sort label"
       cols="from type:Program; sort label" relation="has"/></section>
<p>Questions go to OWNER-GOES-HERE.</p>
<table-of-omissions types="Program,Document"/></doc>)TPL",
};

// Scale 2 is the ~40-node model of examples/docgen_report; 3 and 4 grow it.
lll::awb::Model MakeModel(const lll::awb::Metamodel* metamodel, uint64_t seed,
                          size_t scale) {
  lll::awb::GeneratorConfig config;
  config.seed = seed;
  config.users = 4 * scale;
  config.servers = scale + 1;
  config.subsystems = scale + 1;
  config.programs = 4 * scale;
  config.requirements = 2 * scale + 1;
  config.documents = 2 * scale + 1;
  config.omission_rate = 0.4;
  return lll::awb::GenerateItModel(metamodel, config);
}

struct Pair {
  size_t template_index;
  const lll::awb::Model* model;
};

// The loop's accumulators.
struct Stats {
  Samples xquery, native;
  Samples phases[kPhases];
  uint64_t ops = 0, failed = 0;
  double ops_per_s = 0;
  uint64_t steps = 0, pulled = 0, sorts = 0, copies = 0, ns_hits = 0,
           ns_misses = 0;
};

struct Loop {
  const std::vector<Pair>* pairs;
  const std::vector<const lll::xml::Node*>* templates;
  const std::string* metamodel_xml;
  lll::MetricsRegistry* metrics;  // attached only in the traced half
  Tracer* tracer;
  Pacer* pacer;
};

// One cycle through the pairs: every pair in `order` rendered and
// serialized with GenerateXQuery, then every pair with GenerateNative, each
// engine's pass running on its own as a user of that engine would. A pair
// counts as failed unless both engines render it without embedded errors
// and their outputs are xml::DeepEqual.
void RunCycle(const Loop& loop, const std::vector<size_t>& order, Stats* st) {
  using Rendered = lll::Result<lll::docgen::DocGenResult>;
  std::vector<Rendered> xq_reports;
  xq_reports.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const Pair& pair = (*loop.pairs)[order[i]];
    const uint64_t op = st->ops + i;
    lll::docgen::GenerateOptions options;
    options.metrics = loop.metrics;
    loop.pacer->Between();
    int64_t t0 = NowNs();
    {
      ScopedSpan span(loop.tracer, "docgen.xquery.report", op);
      xq_reports.push_back(lll::docgen::GenerateXQuery(
          (*loop.templates)[pair.template_index], *pair.model, options));
    }
    const Rendered& xq = xq_reports.back();
    if (xq.ok()) {
      ScopedSpan span(loop.tracer, "xml.serialize", op);
      if (xq->Serialized().empty()) ++st->failed;
    }
    st->xquery.Add(loop.pacer->Scale(NowNs() - t0));
    if (loop.tracer->on()) {
      // The per-call work GenerateXQuery pays before its phases: the model
      // export and the metamodel parse, replayed from outside.
      {
        ScopedSpan span(loop.tracer, "awb.model_to_xml", op);
        (void)lll::awb::ModelToXml(*pair.model);
      }
      ScopedSpan span(loop.tracer, "xml.parse", op);
      if (!lll::xml::Parse(*loop.metamodel_xml,
                           {.strip_insignificant_whitespace = true})
               .ok()) {
        ++st->failed;
      }
    }
    if (!xq.ok()) continue;
    const lll::docgen::DocGenStats& s = xq->stats;
    for (size_t p = 0; p < s.phase_us.size() && p < kPhases; ++p) {
      st->phases[p].Add(static_cast<int64_t>(s.phase_us[p]) * 1000);
    }
    st->steps += s.eval_steps;
    st->pulled += s.nodes_pulled;
    st->sorts += s.sorts_performed;
    st->copies += s.document_copies;
    st->ns_hits += s.nodeset_cache_hits;
    st->ns_misses += s.nodeset_cache_misses;
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const Pair& pair = (*loop.pairs)[order[i]];
    const uint64_t op = st->ops + i;
    lll::docgen::GenerateOptions options;
    options.metrics = loop.metrics;
    loop.pacer->Between();
    int64_t t0 = NowNs();
    Rendered native = lll::Status::Internal("unset");
    {
      ScopedSpan span(loop.tracer, "docgen.native.report", op);
      native = lll::docgen::GenerateNative(
          (*loop.templates)[pair.template_index], *pair.model, options);
    }
    bool serialized = false;
    if (native.ok()) {
      ScopedSpan span(loop.tracer, "xml.serialize", op);
      serialized = !native->Serialized().empty();
    }
    st->native.Add(loop.pacer->Scale(NowNs() - t0));
    const Rendered& xq = xq_reports[i];
    if (!serialized || !xq.ok() || xq->stats.errors_embedded != 0 ||
        native->stats.errors_embedded != 0 ||
        !lll::xml::DeepEqual(xq->root, native->root)) {
      ++st->failed;
    }
  }
  st->ops += order.size();
}

// Whole cycles until `seconds` have passed, at least one.
Stats RunLoop(const Loop& loop, const std::vector<size_t>& order,
              double seconds) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const double start_s = loop.pacer->ActiveSeconds();
  Stats st;
  do {
    RunCycle(loop, order, &st);
  } while (NowNs() < deadline);
  st.ops_per_s =
      static_cast<double>(st.ops) / (loop.pacer->ActiveSeconds() - start_s);
  return st;
}

}  // namespace

Report RunDocgenReports(const Args& args) {
  Report report;
  const lll::awb::Metamodel metamodel = lll::awb::MakeItArchitectureMetamodel();
  const std::string metamodel_xml = lll::awb::ExportMetamodelXml(metamodel);
  std::vector<lll::awb::Model> models;
  for (size_t scale = 2; scale <= 4; ++scale) {
    for (uint64_t replica = 0; replica < kModelsPerSize; ++replica) {
      const uint64_t seed = args.seed * 16 + scale * kModelsPerSize + replica;
      models.push_back(MakeModel(&metamodel, seed, scale));
    }
  }
  std::vector<Pair> pairs;
  for (const lll::awb::Model& model : models) {
    for (size_t t = 0; t < std::size(kTemplates); ++t) {
      pairs.push_back({t, &model});
    }
  }
  Rng rng(args.seed);
  const std::vector<size_t> order = rng.Permutation(pairs.size());

  // Set-up: parse the templates, compile the phase programs into a cleared
  // phase cache, and render every pair once (the warm-up pass).
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<lll::xml::Document>> template_docs;
  std::vector<const lll::xml::Node*> templates;
  Tracer off(false);
  Pacer pacer;
  Loop loop{&pairs, &templates, &metamodel_xml, nullptr, &off, &pacer};
  Stats warmup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = pacer.ActiveSeconds();
    lll::docgen::XQueryPhaseCache().Clear();
    template_docs.clear();
    templates.clear();
    for (const char* text : kTemplates) {
      auto doc = lll::docgen::ParseTemplate(text);
      if (!doc.ok()) Die("template does not parse: " + doc.status().ToString());
      templates.push_back((*doc)->DocumentElement());
      template_docs.push_back(std::move(*doc));
    }
    RunCycle(loop, order, &warmup);
    setup_s.push_back(pacer.ActiveSeconds() - t0);
  }

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  Stats run = RunLoop(loop, order, untraced_seconds);
  report.attempted = run.ops + kSetupRepeats * pairs.size();
  report.failed = run.failed + warmup.failed;
  const double ops_per_s = run.ops_per_s;
  report.detail = {
      DetailLine("setup_s", Median(setup_s), "s"),
      DetailLine("failed_share", Ratio(report.failed, report.attempted), ""),
      DetailLine("docgen.ops_per_s", ops_per_s, "1/s", run.ops),
      DetailLine("docgen.xquery_report_p50_ms",
                 run.xquery.PercentileUs(50) / 1000, "ms",
                 run.xquery.count()),
      DetailLine("docgen.xquery_report_p90_ms",
                 run.xquery.PercentileUs(90) / 1000, "ms",
                 run.xquery.count()),
      DetailLine("docgen.native_report_p50_us",
                 run.native.PercentileUs(50), "us", run.native.count()),
      DetailLine("docgen.native_report_p90_us",
                 run.native.PercentileUs(90), "us", run.native.count()),
  };

  if (args.trace) {
    lll::MetricsRegistry registry;
    report.tracers.assign(1, Tracer(true));
    Tracer* tracer = &report.tracers[0];
    Loop traced_loop{&pairs,    &templates, &metamodel_xml,
                     &registry, tracer,     &pacer};
    Stats traced = RunLoop(traced_loop, order, args.seconds / 2);
    report.attempted += traced.ops;
    report.failed += traced.failed;

    // Set-up layers, measured apart: template parse and phase compile.
    for (int i = 0; i < kLoadRepeats; ++i) {
      for (const char* text : kTemplates) {
        ScopedSpan span(tracer, "docgen.template_parse", 0);
        if (!lll::docgen::ParseTemplate(text).ok()) ++report.failed;
      }
      for (const auto& entry : lll::docgen::XQueryPhaseCache().Entries()) {
        const std::string& key = entry.first;  // option bits '|' source
        ScopedSpan span(tracer, "xquery.compile", 0);
        if (!lll::xq::Compile(key.substr(key.find('|') + 1)).ok()) {
          ++report.failed;
        }
      }
    }

    std::map<std::string, SpanStats> spans = SummarizeSpans(report.tracers);
    auto p50 = [&spans](const char* name) {
      return spans[name].total.PercentileUs(50);
    };
    report.per_layer = {
        {"docgen.xquery.report_us", p50("docgen.xquery.report")},
        {"docgen.xquery.eval_steps", Ratio(traced.steps, traced.ops)},
        {"docgen.xquery.nodes_pulled", Ratio(traced.pulled, traced.ops)},
        {"docgen.xquery.sorts_performed", Ratio(traced.sorts, traced.ops)},
        {"docgen.xquery.nodeset_hit_ratio",
         Ratio(traced.ns_hits, traced.ns_hits + traced.ns_misses)},
        {"docgen.xquery.document_copies", Ratio(traced.copies, traced.ops)},
        {"awb.model_to_xml_us", p50("awb.model_to_xml")},
        {"xml.parse_us", p50("xml.parse")},
        {"docgen.native.report_us", p50("docgen.native.report")},
        {"xml.serialize_us", p50("xml.serialize")},
        {"docgen.template_parse_us", p50("docgen.template_parse")},
        {"xquery.compile_us", p50("xquery.compile")},
        {"trace.overhead_pct",
         OverheadPct(run.xquery.PercentileUs(50),
                     traced.xquery.PercentileUs(50))},
    };
    for (int p = 0; p < kPhases; ++p) {
      report.per_layer[kPhaseMetric[p]] = traced.phases[p].PercentileUs(50);
    }
    report.registry_json = registry.ToJson();
  }

  AddEndToEnd(&report, Median(setup_s), ops_per_s,
              run.xquery.PercentileUs(50), run.native.PercentileUs(50));
  report.detail.insert(report.detail.begin() + 2,
                       DetailLine("peak_rss_mb", PeakRssMb(), "MB"));
  return report;
}

}  // namespace perfbench
