#ifndef LLL_DOCGEN_DOCGEN_H_
#define LLL_DOCGEN_DOCGEN_H_

#include <memory>
#include <string>
#include <vector>

#include "awb/model.h"
#include "core/metrics.h"
#include "core/result.h"
#include "obs/trace_sink.h"
#include "xml/node.h"

namespace lll::docgen {

// The AWB document generator: "a template ... is a mix of HTML directives
// and text, which are simply copied to the output document, and idiosyncratic
// AWB directives, which cause various more or less obvious sorts of behavior
// for their children."
//
// Directive catalog (everything else is copied verbatim):
//
//   <for nodes="QUERY"> body </for>
//       Runs the AWB-QL query (text form, ';' or newline separated) and
//       expands body once per result node with the focus set to it. A
//       <query> child element (XML form) may replace the attribute.
//   <if> <test> CONDITION </test> <then>...</then> <else>...</else> </if>
//       CONDITION is one of:
//         <focus-is-type type="T"/>       focus node is (a subtype of) T
//         <focus-has-property name="p"/>
//         <focus-property-equals name="p" value="v"/>
//         <nonempty nodes="QUERY"/>       query result is nonempty
//         <not> C </not>, <and> C C.. </and>, <or> C C.. </or>
//   <label/>                              the focus node's label text
//   <value-of property="p" default="d"/>  a property of the focus; without a
//                                         default, a missing property is an
//                                         ERROR (the E3 workload)
//   <section heading="H"> body </section> emits <div class="section"> with
//                                         an <hN> heading; records a
//                                         table-of-contents entry
//   <table-of-contents/>                  replaced by the collected entries
//   <table-of-omissions types="T1,T2"/>   nodes of those types (all, if
//                                         omitted) never visited during
//                                         generation
//   <table rows="Q" cols="Q" relation="R" corner="txt"/>
//                                         the row/column table of E7: cell
//                                         (r,c) is "x" iff an R edge r->c
//                                         exists (subtype-aware)
//   <rich-text property="p"/>             the focus's HTML-valued property,
//                                         parsed and spliced (escaped text
//                                         if unparseable)
//   <placeholder name="NAME"> body </placeholder>
//                                         defines content; every later text
//                                         occurrence of "NAME-GOES-HERE" in
//                                         the document is replaced by it
//
// A node becomes "visited" when it is made the focus (<for>) or appears as a
// table row/column. Visits feed the table of omissions.

struct GenerateOptions {
  enum class ErrorPolicy {
    // Directive errors abort generation with a GenTrouble-style Status.
    kPropagate,
    // Directive errors become <error><message>..</message></error> elements
    // in the output and generation continues (the discipline the XQuery
    // implementation is forced into; also handy for benchmarking E3).
    kEmbed,
  };
  ErrorPolicy error_policy = ErrorPolicy::kPropagate;
  // Initial focus node id (optional; "" = no focus until the first <for>).
  std::string initial_focus_id;
  // XQuery engine: per-expression profiling of every phase program; the
  // reports land in DocGenResult::phase_profiles.
  bool profile = false;
  // XQuery engine: fn:trace events from the phase programs go here (in
  // addition to each phase's trace_output buffer). Borrowed.
  obs::TraceSink* trace_sink = nullptr;
  // Both engines: generation counters and phase wall-time histograms are
  // recorded here when set (metric names under "docgen."). Borrowed;
  // typically &GlobalMetrics().
  MetricsRegistry* metrics = nullptr;
};

struct DocGenStats {
  size_t directives_processed = 0;
  size_t nodes_visited = 0;
  size_t toc_entries = 0;
  size_t omissions_listed = 0;
  size_t placeholders_defined = 0;
  size_t placeholder_replacements = 0;
  size_t errors_embedded = 0;
  // Full copies made of the (whole) output document. The native engine
  // patches in place: 0. The multi-phase XQuery pipeline copies the document
  // once per phase -- the paper's "fairly inefficient, requiring multiple
  // copies of the entire output" (E4).
  size_t document_copies = 0;
  // XQuery engine only: evaluator steps across all phases.
  size_t eval_steps = 0;
  // XQuery engine only: document-order normalizations across all phases --
  // sorts actually performed vs. proven unnecessary (statically by the
  // optimizer's order analysis or dynamically by the evaluator).
  size_t sorts_performed = 0;
  size_t sorts_skipped = 0;
  // XQuery engine only: streaming pipeline traffic across all phases --
  // axis candidates examined lazily, and a lower bound on candidates never
  // examined because a consumer stopped pulling early.
  size_t nodes_pulled = 0;
  size_t nodes_skipped_early_exit = 0;
  // XQuery engine only: reverse-axis runs fed into the k-way document-order
  // merge, and paths truncated by an optimizer-pushed limit hint.
  size_t reverse_runs_merged = 0;
  size_t limit_pushdowns = 0;
  // XQuery engine only: node-set interning cache traffic across all phases
  // (the cache itself is scoped to one generation).
  size_t nodeset_cache_hits = 0;
  size_t nodeset_cache_misses = 0;
  size_t nodeset_cache_invalidations = 0;
  // Of the invalidations, how many were subtree-scoped (a guard on an
  // interior anchor failed, not the whole tree): the fine-grained
  // invalidation win an interactive edit-regenerate loop banks on.
  size_t nodeset_cache_partial_invalidations = 0;
  // XQuery engine only: `@a = K` predicates answered by a hash probe, and
  // the attribute indexes built for them (DESIGN.md section 16).
  size_t probe_filters = 0;
  size_t probe_index_builds = 0;
  // XQuery engine only: wall time per phase (microseconds), phases in run
  // order. Empty for the native engine (it has no phases).
  std::vector<uint64_t> phase_us;
};

struct DocGenResult {
  // Owns the produced tree.
  std::unique_ptr<xml::Document> document;
  // The produced root element (inside `document`).
  xml::Node* root = nullptr;
  DocGenStats stats;
  // Rendered hot-spot reports, one per phase, when GenerateOptions::profile
  // was set (XQuery engine only).
  std::vector<std::string> phase_profiles;

  std::string Serialized(int indent = 0) const;
};

// Parses template text (XML) -- a thin convenience over xml::Parse with the
// right whitespace options for templates.
Result<std::unique_ptr<xml::Document>> ParseTemplate(
    const std::string& template_xml);

// Rewrites every directive carrying a `nodes` text-form query into the
// equivalent <query> XML child, in place. Both engines accept either form;
// the XQuery engine's phase-1 interpreter (which reads the template as data)
// understands only the XML form, so its driver normalizes first.
Status NormalizeTemplateQueries(xml::Document* doc);

// True if `name` is an AWB directive (vs. a pass-through HTML tag).
bool IsDirective(const std::string& name);

// Canonicalizes text nodes under `element`, in place: adjacent text siblings
// merge into one node and zero-length text nodes are dropped. Both engines
// run this on their final output so the two results are DeepEqual-comparable
// (they split text at different construction boundaries).
void NormalizeTextNodes(xml::Node* element);

}  // namespace lll::docgen

#endif  // LLL_DOCGEN_DOCGEN_H_
