// E4: mutability vs. functionality ("Mutability vs. Functionality").
//
// Paper claim: the multi-phase INTERNAL-DATA scheme for tables of contents
// and omissions was "fairly inefficient, requiring multiple copies of the
// entire output (complete with internal notes that weren't going to get
// into the final output)", while the Java rewrite used mutable accumulators
// and "a very modest second phase".
//
// Measured: end-to-end generation time of a ToC+omissions document, native
// (0 whole-document copies) vs XQuery (4 whole-document copies), as the
// document grows. The copies counter is reported alongside the timing, and
// so is nodes_copied: the nodes a report's phases copy into their arenas.
// Constructors adopt the nodes their content just built, so each phase copy
// is O(n) and the counter reads 0 for the XQuery arm (DESIGN.md section 20).

#include <string>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "docgen/native_engine.h"
#include "docgen/xq_engine.h"

namespace {

using lll::awb::Metamodel;
using lll::awb::Model;

// ToC + sections + omissions + a placeholder: every phase has work to do.
constexpr char kTemplate[] =
    "<html><body><table-of-contents/>"
    "<placeholder name=\"NOTE\"><em>generated</em></placeholder>"
    "<section heading=\"Users\">"
    "<for nodes=\"from type:User; sort label\">"
    "<section heading=\"{label}\"><p>NOTE-GOES-HERE role: "
    "<value-of property=\"role\" default=\"-\"/></p></section>"
    "</for></section>"
    "<section heading=\"Leftovers\"><table-of-omissions/></section>"
    "</body></html>";

Model MakeModel(const Metamodel* mm, int users) {
  lll::awb::GeneratorConfig config;
  config.seed = 99;
  config.users = static_cast<size_t>(users);
  config.documents = 3;
  return lll::awb::GenerateItModel(mm, config);
}

void BM_E4_NativeMutable(benchmark::State& state) {
  static const Metamodel& mm =
      *new Metamodel(lll::awb::MakeItArchitectureMetamodel());
  Model model = MakeModel(&mm, static_cast<int>(state.range(0)));
  size_t copies = 0;
  size_t toc = 0;
  for (auto _ : state) {
    auto result = lll::docgen::GenerateNativeFromText(kTemplate, model);
    if (!result.ok()) state.SkipWithError("native failed");
    copies = result->stats.document_copies;
    toc = result->stats.toc_entries;
    benchmark::DoNotOptimize(result);
  }
  state.counters["doc_copies"] = static_cast<double>(copies);
  state.counters["toc_entries"] = static_cast<double>(toc);
}
BENCHMARK(BM_E4_NativeMutable)->ArgName("users")->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_E4_XQueryPhases(benchmark::State& state) {
  static const Metamodel& mm =
      *new Metamodel(lll::awb::MakeItArchitectureMetamodel());
  Model model = MakeModel(&mm, static_cast<int>(state.range(0)));
  size_t copies = 0;
  size_t nodes_copied = 0;
  size_t toc = 0;
  for (auto _ : state) {
    auto result = lll::docgen::GenerateXQueryFromText(kTemplate, model);
    if (!result.ok()) state.SkipWithError("xquery failed");
    copies = result->stats.document_copies;
    nodes_copied = result->stats.nodes_copied;
    toc = result->stats.toc_entries;
    benchmark::DoNotOptimize(result);
  }
  state.counters["doc_copies"] = static_cast<double>(copies);
  state.counters["nodes_copied"] = static_cast<double>(nodes_copied);
  state.counters["toc_entries"] = static_cast<double>(toc);
}
BENCHMARK(BM_E4_XQueryPhases)->ArgName("users")->Arg(5)->Arg(10)->Arg(20)->Arg(40);

}  // namespace

LLL_BENCH_MAIN("e4")
