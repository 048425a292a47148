// awbql_queries: an AWB-QL query through each backend.
//
// A single-threaded closed loop over a seeded pool of 45 queries drawn from
// the calculus grammar -- type and node sources, forward and backward
// `follow` with `to:`, filters and sorts -- over a seeded ~100-node model.
// The pool is stratified: 9 query shapes x 5 instances, the types and
// relations of each instance enumerated so that every seed has the same
// mix of steps, and the seed drawing the model, the start nodes, the filter
// properties and values. (An odd pool size keeps the nearest-rank median
// inside one query's samples.) Each cycle evaluates the whole pool with
// XQueryBackend::Eval (compile cache 64: the pool fits, so compiling is paid
// in set-up only), then with EvalNative, and requires the same node list
// from both for each query.

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "awbql/native.h"
#include "awbql/query.h"
#include "awbql/xquery_backend.h"
#include "bench.h"
#include "core/metrics.h"
#include "xquery/engine.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kLoadRepeats = 5;
constexpr int kShapes = 9;
constexpr int kInstancesPerShape = 5;  // 45 queries
constexpr size_t kCompileCache = 64;

// Vocabulary of MakeItArchitectureMetamodel, restricted to types with
// instances in generated models so that most answers are nonempty.
const char* const kTypes[] = {"Person", "User",     "Server",
                              "Program", "Document", "Requirement",
                              "Subsystem", "Entity", "System"};
// Start-node types of the node-source shapes, enumerated like the rest.
const char* const kNodeTypes[] = {"User", "Program", "Server", "Document",
                                  "Subsystem"};
const char* const kForward[] = {"has", "runs", "uses", "likes", "relates"};
const char* const kBackward[] = {"has", "runs", "uses", "likes", "favors"};
const char* const kProperties[] = {"role", "version", "language", "priority",
                                   "cores", "middleName"};
const char* const kValues[][2] = {{"role", "architect"},
                                  {"role", "analyst"},
                                  {"language", "Java"},
                                  {"language", "COBOL"},
                                  {"priority", "3"},
                                  {"cores", "4"}};

template <typename T, size_t N>
const T& Pick(Rng* rng, const T (&table)[N]) {
  return table[rng->Below(N)];
}

// Instance `i` of `shape`. Types and relations are enumerated from (shape,
// i); `rng` draws start nodes (of an enumerated type), filter properties
// and values.
std::string QueryText(int shape, int i, Rng* rng,
                      const lll::awb::Model& model) {
  const size_t k = static_cast<size_t>(shape * kInstancesPerShape + i);
  std::vector<const lll::awb::ModelNode*> candidates;
  for (const lll::awb::ModelNode* n : model.nodes()) {
    if (n->type() == kNodeTypes[k % std::size(kNodeTypes)]) {
      candidates.push_back(n);
    }
  }
  if (candidates.empty()) Die("model has no node of a start-node type");
  const std::string node = candidates[rng->Below(candidates.size())]->id();
  constexpr size_t kT = sizeof(kTypes) / sizeof(kTypes[0]);
  constexpr size_t kF = sizeof(kForward) / sizeof(kForward[0]);
  constexpr size_t kB = sizeof(kBackward) / sizeof(kBackward[0]);
  const std::string type = kTypes[k % kT];
  const std::string other = kTypes[(k * 4 + 1) % kT];
  const std::string forward = kForward[k % kF];
  const std::string backward = kBackward[(k + 2) % kB];
  switch (shape) {
    case 0:
      return "from type:" + type + "\nfollow " + forward + ">\nsort label\n";
    case 1:
      return "from type:" + type + "\nfollow <" + backward + " to:" + other +
             "\n";
    case 2:
      return "from node:" + node + "\nfollow " + forward + ">\nfollow " +
             kForward[(k + 1) % kF] + ">\n";
    case 3:
      return "from type:" + type + "\nfilter " +
             (rng->Below(2) == 0 ? "has:" : "missing:") +
             Pick(rng, kProperties) + "\nsort label\n";
    case 4: {
      const auto& value = Pick(rng, kValues);
      return "from type:" + type + "\nfilter prop:" + value[0] + "=" +
             value[1] + "\n";
    }
    case 5:
      return "from node:" + node + "\nfollow <" + backward + "\nsort label\n";
    case 6:
      return "from type:" + type + "\nfollow " + forward + "> to:" + other +
             "\nsort label\n";
    case 7:
      return "from type:" + type + "\nfollow " + forward + ">\nfollow <" +
             backward + "\nsort label\nlimit 10\n";
    default:
      return "from node:" + node + "\nfollow " + forward + ">\nfilter type:" +
             other + "\n";
  }
}

struct Stats {
  Samples xquery, native;
  uint64_t ops = 0, failed = 0;
  double ops_per_s = 0;
  uint64_t steps = 0, calls = 0, pulled = 0, ns_hits = 0, ns_misses = 0;
};

// One cycle through the pool: every query in `order` through
// XQueryBackend::Eval, then every query through EvalNative, each backend's
// pass running on its own as a user of that backend would. A query counts
// as failed unless both backends return the same node list.
void RunCycle(lll::awbql::XQueryBackend* backend, const lll::awb::Model& model,
              const std::vector<lll::awbql::Query>& pool,
              const std::vector<size_t>& order, Tracer* tracer, Pacer* pacer,
              Stats* st) {
  using Answer = lll::Result<std::vector<const lll::awb::ModelNode*>>;
  std::vector<Answer> answers;
  answers.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const lll::awbql::Query& query = pool[order[i]];
    const uint64_t op = st->ops + i;
    pacer->Between();
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "awbql.xquery.eval", op);
      answers.push_back(backend->Eval(query));
    }
    st->xquery.Add(pacer->Scale(NowNs() - t0));
    const lll::xq::EvalStats& s = backend->last_stats();
    st->steps += s.steps;
    st->calls += s.function_calls;
    st->pulled += s.nodes_pulled;
    st->ns_hits += s.nodeset_cache_hits;
    st->ns_misses += s.nodeset_cache_misses;
    if (tracer->on()) {
      ScopedSpan span(tracer, "awbql.xquery.translate", op);
      (void)backend->CompileToXQuery(query);
    }
  }
  for (size_t i = 0; i < order.size(); ++i) {
    pacer->Between();
    int64_t t0 = NowNs();
    Answer native = lll::Status::Internal("unset");
    {
      ScopedSpan span(tracer, "awbql.native.eval", st->ops + i);
      native = lll::awbql::EvalNative(pool[order[i]], model);
    }
    st->native.Add(pacer->Scale(NowNs() - t0));
    if (!answers[i].ok() || !native.ok() || *answers[i] != *native) {
      ++st->failed;
    }
  }
  st->ops += order.size();
}

// Whole cycles until `seconds` have passed, at least one.
Stats RunLoop(lll::awbql::XQueryBackend* backend, const lll::awb::Model& model,
              const std::vector<lll::awbql::Query>& pool,
              const std::vector<size_t>& order, Tracer* tracer,
              Pacer* pacer, double seconds) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const double start_s = pacer->ActiveSeconds();
  Stats st;
  do {
    RunCycle(backend, model, pool, order, tracer, pacer, &st);
  } while (NowNs() < deadline);
  st.ops_per_s =
      static_cast<double>(st.ops) / (pacer->ActiveSeconds() - start_s);
  return st;
}

}  // namespace

Report RunAwbqlQueries(const Args& args) {
  Report report;
  const lll::awb::Metamodel metamodel = lll::awb::MakeItArchitectureMetamodel();
  lll::awb::GeneratorConfig config;
  config.seed = args.seed;
  config.users = 45;
  config.servers = 5;
  config.subsystems = 5;
  config.programs = 20;
  config.requirements = 10;
  config.documents = 10;
  const lll::awb::Model model = lll::awb::GenerateItModel(&metamodel, config);

  Rng rng(args.seed);
  std::vector<lll::awbql::Query> pool;
  for (int shape = 0; shape < kShapes; ++shape) {
    for (int i = 0; i < kInstancesPerShape; ++i) {
      const std::string text = QueryText(shape, i, &rng, model);
      auto query = lll::awbql::ParseQuery(text);
      if (!query.ok()) Die("generated query does not parse: " + text);
      pool.push_back(std::move(*query));
    }
  }
  const std::vector<size_t> order = rng.Permutation(pool.size());

  // Set-up: build the backend (model export + metamodel parse) and evaluate
  // every pool query once, which fills the compile cache.
  Tracer off(false);
  Pacer pacer;
  std::vector<double> setup_s;
  std::unique_ptr<lll::awbql::XQueryBackend> backend;
  Stats warmup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    backend.reset();
    const double t0 = pacer.ActiveSeconds();
    backend =
        std::make_unique<lll::awbql::XQueryBackend>(&model, kCompileCache);
    RunCycle(backend.get(), model, pool, order, &off, &pacer, &warmup);
    setup_s.push_back(pacer.ActiveSeconds() - t0);
  }

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  Stats run = RunLoop(backend.get(), model, pool, order, &off, &pacer,
                      untraced_seconds);
  report.attempted = run.ops + kSetupRepeats * pool.size();
  report.failed = run.failed + warmup.failed;
  const double ops_per_s = run.ops_per_s;
  report.detail = {
      DetailLine("setup_s", Median(setup_s), "s"),
      DetailLine("failed_share", Ratio(report.failed, report.attempted), ""),
      DetailLine("awbql.ops_per_s", ops_per_s, "1/s", run.ops),
      DetailLine("awbql.xquery_query_p50_us",
                 run.xquery.PercentileUs(50), "us", run.xquery.count()),
      DetailLine("awbql.xquery_query_p90_us",
                 run.xquery.PercentileUs(90), "us", run.xquery.count()),
      DetailLine("awbql.native_query_p50_us",
                 run.native.PercentileUs(50), "us", run.native.count()),
      DetailLine("awbql.native_query_p90_us",
                 run.native.PercentileUs(90), "us", run.native.count()),
  };

  if (args.trace) {
    // The traced half runs with a driver-owned registry attached
    // (XQueryBackend::set_metrics), which the untraced half leaves off.
    lll::MetricsRegistry registry;
    backend->set_metrics(&registry);
    report.tracers.assign(1, Tracer(true));
    Tracer* tracer = &report.tracers[0];
    const lll::CacheStats cache_before = backend->cache_stats();
    Stats traced = RunLoop(backend.get(), model, pool, order, tracer, &pacer,
                           args.seconds / 2);
    const lll::CacheStats cache_after = backend->cache_stats();
    report.attempted += traced.ops;
    report.failed += traced.failed;

    // Set-up layers, measured apart: backend construction and the cold
    // compile of every generated program.
    for (int i = 0; i < kLoadRepeats; ++i) {
      ScopedSpan span(tracer, "awbql.backend_build", 0);
      lll::awbql::XQueryBackend scratch(&model, kCompileCache);
    }
    for (const lll::awbql::Query& query : pool) {
      const std::string program = backend->CompileToXQuery(query);
      ScopedSpan span(tracer, "xquery.compile", 0);
      if (!lll::xq::Compile(program).ok()) ++report.failed;
    }

    std::map<std::string, SpanStats> spans = SummarizeSpans(report.tracers);
    auto p50 = [&spans](const char* name) {
      return spans[name].total.PercentileUs(50);
    };
    report.per_layer = {
        {"awbql.xquery.eval_us", p50("awbql.xquery.eval")},
        {"awbql.xquery.translate_us", p50("awbql.xquery.translate")},
        {"awbql.xquery.steps_per_query", Ratio(traced.steps, traced.ops)},
        {"awbql.xquery.function_calls_per_query",
         Ratio(traced.calls, traced.ops)},
        {"awbql.xquery.nodeset_hit_ratio",
         Ratio(traced.ns_hits, traced.ns_hits + traced.ns_misses)},
        {"awbql.xquery.compile_cache_hit_ratio",
         Ratio(cache_after.hits - cache_before.hits,
               cache_after.lookups - cache_before.lookups)},
        {"awbql.xquery.nodes_pulled_per_query",
         Ratio(traced.pulled, traced.ops)},
        {"awbql.native.eval_us", p50("awbql.native.eval")},
        {"awbql.backend_build_us", p50("awbql.backend_build")},
        {"xquery.compile_us", p50("xquery.compile")},
        {"trace.overhead_pct",
         OverheadPct(run.xquery.PercentileUs(50),
                     traced.xquery.PercentileUs(50))},
    };
    report.registry_json = registry.ToJson();
  }

  AddEndToEnd(&report, Median(setup_s), ops_per_s,
              run.xquery.PercentileUs(50), run.native.PercentileUs(50));
  report.detail.insert(report.detail.begin() + 2,
                       DetailLine("peak_rss_mb", PeakRssMb(), "MB"));
  return report;
}

}  // namespace perfbench
