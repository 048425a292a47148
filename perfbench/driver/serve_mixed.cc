// serve_mixed: the lll_serverd round trip, driven in-process.
//
// A closed loop of 2 sessions on one QueryServer (worker_threads = 0), each
// on its own thread, each waiting for its reply before sending the next
// operation -- how the daemon serves one connection per thread. The
// document is the exported XML of a seeded IT model (~20k XML nodes).
//
//   * 95% reads, 5 shapes (point lookup, first match, full-scan aggregate,
//     reverse-axis step, relation/@source = node/@id value join, drawn with
//     weights 45/20/8/20/7), each parameterized by a node id drawn
//     Zipf-skewed from 128 ids: 640 distinct texts against a 256-entry plan
//     cache.
//   * 5% updates: PublishUpdate scripts that replace a property's text with
//     the same text -- content-neutral for every read shape, so the
//     precomputed answers stay valid while the edit still dirties subtree
//     versions, clones the snapshot and migrates its node-set cache.
//
// Every operation re-pins the current snapshot first (Session::Refresh), so
// reads see the latest publish. Set-up is a warm boot: LoadState on a state
// directory the driver wrote beforehand, plus a warm-up pass.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "awb/xml_io.h"
#include "bench.h"
#include "core/metrics.h"
#include "persist/doc_snapshot.h"
#include "persist/plan_serde.h"
#include "server/server.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/query_cache.h"
#include "xquery/update_eval.h"

namespace perfbench {
namespace {

using lll::server::QueryServer;
using lll::server::ServerOptions;

constexpr const char kDoc[] = "model";
constexpr size_t kIdsPerShape = 128;
constexpr double kZipfS = 1.2;
constexpr int kSessions = 2;
constexpr uint64_t kUpdateEvery = 20;  // 5% of each session's operations
constexpr size_t kUpdateScripts = 256;
constexpr int kSetupRepeats = 9;
constexpr size_t kWarmupRanks = 32;  // per shape
constexpr uint64_t kLadderEvery = 4;  // traced: 1 read in 4 replays the ladder

enum Shape { kPoint, kFirst, kScan, kReverse, kJoin, kShapes };
const char* const kExecuteSpan[kShapes] = {
    "xquery.execute.point", "xquery.execute.first", "xquery.execute.scan",
    "xquery.execute.reverse", "xquery.execute.join"};
const char* const kShapeName[kShapes] = {"point", "first", "scan", "reverse",
                                         "join"};
constexpr uint64_t kWarmupReads = kWarmupRanks * kShapes;
// Cumulative shape weights (percent): point lookups dominate, and the two
// shapes the node-set cache rarely answers stay a small minority, so the
// read median falls well inside the cached population and the p99 well
// inside the scan/join population, not on the edge between them.
constexpr uint64_t kShapeCdf[kShapes] = {45, 65, 73, 93, 100};

std::string Quoted(const std::string& id) { return "\"" + id + "\""; }

std::string ReadText(int shape, const std::string& id) {
  switch (shape) {
    case kPoint:
      return "/awb-model/node[@id = " + Quoted(id) + "]";
    case kFirst:
      return "/awb-model/node[@id = " + Quoted(id) +
             "]/following-sibling::node[1]";
    case kScan:
      return "count(//relation[@target = " + Quoted(id) + "])";
    case kReverse:
      return "string(/awb-model/node[@id = " + Quoted(id) +
             "]/preceding-sibling::node[1]/@id)";
    default:
      return "for $r in /awb-model/relation[@target = " + Quoted(id) +
             "] return string(/awb-model/node[@id = $r/@source]/@type)";
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The seeded inputs: document text, read texts with their oracle answers,
// the Zipf rank -> text tables, and the update scripts.
struct Inputs {
  std::string xml;
  std::vector<std::string> texts;    // shape * kIdsPerShape + slot
  std::vector<std::string> answers;  // oracle, same index
  std::vector<std::vector<size_t>> rank_to_slot;  // per shape
  std::vector<std::string> updates;
  Zipf zipf{kIdsPerShape, kZipfS};
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  lll::awb::Metamodel metamodel = lll::awb::MakeItArchitectureMetamodel();
  lll::awb::GeneratorConfig config;
  config.seed = seed;
  config.users = 380;
  config.servers = 20;
  config.subsystems = 20;
  config.programs = 150;
  config.requirements = 60;
  config.documents = 60;
  lll::awb::Model model = lll::awb::GenerateItModel(&metamodel, config);
  in.xml = lll::awb::ExportModelXml(model, /*indent=*/0);

  // Read ids exclude the SystemBeingDesigned node: nearly every relation
  // targets it, so whether a seed made it a hot id would swing the join and
  // scan costs by 100x.
  std::vector<const lll::awb::ModelNode*> nodes = model.nodes();
  std::vector<std::string> ids;
  for (const lll::awb::ModelNode* n : nodes) {
    if (n->type() != "SystemBeingDesigned") ids.push_back(n->id());
  }
  rng.Shuffle(&ids);
  ids.resize(std::min(ids.size(), kIdsPerShape));
  if (ids.size() < kIdsPerShape) Die("model too small");

  for (int shape = 0; shape < kShapes; ++shape) {
    in.rank_to_slot.push_back(rng.Permutation(kIdsPerShape));
    for (const std::string& id : ids) in.texts.push_back(ReadText(shape, id));
  }

  // The oracle: a cache-free xq::Run on a freshly parsed copy.
  auto doc = lll::xml::Parse(in.xml, {.strip_insignificant_whitespace = true});
  if (!doc.ok()) Die("model XML does not parse: " + doc.status().ToString());
  for (const std::string& text : in.texts) {
    lll::xq::ExecuteOptions opts;
    opts.context_node = (*doc)->root();
    auto result = lll::xq::Run(text, opts);
    if (!result.ok()) Die("oracle failed on " + text);
    in.answers.push_back(result->SerializedItems());
  }

  // Content-neutral updates: replace a property's text with the same text.
  while (in.updates.size() < kUpdateScripts) {
    const lll::awb::ModelNode* n = nodes[rng.Below(nodes.size())];
    const auto& props = n->properties();
    if (props.empty()) continue;
    const auto& prop = props[rng.Below(props.size())];
    if (prop.second.empty() || prop.second.find('"') != std::string::npos) {
      continue;
    }
    in.updates.push_back("replace /awb-model/node[@id = " + Quoted(n->id()) +
                         "]/property[@name = " + Quoted(prop.first) +
                         "]/text() with " + Quoted(prop.second));
  }
  return in;
}

size_t DrawRead(const Inputs& in, Rng* rng, int* shape) {
  const uint64_t roll = rng->Below(100);
  *shape = 0;
  while (roll >= kShapeCdf[*shape]) ++*shape;
  return static_cast<size_t>(*shape) * kIdsPerShape +
         in.rank_to_slot[static_cast<size_t>(*shape)][in.zipf.Draw(rng)];
}

// Writes the warm-boot state directory: the document plus the plans of the
// most popular texts (the untimed part of the warm boot).
void WriteState(const Inputs& in, const std::string& dir) {
  lll::MetricsRegistry scratch;
  ServerOptions options;
  options.worker_threads = 0;
  options.metrics = &scratch;
  QueryServer server(options);
  if (!server.AddDocumentXml(kDoc, in.xml).ok()) Die("AddDocumentXml failed");
  const size_t per_shape = 256 / kShapes;
  for (int shape = 0; shape < kShapes; ++shape) {
    for (size_t rank = per_shape; rank-- > 0;) {
      size_t index = static_cast<size_t>(shape) * kIdsPerShape +
                     in.rank_to_slot[static_cast<size_t>(shape)][rank];
      (void)server.Execute("warm", kDoc, in.texts[index]);
    }
  }
  std::filesystem::remove_all(dir);
  lll::Status st = server.SaveState(dir);
  if (!st.ok()) Die("SaveState failed: " + st.ToString());
}

// Per-session accumulators.
struct SessionStats {
  Samples reads, updates, self;
  uint64_t ops = 0, failed = 0, publishes = 0;
  double active_s = 0;   // this session's measuring time
  double ops_per_s = 0;  // both sessions together
  uint64_t pulled = 0, ns_hits = 0, ns_misses = 0, ns_inval = 0,
           ns_partial = 0;
};

struct Harness {
  const Inputs* in;
  QueryServer* server;
  Tracer* tracer;             // per session
  lll::xq::QueryCache* ladder_cache;  // traced only
};

// The layer ladder for one read, replayed right after it completed:
// cold compile, plan-cache hit, execute on the current snapshot with its
// node-set cache, serialize. Returns the read's server self time.
int64_t ReadLadder(const Harness& h, int shape, size_t index, uint64_t op,
                   int64_t read_ns, SessionStats* st) {
  const std::string& text = h.in->texts[index];
  {
    ScopedSpan span(h.tracer, "xquery.compile", op);
    auto cold = lll::xq::Compile(text);
    if (!cold.ok()) ++st->failed;
  }
  int64_t t0 = NowNs();
  std::shared_ptr<const lll::xq::CompiledQuery> plan;
  {
    ScopedSpan span(h.tracer, "xquery.plan_lookup", op);
    auto got = h.ladder_cache->GetOrCompile(text);
    if (got.ok()) plan = *got;
  }
  int64_t t1 = NowNs();
  if (plan == nullptr) {
    ++st->failed;
    return 0;
  }
  lll::server::SnapshotPtr snap = h.server->CurrentSnapshot(kDoc);
  lll::xq::ExecuteOptions opts;
  opts.context_node = snap->root();
  opts.eval.nodeset_cache = snap->nodeset_cache();
  lll::Result<lll::xq::QueryResult> result = lll::Status::Internal("unset");
  {
    ScopedSpan span(h.tracer, kExecuteSpan[shape], op);
    result = lll::xq::Execute(*plan, opts);
  }
  int64_t t2 = NowNs();
  std::string answer;
  {
    ScopedSpan span(h.tracer, "xml.serialize", op);
    if (result.ok()) answer = result->SerializedItems();
  }
  int64_t t3 = NowNs();
  if (!result.ok() || answer != h.in->answers[index]) ++st->failed;
  return read_ns - ((t1 - t0) + (t2 - t1) + (t3 - t2));
}

// The update ladder: compile the script, clone the current snapshot, apply
// the script to the private clone.
void UpdateLadder(const Harness& h, const std::string& script, uint64_t op,
                  SessionStats* st) {
  lll::Result<lll::xq::CompiledUpdate> compiled =
      lll::Status::Internal("unset");
  {
    ScopedSpan span(h.tracer, "xquery.update_compile", op);
    compiled = lll::xq::CompileUpdateText(script);
  }
  lll::server::SnapshotPtr snap = h.server->CurrentSnapshot(kDoc);
  std::unique_ptr<lll::xml::Document> clone;
  {
    ScopedSpan span(h.tracer, "xml.clone", op);
    clone = lll::xml::CloneDocument(snap->document());
  }
  if (!compiled.ok()) {
    ++st->failed;
    return;
  }
  ScopedSpan span(h.tracer, "xquery.update_apply", op);
  if (!lll::xq::ApplyUpdate(*compiled, clone.get()).ok()) ++st->failed;
}

// One session's closed loop until `deadline_ns`.
void SessionLoop(const Harness& h, int session_index, uint64_t seed,
                 int64_t deadline_ns, SessionStats* st) {
  Rng rng = Rng(seed).Fork(static_cast<uint64_t>(session_index) + 1);
  Rng ladder_rng = Rng(seed).Fork(100 + static_cast<uint64_t>(session_index));
  lll::server::Session session =
      h.server->OpenSession("client-" + std::to_string(session_index));
  const bool traced = h.tracer->on();
  Pacer pacer;
  for (uint64_t n = 0; NowNs() < deadline_ns; ++n) {
    const uint64_t op = (static_cast<uint64_t>(session_index) << 48) | n;
    pacer.Between();
    session.Refresh();
    if (n % kUpdateEvery == kUpdateEvery - 1) {
      const std::string& script =
          h.in->updates[rng.Below(h.in->updates.size())];
      int64_t t0 = NowNs();
      bool ok;
      {
        ScopedSpan span(h.tracer, "server.publish", op);
        ok = h.server->PublishUpdate(kDoc, script).ok();
      }
      st->updates.Add(pacer.Scale(NowNs() - t0));
      ++st->publishes;
      if (!ok) ++st->failed;
      if (traced) UpdateLadder(h, script, op, st);
    } else {
      int shape = 0;
      size_t index = DrawRead(*h.in, &rng, &shape);
      int64_t t0 = NowNs();
      lll::server::QueryResponse resp;
      {
        ScopedSpan span(h.tracer, "server.read", op);
        resp = session.Query(kDoc, h.in->texts[index]);
      }
      int64_t read_ns = NowNs() - t0;
      st->reads.Add(pacer.Scale(read_ns));
      if (!resp.status.ok() || resp.result != h.in->answers[index]) {
        ++st->failed;
      }
      st->pulled += resp.stats.nodes_pulled;
      st->ns_hits += resp.stats.nodeset_cache_hits;
      st->ns_misses += resp.stats.nodeset_cache_misses;
      st->ns_inval += resp.stats.nodeset_cache_invalidations;
      st->ns_partial += resp.stats.nodeset_cache_partial_invalidations;
      if (traced && ladder_rng.Below(kLadderEvery) == 0) {
        st->self.Add(ReadLadder(h, shape, index, op, read_ns, st));
      }
    }
    ++st->ops;
  }
  st->active_s = pacer.ActiveSeconds();
}

// Runs both sessions for `seconds`; returns the merged stats.
SessionStats RunSessions(const Inputs& in, QueryServer* server,
                         std::vector<Tracer>* tracers,
                         lll::xq::QueryCache* ladder_cache, uint64_t seed,
                         double seconds) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<SessionStats> stats(kSessions);
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      Harness h{&in, server, &(*tracers)[static_cast<size_t>(s)], ladder_cache};
      threads.emplace_back(SessionLoop, h, s, seed, deadline,
                           &stats[static_cast<size_t>(s)]);
    }
    for (std::thread& t : threads) t.join();
  }
  SessionStats all;
  for (const SessionStats& s : stats) {
    if (s.active_s > 0) all.ops_per_s += static_cast<double>(s.ops) / s.active_s;
    all.reads.Append(s.reads);
    all.updates.Append(s.updates);
    all.self.Append(s.self);
    all.ops += s.ops;
    all.failed += s.failed;
    all.publishes += s.publishes;
    all.pulled += s.pulled;
    all.ns_hits += s.ns_hits;
    all.ns_misses += s.ns_misses;
    all.ns_inval += s.ns_inval;
    all.ns_partial += s.ns_partial;
  }
  return all;
}

// Warm boot: a fresh server loads the state directory, then one warm-up
// pass of reads (part of set-up). The pass reads the kWarmupRanks most
// popular texts of every shape once, least popular first, so that every
// seed warms the same mix of shapes and the plan cache ends up holding the
// hottest texts. Failed warm-up reads count.
std::unique_ptr<QueryServer> WarmBoot(const Inputs& in, const std::string& dir,
                                      lll::MetricsRegistry* metrics,
                                      uint64_t* failed) {
  ServerOptions options;
  options.worker_threads = 0;
  options.metrics = metrics;
  auto server = std::make_unique<QueryServer>(options);
  lll::Status st = server->LoadState(dir);
  if (!st.ok() || server->CurrentSnapshot(kDoc) == nullptr) {
    Die("LoadState failed: " + st.ToString());
  }
  lll::server::Session session = server->OpenSession("warmup");
  for (size_t rank = kWarmupRanks; rank-- > 0;) {
    for (size_t shape = 0; shape < kShapes; ++shape) {
      const size_t index = shape * kIdsPerShape + in.rank_to_slot[shape][rank];
      lll::server::QueryResponse resp = session.Query(kDoc, in.texts[index]);
      if (!resp.status.ok() || resp.result != in.answers[index]) ++*failed;
    }
  }
  return server;
}

double MedianLoadUs(const std::function<bool()>& load, Tracer* tracer,
                    const char* span_name) {
  Samples samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t t0 = NowNs();
    bool ok;
    {
      ScopedSpan span(tracer, span_name, 0);
      ok = load();
    }
    samples.Add(NowNs() - t0);
    if (!ok) Die(std::string(span_name) + " failed");
  }
  return samples.PercentileUs(50);
}

}  // namespace

Report RunServeMixed(const Args& args) {
  Report report;
  const Inputs in = MakeInputs(args.seed);
  const std::string dir =
      args.state_dir + "/serve_mixed-seed" + std::to_string(args.seed);
  WriteState(in, dir);

  uint64_t setup_failed = 0;
  std::vector<double> setup_s;
  std::unique_ptr<QueryServer> server;
  {
    Pacer pacer;  // released before the sessions start
    for (int i = 0; i < kSetupRepeats; ++i) {
      server.reset();
      pacer.Between();
      int64_t t0 = NowNs();
      server = WarmBoot(in, dir, nullptr, &setup_failed);
      setup_s.push_back(static_cast<double>(pacer.Scale(NowNs() - t0)) / 1e9);
    }
  }

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Tracer> off(kSessions, Tracer(false));
  SessionStats run = RunSessions(in, server.get(), &off, nullptr, args.seed,
                                 untraced_seconds);
  report.attempted = run.ops + kSetupRepeats * kWarmupReads;
  report.failed = run.failed + setup_failed;

  const double ops_per_s = run.ops_per_s;
  report.detail = {
      DetailLine("setup_s", Median(setup_s), "s"),
      DetailLine("failed_share",
                 Ratio(report.failed, report.attempted), ""),
      DetailLine("serve.ops_per_s", ops_per_s, "1/s", run.ops),
      DetailLine("serve.read_p50_us", run.reads.PercentileUs(50), "us",
                 run.reads.count()),
      DetailLine("serve.read_p99_us", run.reads.PercentileUs(99), "us",
                 run.reads.count()),
      DetailLine("serve.update_p50_us", run.updates.PercentileUs(50), "us",
                 run.updates.count()),
      DetailLine("serve.update_p99_us", run.updates.PercentileUs(99), "us",
                 run.updates.count()),
  };

  if (args.trace) {
    // The traced half: a fresh warm boot with a driver-owned registry
    // attached, spans on, and the layer ladder replayed for sampled reads.
    lll::MetricsRegistry registry;
    server.reset();
    server = WarmBoot(in, dir, &registry, &report.failed);
    report.attempted += kWarmupReads;
    lll::xq::QueryCache ladder_cache(2 * in.texts.size());
    for (const std::string& text : in.texts) {
      if (!ladder_cache.GetOrCompile(text).ok()) ++report.failed;
    }
    report.tracers.assign(kSessions + 1, Tracer(true));
    const uint64_t migrated_before = server->cache_entries_migrated();
    SessionStats traced =
        RunSessions(in, server.get(), &report.tracers, &ladder_cache,
                    args.seed, args.seconds / 2);
    report.attempted += traced.ops;
    report.failed += traced.failed;
    const double publishes =
        static_cast<double>(std::max<uint64_t>(traced.publishes, 1));

    // Warm-boot artifacts, loaded from bytes (the persist layer alone).
    Tracer* setup_tracer = &report.tracers.back();
    std::string snapshot_bytes, plan_bytes;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".llld") {
        snapshot_bytes = ReadFile(entry.path().string());
      } else if (entry.path().extension() == ".lllp") {
        plan_bytes = ReadFile(entry.path().string());
      }
    }
    const double snapshot_load_us = MedianLoadUs(
        [&] {
          return lll::persist::LoadDocumentSnapshotFromBytes(snapshot_bytes)
              .ok();
        },
        setup_tracer, "persist.snapshot_load");
    const double plan_load_us = MedianLoadUs(
        [&] {
          lll::xq::QueryCache scratch(256);
          return lll::persist::LoadPlanCacheFromBytes(plan_bytes, &scratch)
              .ok();
        },
        setup_tracer, "persist.plan_load");

    std::map<std::string, SpanStats> spans = SummarizeSpans(report.tracers);
    auto p50 = [&spans](const char* name) {
      return spans[name].total.PercentileUs(50);
    };
    const uint64_t hits = registry.counter("server.query_cache_hits").value();
    const uint64_t misses =
        registry.counter("server.query_cache_misses").value();
    const lll::xml::DocumentStorageStats storage =
        server->CurrentSnapshot(kDoc)->document().storage_stats();
    report.per_layer = {
        {"server.read_us", p50("server.read")},
        {"server.self_us", traced.self.PercentileUs(50)},
        {"server.publish_us", p50("server.publish")},
        {"server.migrated_per_publish",
         static_cast<double>(server->cache_entries_migrated() -
                             migrated_before) /
             publishes},
        {"xquery.compile_us", p50("xquery.compile")},
        {"xquery.plan_lookup_us", p50("xquery.plan_lookup")},
        {"xquery.plan_cache_hit_ratio", Ratio(hits, hits + misses)},
        {"xquery.nodes_pulled_per_read",
         Ratio(traced.pulled, traced.reads.count())},
        {"xquery.nodeset_hit_ratio",
         Ratio(traced.ns_hits, traced.ns_hits + traced.ns_misses)},
        {"xquery.nodeset_invalidations_per_publish.partial",
         static_cast<double>(traced.ns_partial) / publishes},
        {"xquery.nodeset_invalidations_per_publish.full",
         static_cast<double>(traced.ns_inval - traced.ns_partial) / publishes},
        {"xquery.update_compile_us", p50("xquery.update_compile")},
        {"xquery.update_apply_us", p50("xquery.update_apply")},
        {"xml.clone_us", p50("xml.clone")},
        {"xml.serialize_us", p50("xml.serialize")},
        {"persist.snapshot_load_us", snapshot_load_us},
        {"persist.plan_load_us", plan_load_us},
        {"xml.doc_nodes", static_cast<double>(storage.node_count)},
        {"xml.doc_bytes", static_cast<double>(storage.total_bytes)},
        {"trace.overhead_pct",
         OverheadPct(run.reads.PercentileUs(50),
                     traced.reads.PercentileUs(50))},
    };
    for (int shape = 0; shape < kShapes; ++shape) {
      report.per_layer[std::string("xquery.execute_us.") + kShapeName[shape]] =
          p50(kExecuteSpan[shape]);
    }
    report.registry_json = server->MetricsJson();
  }

  AddEndToEnd(&report, Median(setup_s), ops_per_s,
              run.reads.PercentileUs(50), run.updates.PercentileUs(50));
  report.detail.insert(report.detail.begin() + 2,
                       DetailLine("peak_rss_mb", PeakRssMb(), "MB"));
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace perfbench
