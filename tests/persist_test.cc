// The persistence subsystem's proof obligations:
//
//   1. Roundtrip fidelity -- a plan loaded from a *.lllp artifact and a
//      document loaded from a *.llld snapshot are byte-identical to their
//      fresh-built counterparts, under EXPLAIN and under the seeded
//      495-query differential workload.
//   2. Hostile input -- truncations at every length, every single-byte flip,
//      stale format versions, crafted plan keys and crafted out-of-range
//      images all fail with kInvalidArgument and never half-warm a cache or
//      build a broken tree.
//   3. Observability -- EXPLAIN distinguishes compiled / memory-cache /
//      disk-cache provenance, and the persist.* counters record every store,
//      load, version mismatch, and failure.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "gtest/gtest.h"
#include "obs/explain.h"
#include "persist/doc_snapshot.h"
#include "persist/format.h"
#include "persist/plan_serde.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"
#include "xquery/query_cache.h"

namespace lll {
namespace {

namespace fs = std::filesystem;

// A scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    dir_ = fs::path(::testing::TempDir()) /
           ("lll_persist_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() { fs::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string str() const { return dir_.string(); }

 private:
  fs::path dir_;
};

std::string EvalCompiled(const xq::CompiledQuery& query, xml::Node* context,
                         xq::NodeSetCache* nodesets = nullptr) {
  xq::ExecuteOptions opts;
  opts.context_node = context;
  opts.eval.nodeset_cache = nodesets;
  auto result = xq::Execute(query, opts);
  if (!result.ok()) return "<ERROR: " + result.status().ToString() + ">";
  return result->SerializedItems();
}

std::string EvalOn(const std::string& query, xml::Node* context) {
  auto compiled = xq::Compile(query);
  if (!compiled.ok()) {
    return "<COMPILE ERROR: " + compiled.status().ToString() + ">";
  }
  return EvalCompiled(*compiled, context);
}

// --- The shared container format -------------------------------------------

persist::ArtifactWriter TwoSectionArtifact() {
  persist::ArtifactWriter w(persist::kPlanCacheArtifact);
  w.AddSection(7, "payload seven");
  w.AddSection(9, std::string("\x00\x01\x02zzz", 6));
  return w;
}

TEST(PersistFormat, RoundtripsSectionsThroughBytesAndFile) {
  auto artifact = persist::Artifact::FromBytes(TwoSectionArtifact().Finish(),
                                               persist::kPlanCacheArtifact);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact->Section(7), "payload seven");
  EXPECT_EQ(artifact->Section(9), std::string("\x00\x01\x02zzz", 6));
  EXPECT_FALSE(artifact->Section(8).has_value());

  ScratchDir dir;
  const std::string path = dir.path("two.lllp");
  ASSERT_TRUE(TwoSectionArtifact().WriteFile(path).ok());
  auto loaded =
      persist::Artifact::FromFile(path, persist::kPlanCacheArtifact);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Section(7), "payload seven");
  EXPECT_EQ(loaded->Section(9), std::string("\x00\x01\x02zzz", 6));
  // The .tmp staging file was renamed away, not left behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(PersistFormat, RejectsWrongMagicKindAndTrailingGarbage) {
  const std::string image = TwoSectionArtifact().Finish();

  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_EQ(persist::Artifact::FromBytes(bad_magic,
                                         persist::kPlanCacheArtifact)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Right container, wrong artifact kind: a *.lllp handed to the snapshot
  // loader must be rejected, not misinterpreted.
  EXPECT_EQ(persist::Artifact::FromBytes(image,
                                         persist::kDocSnapshotArtifact)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(persist::Artifact::FromBytes(image + "garbage",
                                         persist::kPlanCacheArtifact)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(
      persist::Artifact::FromFile(
          "/nonexistent/absent.lllp", persist::kPlanCacheArtifact)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(PersistFormat, DistinguishesVersionMismatchFromCorruption) {
  std::string image = TwoSectionArtifact().Finish();
  // The format version lives at offset 4 and is NOT checksummed (the
  // checksum covers post-header bytes only), so bumping it simulates an
  // artifact from a future format generation exactly.
  image[4] = static_cast<char>(persist::kFormatVersion + 1);
  persist::ArtifactLoadInfo info;
  auto artifact = persist::Artifact::FromBytes(
      image, persist::kPlanCacheArtifact, &info);
  EXPECT_EQ(artifact.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(info.version_mismatch);

  std::string corrupt = TwoSectionArtifact().Finish();
  corrupt[corrupt.size() - 1] ^= 0x40;
  persist::ArtifactLoadInfo corrupt_info;
  auto rejected = persist::Artifact::FromBytes(
      corrupt, persist::kPlanCacheArtifact, &corrupt_info);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(corrupt_info.version_mismatch);
}

TEST(PersistFormat, TruncationBatteryEveryPrefixRejected) {
  const std::string image = TwoSectionArtifact().Finish();
  for (size_t len = 0; len < image.size(); ++len) {
    auto artifact = persist::Artifact::FromBytes(
        image.substr(0, len), persist::kPlanCacheArtifact);
    ASSERT_FALSE(artifact.ok()) << "truncation to " << len << " bytes loaded";
    ASSERT_EQ(artifact.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PersistFormat, ByteFlipBatteryEveryFlipRejected) {
  const std::string image = TwoSectionArtifact().Finish();
  for (size_t i = 0; i < image.size(); ++i) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string flipped = image;
      flipped[i] ^= static_cast<char>(bit);
      auto artifact = persist::Artifact::FromBytes(
          flipped, persist::kPlanCacheArtifact);
      ASSERT_FALSE(artifact.ok())
          << "flip of bit " << int{bit} << " at byte " << i << " loaded";
      ASSERT_EQ(artifact.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// --- Plan artifacts ---------------------------------------------------------

// Feature coverage beyond the random path workload: FLWOR with order by,
// user functions with type annotations, quantifiers, constructors,
// conditionals, and the optimizer pathologies (dead lets, swallowed traces)
// whose rewrite notes a loaded plan's EXPLAIN must show again.
const char* kFeatureQueries[] = {
    "1 + 2 * 3",
    "for $x in //a where $x/@k return count($x/b)",
    "for $x at $p in //b order by $x/@k descending return $p",
    "let $dead := trace(\"gone\", 1) let $v := 2 + 3 return $v",
    "declare function local:inc($n as xs:integer) { $n + 1 }; local:inc(41)",
    "some $x in //a satisfies $x/@k = \"1\"",
    "if (exists(//c)) then <hit n=\"{count(//c)}\">yes</hit> else ()",
    "subsequence(//a/b, 1, 2)",
    "(//a/ancestor::*)[1]",
    "string-join(for $s in (\"x\",\"y\") return $s, \"-\")",
    "for $v in (\"1\", \"2\") return //a[@k = $v][$v = @j][1]",
    // Literal keys in both operand orders fold into the intern key.
    "count(/r/a[@k = \"1\"][\"2\" = @j]/b)",
    "declare function local:f($a) { $a }; "
    "declare function local:f($a, $b as xs:integer) as xs:integer { $b }; "
    "local:f(local:f(1), 2)",
    "let $n := count(//a) let $n := $n * 2 return "
    "some $n in ($n, 1) satisfies $n = 1",
    // A memoizable recursive walk, called from a predicate.
    "declare function local:up($k, $top) { "
    "  if ($k eq $top) then true() else "
    "  let $a := //a[@k = $k] return "
    "  if (empty($a/@j)) then false() else local:up(string($a/@j), $top) }; "
    "//a[local:up(string(@k), \"1\")]",
};

// Every name binding of the plan in traversal order (BindNames): each
// call's target -- a user declaration by index, a builtin by its entry --
// each variable reference's scope and slot, each binding's slot, and the
// frame sizes. Two plans of one process bound alike print alike.
void AppendBindings(const xq::Module& m, const xq::Expr& e, std::string* out) {
  if (e.kind == xq::ExprKind::kFunctionCall) {
    if (e.decl != nullptr) {
      *out += "u" + std::to_string(e.decl - m.functions.data());
    } else if (e.builtin != nullptr) {
      *out += "b" + e.builtin->name + "@" +
              std::to_string(reinterpret_cast<uintptr_t>(e.builtin));
    } else {
      *out += "?";
    }
  } else if (e.kind == xq::ExprKind::kVarRef) {
    *out += "v" + std::to_string(static_cast<int>(e.scope)) + ":" +
            std::to_string(e.slot);
  } else if (e.kind == xq::ExprKind::kQuantified ||
             e.kind == xq::ExprKind::kTryCatch) {
    *out += "s" + std::to_string(e.slot);
  }
  out->push_back(' ');
  for (const xq::PathStep& s : e.steps) {
    for (const xq::ExprPtr& p : s.predicates) AppendBindings(m, *p, out);
  }
  for (const xq::ExprPtr& c : e.children) AppendBindings(m, *c, out);
  for (const xq::FlworClause& c : e.clauses) {
    *out += "s" + std::to_string(c.slot) + " ";
    AppendBindings(m, *c.expr, out);
  }
  for (const xq::OrderSpec& o : e.order_by) AppendBindings(m, *o.key, out);
  for (const xq::DirectAttribute& a : e.attributes) {
    for (const xq::ExprPtr& p : a.value_parts) AppendBindings(m, *p, out);
  }
}

std::string Bindings(const xq::Module& m) {
  std::string out;
  for (const xq::FunctionDecl& f : m.functions) {
    out += "F" + std::to_string(f.frame_size) + " ";
    AppendBindings(m, *f.body, &out);
  }
  for (const xq::VariableDecl& v : m.variables) {
    AppendBindings(m, *v.expr, &out);
  }
  out += "M" + std::to_string(m.frame_size) + " ";
  AppendBindings(m, *m.body, &out);
  return out;
}

// Calls `fn` on every path expression of `e`, in traversal order.
void ForEachPath(const xq::Expr& e,
                 const std::function<void(const xq::Expr&)>& fn) {
  if (e.kind == xq::ExprKind::kPath) fn(e);
  for (const xq::PathStep& s : e.steps) {
    for (const xq::ExprPtr& p : s.predicates) ForEachPath(*p, fn);
  }
  for (const xq::ExprPtr& c : e.children) ForEachPath(*c, fn);
  for (const xq::FlworClause& c : e.clauses) ForEachPath(*c.expr, fn);
  for (const xq::OrderSpec& o : e.order_by) ForEachPath(*o.key, fn);
  for (const xq::DirectAttribute& a : e.attributes) {
    for (const xq::ExprPtr& p : a.value_parts) ForEachPath(*p, fn);
  }
}

void ForEachPath(const xq::Module& m,
                 const std::function<void(const xq::Expr&)>& fn) {
  for (const xq::FunctionDecl& f : m.functions) ForEachPath(*f.body, fn);
  for (const xq::VariableDecl& v : m.variables) ForEachPath(*v.expr, fn);
  ForEachPath(*m.body, fn);
}

// Every path step's derived facts in traversal order, one two-character
// group per step: position_free, streamable.
std::string StepFacts(const xq::Module& m) {
  std::string out;
  ForEachPath(m, [&out](const xq::Expr& path) {
    for (const xq::PathStep& s : path.steps) {
      out.push_back(s.position_free ? '1' : '0');
      out.push_back(s.streamable ? '1' : '0');
      out.push_back(' ');
    }
  });
  return out;
}

// Every path's derived Expr::limit_hint in traversal order, one number per
// path.
std::string LimitHints(const xq::Module& m) {
  std::string out;
  ForEachPath(m, [&out](const xq::Expr& path) {
    out += std::to_string(path.limit_hint) + " ";
  });
  return out;
}

// True if some path of `hints` (LimitHints) carries a hint.
bool AnyLimitHint(const std::string& hints) {
  return hints.find_first_not_of("0 ") != std::string::npos;
}

// Every declaration's derived FunctionDecl::memoizable, in order.
std::string Memoizable(const xq::Module& m) {
  std::string out;
  for (const xq::FunctionDecl& f : m.functions) {
    out.push_back(f.memoizable ? '1' : '0');
  }
  return out;
}

// Every path's derived intern facts in traversal order, one line per path:
// Expr::intern's steps, key and probe_chain_key ("0  " when it interns
// nothing).
std::string InternFacts(const xq::Module& m) {
  std::string out;
  ForEachPath(m, [&out](const xq::Expr& path) {
    const xq::InternFacts none;
    const xq::InternFacts& facts =
        path.intern != nullptr ? *path.intern : none;
    out += std::to_string(facts.steps) + " " + facts.key + " " +
           facts.probe_chain_key + "\n";
  });
  return out;
}

// True if some path of `facts` (InternFacts) has a probe chain key: a line
// without one ends with a space.
bool AnyProbeChain(const std::string& facts) {
  for (size_t at = facts.find('\n'); at != std::string::npos;
       at = facts.find('\n', at + 1)) {
    if (at > 0 && facts[at - 1] != ' ') return true;
  }
  return false;
}

// True if some path of `facts` (InternFacts) probe-extends its chain with
// an index: its probe chain key ends with the probed attribute, `/@name`.
// No intern key holds a predicate or a literal.
bool AnyIndexedProbe(const std::string& facts) {
  return facts.find("/@") != std::string::npos &&
         facts.find('[') == std::string::npos;
}

TEST(PersistPlans, RoundtripPreservesExplainExactly) {
  xq::QueryCache fresh(64);
  for (const char* q : kFeatureQueries) {
    ASSERT_TRUE(fresh.GetOrCompile(q).ok()) << q;
  }
  xq::QueryCache loaded(64);
  auto count = persist::LoadPlanCacheFromBytes(
      persist::SerializePlanCache(fresh), &loaded);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, std::size(kFeatureQueries));
  EXPECT_TRUE(loaded.warmed());

  size_t indexed = 0;  // queries with a chain probe-extended with an index
  size_t memoizable = 0;  // queries with a memoizable declaration
  size_t limited = 0;     // queries with a path that carries a limit hint
  for (const char* q : kFeatureQueries) {
    auto a = fresh.GetOrCompile(q);
    auto b = loaded.GetOrCompile(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ((*b)->origin(), xq::PlanOrigin::kDiskCache) << q;
    // Identical plan trees, rewrite notes, and summary stats: EXPLAIN is the
    // full rendered fingerprint of everything the optimizer decided.
    EXPECT_EQ(obs::Explain(**a), obs::Explain(**b)) << q;
    // Loading binds every name again, exactly as the fresh compile did, and
    // derives the same intern facts for every path.
    EXPECT_EQ(Bindings((*b)->module()), Bindings((*a)->module())) << q;
    const std::string interned = InternFacts((*a)->module());
    EXPECT_EQ(InternFacts((*b)->module()), interned) << q;
    indexed += AnyIndexedProbe(interned);
    // Every declaration is judged memoizable again, as the fresh compile
    // judged it.
    const std::string memo = Memoizable((*a)->module());
    EXPECT_EQ(Memoizable((*b)->module()), memo) << q;
    memoizable += memo.find('1') != std::string::npos;
    // And every path gets the limit hint the fresh compile derived.
    const std::string hints = LimitHints((*a)->module());
    EXPECT_EQ(LimitHints((*b)->module()), hints) << q;
    limited += AnyLimitHint(hints);
  }
  EXPECT_GT(indexed, 0u);
  EXPECT_GT(memoizable, 0u);
  EXPECT_GT(limited, 0u);
}

TEST(PersistPlans, LoadedPlansStillCheckParameterTypes) {
  const char* q =
      "declare function local:inc($n as xs:integer) { $n + 1 }; "
      "local:inc(\"x\")";
  xq::QueryCache fresh(4);
  ASSERT_TRUE(fresh.GetOrCompile(q).ok());
  xq::QueryCache loaded(4);
  ASSERT_TRUE(persist::LoadPlanCacheFromBytes(
                  persist::SerializePlanCache(fresh), &loaded)
                  .ok());
  auto a = fresh.GetOrCompile(q);
  auto b = loaded.GetOrCompile(q);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ((*b)->origin(), xq::PlanOrigin::kDiskCache);
  auto fresh_result = xq::Execute(**a);
  auto loaded_result = xq::Execute(**b);
  ASSERT_FALSE(loaded_result.ok());
  EXPECT_NE(loaded_result.status().ToString().find("in call to local:inc()"),
            std::string::npos)
      << loaded_result.status().ToString();
  EXPECT_EQ(loaded_result.status().ToString(),
            fresh_result.status().ToString());
}

TEST(PersistPlans, ProbeMarksAreDerivedNotStored) {
  // Probe marks and their notes never reach the artifact: loading compiles
  // the query text again, so the loaded plan still renders them.
  const char* q = "for $v in (\"1\", \"2\") return //a[@k = $v]";
  xq::QueryCache fresh(4);
  ASSERT_TRUE(fresh.GetOrCompile(q).ok());
  std::string bytes = persist::SerializePlanCache(fresh);
  EXPECT_EQ(bytes.find("hash index"), std::string::npos);
  xq::QueryCache loaded(4);
  ASSERT_TRUE(persist::LoadPlanCacheFromBytes(bytes, &loaded).ok());
  auto a = fresh.GetOrCompile(q);
  auto b = loaded.GetOrCompile(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*b)->origin(), xq::PlanOrigin::kDiskCache);
  std::string explained = obs::Explain(**b);
  EXPECT_NE(explained.find("[probe @k]"), std::string::npos) << explained;
  EXPECT_NE(explained.find("probe_predicates: 1"), std::string::npos);
  EXPECT_EQ(obs::Explain(**a), explained);
  // The `//a` fusion, its note and count (inside the EXPLAIN above) and the
  // position-free bit it rests on are all derived again.
  EXPECT_NE(explained.find("descendant-fused"), std::string::npos);
  const xq::Expr& path = *(*b)->module().body->children[0];
  ASSERT_EQ(path.steps.size(), 1u);
  EXPECT_EQ(path.steps[0].axis, xq::Axis::kDescendant);
  EXPECT_TRUE(path.steps[0].position_free);
}

TEST(PersistPlans, ProvenanceIsTriState) {
  EXPECT_STREQ(xq::CacheProvenanceName(xq::CacheProvenance::kCompiled),
               "compiled");
  EXPECT_STREQ(xq::CacheProvenanceName(xq::CacheProvenance::kMemoryCache),
               "memory-cache");
  EXPECT_STREQ(xq::CacheProvenanceName(xq::CacheProvenance::kDiskCache),
               "disk-cache");

  xq::QueryCache cache(8);
  xq::CacheProvenance prov = xq::CacheProvenance::kDiskCache;
  ASSERT_TRUE(cache.GetOrCompile("1+1", {}, nullptr, &prov).ok());
  EXPECT_EQ(prov, xq::CacheProvenance::kCompiled);
  ASSERT_TRUE(cache.GetOrCompile("1+1", {}, nullptr, &prov).ok());
  EXPECT_EQ(prov, xq::CacheProvenance::kMemoryCache);

  xq::QueryCache warm(8);
  ASSERT_TRUE(persist::LoadPlanCacheFromBytes(
                  persist::SerializePlanCache(cache), &warm)
                  .ok());
  ASSERT_TRUE(warm.GetOrCompile("1+1", {}, nullptr, &prov).ok());
  EXPECT_EQ(prov, xq::CacheProvenance::kDiskCache);
  // A query the artifact did not cover compiles fresh even in a warm cache.
  ASSERT_TRUE(warm.GetOrCompile("2+2", {}, nullptr, &prov).ok());
  EXPECT_EQ(prov, xq::CacheProvenance::kCompiled);
}

// A plan-cache artifact holding `keys` as given, under `count` (default:
// the number of keys) -- the payload SerializePlanCache writes.
std::string KeyArtifact(const std::vector<std::string>& keys,
                        std::optional<uint32_t> count = std::nullopt) {
  persist::ByteWriter payload;
  payload.U32(count.value_or(static_cast<uint32_t>(keys.size())));
  for (const std::string& key : keys) payload.Str(key);
  persist::ArtifactWriter writer(persist::kPlanCacheArtifact);
  writer.AddSection(1, payload.TakeBytes());
  return writer.Finish();
}

TEST(PersistPlans, CorruptArtifactsNeverHalfWarmTheCache) {
  xq::QueryCache source(64);
  for (const char* q : kFeatureQueries) {
    ASSERT_TRUE(source.GetOrCompile(q).ok());
  }
  const std::string image = persist::SerializePlanCache(source);

  xq::QueryCache target(64);
  for (size_t len = 0; len < image.size();
       len += (len < 64 ? 1 : 37)) {  // every early cut, then sampled
    auto count =
        persist::LoadPlanCacheFromBytes(image.substr(0, len), &target);
    ASSERT_FALSE(count.ok()) << "truncation to " << len << " bytes loaded";
    ASSERT_EQ(count.status().code(), StatusCode::kInvalidArgument);
    ASSERT_EQ(target.size(), 0u) << "truncation to " << len << " half-warmed";
    ASSERT_FALSE(target.warmed());
  }

  // A checksum-valid artifact whose second key does not compile. Loading
  // compiles every key before inserting any, so the first must NOT appear.
  auto count = persist::LoadPlanCacheFromBytes(
      KeyArtifact({xq::QueryCache::MakeKey("1+1", {}),
                   xq::QueryCache::MakeKey("1 +", {})}),
      &target);
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(target.size(), 0u);
  EXPECT_FALSE(target.warmed());
}

TEST(PersistPlans, CraftedKeysAreRejected) {
  // Checksum-valid artifacts whose keys no MakeKey produced: each fails as
  // a whole, counts one load failure and leaves the cache cold.
  const std::string past_cap = "11|" + std::string(xq::kMaxExprNesting, '(') +
                               "1" + std::string(xq::kMaxExprNesting, ')');
  const std::string at_cap = "11|" +
                             std::string(xq::kMaxExprNesting - 1, '(') + "1" +
                             std::string(xq::kMaxExprNesting - 1, ')');
  const std::string good = xq::QueryCache::MakeKey("1+1", {});
  xq::QueryCache saved(8);
  ASSERT_TRUE(saved.GetOrCompile("1+1").ok());
  ASSERT_EQ(KeyArtifact({good}), persist::SerializePlanCache(saved));
  struct Crafted {
    const char* what;
    std::string image;
  };
  const Crafted cases[] = {
      {"option bit 2", KeyArtifact({good, "21|1+1"})},
      {"option bit x", KeyArtifact({"1x|1+1"})},
      {"one option bit", KeyArtifact({"1|1+1"})},
      {"no '|'", KeyArtifact({"111+1"})},
      {"unparsable text", KeyArtifact({"11|for $x in"})},
      {"nesting one past the cap", KeyArtifact({at_cap, past_cap})},
      {"a count past the payload", KeyArtifact({good}, 1000)},
  };
  for (const Crafted& c : cases) {
    MetricsRegistry metrics;
    xq::QueryCache cache(8);
    auto count = persist::LoadPlanCacheFromBytes(c.image, &cache, &metrics);
    EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_EQ(metrics.counter("persist.plan.load_failures").value(), 1u)
        << c.what;
    EXPECT_EQ(metrics.counter("persist.plan.loads").value(), 0u) << c.what;
    EXPECT_EQ(cache.size(), 0u) << c.what;
    EXPECT_FALSE(cache.warmed()) << c.what;
  }
  // The key exactly at the cap is one the parser accepts.
  xq::QueryCache cache(8);
  auto count = persist::LoadPlanCacheFromBytes(KeyArtifact({at_cap}), &cache);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 1u);
}

TEST(PersistPlans, KeysLoadWithTheOptionsTheyRecord) {
  // A dead let around a trace call and a dead pure let: each option set
  // compiles it to a different plan, so EXPLAIN tells them apart.
  const char* q =
      "let $dead := trace(\"gone\", 1) let $pure := 2 + 3 let $v := 4 "
      "return $v";
  xq::CompileOptions plain;
  plain.optimize = false;
  xq::CompileOptions traced;
  traced.optimizer.recognize_trace = true;
  xq::QueryCache source(8);
  for (const xq::CompileOptions& o : {xq::CompileOptions{}, plain, traced}) {
    ASSERT_TRUE(source.GetOrCompile(q, o).ok());
  }
  xq::QueryCache loaded(8);
  auto count = persist::LoadPlanCacheFromBytes(
      persist::SerializePlanCache(source), &loaded);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 3u);
  std::vector<std::string> explained;
  for (const xq::CompileOptions& o : {xq::CompileOptions{}, plain, traced}) {
    xq::CacheProvenance prov = xq::CacheProvenance::kCompiled;
    auto b = loaded.GetOrCompile(q, o, nullptr, &prov);
    auto fresh = xq::Compile(q, o);
    ASSERT_TRUE(b.ok() && fresh.ok());
    EXPECT_EQ(prov, xq::CacheProvenance::kDiskCache);
    explained.push_back(obs::Explain(**b));
    EXPECT_EQ(explained.back(), obs::Explain(*fresh));
  }
  EXPECT_NE(explained[0], explained[1]);
  EXPECT_NE(explained[0], explained[2]);
  EXPECT_NE(explained[1], explained[2]);
}

TEST(PersistPlans, MetricsCountStoresLoadsMismatchesAndFailures) {
  ScratchDir dir;
  MetricsRegistry metrics;
  xq::QueryCache cache(8);
  ASSERT_TRUE(cache.GetOrCompile("1+1").ok());
  ASSERT_TRUE(cache.GetOrCompile("2+2").ok());
  const std::string path = dir.path("plans.lllp");
  ASSERT_TRUE(persist::SavePlanCache(cache, path, &metrics).ok());
  EXPECT_EQ(metrics.counter("persist.plan.stores").value(), 2u);

  xq::QueryCache warm(8);
  auto count = persist::LoadPlanCache(path, &warm, &metrics);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(metrics.counter("persist.plan.loads").value(), 2u);

  std::string stale = persist::SerializePlanCache(cache);
  stale[4] = static_cast<char>(persist::kFormatVersion + 1);
  EXPECT_FALSE(persist::LoadPlanCacheFromBytes(stale, &warm, &metrics).ok());
  EXPECT_EQ(metrics.counter("persist.plan.version_mismatch").value(), 1u);
  // Version 4 stored serialized ASTs; its artifacts are a clean mismatch.
  std::string v4 = persist::SerializePlanCache(cache);
  v4[4] = 4;
  xq::QueryCache cold(8);
  EXPECT_FALSE(persist::LoadPlanCacheFromBytes(v4, &cold, &metrics).ok());
  EXPECT_EQ(metrics.counter("persist.plan.version_mismatch").value(), 2u);
  EXPECT_FALSE(cold.warmed());

  std::string corrupt = persist::SerializePlanCache(cache);
  corrupt[corrupt.size() - 3] ^= 0x10;
  EXPECT_FALSE(
      persist::LoadPlanCacheFromBytes(corrupt, &warm, &metrics).ok());
  EXPECT_EQ(metrics.counter("persist.plan.load_failures").value(), 1u);
}

// --- Document snapshots -----------------------------------------------------

constexpr char kSnapshotXml[] =
    "<shop note=\"&lt;&amp;&gt;\"><item id=\"1\" cur=\"usd\">lens<!--c-->"
    "</item><item id=\"2\">prism<sub/>tail</item>"
    "<?target data?><empty/></shop>";

TEST(PersistSnapshots, RoundtripIsByteIdentical) {
  auto doc = xml::Parse(kSnapshotXml);
  ASSERT_TRUE(doc.ok());
  const std::string image =
      persist::SerializeDocumentSnapshot(**doc, "shop-doc");
  auto loaded = persist::LoadDocumentSnapshotFromBytes(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->doc_name, "shop-doc");
  EXPECT_EQ(xml::Serialize(loaded->document->root()),
            xml::Serialize((*doc)->root()));
  // The loaded arena re-serializes to the exact same artifact bytes: the
  // storage image is a fixed point, not merely equivalent.
  EXPECT_EQ(persist::SerializeDocumentSnapshot(*loaded->document, "shop-doc"),
            image);
  // Queries see identical structure, including attributes and node order.
  for (const char* q :
       {"string-join(//item/@id, \",\")", "count(//node())",
        "//item[@id=\"2\"]/sub/following-sibling::text()"}) {
    const std::string got = EvalOn(q, loaded->document->root());
    EXPECT_EQ(got.find("ERROR"), std::string::npos) << q << ": " << got;
    EXPECT_EQ(got, EvalOn(q, (*doc)->root())) << q;
  }
}

TEST(PersistSnapshots, WarmBootEditInvalidatesOnlyTheEditedSubtree) {
  // Warm boot: a *.llld-loaded document starts with every name version at
  // 0, so its step chains intern immediately; a subsequent edit
  // invalidates exactly the entries whose chains test a name it touched,
  // everything else keeps hitting. The m1 and m2 chains share one entry,
  // the models with their @id index: an edit inside a model keeps it, and
  // an edit to a model's @id or to the models' child list invalidates it
  // as a partial invalidation.
  constexpr char kModels[] =
      "<library><models>"
      "<model id=\"m1\"><parts><part/><part/></parts></model>"
      "<model id=\"m2\"><parts><part/></parts></model>"
      "</models></library>";
  auto fresh = xml::Parse(kModels, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(fresh.ok());
  const std::string image =
      persist::SerializeDocumentSnapshot(**fresh, "models");
  auto loaded = persist::LoadDocumentSnapshotFromBytes(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  xml::Document* doc = loaded->document.get();

  xq::NodeSetCache cache;
  xq::ExecuteOptions opts;
  opts.context_node = doc->root();
  opts.eval.nodeset_cache = &cache;
  auto m1 = xq::Compile("/library/models/model[@id = \"m1\"]/parts/part");
  auto m2 = xq::Compile("/library/models/model[@id = \"m2\"]/parts/part");
  ASSERT_TRUE(m1.ok() && m2.ok());

  // Cold then warm on the freshly loaded arena: interning works from the
  // first post-boot query, no edit required to "prime" versions.
  auto cold1 = xq::Execute(*m1, opts);
  auto cold2 = xq::Execute(*m2, opts);
  ASSERT_TRUE(cold1.ok() && cold2.ok());
  EXPECT_GT(cold2->stats.nodeset_cache_hits, 0u);
  auto warm1 = xq::Execute(*m1, opts);
  ASSERT_TRUE(warm1.ok());
  EXPECT_GT(warm1->stats.nodeset_cache_hits, 0u);

  // Edit m2's subtree, then re-run both chains: both still hit with zero
  // invalidations, and m2 returns the post-edit answer.
  xml::Node* models = doc->DocumentElement()->children()[0];
  xml::Node* m2_model = models->children()[1];
  ASSERT_TRUE(
      m2_model->children()[0]->AppendChild(doc->CreateElement("part")).ok());

  auto after1 = xq::Execute(*m1, opts);
  ASSERT_TRUE(after1.ok());
  EXPECT_GT(after1->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(after1->stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(after1->SerializedItems(), cold1->SerializedItems());

  auto after2 = xq::Execute(*m2, opts);
  ASSERT_TRUE(after2.ok());
  EXPECT_GT(after2->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(after2->stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(after2->sequence.size(), 2u);

  // Edit m2's indexed attribute: the entry re-misses as a partial
  // invalidation, and m2 finds no model.
  m2_model->SetAttribute("id", "m9");
  auto renamed = xq::Execute(*m2, opts);
  ASSERT_TRUE(renamed.ok());
  EXPECT_GT(renamed->stats.nodeset_cache_invalidations, 0u);
  EXPECT_GT(renamed->stats.nodeset_cache_partial_invalidations, 0u);
  EXPECT_EQ(renamed->sequence.size(), 0u);

  // Edit the models' child list: the same, and m2 finds the new model.
  xml::Node* added = doc->CreateElement("model");
  added->SetAttribute("id", "m2");
  ASSERT_TRUE(models->AppendChild(added).ok());
  xml::Node* parts = doc->CreateElement("parts");
  ASSERT_TRUE(added->AppendChild(parts).ok());
  ASSERT_TRUE(parts->AppendChild(doc->CreateElement("part")).ok());
  auto appended = xq::Execute(*m2, opts);
  ASSERT_TRUE(appended.ok());
  EXPECT_GT(appended->stats.nodeset_cache_invalidations, 0u);
  EXPECT_GT(appended->stats.nodeset_cache_partial_invalidations, 0u);
  EXPECT_EQ(appended->sequence.size(), 1u);
}

TEST(PersistSnapshots, MutatedDocumentExportsThroughTheClonePath) {
  auto doc = xml::Parse(kSnapshotXml);
  ASSERT_TRUE(doc.ok());
  // Detached debris + out-of-order attachment: ExportDocumentStorage must
  // renumber through CloneDocument instead of dumping the arena raw.
  (void)(*doc)->CreateElement("debris");
  xml::Node* extra = (*doc)->CreateElement("extra");
  extra->SetAttribute("k", "v");
  ASSERT_TRUE((*doc)->DocumentElement()->AppendChild(extra).ok());

  auto loaded = persist::LoadDocumentSnapshotFromBytes(
      persist::SerializeDocumentSnapshot(**doc, "mutated"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The loader wrote the order keys; check them before anything restamps.
  testing::ExpectBuilderOrderKeysMatchStructure(*loaded->document);
  EXPECT_EQ(xml::Serialize(loaded->document->root()),
            xml::Serialize((*doc)->root()));
}

xml::DocumentStorageImage MinimalImage() {
  // <r>t</r>: document(0) -> element r(1) -> text(2).
  xml::DocumentStorageImage img;
  img.kind = {0, 1, 3};  // kDocument, kElement, kText
  img.names = {"", "r"};
  img.name = {0, 1, 0};
  img.value_len = {0, 0, 1};
  img.values = "t";
  img.child_count = {1, 1, 0};
  img.children = {1, 2};
  img.attr_count = {0, 0, 0};
  img.attrs = {};
  return img;
}

TEST(PersistSnapshots, CraftedImagesAreRejectedNotTrusted) {
  ASSERT_TRUE(xml::DocumentFromStorage(MinimalImage()).ok());

  auto expect_invalid = [](xml::DocumentStorageImage img, const char* what) {
    auto doc = xml::DocumentFromStorage(img);
    EXPECT_FALSE(doc.ok()) << "accepted image with " << what;
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << what;
    }
  };

  {
    xml::DocumentStorageImage img = MinimalImage();
    img.name[1] = 9;
    expect_invalid(std::move(img), "out-of-range name id");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.children[1] = 7;
    expect_invalid(std::move(img), "out-of-range child index");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.children = {1, 1};  // node 1 adopted twice -> not a tree
    expect_invalid(std::move(img), "a shared child");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.children = {2, 1};  // visits out of index order -> cycle-ish layout
    expect_invalid(std::move(img), "non-preorder children");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.child_count = {1, 0, 0};
    img.children = {1};  // node 2 exists but is unreachable
    expect_invalid(std::move(img), "an unreachable node");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.kind[2] = 77;
    expect_invalid(std::move(img), "an invalid node kind");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.kind[1] = 0;  // a second document node
    expect_invalid(std::move(img), "a non-root document node");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.kind[0] = 1;
    expect_invalid(std::move(img), "a non-document root");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.child_count[2] = 1;  // text node claiming a child
    img.children = {1, 2, 2};
    expect_invalid(std::move(img), "a leaf with children");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.attr_count[2] = 1;  // text node claiming an attribute
    img.attrs = {1};
    expect_invalid(std::move(img), "attributes on a non-element");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.value_len[2] = 5;  // lengths no longer sum to values.size()
    expect_invalid(std::move(img), "a value-length mismatch");
  }
  {
    xml::DocumentStorageImage img = MinimalImage();
    img.names[0] = "oops";
    expect_invalid(std::move(img), "a nonempty name slot 0");
  }
  {
    expect_invalid(xml::DocumentStorageImage{}, "zero nodes");
  }
}

TEST(PersistSnapshots, HostileArtifactBatteryIsCleanlyRejected) {
  auto doc = xml::Parse(kSnapshotXml);
  ASSERT_TRUE(doc.ok());
  const std::string image = persist::SerializeDocumentSnapshot(**doc, "d");
  MetricsRegistry metrics;

  for (size_t len = 0; len < image.size();
       len += (len < 64 ? 1 : 13)) {
    auto loaded = persist::LoadDocumentSnapshotFromBytes(
        image.substr(0, len), &metrics);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << len << " bytes loaded";
    ASSERT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  for (size_t i = 0; i < image.size(); i += 3) {
    std::string flipped = image;
    flipped[i] ^= 0x20;
    auto loaded =
        persist::LoadDocumentSnapshotFromBytes(flipped, &metrics);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << i << " loaded";
    ASSERT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_GT(metrics.counter("persist.snapshot.load_failures").value(), 0u);

  // The flip loop above already hit a version byte or two; assert the delta.
  const uint64_t mismatches_before =
      metrics.counter("persist.snapshot.version_mismatch").value();
  std::string stale = image;
  stale[4] = static_cast<char>(persist::kFormatVersion + 1);
  EXPECT_FALSE(persist::LoadDocumentSnapshotFromBytes(stale, &metrics).ok());
  EXPECT_EQ(metrics.counter("persist.snapshot.version_mismatch").value(),
            mismatches_before + 1);

  auto ok = persist::LoadDocumentSnapshotFromBytes(image, &metrics);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(metrics.counter("persist.snapshot.loads").value(), 1u);
}

// --- The differential oracle ------------------------------------------------

TEST(PersistDifferential, DiskLoadedStateMatches495QueryWorkloadExactly) {
  // Seeded contract: document first, then queries (test_util.h).
  std::mt19937 rng(0xB10C);
  const std::string xml = testing::RandomPathWorkloadDocument(&rng);
  const std::vector<std::string> queries =
      testing::RandomPathWorkloadQueries(&rng, 440);

  auto fresh_doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  ASSERT_TRUE(fresh_doc.ok());
  xq::QueryCache fresh_cache(1024);
  for (const std::string& q : queries) {
    ASSERT_TRUE(fresh_cache.GetOrCompile(q).ok()) << q;
  }

  // Persist everything, then rebuild the world from bytes alone.
  auto loaded_doc = persist::LoadDocumentSnapshotFromBytes(
      persist::SerializeDocumentSnapshot(**fresh_doc, "workload"));
  ASSERT_TRUE(loaded_doc.ok()) << loaded_doc.status().ToString();
  xq::QueryCache loaded_cache(1024);
  auto count = persist::LoadPlanCacheFromBytes(
      persist::SerializePlanCache(fresh_cache), &loaded_cache);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, fresh_cache.size());

  // Interned node sets (and the probe extension through them) on both
  // sides, one cache per document.
  xq::NodeSetCache fresh_nodesets(1024);
  xq::NodeSetCache loaded_nodesets(1024);
  size_t disk_hits = 0;
  size_t facts_set[3] = {};
  size_t bound_calls = 0;
  size_t bound_vars = 0;
  size_t indexed = 0;
  size_t extended = 0;
  size_t limited = 0;
  for (const std::string& q : queries) {
    auto fresh = fresh_cache.GetOrCompile(q);
    xq::CacheProvenance prov = xq::CacheProvenance::kCompiled;
    auto loaded = loaded_cache.GetOrCompile(q, {}, nullptr, &prov);
    ASSERT_TRUE(fresh.ok() && loaded.ok()) << q;
    if (prov == xq::CacheProvenance::kDiskCache) ++disk_hits;
    ASSERT_EQ(EvalCompiled(**loaded, loaded_doc->document->root(),
                           &loaded_nodesets),
              EvalCompiled(**fresh, (*fresh_doc)->root(), &fresh_nodesets))
        << q;
    ASSERT_EQ(obs::Explain(**loaded), obs::Explain(**fresh)) << q;
    // The step facts and name bindings are never stored; the decoder
    // derives every one of them again, exactly as the fresh compile did.
    const std::string facts = StepFacts((*fresh)->module());
    ASSERT_EQ(StepFacts((*loaded)->module()), facts) << q;
    const std::string bindings = Bindings((*fresh)->module());
    ASSERT_EQ(Bindings((*loaded)->module()), bindings) << q;
    // The intern facts are derived too, and the keys must match byte for
    // byte: they are the node-set cache keys.
    const std::string interned = InternFacts((*fresh)->module());
    ASSERT_EQ(InternFacts((*loaded)->module()), interned) << q;
    ASSERT_EQ(Memoizable((*loaded)->module()), Memoizable((*fresh)->module()))
        << q;
    const std::string hints = LimitHints((*fresh)->module());
    ASSERT_EQ(LimitHints((*loaded)->module()), hints) << q;
    limited += AnyLimitHint(hints);
    indexed += AnyIndexedProbe(interned);
    extended += AnyProbeChain(interned);
    bound_calls += bindings.find(" b") != std::string::npos;
    bound_vars += bindings.find(" v") != std::string::npos;
    for (size_t i = 0; i < facts.size(); ++i) {
      if (facts[i] == '1') ++facts_set[i % 3];
    }
  }
  // Every fact is set somewhere in the workload, so the comparison above
  // is not vacuous.
  for (size_t i = 0; i < 2; ++i) EXPECT_GT(facts_set[i], 0u) << i;
  EXPECT_GT(bound_calls, 0u);
  EXPECT_GT(bound_vars, 0u);
  EXPECT_GT(indexed, 0u);
  EXPECT_GT(extended, 0u);
  EXPECT_GT(limited, 0u);
  // EVERY lookup reports disk-cache: a hit on a disk-loaded plan keeps that
  // provenance even when the hit itself came from the in-memory LRU (the
  // plan never paid compile cost in this process -- that's what the tag
  // means), so duplicate queries in the suite don't dilute it.
  EXPECT_EQ(disk_hits, queries.size());
}

// --- Server warm boot -------------------------------------------------------

TEST(PersistServer, SaveStateThenLoadStateReproducesTheServer) {
  ScratchDir dir;
  MetricsRegistry metrics_a;
  server::ServerOptions options_a;
  options_a.worker_threads = 0;
  options_a.metrics = &metrics_a;
  server::QueryServer a(options_a);
  ASSERT_TRUE(a.AddDocumentXml("shop", kSnapshotXml).ok());
  ASSERT_TRUE(a.AddDocumentXml("tiny", "<t><u>1</u></t>").ok());
  const std::vector<std::string> queries = {
      "count(//item)", "//item[@id=\"1\"]/text()", "//u + 1"};
  for (const std::string& q : queries) {
    ASSERT_TRUE(a.Execute("tenant", "shop", q).status.ok()) << q;
  }
  ASSERT_TRUE(a.SaveState(dir.str()).ok());
  EXPECT_TRUE(fs::exists(dir.path("plans.lllp")));
  EXPECT_EQ(metrics_a.counter("persist.snapshot.stores").value(), 2u);

  MetricsRegistry metrics_b;
  server::ServerOptions options_b;
  options_b.worker_threads = 0;
  options_b.metrics = &metrics_b;
  server::QueryServer b(options_b);
  ASSERT_TRUE(b.LoadState(dir.str()).ok());
  auto names = b.DocumentNames();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_EQ(metrics_b.counter("persist.snapshot.loads").value(), 2u);
  EXPECT_EQ(metrics_b.counter("persist.plan.loads").value(),
            metrics_a.counter("persist.plan.stores").value());

  for (const std::string& q : queries) {
    auto fresh = a.Execute("tenant", "shop", q);
    auto warm = b.Execute("tenant", "shop", q);
    ASSERT_TRUE(warm.status.ok()) << q;
    EXPECT_EQ(warm.result, fresh.result) << q;
  }
  // The warm server answered every query from disk-loaded plans.
  EXPECT_EQ(metrics_b.counter("persist.plan.hits").value(), queries.size());
  EXPECT_EQ(metrics_b.counter("persist.plan.misses").value(), 0u);
  // A query the artifact never saw is a persist miss (warm cache, compiled).
  ASSERT_TRUE(b.Execute("tenant", "tiny", "count(//*)").status.ok());
  EXPECT_EQ(metrics_b.counter("persist.plan.misses").value(), 1u);
}

TEST(PersistServer, LoadStateIntoLiveServerPublishesNewVersions) {
  ScratchDir dir;
  server::ServerOptions options;
  options.worker_threads = 0;
  server::QueryServer saved(options);
  ASSERT_TRUE(saved.AddDocumentXml("shop", kSnapshotXml).ok());
  ASSERT_TRUE(saved.SaveState(dir.str()).ok());

  server::QueryServer live(options);
  ASSERT_TRUE(live.AddDocumentXml("shop", "<old/>").ok());
  ASSERT_TRUE(live.LoadState(dir.str()).ok());
  auto snap = live.CurrentSnapshot("shop");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 2u);  // published over the existing v1
  EXPECT_EQ(live.Execute("t", "shop", "count(//item)").result, "2");
}

TEST(PersistServer, ExplainDistinguishesAllThreeProvenances) {
  ScratchDir dir;
  server::ServerOptions options;
  options.worker_threads = 0;
  server::QueryServer a(options);
  ASSERT_TRUE(a.AddDocumentXml("d", "<d><x/></d>").ok());

  auto first = a.Explain("d", "count(//x)");
  ASSERT_TRUE(first.ok());
  EXPECT_NE(first->find("server plan: compiled"), std::string::npos) << *first;
  auto second = a.Explain("d", "count(//x)");
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->find("server plan: memory-cache"), std::string::npos)
      << *second;

  ASSERT_TRUE(a.SaveState(dir.str()).ok());
  server::QueryServer b(options);
  ASSERT_TRUE(b.LoadState(dir.str()).ok());
  auto warm = b.Explain("d", "count(//x)");
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("server plan: disk-cache"), std::string::npos) << *warm;
}

// The file names in `dir`, sorted.
std::vector<std::string> Listing(const ScratchDir& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir.str())) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(PersistServer, ResavingADirectoryDropsWhatTheServerNoLongerHolds) {
  ScratchDir dir;
  server::ServerOptions options;
  options.worker_threads = 0;
  server::QueryServer a(options);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(a.AddDocumentXml(name, "<d/>").ok());
  }
  ASSERT_TRUE(a.Execute("t", "a", "count(/d)").status.ok());
  ASSERT_TRUE(a.SaveState(dir.str()).ok());
  const std::string plans = FileBytes(dir.path("plans.lllp"));

  server::QueryServer b(options);
  ASSERT_TRUE(b.AddDocumentXml("x", "<d/>").ok());
  ASSERT_TRUE(b.Execute("t", "x", "count(//d)").status.ok());
  // A save that fails partway leaves the earlier save whole: here a
  // directory squats on the staging name of the first snapshot, so the
  // save fails after staging its plans. They are removed, and the earlier
  // plans stay in place beside the snapshots they were saved with.
  fs::create_directories(dir.path("doc-0.llld.new"));
  ASSERT_FALSE(b.SaveState(dir.str()).ok());
  EXPECT_EQ(Listing(dir),
            (std::vector<std::string>{"doc-0.llld", "doc-0.llld.new",
                                      "doc-1.llld", "doc-2.llld",
                                      "plans.lllp"}));
  EXPECT_EQ(FileBytes(dir.path("plans.lllp")), plans);
  server::QueryServer reloaded(options);
  ASSERT_TRUE(reloaded.LoadState(dir.str()).ok());
  EXPECT_EQ(reloaded.DocumentNames(),
            (std::vector<std::string>{"a", "b", "c"}));

  fs::remove(dir.path("doc-0.llld.new"));
  ASSERT_TRUE(b.SaveState(dir.str()).ok());
  EXPECT_EQ(Listing(dir),
            (std::vector<std::string>{"doc-0.llld", "plans.lllp"}));

  server::QueryServer c(options);
  ASSERT_TRUE(c.LoadState(dir.str()).ok());
  EXPECT_EQ(c.DocumentNames(), std::vector<std::string>{"x"});
}

TEST(PersistServer, RejectedPlanArtifactStillLoadsTheDocuments) {
  ScratchDir dir;
  MetricsRegistry metrics_a;
  server::ServerOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics_a;
  server::QueryServer a(options);
  ASSERT_TRUE(a.AddDocumentXml("shop", kSnapshotXml).ok());
  ASSERT_TRUE(a.Execute("t", "shop", "count(//item)").status.ok());
  ASSERT_TRUE(a.SaveState(dir.str()).ok());
  // Replace the plans with a checksum-valid artifact whose key is crafted.
  {
    std::ofstream plans(dir.path("plans.lllp"),
                        std::ios::binary | std::ios::trunc);
    plans << KeyArtifact({"21|count(//item)"});
  }

  MetricsRegistry metrics_b;
  options.metrics = &metrics_b;
  server::QueryServer b(options);
  ASSERT_TRUE(b.LoadState(dir.str()).ok());
  EXPECT_EQ(metrics_b.counter("persist.plan.load_failures").value(), 1u);
  EXPECT_EQ(metrics_b.counter("persist.snapshot.loads").value(), 1u);
  EXPECT_EQ(b.Execute("t", "shop", "count(//item)").result, "2");
  // The plans booted cold: the query compiled in this process.
  auto plan = b.Explain("shop", "count(//x)");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("server plan: compiled"), std::string::npos) << *plan;
  EXPECT_EQ(metrics_b.counter("persist.plan.hits").value(), 0u);
}

TEST(PersistServer, DaemonFileVerbsStayInsideTheStateDir) {
  ScratchDir dir;
  const std::string state = dir.path("state");
  fs::create_directories(state + "/sub");
  fs::create_directories(dir.path("outside"));
  fs::create_directory_symlink(dir.path("outside"), state + "/out");
  fs::create_directory_symlink(state + "/sub", state + "/in");
  const std::string root = fs::canonical(state).string();

  // Relative paths resolve under the state directory, existing or not.
  for (const auto& [path, want] :
       std::vector<std::pair<std::string, std::string>>{
           {"lib.xml", root + "/lib.xml"},
           {"sub/saved", root + "/sub/saved"},
           {"sub/../saved", root + "/saved"},
           {"in/doc.xml", root + "/sub/doc.xml"},
           {".", root}}) {
    auto resolved = server::ResolveStatePath(state, path);
    ASSERT_TRUE(resolved.ok()) << path << ": " << resolved.status().ToString();
    EXPECT_EQ(fs::path(*resolved).lexically_normal(),
              fs::path(want).lexically_normal())
        << path;
  }
  // Absolute paths, `..` escapes and symlinks that lead out are refused.
  for (const std::string& path :
       {dir.path("outside"), std::string("/etc/passwd"), std::string(".."),
        std::string("../outside/x"), std::string("sub/../../outside"),
        std::string("out"), std::string("out/file.xml")}) {
    auto resolved = server::ResolveStatePath(state, path);
    EXPECT_FALSE(resolved.ok()) << path << " resolved to " << *resolved;
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument) << path;
  }
  // Without a state directory no path is allowed at all.
  EXPECT_FALSE(server::ResolveStatePath("", "lib.xml").ok());
}

}  // namespace
}  // namespace lll
