// The persistence subsystem's proof obligations:
//
//   1. Roundtrip fidelity -- a plan loaded from a *.lllp artifact and a
//      document loaded from a *.llld snapshot are byte-identical to their
//      fresh-built counterparts, under EXPLAIN and under the seeded
//      495-query differential workload.
//   2. Hostile input -- truncations at every length, every single-byte flip,
//      stale format versions, and crafted out-of-range images all fail with
//      kInvalidArgument and never half-warm a cache or build a broken tree.
//   3. Observability -- EXPLAIN distinguishes compiled / memory-cache /
//      disk-cache provenance, and the persist.* counters record every store,
//      load, version mismatch, and failure.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "docgen/xq_engine.h"
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
  auto mapped =
      persist::Artifact::FromFile(path, persist::kPlanCacheArtifact);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mapped());
  EXPECT_EQ(mapped->Section(7), "payload seven");
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

// --- Plan serde -------------------------------------------------------------

// Feature coverage beyond the random path workload: FLWOR with order by,
// user functions with type annotations, quantifiers, constructors,
// conditionals, and the optimizer pathologies (dead lets, swallowed traces)
// whose rewrite notes must survive the roundtrip for EXPLAIN.
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
};

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

  for (const char* q : kFeatureQueries) {
    auto a = fresh.GetOrCompile(q);
    auto b = loaded.GetOrCompile(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ((*b)->origin(), xq::PlanOrigin::kDiskCache) << q;
    // Identical plan trees, rewrite notes, and summary stats: EXPLAIN is the
    // full rendered fingerprint of everything the optimizer decided.
    EXPECT_EQ(obs::Explain(**a), obs::Explain(**b)) << q;
  }
}

TEST(PersistPlans, ProbeMarksAreDerivedNotStored) {
  // Probe marks and their notes never reach the artifact: the decoder
  // derives them from the AST, so the loaded plan still renders them.
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
  // The `//a` fusion is stored (its note and count round-trip inside the
  // EXPLAIN above); the position-free bit it rests on is derived again.
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

  // A checksum-valid artifact whose payload decodes partway: two entries,
  // the second one garbage. Decode-all-before-insert means entry one must
  // NOT appear in the cache afterwards.
  auto good = xq::Compile("1+1");
  ASSERT_TRUE(good.ok());
  persist::ByteWriter plans;
  plans.U32(2);
  plans.Str(xq::QueryCache::MakeKey("1+1", {}));
  persist::EncodeCompiledQuery(*good, &plans);
  plans.Str("key-of-garbage");
  plans.U8(0xee);  // an ExprKind far past the ceiling
  persist::ArtifactWriter writer(persist::kPlanCacheArtifact);
  writer.AddSection(1, plans.TakeBytes());
  auto count = persist::LoadPlanCacheFromBytes(writer.Finish(), &target);
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(target.size(), 0u);
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
  // Warm boot: a *.llld-loaded document starts with a uniform epoch-0
  // edit-version overlay, so its step chains intern immediately; a
  // subsequent edit invalidates exactly the entries anchored in the edited
  // subtree, everything else keeps hitting.
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
  auto warm1 = xq::Execute(*m1, opts);
  ASSERT_TRUE(warm1.ok());
  EXPECT_GT(warm1->stats.nodeset_cache_hits, 0u);

  // Edit m2's subtree, then re-run both chains: m1 still hits with zero
  // invalidations; m2 re-misses as a subtree-scoped (partial) invalidation
  // and returns the post-edit answer.
  xml::Node* models = doc->DocumentElement()->children()[0];
  xml::Node* m2_parts = models->children()[1]->children()[0];
  ASSERT_TRUE(m2_parts->AppendChild(doc->CreateElement("part")).ok());

  auto after1 = xq::Execute(*m1, opts);
  ASSERT_TRUE(after1.ok());
  EXPECT_GT(after1->stats.nodeset_cache_hits, 0u);
  EXPECT_EQ(after1->stats.nodeset_cache_invalidations, 0u);
  EXPECT_EQ(after1->SerializedItems(), cold1->SerializedItems());

  auto after2 = xq::Execute(*m2, opts);
  ASSERT_TRUE(after2.ok());
  EXPECT_GT(after2->stats.nodeset_cache_invalidations, 0u);
  EXPECT_GT(after2->stats.nodeset_cache_partial_invalidations, 0u);
  EXPECT_EQ(after2->sequence.size(), 2u);
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
  }
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

// --- Docgen AOT phase plans -------------------------------------------------

TEST(PersistDocgen, AotCompiledPhasesLoadWithDiskProvenance) {
  ScratchDir dir;
  const std::string path = dir.path("phases.lllp");

  docgen::XQueryPhaseCache().Clear();
  auto cold = docgen::ExplainXQueryPhases();
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold->find("plan: compiled"), std::string::npos);
  EXPECT_EQ(cold->find("plan: disk-cache"), std::string::npos);

  ASSERT_TRUE(docgen::AotCompileXQueryPhases(path).ok());
  docgen::XQueryPhaseCache().Clear();
  auto count = docgen::LoadXQueryPhaseCache(path);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 5u);  // all five phase programs

  auto warm = docgen::ExplainXQueryPhases();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->find("plan: compiled"), std::string::npos) << *warm;
  EXPECT_NE(warm->find("plan: disk-cache"), std::string::npos);
  // Identical plans modulo the provenance tag.
  std::string normalized = *warm;
  for (size_t at = normalized.find("plan: disk-cache");
       at != std::string::npos; at = normalized.find("plan: disk-cache")) {
    normalized.replace(at, 16, "plan: compiled");
  }
  EXPECT_EQ(normalized, *cold);

  // Leave the process-wide cache cold-but-clean for other tests.
  docgen::XQueryPhaseCache().Clear();
}

}  // namespace
}  // namespace lll
