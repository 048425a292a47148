#include "persist/plan_serde.h"

#include <optional>

#include "xquery/ast.h"
#include "xquery/optimizer.h"

namespace lll::persist {

namespace {

using xq::Expr;
using xq::ExprPtr;

// Section ids within a plan-cache artifact.
constexpr uint32_t kPlansSection = 1;

// Decode-side enum ceilings. Serde covers every AST field the parser and the
// optimizer's rewrites set; a new enumerator needs its ceiling raised here
// (and kFormatVersion bumped), next to the decode checks they guard.
constexpr uint8_t kMaxExprKind = static_cast<uint8_t>(xq::ExprKind::kTryCatch);
constexpr uint8_t kMaxBinOp = static_cast<uint8_t>(xq::BinOp::kTo);
constexpr uint8_t kMaxAxis = static_cast<uint8_t>(xq::Axis::kPrecedingSibling);
constexpr uint8_t kMaxNodeTest = static_cast<uint8_t>(xq::NodeTestKind::kAnyNode);
constexpr uint8_t kMaxLiteralType =
    static_cast<uint8_t>(Expr::LiteralType::kDouble);
constexpr uint8_t kMaxClauseKind =
    static_cast<uint8_t>(xq::FlworClause::Kind::kWhere);
constexpr uint8_t kMaxItemType =
    static_cast<uint8_t>(xq::SequenceType::ItemType::kEmpty);
constexpr uint8_t kMaxOccurrence =
    static_cast<uint8_t>(xq::SequenceType::Occurrence::kPlus);
constexpr uint8_t kMaxNoteKind =
    static_cast<uint8_t>(xq::RewriteNote::Kind::kDescendantFused);

// Nesting ceiling for decoded expressions: the parser's own cap, so a crafted
// checksum-valid payload can neither recurse the decoder off the stack nor
// hand the evaluator a tree the parser would have refused.
constexpr size_t kMaxDecodeDepth = xq::kMaxExprNesting;

Status RangeError(const char* what, uint64_t value, uint64_t max) {
  return Status::Invalid(std::string("plan artifact: ") + what + " value " +
                         std::to_string(value) + " out of range (max " +
                         std::to_string(max) + ")");
}

// Guards a decoded element count against the bytes actually remaining (every
// element consumes at least one byte), so a flipped count cannot cause a
// multi-gigabyte reserve before the truncation is noticed.
Status CheckCount(uint64_t count, const ByteReader& r, const char* what) {
  if (count > r.remaining()) {
    return Status::Invalid(std::string("plan artifact: ") + what + " count " +
                           std::to_string(count) +
                           " exceeds the remaining payload");
  }
  return Status::Ok();
}

void EncodeSequenceType(const xq::SequenceType& t, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(t.item_type));
  w->U8(static_cast<uint8_t>(t.occurrence));
  w->Str(t.element_name);
}

Result<xq::SequenceType> DecodeSequenceType(ByteReader* r) {
  xq::SequenceType t;
  LLL_ASSIGN_OR_RETURN(uint8_t item, r->U8());
  if (item > kMaxItemType) return RangeError("item type", item, kMaxItemType);
  t.item_type = static_cast<xq::SequenceType::ItemType>(item);
  LLL_ASSIGN_OR_RETURN(uint8_t occ, r->U8());
  if (occ > kMaxOccurrence) return RangeError("occurrence", occ, kMaxOccurrence);
  t.occurrence = static_cast<xq::SequenceType::Occurrence>(occ);
  LLL_ASSIGN_OR_RETURN(t.element_name, r->Str());
  return t;
}

void EncodeExpr(const Expr& e, ByteWriter* w);

// Every subexpression slot -- module body, function body, variable
// initializer, child, predicate, clause, order key, attribute part -- is
// written behind a presence byte that is always 1: the parser never leaves a
// slot empty, and every pass and the evaluator dereference them, so the
// decoder rejects an artifact that claims one is absent.
void EncodeSubExpr(const ExprPtr& e, ByteWriter* w) {
  w->U8(1);
  EncodeExpr(*e, w);
}

Result<ExprPtr> DecodeExpr(ByteReader* r, size_t depth);

Result<ExprPtr> DecodeSubExpr(ByteReader* r, size_t depth) {
  LLL_ASSIGN_OR_RETURN(uint8_t present, r->U8());
  if (present != 1) {
    return Status::Invalid("plan artifact: absent subexpression (presence "
                           "byte " + std::to_string(present) + ")");
  }
  return DecodeExpr(r, depth);
}

// The children every expression of this kind dereferences unconditionally
// (in the evaluator, the passes and EXPLAIN). The parser always builds
// them; a decoded expression with fewer is rejected like an absent one.
size_t RequiredChildren(const Expr& e) {
  switch (e.kind) {
    case xq::ExprKind::kPath:
      return e.has_base ? 1 : 0;
    case xq::ExprKind::kIf:
      return 3;
    case xq::ExprKind::kBinary:
    case xq::ExprKind::kQuantified:
    case xq::ExprKind::kTryCatch:
      return 2;
    case xq::ExprKind::kCompElement:
    case xq::ExprKind::kCompAttribute:
      return e.computed_name ? 2 : 1;
    case xq::ExprKind::kUnary:
    case xq::ExprKind::kFlwor:
    case xq::ExprKind::kCompText:
    case xq::ExprKind::kCompComment:
    case xq::ExprKind::kCompDocument:
    case xq::ExprKind::kCastAs:
    case xq::ExprKind::kCastableAs:
    case xq::ExprKind::kInstanceOf:
      return 1;
    default:
      return 0;
  }
}

void EncodeExpr(const Expr& e, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(e.kind));
  w->U8(static_cast<uint8_t>(e.literal_type));
  w->Str(e.text);
  w->I64(e.integer);
  w->F64(e.number);
  w->Str(e.name);
  w->U8(static_cast<uint8_t>(e.op));
  w->U8(e.has_base ? 1 : 0);
  w->U8(e.rooted ? 1 : 0);
  w->U32(static_cast<uint32_t>(e.steps.size()));
  for (const xq::PathStep& s : e.steps) {
    w->U8(static_cast<uint8_t>(s.axis));
    w->U8(static_cast<uint8_t>(s.test.kind));
    w->Str(s.test.name);
    w->U8(s.is_filter ? 1 : 0);
    w->U32(static_cast<uint32_t>(s.predicates.size()));
    for (const ExprPtr& p : s.predicates) EncodeSubExpr(p, w);
  }
  w->U64(e.limit_hint);
  w->U32(static_cast<uint32_t>(e.clauses.size()));
  for (const xq::FlworClause& c : e.clauses) {
    w->U8(static_cast<uint8_t>(c.kind));
    w->Str(c.var);
    w->Str(c.pos_var);
    EncodeSubExpr(c.expr, w);
  }
  w->U32(static_cast<uint32_t>(e.order_by.size()));
  for (const xq::OrderSpec& o : e.order_by) {
    EncodeSubExpr(o.key, w);
    w->U8(o.descending ? 1 : 0);
  }
  w->U8(e.quantifier_every ? 1 : 0);
  w->U32(static_cast<uint32_t>(e.attributes.size()));
  for (const xq::DirectAttribute& a : e.attributes) {
    w->Str(a.name);
    w->U32(static_cast<uint32_t>(a.value_parts.size()));
    for (const ExprPtr& p : a.value_parts) EncodeSubExpr(p, w);
  }
  w->U8(e.computed_name ? 1 : 0);
  EncodeSequenceType(e.type, w);
  w->U64(e.line);
  w->U64(e.col);
  w->U32(static_cast<uint32_t>(e.children.size()));
  for (const ExprPtr& c : e.children) EncodeSubExpr(c, w);
}

Result<bool> DecodeBool(ByteReader* r, const char* what) {
  LLL_ASSIGN_OR_RETURN(uint8_t v, r->U8());
  if (v > 1) return RangeError(what, v, 1);
  return v == 1;
}

// A type annotation behind a presence byte: 0 for none, 1 then the type.
void EncodeOptionalType(const std::optional<xq::SequenceType>& t,
                        ByteWriter* w) {
  w->U8(t.has_value() ? 1 : 0);
  if (t.has_value()) EncodeSequenceType(*t, w);
}

Result<std::optional<xq::SequenceType>> DecodeOptionalType(ByteReader* r,
                                                           const char* what) {
  LLL_ASSIGN_OR_RETURN(bool present, DecodeBool(r, what));
  if (!present) return std::optional<xq::SequenceType>();
  LLL_ASSIGN_OR_RETURN(xq::SequenceType t, DecodeSequenceType(r));
  return std::optional<xq::SequenceType>(std::move(t));
}

Result<ExprPtr> DecodeExpr(ByteReader* r, size_t depth) {
  if (depth > kMaxDecodeDepth) {
    return Status::Invalid("plan artifact: expression nesting exceeds " +
                           std::to_string(kMaxDecodeDepth));
  }
  LLL_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind > kMaxExprKind) return RangeError("expr kind", kind, kMaxExprKind);
  auto e = std::make_unique<Expr>(static_cast<xq::ExprKind>(kind));
  LLL_ASSIGN_OR_RETURN(uint8_t lit, r->U8());
  if (lit > kMaxLiteralType) return RangeError("literal type", lit, kMaxLiteralType);
  e->literal_type = static_cast<Expr::LiteralType>(lit);
  LLL_ASSIGN_OR_RETURN(e->text, r->Str());
  LLL_ASSIGN_OR_RETURN(e->integer, r->I64());
  LLL_ASSIGN_OR_RETURN(e->number, r->F64());
  LLL_ASSIGN_OR_RETURN(e->name, r->Str());
  LLL_ASSIGN_OR_RETURN(uint8_t op, r->U8());
  if (op > kMaxBinOp) return RangeError("binary op", op, kMaxBinOp);
  e->op = static_cast<xq::BinOp>(op);
  LLL_ASSIGN_OR_RETURN(e->has_base, DecodeBool(r, "has_base"));
  LLL_ASSIGN_OR_RETURN(e->rooted, DecodeBool(r, "rooted"));
  LLL_ASSIGN_OR_RETURN(uint32_t nsteps, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(nsteps, *r, "path step"));
  e->steps.reserve(nsteps);
  for (uint32_t i = 0; i < nsteps; ++i) {
    xq::PathStep s;
    LLL_ASSIGN_OR_RETURN(uint8_t axis, r->U8());
    if (axis > kMaxAxis) return RangeError("axis", axis, kMaxAxis);
    s.axis = static_cast<xq::Axis>(axis);
    LLL_ASSIGN_OR_RETURN(uint8_t test, r->U8());
    if (test > kMaxNodeTest) return RangeError("node test", test, kMaxNodeTest);
    s.test.kind = static_cast<xq::NodeTestKind>(test);
    LLL_ASSIGN_OR_RETURN(s.test.name, r->Str());
    LLL_ASSIGN_OR_RETURN(s.is_filter, DecodeBool(r, "is_filter"));
    LLL_ASSIGN_OR_RETURN(uint32_t npreds, r->U32());
    LLL_RETURN_IF_ERROR(CheckCount(npreds, *r, "predicate"));
    s.predicates.reserve(npreds);
    for (uint32_t j = 0; j < npreds; ++j) {
      LLL_ASSIGN_OR_RETURN(ExprPtr p, DecodeSubExpr(r, depth + 1));
      s.predicates.push_back(std::move(p));
    }
    e->steps.push_back(std::move(s));
  }
  LLL_ASSIGN_OR_RETURN(uint64_t limit_hint, r->U64());
  e->limit_hint = static_cast<size_t>(limit_hint);
  LLL_ASSIGN_OR_RETURN(uint32_t nclauses, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(nclauses, *r, "FLWOR clause"));
  e->clauses.reserve(nclauses);
  for (uint32_t i = 0; i < nclauses; ++i) {
    xq::FlworClause c;
    LLL_ASSIGN_OR_RETURN(uint8_t ck, r->U8());
    if (ck > kMaxClauseKind) return RangeError("clause kind", ck, kMaxClauseKind);
    c.kind = static_cast<xq::FlworClause::Kind>(ck);
    LLL_ASSIGN_OR_RETURN(c.var, r->Str());
    LLL_ASSIGN_OR_RETURN(c.pos_var, r->Str());
    LLL_ASSIGN_OR_RETURN(c.expr, DecodeSubExpr(r, depth + 1));
    e->clauses.push_back(std::move(c));
  }
  LLL_ASSIGN_OR_RETURN(uint32_t norder, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(norder, *r, "order spec"));
  e->order_by.reserve(norder);
  for (uint32_t i = 0; i < norder; ++i) {
    xq::OrderSpec o;
    LLL_ASSIGN_OR_RETURN(o.key, DecodeSubExpr(r, depth + 1));
    LLL_ASSIGN_OR_RETURN(o.descending, DecodeBool(r, "descending"));
    e->order_by.push_back(std::move(o));
  }
  LLL_ASSIGN_OR_RETURN(e->quantifier_every, DecodeBool(r, "quantifier_every"));
  LLL_ASSIGN_OR_RETURN(uint32_t nattrs, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(nattrs, *r, "direct attribute"));
  e->attributes.reserve(nattrs);
  for (uint32_t i = 0; i < nattrs; ++i) {
    xq::DirectAttribute a;
    LLL_ASSIGN_OR_RETURN(a.name, r->Str());
    LLL_ASSIGN_OR_RETURN(uint32_t nparts, r->U32());
    LLL_RETURN_IF_ERROR(CheckCount(nparts, *r, "attribute value part"));
    a.value_parts.reserve(nparts);
    for (uint32_t j = 0; j < nparts; ++j) {
      LLL_ASSIGN_OR_RETURN(ExprPtr p, DecodeSubExpr(r, depth + 1));
      a.value_parts.push_back(std::move(p));
    }
    e->attributes.push_back(std::move(a));
  }
  LLL_ASSIGN_OR_RETURN(e->computed_name, DecodeBool(r, "computed_name"));
  LLL_ASSIGN_OR_RETURN(e->type, DecodeSequenceType(r));
  LLL_ASSIGN_OR_RETURN(uint64_t line, r->U64());
  LLL_ASSIGN_OR_RETURN(uint64_t col, r->U64());
  e->line = static_cast<size_t>(line);
  e->col = static_cast<size_t>(col);
  LLL_ASSIGN_OR_RETURN(uint32_t nchildren, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(nchildren, *r, "child expr"));
  e->children.reserve(nchildren);
  for (uint32_t i = 0; i < nchildren; ++i) {
    LLL_ASSIGN_OR_RETURN(ExprPtr c, DecodeSubExpr(r, depth + 1));
    e->children.push_back(std::move(c));
  }
  if (e->children.size() < RequiredChildren(*e)) {
    return Status::Invalid(std::string("plan artifact: ") +
                           xq::ExprKindName(e->kind) + " with " +
                           std::to_string(e->children.size()) +
                           " of its subexpressions");
  }
  return ExprPtr(std::move(e));
}

}  // namespace

void EncodeCompiledQuery(const xq::CompiledQuery& query, ByteWriter* w) {
  const xq::Module& m = query.module();
  w->U32(static_cast<uint32_t>(m.functions.size()));
  for (const xq::FunctionDecl& f : m.functions) {
    w->Str(f.name);
    w->U32(static_cast<uint32_t>(f.params.size()));
    for (const xq::FunctionDecl::Param& p : f.params) {
      w->Str(p.name);
      EncodeOptionalType(p.type, w);
    }
    EncodeOptionalType(f.return_type, w);
    EncodeSubExpr(f.body, w);
  }
  w->U32(static_cast<uint32_t>(m.variables.size()));
  for (const xq::VariableDecl& v : m.variables) {
    w->Str(v.name);
    EncodeSubExpr(v.expr, w);
  }
  EncodeSubExpr(m.body, w);

  const xq::OptimizerStats& s = query.optimizer_stats();
  w->U64(s.folded_constants);
  w->U64(s.eliminated_lets);
  w->U64(s.eliminated_trace_calls);
  w->U64(s.limits_pushed);
  w->U64(s.fused_descendant_steps);
  // Probe notes are derived, like the marks they describe: the decoder
  // re-runs MarkProbePredicates, which notes them again.
  uint32_t stored = 0;
  for (const xq::RewriteNote& n : s.notes) {
    if (n.kind != xq::RewriteNote::Kind::kProbe) ++stored;
  }
  w->U32(stored);
  for (const xq::RewriteNote& n : s.notes) {
    if (n.kind == xq::RewriteNote::Kind::kProbe) continue;
    w->U8(static_cast<uint8_t>(n.kind));
    w->Str(n.detail);
    w->U64(n.line);
    w->U64(n.col);
  }
}

Result<xq::CompiledQuery> DecodeCompiledQuery(ByteReader* r) {
  xq::Module m;
  LLL_ASSIGN_OR_RETURN(uint32_t nfuncs, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(nfuncs, *r, "function decl"));
  m.functions.reserve(nfuncs);
  for (uint32_t i = 0; i < nfuncs; ++i) {
    xq::FunctionDecl f;
    LLL_ASSIGN_OR_RETURN(f.name, r->Str());
    LLL_ASSIGN_OR_RETURN(uint32_t nparams, r->U32());
    LLL_RETURN_IF_ERROR(CheckCount(nparams, *r, "function param"));
    f.params.resize(nparams);
    for (xq::FunctionDecl::Param& p : f.params) {
      LLL_ASSIGN_OR_RETURN(p.name, r->Str());
      LLL_ASSIGN_OR_RETURN(p.type, DecodeOptionalType(r, "parameter type"));
    }
    LLL_ASSIGN_OR_RETURN(f.return_type,
                         DecodeOptionalType(r, "return type"));
    LLL_ASSIGN_OR_RETURN(f.body, DecodeSubExpr(r, 0));
    m.functions.push_back(std::move(f));
  }
  LLL_ASSIGN_OR_RETURN(uint32_t nvars, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(nvars, *r, "variable decl"));
  m.variables.reserve(nvars);
  for (uint32_t i = 0; i < nvars; ++i) {
    xq::VariableDecl v;
    LLL_ASSIGN_OR_RETURN(v.name, r->Str());
    LLL_ASSIGN_OR_RETURN(v.expr, DecodeSubExpr(r, 0));
    m.variables.push_back(std::move(v));
  }
  LLL_ASSIGN_OR_RETURN(m.body, DecodeSubExpr(r, 0));

  xq::OptimizerStats s;
  LLL_ASSIGN_OR_RETURN(uint64_t folded, r->U64());
  LLL_ASSIGN_OR_RETURN(uint64_t lets, r->U64());
  LLL_ASSIGN_OR_RETURN(uint64_t traces, r->U64());
  LLL_ASSIGN_OR_RETURN(uint64_t limits, r->U64());
  LLL_ASSIGN_OR_RETURN(uint64_t fused, r->U64());
  s.folded_constants = static_cast<size_t>(folded);
  s.eliminated_lets = static_cast<size_t>(lets);
  s.eliminated_trace_calls = static_cast<size_t>(traces);
  s.limits_pushed = static_cast<size_t>(limits);
  s.fused_descendant_steps = static_cast<size_t>(fused);
  LLL_ASSIGN_OR_RETURN(uint32_t nnotes, r->U32());
  LLL_RETURN_IF_ERROR(CheckCount(nnotes, *r, "rewrite note"));
  s.notes.reserve(nnotes);
  for (uint32_t i = 0; i < nnotes; ++i) {
    xq::RewriteNote n;
    LLL_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
    if (kind > kMaxNoteKind) return RangeError("note kind", kind, kMaxNoteKind);
    n.kind = static_cast<xq::RewriteNote::Kind>(kind);
    LLL_ASSIGN_OR_RETURN(n.detail, r->Str());
    LLL_ASSIGN_OR_RETURN(uint64_t line, r->U64());
    LLL_ASSIGN_OR_RETURN(uint64_t col, r->U64());
    n.line = static_cast<size_t>(line);
    n.col = static_cast<size_t>(col);
    s.notes.push_back(std::move(n));
  }
  // Name bindings, probe marks and per-step facts are never stored: derive
  // them from the decoded AST, so a forged artifact cannot set one the
  // compiler would not.
  xq::BindNames(&m);
  xq::MarkProbePredicates(&m, &s);
  xq::ResolveSteps(&m);
  return xq::CompiledQuery(std::move(m), std::move(s),
                           xq::PlanOrigin::kDiskCache);
}

std::string SerializePlanCache(const xq::QueryCache& cache) {
  auto entries = cache.Entries();  // most-recently-used first
  ByteWriter plans;
  plans.U32(static_cast<uint32_t>(entries.size()));
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    plans.Str(it->first);
    EncodeCompiledQuery(*it->second, &plans);
  }
  ArtifactWriter artifact(kPlanCacheArtifact);
  artifact.AddSection(kPlansSection, plans.TakeBytes());
  return artifact.Finish();
}

Status SavePlanCache(const xq::QueryCache& cache, const std::string& path,
                     MetricsRegistry* metrics) {
  auto entries = cache.Entries();
  ByteWriter plans;
  plans.U32(static_cast<uint32_t>(entries.size()));
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    plans.Str(it->first);
    EncodeCompiledQuery(*it->second, &plans);
  }
  ArtifactWriter artifact(kPlanCacheArtifact);
  artifact.AddSection(kPlansSection, plans.TakeBytes());
  LLL_RETURN_IF_ERROR(artifact.WriteFile(path));
  if (metrics != nullptr) {
    metrics->counter("persist.plan.stores").Increment(entries.size());
  }
  return Status::Ok();
}

namespace {

Result<size_t> LoadPlanArtifact(const Artifact& artifact,
                                xq::QueryCache* cache) {
  std::optional<std::string_view> plans = artifact.Section(kPlansSection);
  if (!plans.has_value()) {
    return Status::Invalid("plan artifact has no plans section");
  }
  ByteReader r(*plans);
  LLL_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  LLL_RETURN_IF_ERROR(CheckCount(count, r, "plan entry"));
  // Decode everything before touching the cache: a corrupt tail must not
  // leave the first half of the artifact warmed.
  std::vector<std::pair<std::string, xq::CompiledQuery>> decoded;
  decoded.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LLL_ASSIGN_OR_RETURN(std::string key, r.Str());
    LLL_ASSIGN_OR_RETURN(xq::CompiledQuery q, DecodeCompiledQuery(&r));
    decoded.emplace_back(std::move(key), std::move(q));
  }
  if (!r.done()) {
    return Status::Invalid("plan artifact has trailing bytes after entry " +
                           std::to_string(count));
  }
  for (auto& [key, q] : decoded) {
    cache->PutDeserialized(key, std::move(q));
  }
  return decoded.size();
}

Result<size_t> CountLoadResult(Result<size_t> loaded,
                               const ArtifactLoadInfo& info,
                               MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    if (loaded.ok()) {
      metrics->counter("persist.plan.loads").Increment(*loaded);
    } else if (info.version_mismatch) {
      metrics->counter("persist.plan.version_mismatch").Increment();
    } else {
      metrics->counter("persist.plan.load_failures").Increment();
    }
  }
  return loaded;
}

}  // namespace

Result<size_t> LoadPlanCache(const std::string& path, xq::QueryCache* cache,
                             MetricsRegistry* metrics) {
  ArtifactLoadInfo info;
  auto artifact = Artifact::FromFile(path, kPlanCacheArtifact, &info);
  if (!artifact.ok()) {
    return CountLoadResult(artifact.status(), info, metrics);
  }
  return CountLoadResult(LoadPlanArtifact(*artifact, cache), info, metrics);
}

Result<size_t> LoadPlanCacheFromBytes(std::string bytes, xq::QueryCache* cache,
                                      MetricsRegistry* metrics) {
  ArtifactLoadInfo info;
  auto artifact =
      Artifact::FromBytes(std::move(bytes), kPlanCacheArtifact, &info);
  if (!artifact.ok()) {
    return CountLoadResult(artifact.status(), info, metrics);
  }
  return CountLoadResult(LoadPlanArtifact(*artifact, cache), info, metrics);
}

}  // namespace lll::persist
