// The fn: / math: builtin library -- the slice of the XQuery function catalog
// the paper's document generator leaned on, plus the trigonometry it mentions
// ("a bit of trigonometry, and other routine things").
//
// Deviations from the W3C catalog, all documented here:
//   * tokenize/replace take LITERAL separators, not regular expressions;
//   * fn:trace is variadic, prints all arguments and returns the value of
//     the LAST one -- this is the trace the paper describes ("a trace
//     function which prints its arguments and returns the value of the last
//     one"), not the two-argument W3C fn:trace;
//   * fn:error takes 0..2 arguments, records its message to the trace
//     stream (the paper used it for binary-search debugging) and aborts
//     evaluation with that message.

#include <cmath>
#include <limits>

#include "core/string_util.h"
#include "xdm/compare.h"
#include "xdm/map_value.h"
#include "xml/parser.h"
#include "xquery/eval.h"

namespace lll::xq {

namespace {

using xdm::Item;
using xdm::Sequence;

constexpr size_t kVariadic = static_cast<size_t>(-1);

// fn:string semantics for a whole sequence argument that must be 0-or-1.
Result<std::string> OneStringOrEmpty(const Sequence& seq, const char* what) {
  if (seq.empty()) return std::string();
  LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(seq, what));
  return item.StringForm();
}

Result<double> OneNumber(const Sequence& seq, const char* what) {
  LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(seq.Atomized(), what));
  return item.NumericValue();
}

// The fn:subsequence selection window: positions p (1-based) with
// *lo <= p < *hi are selected. *hi is +inf for the 2-argument form
// (`has_length` false). Returns false when the window is empty because the
// start or length is NaN.
bool SubsequenceWindow(double start, double length, bool has_length,
                       double* lo, double* hi) {
  // fn:subsequence rounds with fn:round semantics: floor(x + 0.5), i.e.
  // round half UP. std::round (round half away from zero) disagrees at
  // negative halves -- fn:round(-2.5) is -2, std::round gives -3 -- which
  // shifted the window for negative fractional starts/lengths. NaN
  // propagates through floor and the comparisons below, selecting nothing;
  // infinite starts/lengths behave per IEEE (start -inf + length inf is
  // NaN = empty, matching the spec's round(-inf)+round(inf) window).
  *lo = std::floor(start + 0.5);
  if (std::isnan(*lo)) return false;
  if (!has_length) {
    *hi = std::numeric_limits<double>::infinity();
    return true;
  }
  *hi = *lo + std::floor(length + 0.5);
  return !std::isnan(*hi);
}

Sequence BoolSeq(bool b) { return Sequence(Item::Boolean(b)); }
Sequence StrSeq(std::string s) { return Sequence(Item::String(std::move(s))); }
Sequence IntSeq(int64_t i) { return Sequence(Item::Integer(i)); }
Sequence DblSeq(double d) { return Sequence(Item::Double(d)); }

// Numeric aggregate core for sum/avg/max/min.
enum class Agg { kSum, kAvg, kMax, kMin };

Result<Sequence> Aggregate(Agg agg, const Sequence& raw) {
  Sequence seq = raw.Atomized();
  if (seq.empty()) {
    if (agg == Agg::kSum) return IntSeq(0);
    return Sequence();
  }
  // Decide numeric vs string mode from the items: all castable-to-number
  // sequences aggregate numerically; max/min also accept all-string.
  bool all_numeric = true;
  for (const Item& it : seq.items()) {
    if (!it.is_numeric() && !(it.kind() == xdm::ItemKind::kUntyped &&
                              ParseDouble(it.string_value()).has_value())) {
      all_numeric = false;
      break;
    }
  }
  if (!all_numeric) {
    if (agg == Agg::kSum || agg == Agg::kAvg) {
      return Status::TypeError("sum/avg over non-numeric values");
    }
    std::string best;
    bool first = true;
    for (const Item& it : seq.items()) {
      if (!it.is_stringlike()) {
        return Status::TypeError("max/min over mixed value kinds");
      }
      const std::string& s = it.string_value();
      if (first || (agg == Agg::kMax ? s > best : s < best)) best = s;
      first = false;
    }
    return StrSeq(best);
  }
  bool all_integer = true;
  for (const Item& it : seq.items()) {
    if (it.kind() != xdm::ItemKind::kInteger) all_integer = false;
  }
  double acc = 0;
  bool first = true;
  for (const Item& it : seq.items()) {
    LLL_ASSIGN_OR_RETURN(double v, it.NumericValue());
    switch (agg) {
      case Agg::kSum:
      case Agg::kAvg:
        acc += v;
        break;
      case Agg::kMax:
        acc = first ? v : std::max(acc, v);
        break;
      case Agg::kMin:
        acc = first ? v : std::min(acc, v);
        break;
    }
    first = false;
  }
  if (agg == Agg::kAvg) {
    return DblSeq(acc / static_cast<double>(seq.size()));
  }
  if (all_integer && agg != Agg::kAvg) {
    return IntSeq(static_cast<int64_t>(acc));
  }
  return DblSeq(acc);
}

// Focus-or-argument item for name()/local-name()/string()/etc.
Result<Sequence> FocusArg(Evaluator& ev) {
  if (!ev.has_focus()) {
    return Status::Invalid("function requires a context item");
  }
  return Sequence(ev.focus_item());
}

using Registry = std::map<std::pair<std::string, size_t>, Builtin>;

// Every entry carries the BuiltinFact bits (eval.h) the optimizer's passes
// read; an entry with none is effect-free but never taken for a boolean
// predicate.
Registry BuildRegistry() {
  Registry reg;
  auto def = [&reg](const std::string& name, size_t arity, BuiltinFn fn,
                    unsigned facts = 0) {
    reg[{name, arity}] = Builtin{name, std::move(fn), facts};
  };

  // --- Cardinality and sequences ------------------------------------------

  def("count", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return IntSeq(static_cast<int64_t>(args[0].size()));
  });
  def("empty", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return BoolSeq(args[0].empty());
  }, kBooleanValued | kFirstItemDecides);
  def("exists", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return BoolSeq(!args[0].empty());
  }, kBooleanValued | kFirstItemDecides);
  def("not", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(args[0]));
    return BoolSeq(!b);
  }, kBooleanValued);
  def("boolean", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(args[0]));
    return BoolSeq(b);
  }, kBooleanValued);
  def("true", 0, [](Evaluator&, std::vector<Sequence>&) -> Result<Sequence> {
    return BoolSeq(true);
  }, kBooleanValued);
  def("false", 0, [](Evaluator&, std::vector<Sequence>&) -> Result<Sequence> {
    return BoolSeq(false);
  }, kBooleanValued);
  def("reverse", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    Sequence out;
    for (size_t i = args[0].size(); i-- > 0;) out.Append(args[0].at(i));
    return out;
  });
  def("subsequence", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(double start, OneNumber(args[1], "subsequence"));
    double lo, hi;
    Sequence out;
    if (!SubsequenceWindow(start, 0, /*has_length=*/false, &lo, &hi)) {
      return out;  // NaN start selects nothing
    }
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (static_cast<double>(i + 1) >= lo) out.Append(args[0].at(i));
    }
    return out;
  });
  def("subsequence", 3, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(double start, OneNumber(args[1], "subsequence"));
    LLL_ASSIGN_OR_RETURN(double len, OneNumber(args[2], "subsequence"));
    double lo, hi;
    Sequence out;
    if (!SubsequenceWindow(start, len, /*has_length=*/true, &lo, &hi)) {
      return out;  // NaN start/length selects nothing
    }
    for (size_t i = 0; i < args[0].size(); ++i) {
      double p = static_cast<double>(i + 1);
      if (p >= lo && p < hi) out.Append(args[0].at(i));
    }
    return out;
  });
  def("head", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return args[0].empty() ? Sequence() : Sequence(args[0].at(0));
  }, kFirstItemDecides);
  def("tail", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    Sequence out;
    for (size_t i = 1; i < args[0].size(); ++i) out.Append(args[0].at(i));
    return out;
  });
  def("insert-before", 3, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(double pos_d, OneNumber(args[1], "insert-before"));
    int64_t pos = static_cast<int64_t>(pos_d);
    if (pos < 1) pos = 1;
    Sequence out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (static_cast<int64_t>(i + 1) == pos) out.AppendSequence(args[2]);
      out.Append(args[0].at(i));
    }
    if (pos > static_cast<int64_t>(args[0].size())) out.AppendSequence(args[2]);
    return out;
  });
  def("remove", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(double pos, OneNumber(args[1], "remove"));
    Sequence out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (static_cast<double>(i + 1) != pos) out.Append(args[0].at(i));
    }
    return out;
  });
  def("index-of", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    Sequence seq = args[0].Atomized();
    Sequence needle_seq = args[1].Atomized();
    LLL_ASSIGN_OR_RETURN(Item needle,
                         xdm::RequireSingleton(needle_seq, "index-of"));
    Sequence out;
    for (size_t i = 0; i < seq.size(); ++i) {
      Result<bool> eq = xdm::ValueCompare(xdm::CompareOp::kEq, seq.at(i), needle);
      if (eq.ok() && *eq) out.Append(Item::Integer(static_cast<int64_t>(i + 1)));
    }
    return out;
  });
  def("distinct-values", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return xdm::DistinctValues(args[0]);
  });
  def("deep-equal", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(bool eq, xdm::DeepEqualSequences(args[0], args[1]));
    return BoolSeq(eq);
  });
  def("exactly-one", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].size() != 1) {
      return Status::CardinalityError("exactly-one: got " +
                                      std::to_string(args[0].size()) + " items");
    }
    return args[0];
  });
  def("zero-or-one", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].size() > 1) {
      return Status::CardinalityError("zero-or-one: got " +
                                      std::to_string(args[0].size()) + " items");
    }
    return args[0];
  });
  def("one-or-more", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) {
      return Status::CardinalityError("one-or-more: got empty sequence");
    }
    return args[0];
  });

  // --- Focus ------------------------------------------------------------

  def("position", 0, [](Evaluator& ev, std::vector<Sequence>&) -> Result<Sequence> {
    if (!ev.has_focus()) return Status::Invalid("position() without a focus");
    return IntSeq(static_cast<int64_t>(ev.focus_position()));
  }, kReadsPosition);
  def("last", 0, [](Evaluator& ev, std::vector<Sequence>&) -> Result<Sequence> {
    if (!ev.has_focus()) return Status::Invalid("last() without a focus");
    return IntSeq(static_cast<int64_t>(ev.focus_size()));
  }, kReadsSize);

  // --- Strings ------------------------------------------------------------

  def("string", 0, [](Evaluator& ev, std::vector<Sequence>&) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(Sequence focus, FocusArg(ev));
    return StrSeq(focus.at(0).StringForm());
  });
  def("string", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "string"));
    return StrSeq(s);
  });
  def("concat", kVariadic, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    std::string out;
    for (Sequence& arg : args) {
      LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(arg, "concat"));
      out += s;
    }
    return StrSeq(out);
  });
  def("string-join", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string sep, OneStringOrEmpty(args[1], "string-join"));
    std::string out;
    Sequence atomized = args[0].Atomized();
    for (size_t i = 0; i < atomized.size(); ++i) {
      if (i > 0) out += sep;
      out += atomized.at(i).StringForm();
    }
    return StrSeq(out);
  });
  def("substring", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "substring"));
    LLL_ASSIGN_OR_RETURN(double start, OneNumber(args[1], "substring"));
    int64_t begin = static_cast<int64_t>(std::round(start));
    std::string out;
    for (int64_t i = 0; i < static_cast<int64_t>(s.size()); ++i) {
      if (i + 1 >= begin) out.push_back(s[static_cast<size_t>(i)]);
    }
    return StrSeq(out);
  });
  def("substring", 3, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "substring"));
    LLL_ASSIGN_OR_RETURN(double start, OneNumber(args[1], "substring"));
    LLL_ASSIGN_OR_RETURN(double len, OneNumber(args[2], "substring"));
    double lo = std::round(start);
    double hi = lo + std::round(len);
    std::string out;
    for (int64_t i = 0; i < static_cast<int64_t>(s.size()); ++i) {
      double p = static_cast<double>(i + 1);
      if (p >= lo && p < hi) out.push_back(s[static_cast<size_t>(i)]);
    }
    return StrSeq(out);
  });
  def("string-length", 0, [](Evaluator& ev, std::vector<Sequence>&) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(Sequence focus, FocusArg(ev));
    return IntSeq(static_cast<int64_t>(focus.at(0).StringForm().size()));
  });
  def("string-length", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "string-length"));
    return IntSeq(static_cast<int64_t>(s.size()));
  });
  def("contains", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string haystack, OneStringOrEmpty(args[0], "contains"));
    LLL_ASSIGN_OR_RETURN(std::string needle, OneStringOrEmpty(args[1], "contains"));
    return BoolSeq(Contains(haystack, needle));
  }, kBooleanValued);
  def("starts-with", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "starts-with"));
    LLL_ASSIGN_OR_RETURN(std::string prefix, OneStringOrEmpty(args[1], "starts-with"));
    return BoolSeq(StartsWith(s, prefix));
  }, kBooleanValued);
  def("ends-with", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "ends-with"));
    LLL_ASSIGN_OR_RETURN(std::string suffix, OneStringOrEmpty(args[1], "ends-with"));
    return BoolSeq(EndsWith(s, suffix));
  }, kBooleanValued);
  def("normalize-space", 0, [](Evaluator& ev, std::vector<Sequence>&) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(Sequence focus, FocusArg(ev));
    return StrSeq(NormalizeSpace(focus.at(0).StringForm()));
  });
  def("normalize-space", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "normalize-space"));
    return StrSeq(NormalizeSpace(s));
  });
  def("upper-case", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "upper-case"));
    return StrSeq(ToUpper(s));
  });
  def("lower-case", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "lower-case"));
    return StrSeq(ToLower(s));
  });
  def("translate", 3, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "translate"));
    LLL_ASSIGN_OR_RETURN(std::string from, OneStringOrEmpty(args[1], "translate"));
    LLL_ASSIGN_OR_RETURN(std::string to, OneStringOrEmpty(args[2], "translate"));
    std::string out;
    for (char c : s) {
      size_t idx = from.find(c);
      if (idx == std::string::npos) {
        out.push_back(c);
      } else if (idx < to.size()) {
        out.push_back(to[idx]);
      }  // else: dropped
    }
    return StrSeq(out);
  });
  def("substring-before", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "substring-before"));
    LLL_ASSIGN_OR_RETURN(std::string sep, OneStringOrEmpty(args[1], "substring-before"));
    size_t idx = sep.empty() ? std::string::npos : s.find(sep);
    return StrSeq(idx == std::string::npos ? "" : s.substr(0, idx));
  });
  def("substring-after", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "substring-after"));
    LLL_ASSIGN_OR_RETURN(std::string sep, OneStringOrEmpty(args[1], "substring-after"));
    size_t idx = sep.empty() ? std::string::npos : s.find(sep);
    return StrSeq(idx == std::string::npos ? "" : s.substr(idx + sep.size()));
  });
  def("tokenize", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "tokenize"));
    LLL_ASSIGN_OR_RETURN(std::string sep, OneStringOrEmpty(args[1], "tokenize"));
    if (sep.empty()) return Status::Invalid("tokenize: empty separator");
    Sequence out;
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(sep, pos);
      if (hit == std::string::npos) {
        out.Append(Item::String(s.substr(pos)));
        return out;
      }
      out.Append(Item::String(s.substr(pos, hit - pos)));
      pos = hit + sep.size();
    }
  });
  def("replace", 3, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "replace"));
    LLL_ASSIGN_OR_RETURN(std::string from, OneStringOrEmpty(args[1], "replace"));
    LLL_ASSIGN_OR_RETURN(std::string to, OneStringOrEmpty(args[2], "replace"));
    if (from.empty()) return Status::Invalid("replace: empty search string");
    return StrSeq(ReplaceAll(s, from, to));
  });
  def("compare", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty() || args[1].empty()) return Sequence();
    LLL_ASSIGN_OR_RETURN(std::string a, OneStringOrEmpty(args[0], "compare"));
    LLL_ASSIGN_OR_RETURN(std::string b, OneStringOrEmpty(args[1], "compare"));
    int c = a.compare(b);
    return IntSeq(c < 0 ? -1 : (c > 0 ? 1 : 0));
  });
  // matches($s, $pattern): LITERAL substring containment, not a regex --
  // consistent with tokenize/replace (see the file header).
  def("matches", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s, OneStringOrEmpty(args[0], "matches"));
    LLL_ASSIGN_OR_RETURN(std::string pattern,
                         OneStringOrEmpty(args[1], "matches"));
    return BoolSeq(Contains(s, pattern));
  });
  def("string-to-codepoints", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string s,
                         OneStringOrEmpty(args[0], "string-to-codepoints"));
    Sequence out;
    // Byte-level codepoints; multi-byte UTF-8 yields the raw bytes
    // (documented subset behavior).
    for (unsigned char c : s) out.Append(Item::Integer(c));
    return out;
  });
  def("codepoints-to-string", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    std::string out;
    Sequence atomized = args[0].Atomized();
    for (const Item& item : atomized.items()) {
      LLL_ASSIGN_OR_RETURN(double d, item.NumericValue());
      int64_t cp = static_cast<int64_t>(d);
      if (cp < 1 || cp > 255) {
        return Status::Invalid("codepoints-to-string: codepoint " +
                               std::to_string(cp) + " out of supported range");
      }
      out.push_back(static_cast<char>(cp));
    }
    return StrSeq(out);
  });

  // --- Numbers ------------------------------------------------------------

  def("number", 0, [](Evaluator& ev, std::vector<Sequence>&) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(Sequence focus, FocusArg(ev));
    auto parsed = ParseDouble(focus.at(0).StringForm());
    return DblSeq(parsed ? *parsed : std::nan(""));
  });
  def("number", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return DblSeq(std::nan(""));
    Sequence atomized = args[0].Atomized();
    LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(atomized, "number"));
    if (item.is_numeric()) {
      LLL_ASSIGN_OR_RETURN(double d, item.NumericValue());
      return DblSeq(d);
    }
    if (item.kind() == xdm::ItemKind::kBoolean) {
      return DblSeq(item.boolean_value() ? 1 : 0);
    }
    auto parsed = ParseDouble(item.StringForm());
    return DblSeq(parsed ? *parsed : std::nan(""));
  });
  def("sum", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return Aggregate(Agg::kSum, args[0]);
  });
  def("avg", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return Aggregate(Agg::kAvg, args[0]);
  });
  def("max", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return Aggregate(Agg::kMax, args[0]);
  });
  def("min", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return Aggregate(Agg::kMin, args[0]);
  });
  def("abs", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return Sequence();
    Sequence atomized = args[0].Atomized();
    LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(atomized, "abs"));
    if (item.kind() == xdm::ItemKind::kInteger) {
      return IntSeq(std::abs(item.integer_value()));
    }
    LLL_ASSIGN_OR_RETURN(double d, item.NumericValue());
    return DblSeq(std::fabs(d));
  });
  def("floor", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return Sequence();
    LLL_ASSIGN_OR_RETURN(double d, OneNumber(args[0], "floor"));
    return IntSeq(static_cast<int64_t>(std::floor(d)));
  });
  def("ceiling", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return Sequence();
    LLL_ASSIGN_OR_RETURN(double d, OneNumber(args[0], "ceiling"));
    return IntSeq(static_cast<int64_t>(std::ceil(d)));
  });
  def("round", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return Sequence();
    LLL_ASSIGN_OR_RETURN(double d, OneNumber(args[0], "round"));
    return IntSeq(static_cast<int64_t>(std::floor(d + 0.5)));
  });

  // --- Nodes ------------------------------------------------------------

  auto node_arg = [](Sequence& arg, const char* what) -> Result<xml::Node*> {
    LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(arg, what));
    if (!item.is_node()) {
      return Status::TypeError(std::string(what) + ": expected a node");
    }
    return item.node();
  };

  def("name", 0, [](Evaluator& ev, std::vector<Sequence>&) -> Result<Sequence> {
    if (!ev.has_focus() || !ev.focus_item().is_node()) {
      return Status::Invalid("name() requires a node context item");
    }
    return StrSeq(ev.focus_item().node()->name());
  });
  def("name", 1, [node_arg](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return StrSeq("");
    LLL_ASSIGN_OR_RETURN(xml::Node * n, node_arg(args[0], "name"));
    return StrSeq(n->name());
  });
  def("local-name", 1, [node_arg](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return StrSeq("");
    LLL_ASSIGN_OR_RETURN(xml::Node * n, node_arg(args[0], "local-name"));
    const std::string& name = n->name();
    size_t colon = name.find(':');
    return StrSeq(colon == std::string::npos ? name : name.substr(colon + 1));
  });
  def("root", 1, [node_arg](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args[0].empty()) return Sequence();
    LLL_ASSIGN_OR_RETURN(xml::Node * n, node_arg(args[0], "root"));
    return Sequence(Item::NodeRef(n->Root()));
  });
  def("data", 1, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    return args[0].Atomized();
  });
  def("doc", 1, [](Evaluator& ev, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string name, OneStringOrEmpty(args[0], "doc"));
    xml::Node* doc = ev.context()->LookupDocument(name);
    if (doc == nullptr) {
      return Status::NotFound("doc(): no document registered as \"" + name +
                              "\" (err:FODC0002)");
    }
    return Sequence(Item::NodeRef(doc));
  });

  // parse-xml-fragment($text): parses a string as an XML fragment and
  // returns the resulting nodes (copied into the construction arena), or the
  // empty sequence if the text is not well-formed. An extension (the 2004
  // drafts had nothing like fn:parse-xml) that the document generator uses
  // for HTML-valued properties -- "a big messy blob of formatted text that
  // probably got pasted in from some other application".
  def("parse-xml-fragment", 1, [](Evaluator& ev, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string text,
                         OneStringOrEmpty(args[0], "parse-xml-fragment"));
    auto parsed = xml::Parse("<fragment-wrapper>" + text + "</fragment-wrapper>");
    if (!parsed.ok()) return Sequence();
    Sequence out;
    for (const xml::Node* child :
         (*parsed)->DocumentElement()->children()) {
      out.Append(Item::NodeRef(ev.CopyNodeIntoArena(child)));
    }
    return out;
  }, kConstructs);

  // --- Diagnostics ----------------------------------------------------------

  def("error", 0, [](Evaluator&, std::vector<Sequence>&) -> Result<Sequence> {
    return Status::Invalid("fn:error (err:FOER0000)");
  }, kErrors);
  def("error", 1, [](Evaluator& ev, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string msg, OneStringOrEmpty(args[0], "error"));
    ev.Trace("error: " + msg);
    return Status::Invalid("fn:error: " + msg);
  }, kErrors);
  def("error", 2, [](Evaluator& ev, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(std::string code, OneStringOrEmpty(args[0], "error"));
    LLL_ASSIGN_OR_RETURN(std::string msg, OneStringOrEmpty(args[1], "error"));
    ev.Trace("error: " + code + ": " + msg);
    return Status::Invalid("fn:error: " + code + ": " + msg);
  }, kErrors);
  def("trace", kVariadic, [](Evaluator& ev, std::vector<Sequence>& args) -> Result<Sequence> {
    if (args.empty()) return Status::Invalid("trace() needs an argument");
    std::string line;
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) line += " ";
      line += args[i].DebugString();
    }
    ev.Trace(line);
    return args.back();
  }, kTraces);

  // --- map: (lessons-applied extension, Moral #1) ---------------------------
  //
  // "A little language should provide basic data structures ... Lists and
  // maps may well be enough." These are immutable maps from strings to
  // arbitrary sequences; map:put returns a new map. Unlike the sequence
  // workarounds of E9, a map HOLDS a sequence value without flattening it
  // and holds attribute nodes without folding them.

  auto one_map = [](Sequence& arg,
                    const char* what) -> Result<std::shared_ptr<const xdm::MapValue>> {
    LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(arg, what));
    if (!item.is_map()) {
      return Status::TypeError(std::string(what) + ": expected a map, got " +
                               ItemKindName(item.kind()));
    }
    return item.map_value();
  };
  auto one_key = [](Sequence& arg, const char* what) -> Result<std::string> {
    LLL_ASSIGN_OR_RETURN(Item item, xdm::RequireSingleton(arg.Atomized(), what));
    if (item.is_map()) {
      return Status::TypeError(std::string(what) + ": a map is not a key");
    }
    return item.StringForm();
  };

  def("map:new", 0, [](Evaluator&, std::vector<Sequence>&) -> Result<Sequence> {
    return Sequence(Item::Map(std::make_shared<const xdm::MapValue>()));
  });
  def("map:put", 3, [one_map, one_key](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(auto map, one_map(args[0], "map:put"));
    LLL_ASSIGN_OR_RETURN(std::string key, one_key(args[1], "map:put"));
    auto updated = std::make_shared<xdm::MapValue>(*map);
    updated->entries[key] = args[2];
    return Sequence(Item::Map(std::move(updated)));
  });
  def("map:get", 2, [one_map, one_key](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(auto map, one_map(args[0], "map:get"));
    LLL_ASSIGN_OR_RETURN(std::string key, one_key(args[1], "map:get"));
    auto it = map->entries.find(key);
    return it == map->entries.end() ? Sequence() : it->second;
  });
  def("map:contains", 2, [one_map, one_key](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(auto map, one_map(args[0], "map:contains"));
    LLL_ASSIGN_OR_RETURN(std::string key, one_key(args[1], "map:contains"));
    return BoolSeq(map->entries.count(key) != 0);
  });
  def("map:remove", 2, [one_map, one_key](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(auto map, one_map(args[0], "map:remove"));
    LLL_ASSIGN_OR_RETURN(std::string key, one_key(args[1], "map:remove"));
    auto updated = std::make_shared<xdm::MapValue>(*map);
    updated->entries.erase(key);
    return Sequence(Item::Map(std::move(updated)));
  });
  def("map:size", 1, [one_map](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(auto map, one_map(args[0], "map:size"));
    return IntSeq(static_cast<int64_t>(map->entries.size()));
  });
  def("map:keys", 1, [one_map](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(auto map, one_map(args[0], "map:keys"));
    Sequence out;
    for (const auto& [key, value] : map->entries) {
      out.Append(Item::String(key));
    }
    return out;
  });

  // --- math: (the "bit of trigonometry") -----------------------------------

  auto math1 = [&def](const std::string& name, double (*fn)(double)) {
    def(name, 1, [fn, name](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
      if (args[0].empty()) return Sequence();
      LLL_ASSIGN_OR_RETURN(double d, OneNumber(args[0], name.c_str()));
      return DblSeq(fn(d));
    });
  };
  math1("math:sqrt", std::sqrt);
  math1("math:sin", std::sin);
  math1("math:cos", std::cos);
  math1("math:tan", std::tan);
  math1("math:asin", std::asin);
  math1("math:acos", std::acos);
  math1("math:atan", std::atan);
  math1("math:exp", std::exp);
  math1("math:log", std::log);
  def("math:pi", 0, [](Evaluator&, std::vector<Sequence>&) -> Result<Sequence> {
    return DblSeq(3.141592653589793);
  });
  def("math:atan2", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(double y, OneNumber(args[0], "atan2"));
    LLL_ASSIGN_OR_RETURN(double x, OneNumber(args[1], "atan2"));
    return DblSeq(std::atan2(y, x));
  });
  def("math:pow", 2, [](Evaluator&, std::vector<Sequence>& args) -> Result<Sequence> {
    LLL_ASSIGN_OR_RETURN(double base, OneNumber(args[0], "pow"));
    LLL_ASSIGN_OR_RETURN(double exp, OneNumber(args[1], "pow"));
    return DblSeq(std::pow(base, exp));
  });

  return reg;
}

}  // namespace

const Builtin* FindBuiltin(const std::string& name, size_t arity) {
  static const Registry& registry = *new Registry(BuildRegistry());
  auto it = registry.find({name, arity});
  if (it == registry.end()) it = registry.find({name, kVariadic});
  return it == registry.end() ? nullptr : &it->second;
}

}  // namespace lll::xq
