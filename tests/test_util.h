#ifndef LLL_TESTS_TEST_UTIL_H_
#define LLL_TESTS_TEST_UTIL_H_

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/update_eval.h"

namespace lll::testing {

// Runs a query with no context and returns the serialized result; fails the
// current test on any error.
inline std::string Eval(const std::string& query) {
  auto result = xq::Run(query);
  EXPECT_TRUE(result.ok()) << "query: " << query << "\n"
                           << result.status().ToString();
  if (!result.ok()) return "<ERROR: " + result.status().ToString() + ">";
  return result->SerializedItems();
}

// Runs a query against a context document given as XML text.
inline std::string EvalWithContext(const std::string& query,
                                   const std::string& xml) {
  auto doc = xml::Parse(xml, {.strip_insignificant_whitespace = true});
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return "<PARSE ERROR>";
  xq::ExecuteOptions opts;
  opts.context_node = (*doc)->root();
  auto result = xq::Run(query, opts);
  EXPECT_TRUE(result.ok()) << "query: " << query << "\n"
                           << result.status().ToString();
  if (!result.ok()) return "<ERROR: " + result.status().ToString() + ">";
  return result->SerializedItems();
}

// Expects the query to fail; returns the status message (empty on
// unexpected success).
inline std::string EvalError(const std::string& query) {
  auto result = xq::Run(query);
  EXPECT_FALSE(result.ok()) << "query unexpectedly succeeded: " << query
                            << " -> " << result->SerializedItems();
  if (result.ok()) return "";
  return result.status().ToString();
}

// --- The shared random path workload ---------------------------------------
//
// The generator behind the differential suites: a randomly grown document
// plus randomly composed path queries (forward/reverse axes, attributes,
// predicates, early-exit wrappers). xquery_streaming_test runs it streamed
// vs. materializing; the server differential test runs it four-sessions
// concurrent vs. single-threaded. Call the document generator FIRST, then
// the query generator, on the same engine -- that ordering is part of the
// seeded contract.

// Grows a random document as text: ~200 elements, names drawn from a small
// alphabet so paths collide with real structure often.
inline std::string RandomPathWorkloadDocument(std::mt19937* rng) {
  auto pick = [rng](int n) { return static_cast<int>((*rng)() % n); };
  const char* names[] = {"a", "b", "c", "d"};
  std::string xml = "<r>";
  std::vector<std::string> open;
  for (int i = 0; i < 200; ++i) {
    int action = pick(open.size() > 6 ? 3 : 2);
    if (action == 2 && !open.empty()) {
      xml += "</" + open.back() + ">";
      open.pop_back();
      continue;
    }
    std::string name = names[pick(4)];
    xml += "<" + name;
    if (pick(3) == 0) xml += " k=\"" + std::to_string(pick(4)) + "\"";
    if (action == 0) {
      xml += "/>";
    } else {
      xml += ">";
      open.push_back(name);
      if (pick(4) == 0) xml += "t" + std::to_string(pick(9));
    }
  }
  while (!open.empty()) {
    xml += "</" + open.back() + ">";
    open.pop_back();
  }
  xml += "</r>";
  return xml;
}

// The vocabulary the query generator below draws from: node tests (with
// repeats, for their draw weight), step predicates, and the keys of the
// hash-probe shapes, each evaluated with $v bound. Exposed so that other
// batteries can cover every shape exhaustively.
inline constexpr const char* kPathWorkloadTests[] = {"a", "b", "c", "d",
                                                     "*", "a", "b"};
inline constexpr const char* kPathWorkloadPredicates[] = {
    "",      "",       "[1]",    "[2]",
    "[last()]", "[@k]",   "[@k=\"1\"]", "[c]",
    "[position() < 3]", "[b/c]"};
inline constexpr const char* kPathWorkloadProbeKeys[] = {
    "$v", "string($v)", "($v, \"3\")", "()", "1", "\"2\""};

// Composes `count` random path queries: 1-4 steps over /, //, explicit
// reverse-axis prefixes and attribute steps, a predicate per step, and an
// early-exit wrapper ((..)[N], exists, count, subsequence, fn:head,
// positional for) one time in three. Then appends count/8 hash-probe
// shapes, so 440 gives the 495-query workload.
inline std::vector<std::string> RandomPathWorkloadQueries(std::mt19937* rng,
                                                          int count) {
  auto pick = [rng](int n) { return static_cast<int>((*rng)() % n); };
  const char* axes[] = {"/", "//", "/", "//"};
  const auto& tests = kPathWorkloadTests;
  const char* axis_prefixes[] = {"",          "",           "",
                                 "",          "",           "",
                                 "ancestor::", "ancestor-or-self::",
                                 "preceding-sibling::", "parent::"};
  const auto& preds = kPathWorkloadPredicates;
  std::vector<std::string> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::string path;
    int steps = 1 + pick(4);
    for (int s = 0; s < steps; ++s) {
      path += axes[pick(4)];
      if (pick(10) == 0) {
        path += "@k";
        path += preds[pick(2)];  // attributes: no children, plain or bare
        continue;
      }
      path += axis_prefixes[pick(10)];
      path += tests[pick(7)];
      path += preds[pick(10)];
    }
    std::string query = path;
    switch (pick(9)) {
      case 0:
        query = "(" + path + ")[" + std::to_string(1 + pick(3)) + "]";
        break;
      case 1:
        query = "exists(" + path + ")";
        break;
      case 2:
        query = "count(" + path + ")";
        break;
      case 3:
        query = "subsequence(" + path + ", 1, " + std::to_string(1 + pick(3)) +
                ")";
        break;
      case 4:
        query = "fn:head(" + path + ")";
        break;
      case 5:
        query = "for $v at $p in " + path + " where $p le " +
                std::to_string(1 + pick(3)) + " return $v";
        break;
      default:
        break;  // the bare path
    }
    queries.push_back(std::move(query));
  }
  // Probe shapes (DESIGN.md section 16), appended so the first `count`
  // queries stay as they were: `@k = KEY` predicates on let-bound paths, on
  // steps after an interned prefix, and before per-parent positions, with
  // node, string, multi-valued, empty, numeric and flipped keys.
  const auto& keys = kPathWorkloadProbeKeys;
  for (int i = 0; i < count / 8; ++i) {
    std::string test = tests[pick(7)];
    std::string key = keys[pick(6)];
    std::string pred =
        pick(4) == 0 ? "[" + key + " = @k]" : "[@k = " + key + "]";
    switch (pick(4)) {
      case 0:
        queries.push_back("for $v in (\"0\", \"1\", \"2\") return //" + test +
                          pred);
        break;
      case 1:
        queries.push_back("for $v in //@k return //" + test + pred + "[" +
                          std::to_string(1 + pick(2)) + "]");
        break;
      case 2:
        queries.push_back("let $s := //" + test +
                          " return for $v in (\"1\", \"3\") return $s" + pred);
        break;
      default:
        queries.push_back("for $v in (\"1\", \"2\") return /r/" + test + "/" +
                          tests[pick(7)] + pred);
        break;
    }
  }
  return queries;
}

// --- Random in-place edits (mutate-between-runs differentials) --------------

// Every element of the document, in document order (excluding the synthetic
// document root node itself).
inline std::vector<xml::Node*> AllElements(xml::Document* doc) {
  std::vector<xml::Node*> out;
  std::vector<xml::Node*> stack;
  if (doc->DocumentElement() != nullptr) stack.push_back(doc->DocumentElement());
  while (!stack.empty()) {
    xml::Node* n = stack.back();
    stack.pop_back();
    out.push_back(n);
    std::vector<xml::Node*> kids;
    for (xml::Node* c : n->children()) {
      if (c->is_element()) kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

// Applies ONE random edit to the document, drawn from the same structural
// vocabulary the path workload exercises. Three ops go through the raw
// mutators (append an element child with a k attribute half the time,
// remove a childless element, rewrite an element's k attribute); three go
// through the update LANGUAGE (rename, replace, insert-before), composed as
// statements against the node's canonical path and applied via
// CompileUpdateText + ApplyUpdate -- so the differential batteries exercise
// the update pipeline's target selection and mutation routing too, not just
// hand-called primitives. Every op bumps the document's structure/subtree
// versions through the ordinary mutators; this is the "mutate" half of the
// mutate-between-runs differential: after each edit, a cached evaluation
// must still agree byte-for-byte with a fresh one. Returns a description of
// the edit for failure messages.
inline std::string ApplyRandomEdit(xml::Document* doc, std::mt19937* rng) {
  auto pick = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  std::vector<xml::Node*> elements = AllElements(doc);
  if (elements.empty()) return "no-op (empty document)";
  const char* names[] = {"a", "b", "c", "d"};
  // Runs one update-language statement; true iff it compiled, applied, and
  // actually touched exactly the intended node.
  auto apply_statement = [doc](const std::string& stmt) {
    auto compiled = xq::CompileUpdateText(stmt);
    if (!compiled.ok()) {
      ADD_FAILURE() << "generated statement failed to compile: " << stmt
                    << "\n" << compiled.status().ToString();
      return false;
    }
    auto stats = xq::ApplyUpdate(*compiled, doc);
    return stats.ok() && stats->target_nodes == 1;
  };
  for (int attempt = 0; attempt < 8; ++attempt) {
    xml::Node* target = elements[pick(elements.size())];
    switch (pick(6)) {
      case 0: {  // append a fresh element child
        xml::Node* child = doc->CreateElement(names[pick(4)]);
        if (pick(2) == 0) {
          child->SetAttribute("k", std::to_string(pick(4)));
        }
        if (!target->AppendChild(child).ok()) continue;
        return "append <" + child->name() + "> under <" + target->name() + ">";
      }
      case 1: {  // remove a childless element (never the document element)
        if (target == doc->DocumentElement() || !target->children().empty()) {
          continue;
        }
        xml::Node* parent = target->parent();
        if (parent == nullptr) continue;
        std::string desc =
            "remove <" + target->name() + "> from <" + parent->name() + ">";
        if (!parent->RemoveChild(target).ok()) continue;
        return desc;
      }
      case 2: {  // "rename PATH as NAME" -- structure intact, names move
        std::string stmt = "rename " + xq::NodePathOf(target) + " as " +
                           names[pick(4)];
        if (!apply_statement(stmt)) continue;
        return stmt;
      }
      case 3: {  // "replace PATH with <fresh/>" (childless, not the root elem)
        if (target == doc->DocumentElement() || !target->children().empty()) {
          continue;
        }
        std::string payload = std::string("<") + names[pick(4)];
        if (pick(2) == 0) payload += " k=\"" + std::to_string(pick(4)) + "\"";
        payload += "/>";
        std::string stmt =
            "replace " + xq::NodePathOf(target) + " with " + payload;
        if (!apply_statement(stmt)) continue;
        return stmt;
      }
      case 4: {  // "insert <fresh/> before PATH" (not before the root elem)
        if (target == doc->DocumentElement()) continue;
        std::string stmt = std::string("insert <") + names[pick(4)] +
                           "/> before " + xq::NodePathOf(target);
        if (!apply_statement(stmt)) continue;
        return stmt;
      }
      default: {  // rewrite (or introduce) the k attribute
        target->SetAttribute("k", std::to_string(pick(9)));
        return "set @k on <" + target->name() + ">";
      }
    }
  }
  // All attempts hit ineligible targets; fall back to the always-legal edit.
  elements[0]->SetAttribute("k", "fallback");
  return "set @k on the document element (fallback)";
}

}  // namespace lll::testing

#endif  // LLL_TESTS_TEST_UTIL_H_
