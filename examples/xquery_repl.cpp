// xquery_repl: an interactive XQuery shell over the engine.
//
//   ./build/examples/xquery_repl [context.xml]
//
// Reads one query per line (a blank line, "quit", or EOF exits). If a
// context document is given, paths like /a/b and . work against it.
// Multi-line queries: end a line with '\' to continue.
//
// Special commands:
//   :galax          toggle Galax-style error messages
//   :noopt          toggle the optimizer (watch trace() reappear)
//   :trace          toggle recognize_trace in the optimizer
//   :ast QUERY      print the parsed (and optimized) expression
//   :explain QUERY  EXPLAIN: optimized plan + every rewrite decision
//                   (update scripts get an update plan with the subtree
//                   guards each statement would dirty)
//   :update SCRIPT  apply an update script ("insert <x/> into /a; delete
//                   /a/b[1]", update_parser.h) to the context document;
//                   cached chains guarding the edited subtrees invalidate,
//                   the rest keep hitting (:metrics shows the split)
//   :profile        toggle the per-expression profiler (hot-spot report
//                   after each query)
//   :metrics        print the global metrics registry as JSON

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "core/metrics.h"
#include "obs/explain.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/nodeset_cache.h"
#include "xquery/parser.h"
#include "xquery/update_eval.h"
#include "xquery/update_parser.h"

int main(int argc, char** argv) {
  std::unique_ptr<lll::xml::Document> context_doc;
  if (argc > 1) {
    auto parsed = lll::xml::ParseFile(argv[1]);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    context_doc = std::move(*parsed);
    std::printf("context: %s (root <%s>)\n", argv[1],
                context_doc->DocumentElement()->name().c_str());
  }

  lll::xq::CompileOptions compile_options;
  lll::xq::ExecuteOptions exec_options;
  if (context_doc != nullptr) exec_options.context_node = context_doc->root();
  // Feed the global registry so :metrics has something to show.
  const lll::xq::ExecMetrics exec_metrics(lll::GlobalMetrics());
  exec_options.metrics = &exec_metrics;
  // Session-scoped interning: repeated queries over the context document
  // reuse their rooted step chains (:metrics shows the
  // xq.eval.nodeset_cache_* counters move). Declared after context_doc so
  // cached node pointers never outlive the document they point into.
  lll::xq::NodeSetCache nodeset_cache;
  exec_options.eval.nodeset_cache = &nodeset_cache;

  std::printf("lll xquery repl -- empty line or 'quit' to exit\n");
  std::string line;
  while (true) {
    std::printf("xq> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Continuation lines.
    while (!line.empty() && line.back() == '\\') {
      line.pop_back();
      line.push_back('\n');
      std::string more;
      std::printf("..> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, more)) break;
      line += more;
    }
    if (line.empty() || line == "quit" || line == "exit") break;

    if (line == ":galax") {
      exec_options.eval.galax_style_messages =
          !exec_options.eval.galax_style_messages;
      std::printf("galax-style messages: %s\n",
                  exec_options.eval.galax_style_messages ? "on" : "off");
      continue;
    }
    if (line == ":noopt") {
      compile_options.optimize = !compile_options.optimize;
      std::printf("optimizer: %s\n", compile_options.optimize ? "on" : "off");
      continue;
    }
    if (line == ":trace") {
      compile_options.optimizer.recognize_trace =
          !compile_options.optimizer.recognize_trace;
      std::printf("recognize_trace: %s\n",
                  compile_options.optimizer.recognize_trace ? "on" : "off");
      continue;
    }
    if (line.rfind(":ast ", 0) == 0) {
      auto compiled = lll::xq::Compile(line.substr(5), compile_options);
      if (!compiled.ok()) {
        std::printf("%s\n", compiled.status().ToString().c_str());
      } else {
        std::printf("%s\n",
                    lll::xq::ExprToString(*compiled->module().body).c_str());
      }
      continue;
    }
    if (line.rfind(":update ", 0) == 0) {
      if (context_doc == nullptr) {
        std::printf(":update needs a context document (pass context.xml)\n");
        continue;
      }
      auto update = lll::xq::CompileUpdateText(line.substr(8));
      if (!update.ok()) {
        std::printf("%s\n", update.status().ToString().c_str());
        continue;
      }
      lll::xq::UpdateOptions uo;
      uo.metrics = &lll::GlobalMetrics();
      auto stats = lll::xq::ApplyUpdate(*update, context_doc.get(), uo);
      if (!stats.ok()) {
        std::printf("%s\n", stats.status().ToString().c_str());
        continue;
      }
      // In-place edit, not a copy-on-write publish: the interned chains stay
      // in the session cache and re-validate their name guards on the next
      // lookup -- only chains that test a name the edit touched miss.
      std::printf("applied %zu statement(s), %zu target node(s)\n",
                  stats->statements, stats->target_nodes);
      continue;
    }
    if (line.rfind(":explain ", 0) == 0) {
      std::string text = line.substr(9);
      if (lll::xq::IsUpdateScript(text)) {
        auto update = lll::xq::CompileUpdateText(text, compile_options);
        if (!update.ok()) {
          std::printf("%s\n", update.status().ToString().c_str());
        } else {
          std::printf("%s", lll::xq::ExplainUpdate(*update, context_doc.get())
                                .c_str());
        }
        continue;
      }
      auto compiled = lll::xq::Compile(line.substr(9), compile_options);
      if (!compiled.ok()) {
        std::printf("%s\n", compiled.status().ToString().c_str());
      } else {
        lll::obs::ExplainOptions eo;
        eo.provenance =
            compile_options.optimize ? "repl, optimized" : "repl, unoptimized";
        // With a context document loaded, [interned] steps render as
        // [interned@vN] -- N being the document's current edit epoch.
        eo.context_document = context_doc.get();
        std::printf("%s", lll::obs::Explain(*compiled, eo).c_str());
      }
      continue;
    }
    if (line == ":profile") {
      exec_options.eval.profile = !exec_options.eval.profile;
      std::printf("profiler: %s\n", exec_options.eval.profile ? "on" : "off");
      continue;
    }
    if (line == ":metrics") {
      std::printf("%s\n", lll::GlobalMetrics().ToJson().c_str());
      continue;
    }

    auto result = lll::xq::Run(line, exec_options, compile_options);
    if (!result.ok()) {
      std::printf("%s\n", result.status().ToString().c_str());
      continue;
    }
    for (const std::string& trace : result->trace_output) {
      std::printf("[trace] %s\n", trace.c_str());
    }
    std::printf("%s\n", result->SerializedItems().c_str());
    if (result->profile != nullptr) {
      std::printf("%s", result->profile->Render().c_str());
    }
  }
  std::printf("\n");
  return 0;
}
