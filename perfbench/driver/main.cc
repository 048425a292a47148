// perfbench_driver: one seeded run of one workload.
//
//   perfbench_driver --workload serve_mixed|docgen_reports|awbql_queries
//                    --seed N --seconds S --trace 0|1
//                    [--trace-dir DIR] [--state-dir DIR]
//
// Prints human-readable detail lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, each {"value", "unit"}; with --trace 1 they are
// the per-layer metrics on this workload's path, each {"value"} alone, and
// the spans of the traced half are written to
// DIR/<workload>-seed<N>.trace.json. perfbench/run.py checks the names
// against BENCHMARK.json, takes the per-layer units from there, and fills
// in 0 for the layers a workload never calls.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload "
               "serve_mixed|docgen_reports|awbql_queries --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--state-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed wants an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("--seconds wants > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.trace_dir.empty()) args.trace_dir = ".";
  if (args.state_dir.empty()) args.state_dir = "perfbench-state";
  return args;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// The traced run's artifact: per-layer values, per-span-name medians (total
// and self time), the attached metrics registry, and every raw span.
void WriteTrace(const Args& args, const Report& report) {
  std::filesystem::create_directories(args.trace_dir);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\"workload\":" << JsonString(args.workload)
      << ",\"seed\":" << args.seed << ",\"per_layer\":{";
  bool first = true;
  for (const auto& [name, value] : report.per_layer) {
    out << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(value);
    first = false;
  }
  out << "},\"span_summary\":{";
  first = true;
  for (const auto& [name, stats] : SummarizeSpans(report.tracers)) {
    out << (first ? "" : ",") << JsonString(name)
        << ":{\"count\":" << stats.total.count()
        << ",\"total_p50_us\":" << JsonNumber(stats.total.PercentileUs(50))
        << ",\"self_p50_us\":" << JsonNumber(stats.self.PercentileUs(50))
        << "}";
    first = false;
  }
  out << "},\"registry\":"
      << (report.registry_json.empty() ? "null" : report.registry_json)
      << ",\"spans\":[";
  first = true;
  for (size_t t = 0; t < report.tracers.size(); ++t) {
    for (const Span& s : report.tracers[t].spans()) {
      out << (first ? "" : ",") << "[" << JsonString(s.name) << ","
          << s.start_ns << "," << s.end_ns << "," << s.parent << "," << s.op
          << "," << t << "]";
      first = false;
    }
  }
  out << "]}\n";
  std::printf("trace written to %s\n", path.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  Report report;
  if (args.workload == "serve_mixed") {
    report = RunServeMixed(args);
  } else if (args.workload == "docgen_reports") {
    report = RunDocgenReports(args);
  } else if (args.workload == "awbql_queries") {
    report = RunAwbqlQueries(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench_driver: no operation completed\n");
    return 1;
  }

  std::printf("== %s seed=%llu trace=%d ==\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  for (const std::string& line : report.detail) {
    std::printf("%s\n", line.c_str());
  }

  std::string metrics;
  if (args.trace) {
    for (const auto& [name, value] : report.per_layer) {
      std::printf("%s\n", DetailLine(name, value, "").c_str());
      metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(name) +
                 ": {\"value\": " + JsonNumber(value) + "}";
    }
    for (const auto& [name, stats] : SummarizeSpans(report.tracers)) {
      std::printf("span %-30s n=%-7zu total_p50 %10.3f us  "
                  "self_p50 %10.3f us\n",
                  name.c_str(), stats.total.count(),
                  stats.total.PercentileUs(50), stats.self.PercentileUs(50));
    }
    WriteTrace(args, report);
  } else {
    for (const Metric& m : report.end_to_end) {
      metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(m.name) +
                 ": {\"value\": " + JsonNumber(m.value) +
                 ", \"unit\": " + JsonString(m.unit) + "}";
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
