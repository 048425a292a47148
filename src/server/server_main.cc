// lll_serverd: the query-server daemon. A line protocol over stdio by
// default, or TCP with --port N (one thread and one Session per connection,
// so every connection gets snapshot-pinned repeatable reads until it sends
// "refresh").
//
//   lll_serverd [--port N] [--demo] [--state-dir DIR]
//
// Protocol (one command per line; responses end with a line "." on their
// own). A line holds at most kMaxLineBytes (16 MiB) before its newline. A
// longer line is dropped as it is read, without being buffered, and answered
// "error: line exceeds 16777216 bytes"; the connection stays open. Larger
// documents go through `load <name> <path>`.
//
//   load <name> <path>          register a document from an XML file
//   load <dir>                  warm-boot: restore a state directory
//                               written by `save` (plans.lllp + *.llld)
//   save <dir>                  persist the plan cache's keys and every
//                               current document snapshot into <dir>
//   doc <name> <xml>            register a document from inline XML
//   publish <name> <xml>        publish a new version (inline XML)
//   query <tenant> <doc> <xq>   run an XQuery on the session's pinned
//                               snapshot of <doc>
//   update <doc> <statement>    apply an update script ("insert .. into ..",
//                               "delete ..", "replace .. with ..",
//                               "rename .. as ..", ';'-separated) through
//                               the copy-on-write publish path
//   explain <doc> <xq>          optimized plan + snapshot/cache provenance
//                               (update scripts get an update plan)
//   snapshot <doc>              current published version
//   refresh                     drop this session's snapshot pins
//   quota <tenant> <inflight> <steps> <timeout_ms>
//   metrics                     JSON metrics snapshot
//   quit
//
// --demo preloads a small catalog document under the name "demo".
// --state-dir DIR restores DIR at startup (missing/stale artifacts are a
// clean cold start): documents load from their snapshots without an XML
// parse, and the recorded working set of queries is compiled before the
// first request. DIR also confines the file verbs: every <path> and <dir>
// above is resolved under it and must stay inside it (no absolute paths, no
// escape through `..` or a symlink). Without --state-dir the file verbs are
// refused.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <ext/stdio_filebuf.h>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "server/server.h"

namespace {

using lll::server::QueryServer;
using lll::server::Session;

// Splits off the first `n` whitespace-separated words; the remainder of the
// line (queries, inline XML) stays intact in `rest`.
bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::vector<std::string> SplitWords(const std::string& line, size_t n,
                                    std::string* rest) {
  std::vector<std::string> words;
  size_t pos = 0;
  while (words.size() < n && pos < line.size()) {
    while (pos < line.size() && IsSpace(line[pos])) ++pos;
    size_t start = pos;
    while (pos < line.size() && !IsSpace(line[pos])) ++pos;
    if (pos > start) words.push_back(line.substr(start, pos - start));
  }
  while (pos < line.size() && IsSpace(line[pos])) ++pos;
  *rest = line.substr(pos);
  return words;
}

// The longest protocol line Serve() accepts, newline excluded.
constexpr size_t kMaxLineBytes = size_t{16} << 20;

// std::getline with a cap: reads one line into `line` without its newline,
// keeping at most kMaxLineBytes. The rest of a longer line is consumed
// without being buffered, and `too_long` is set. False at end of input.
bool ReadLine(std::istream& in, std::string* line, bool* too_long) {
  line->clear();
  *too_long = false;
  std::streambuf* buf = in.rdbuf();
  bool read_any = false;
  for (int c = buf->sbumpc(); c != std::char_traits<char>::eof();
       c = buf->sbumpc()) {
    read_any = true;
    if (c == '\n') return true;
    if (line->size() < kMaxLineBytes) {
      line->push_back(static_cast<char>(c));
    } else {
      *too_long = true;
    }
  }
  return read_any;
}

// Parses a full decimal unsigned integer; false on anything malformed.
// Client input must never throw out of Serve() -- that would kill the whole
// daemon, not just the offending connection.
bool ParseUint(const std::string& word, uint64_t* out) {
  const char* first = word.data();
  const char* last = first + word.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last && !word.empty();
}

// One client conversation: reads commands from `in`, answers on `out`.
// Sessions are per-tenant within the conversation, so repeated queries from
// one connection see pinned snapshots.
void Serve(QueryServer* server, const std::string& state_dir,
           std::istream& in, std::ostream& out) {
  std::map<std::string, Session> sessions;
  auto session_for = [&](const std::string& tenant) -> Session& {
    auto it = sessions.find(tenant);
    if (it == sessions.end()) {
      it = sessions.emplace(tenant, server->OpenSession(tenant)).first;
    }
    return it->second;
  };

  std::string line;
  bool too_long = false;
  while (ReadLine(in, &line, &too_long)) {
    if (too_long) {
      out << "error: line exceeds " << kMaxLineBytes << " bytes\n.\n"
          << std::flush;
      continue;
    }
    std::string rest;
    std::vector<std::string> head = SplitWords(line, 1, &rest);
    if (head.empty()) continue;
    const std::string& cmd = head[0];

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "metrics") {
      out << server->MetricsJson() << "\n.\n" << std::flush;
      continue;
    }
    if (cmd == "refresh") {
      for (auto& [tenant, session] : sessions) session.Refresh();
      out << "ok\n.\n" << std::flush;
      continue;
    }
    if (cmd == "save") {
      std::string unused;
      std::vector<std::string> words = SplitWords(line, 2, &unused);
      if (words.size() < 2) {
        out << "error: usage: save <dir>\n.\n" << std::flush;
        continue;
      }
      auto dir = lll::server::ResolveStatePath(state_dir, words[1]);
      lll::Status st = dir.ok() ? server->SaveState(*dir) : dir.status();
      out << (st.ok() ? std::string("ok") : "error: " + st.ToString())
          << "\n.\n"
          << std::flush;
      continue;
    }
    if (cmd == "load" || cmd == "doc" || cmd == "publish") {
      std::string args;
      std::vector<std::string> words = SplitWords(line, 2, &args);
      if (cmd == "load" && words.size() == 2 && args.empty()) {
        // One argument: restore a state directory written by `save`.
        auto dir = lll::server::ResolveStatePath(state_dir, words[1]);
        lll::Status st = dir.ok() ? server->LoadState(*dir) : dir.status();
        out << (st.ok() ? std::string("ok") : "error: " + st.ToString())
            << "\n.\n"
            << std::flush;
        continue;
      }
      if (words.size() < 2 || args.empty()) {
        out << "error: usage: " << cmd << " <name> <"
            << (cmd == "load" ? "path" : "xml") << ">\n.\n"
            << std::flush;
        continue;
      }
      const std::string& name = words[1];
      std::string xml = args;
      if (cmd == "load") {
        auto path = lll::server::ResolveStatePath(state_dir, args);
        if (!path.ok()) {
          out << "error: " << path.status().ToString() << "\n.\n"
              << std::flush;
          continue;
        }
        std::ifstream file(*path);
        if (!file) {
          out << "error: cannot open " << args << "\n.\n" << std::flush;
          continue;
        }
        std::ostringstream buf;
        buf << file.rdbuf();
        xml = buf.str();
      }
      if (cmd == "publish") {
        auto version = server->PublishXml(name, xml);
        if (version.ok()) {
          out << "published version " << *version << "\n.\n" << std::flush;
        } else {
          out << "error: " << version.status().ToString() << "\n.\n"
              << std::flush;
        }
      } else {
        lll::Status st = server->AddDocumentXml(name, xml);
        out << (st.ok() ? std::string("ok") : "error: " + st.ToString())
            << "\n.\n"
            << std::flush;
      }
      continue;
    }
    if (cmd == "query") {
      std::string query;
      std::vector<std::string> words = SplitWords(line, 3, &query);
      if (words.size() < 3 || query.empty()) {
        out << "error: usage: query <tenant> <doc> <xquery>\n.\n"
            << std::flush;
        continue;
      }
      auto resp = session_for(words[1]).Query(words[2], query);
      if (resp.status.ok()) {
        out << "snapshot " << resp.snapshot_version << " (" << resp.latency_us
            << "us)\n"
            << resp.result << "\n.\n"
            << std::flush;
      } else {
        out << (resp.rejected ? "rejected: " : "error: ")
            << resp.status.ToString() << "\n.\n"
            << std::flush;
      }
      continue;
    }
    if (cmd == "update") {
      std::string statement;
      std::vector<std::string> words = SplitWords(line, 2, &statement);
      if (words.size() < 2 || statement.empty()) {
        out << "error: usage: update <doc> <statement>\n.\n" << std::flush;
        continue;
      }
      // PublishUpdate reports malformed statements, bad targets, and
      // conflicting claims as Status values -- nothing a client sends here
      // can throw out of Serve().
      lll::xq::UpdateStats stats;
      auto version = server->PublishUpdate(words[1], statement, &stats);
      if (version.ok()) {
        out << "published version " << *version << " (" << stats.statements
            << " statements, " << stats.target_nodes << " target nodes)\n.\n"
            << std::flush;
      } else {
        out << "error: " << version.status().ToString() << "\n.\n"
            << std::flush;
      }
      continue;
    }
    if (cmd == "explain") {
      std::string query;
      std::vector<std::string> words = SplitWords(line, 2, &query);
      if (words.size() < 2 || query.empty()) {
        out << "error: usage: explain <doc> <xquery>\n.\n" << std::flush;
        continue;
      }
      auto plan = server->Explain(words[1], query);
      if (plan.ok()) {
        out << *plan << ".\n" << std::flush;
      } else {
        out << "error: " << plan.status().ToString() << "\n.\n" << std::flush;
      }
      continue;
    }
    if (cmd == "snapshot") {
      std::string unused;
      std::vector<std::string> words = SplitWords(line, 2, &unused);
      auto snap =
          words.size() >= 2 ? server->CurrentSnapshot(words[1]) : nullptr;
      if (snap == nullptr) {
        out << "error: no such document\n.\n" << std::flush;
      } else {
        out << "version " << snap->version() << "\n.\n" << std::flush;
      }
      continue;
    }
    if (cmd == "quota") {
      std::string unused;
      std::vector<std::string> words = SplitWords(line, 5, &unused);
      if (words.size() < 5) {
        out << "error: usage: quota <tenant> <inflight> <steps> "
               "<timeout_ms>\n.\n"
            << std::flush;
        continue;
      }
      uint64_t inflight = 0, steps = 0, timeout_ms = 0;
      if (!ParseUint(words[2], &inflight) || !ParseUint(words[3], &steps) ||
          !ParseUint(words[4], &timeout_ms)) {
        out << "error: quota arguments must be non-negative integers\n.\n"
            << std::flush;
        continue;
      }
      lll::server::TenantQuota quota;
      quota.max_inflight = static_cast<size_t>(inflight);
      quota.max_eval_steps = static_cast<size_t>(steps);
      quota.timeout_ms = timeout_ms;
      server->SetQuota(words[1], quota);
      out << "ok\n.\n" << std::flush;
      continue;
    }
    out << "error: unknown command '" << cmd << "'\n.\n" << std::flush;
  }
}

// Minimal blocking TCP front end: accept, one thread + one conversation per
// connection. Enough to demonstrate "EXPLAIN over the wire" with netcat; the
// heavy lifting (isolation, quotas, metrics) all lives in lll_server.
int ServeTcp(QueryServer* server, const std::string& state_dir, int port) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "lll_serverd: listening on 127.0.0.1:%d\n", port);
  for (;;) {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    std::thread([server, &state_dir, fd]() {
      // Buffer the whole conversation through iostreams over the fd.
      __gnu_cxx::stdio_filebuf<char> inbuf(fd, std::ios::in);
      __gnu_cxx::stdio_filebuf<char> outbuf(::dup(fd), std::ios::out);
      std::istream in(&inbuf);
      std::ostream out(&outbuf);
      Serve(server, state_dir, in, out);
    }).detach();
  }
}

constexpr char kDemoDocument[] =
    "<catalog n=\"3\">"
    "<item id=\"1\"><name>lens</name></item>"
    "<item id=\"2\"><name>prism</name></item>"
    "<item id=\"3\"><name>mirror</name></item>"
    "</catalog>";

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  // Serve() runs every command on its connection's thread and never calls
  // Submit, so the server starts no pool workers.
  lll::server::ServerOptions options;
  options.worker_threads = 0;
  bool demo = false;
  std::string state_dir;
  auto usage = [](const char* complaint, const char* value) {
    std::fprintf(stderr, "lll_serverd: %s: '%s'\n", complaint, value);
    std::fprintf(stderr,
                 "usage: lll_serverd [--port N] [--demo] [--state-dir DIR]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      uint64_t value = 0;
      if (!ParseUint(argv[++i], &value) || value == 0 || value > 65535) {
        return usage("--port wants an integer in [1, 65535]", argv[i]);
      }
      port = static_cast<int>(value);
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--state-dir" && i + 1 < argc) {
      state_dir = argv[++i];
    } else {
      std::fprintf(
          stderr, "usage: lll_serverd [--port N] [--demo] [--state-dir DIR]\n");
      return 2;
    }
  }
  QueryServer server(options);
  if (demo) {
    lll::Status st = server.AddDocumentXml("demo", kDemoDocument);
    if (!st.ok()) {
      std::fprintf(stderr, "demo document: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!state_dir.empty() && std::filesystem::exists(state_dir)) {
    // Warm boot. A missing directory is simply a cold start; artifacts the
    // load skipped show up in persist.* metrics, not on stderr.
    lll::Status st = server.LoadState(state_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "state dir %s: %s\n", state_dir.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "lll_serverd: warm boot, %zu documents resident\n",
                 server.DocumentNames().size());
  }
  if (port != 0) return ServeTcp(&server, state_dir, port);
  Serve(&server, state_dir, std::cin, std::cout);
  return 0;
}
