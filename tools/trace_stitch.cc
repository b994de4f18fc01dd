// trace_stitch — stitch per-daemon /trace JSONL dumps into per-round
// cross-process timelines.
//
//   $ curl -s http://127.0.0.1:9101/trace > coordd.jsonl
//   $ curl -s http://127.0.0.1:9102/trace > hopd0.jsonl
//   $ trace_stitch coordd.jsonl hopd0.jsonl
//   round 7
//     +0us      coordd    lifecycle/announced  type=conv
//     +1833us   hopd-0    hop/pass             op=forward_conversation ...
//
// The stitching itself (JSONL parse, per-round grouping, wall-clock sort)
// lives in src/obs/trace.h so tests cover it; this binary only reads files
// and applies CI assertions:
//
//   --require SPAN   every stitched round must contain SPAN (repeatable);
//                    a miss lists the offending rounds and exits 1
//   --min-rounds N   at least N rounds must appear in the stitch
//   --quiet          suppress the timeline, run the assertions only
//
// A file named "-" reads stdin, so `curl .../trace | trace_stitch -` works.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/flags.h"

using namespace vuvuzela;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--require SPAN]... [--min-rounds N] [--quiet] FILE...\n"
               "Stitches /trace JSONL dumps from several daemons into per-round\n"
               "timelines (FILE of '-' reads stdin). --require asserts every round\n"
               "contains the span; --min-rounds asserts the stitch covers at least\n"
               "N rounds. Any failed assertion exits 1.\n",
               argv0);
}

bool ReadAll(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> required;
  std::vector<std::string> files;
  size_t min_rounds = 0;
  bool quiet = false;
  bool help = false;
  util::FlagSet flags;
  flags.Value("--require", [&](const char* span) {
    required.emplace_back(span);
    return true;
  });
  flags.Unsigned("--min-rounds", UINT64_MAX, &min_rounds);
  flags.Switch("--quiet", &quiet);
  flags.Switch("--help", &help);
  flags.Switch("-h", &help);
  if (!flags.Parse(argc, argv, &files) || (files.empty() && !help)) {
    Usage(argv[0]);
    return 2;
  }
  if (help) {
    Usage(argv[0]);
    return 0;
  }

  std::vector<std::vector<obs::TraceRecord>> dumps;
  for (const std::string& path : files) {
    std::string jsonl;
    if (!ReadAll(path, &jsonl)) {
      std::fprintf(stderr, "trace_stitch: cannot read %s\n", path.c_str());
      return 1;
    }
    dumps.push_back(obs::ParseTraceJsonl(jsonl));
  }

  std::vector<obs::StitchedRound> rounds = obs::StitchRounds(dumps);
  if (!quiet) {
    std::fputs(obs::RenderTimeline(rounds).c_str(), stdout);
  }

  bool ok = true;
  if (rounds.size() < min_rounds) {
    std::fprintf(stderr, "trace_stitch: FAIL stitched %zu rounds, need at least %zu\n",
                 rounds.size(), min_rounds);
    ok = false;
  }
  for (const std::string& span : required) {
    std::string missing;
    for (const obs::StitchedRound& round : rounds) {
      if (std::find(round.spans.begin(), round.spans.end(), span) == round.spans.end()) {
        missing += (missing.empty() ? "" : ",") + std::to_string(round.round);
      }
    }
    if (!missing.empty()) {
      std::fprintf(stderr, "trace_stitch: FAIL span %s missing from rounds %s\n", span.c_str(),
                   missing.c_str());
      ok = false;
    }
  }
  if (ok && (min_rounds > 0 || !required.empty())) {
    std::fprintf(stderr, "trace_stitch: OK %zu rounds, %zu required spans present\n",
                 rounds.size(), required.size());
  }
  return ok ? 0 : 1;
}
