// zdc_analyze CLI: whole-program lock-graph / error-discard / determinism /
// hygiene analysis (see analyze_core.h for the check families and
// docs/ANALYSIS.md for triage). Exit 0 when clean, 1 when findings, 2 on
// usage errors.
//
//   zdc_analyze --root <repo-root>            analyze src/ and tools/
//   zdc_analyze --root <r> src/storage        analyze only the named dirs
//   zdc_analyze --root <r> --dump-lock-graph  also print the inferred
//                                             lock-order edges (from -> to
//                                             [via call] @ witness site)
#include <cstdio>
#include <string>
#include <vector>

#include "analyze_core.h"

int main(int argc, char** argv) {
  zdc::analyze::RunConfig cfg;
  std::vector<std::string> dirs;
  bool dump_graph = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "zdc_analyze: --root needs a path\n");
        return 2;
      }
      cfg.root = argv[++i];
    } else if (arg == "--dump-lock-graph") {
      dump_graph = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: zdc_analyze [--root <repo-root>] "
                   "[--dump-lock-graph] [dir...]\n");
      return 2;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "zdc_analyze: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (!dirs.empty()) cfg.analyze_dirs = dirs;

  zdc::analyze::LockGraph graph;
  const std::vector<zdc::analyze::Finding> findings =
      zdc::analyze::run(cfg, &graph);
  if (dump_graph) {
    std::fprintf(stdout, "lock-order graph: %zu mutex(es), %zu edge(s)\n",
                 graph.mutexes.size(), graph.edges.size());
    for (const auto& e : graph.edges) {
      if (e.via.empty()) {
        std::fprintf(stdout, "  %s -> %s @ %s:%d\n", e.from.c_str(),
                     e.to.c_str(), e.file.c_str(), e.line);
      } else {
        std::fprintf(stdout, "  %s -> %s [via %s] @ %s:%d\n", e.from.c_str(),
                     e.to.c_str(), e.via.c_str(), e.file.c_str(), e.line);
      }
    }
  }
  for (const auto& f : findings) {
    std::fprintf(stdout, "%s\n", zdc::analyze::format(f).c_str());
  }
  if (findings.empty()) {
    std::fprintf(stdout, "zdc_analyze: clean\n");
    return 0;
  }
  std::fprintf(stdout, "zdc_analyze: %zu finding(s)\n", findings.size());
  return 1;
}
