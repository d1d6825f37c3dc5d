// rapid_perfbench: runs one repetition of one benchmark workload and prints
// its measurements as one JSON line. run.py starts it once per repetition.
//
// Usage: rapid_perfbench --workload NAME [--seed N] [--rep N]
//                        [--mode run|setup|traced] [--smoke] [--threads N]
//                        [--scratch DIR] [--spans PATH]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rapid_perfbench --workload fleet-2k|figure-sweep|service-live "
               "[--seed N] [--rep N] [--mode run|setup|traced] [--smoke] [--threads N] "
               "[--scratch DIR] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RepOptions options;
  options.seed = perfbench::default_seed();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--rep") {
      options.rep = std::atoi(argv[++i]);
    } else if (arg == "--threads") {
      options.threads = std::atoi(argv[++i]);
      if (options.threads < 1) return usage();
    } else if (arg == "--scratch") {
      options.scratch_dir = argv[++i];
    } else if (arg == "--spans") {
      options.spans_path = argv[++i];
    } else if (arg == "--mode") {
      const std::string mode = argv[++i];
      if (mode == "run")
        options.mode = perfbench::Mode::kRun;
      else if (mode == "setup")
        options.mode = perfbench::Mode::kSetup;
      else if (mode == "traced")
        options.mode = perfbench::Mode::kTraced;
      else
        return usage();
    } else {
      return usage();
    }
  }
  if (options.workload.empty()) return usage();
  try {
    const perfbench::RepResult result = perfbench::run_rep(options);
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapid_perfbench: %s\n", e.what());
    return 1;
  }
}
