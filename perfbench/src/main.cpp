// perfbench: generates a workload's inputs from a seed, or runs the
// workload over generated inputs and prints its report as one JSON line.
// perfbench/run.py drives both steps; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen WORKLOAD SEED DIR\n"
               "       perfbench run WORKLOAD DIR SECONDS TRACE(0|1) SPANS_FILE\n"
               "workloads: cec_certified atpg_serve bmc_sweep\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen" && argc == 5) {
      const std::string w = argv[2];
      const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
      if (w == "cec_certified") {
        generate_cec(seed, argv[4]);
      } else if (w == "atpg_serve") {
        generate_atpg(seed, argv[4]);
      } else if (w == "bmc_sweep") {
        generate_bmc(seed, argv[4]);
      } else {
        return usage();
      }
      return 0;
    }
    if (cmd == "run" && argc == 7) {
      const std::string w = argv[2];
      const std::string dir = argv[3];
      const double seconds = std::strtod(argv[4], nullptr);
      const bool trace = std::string(argv[5]) == "1";
      const std::string spans = argv[6];
      Report rep;
      if (w == "cec_certified") {
        rep = run_cec(dir, seconds, trace, spans);
      } else if (w == "atpg_serve") {
        rep = run_atpg_serve(dir, seconds, trace, spans);
      } else if (w == "bmc_sweep") {
        rep = run_bmc_sweep(dir, seconds, trace, spans);
      } else {
        return usage();
      }
      rep.detail.set("compiler", PERFBENCH_COMPILER);
      rep.detail.set("build_type", PERFBENCH_BUILD_TYPE);
      std::printf("%s\n", rep.to_json().dump().c_str());
      return rep.outcome.failed == 0 && rep.outcome.attempted > 0 ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return usage();
}
