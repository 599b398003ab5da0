// perfbench — the repository benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --daemon PATH/coalesced --workdir DIR
//             [--fault corrupt_reference|wrong_phase] [--dump-inputs FILE]
//
// Prints a summary to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status 0 when
// every answer was correct, 1 when one was wrong, 2 on a usage error.
// Normally started by run.py, which builds it first.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload svc_jit_repeat|lib_compile_run "
               "--seed N --seconds S --trace 0|1 --daemon PATH "
               "--workdir DIR [--fault corrupt_reference|wrong_phase] "
               "[--dump-inputs FILE]\n");
  return 2;
}

bool parse(int argc, char** argv, perfbench::Options& o) {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--setup-probe") {
      o.setup_probe = true;
      continue;
    }
    if (a + 1 >= argc) return false;
    const std::string value = argv[++a];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--daemon") {
      o.daemon = value;
    } else if (arg == "--workdir") {
      o.workdir = value;
    } else if (arg == "--fault") {
      o.fault = value;
    } else if (arg == "--dump-inputs") {
      o.dump_inputs = value;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && !o.workdir.empty() && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!parse(argc, argv, o)) return usage();
  ::mkdir(o.workdir.c_str(), 0755);
  // The JIT writes its sources and shared objects under TMPDIR; keep them
  // inside the work directory. (The daemon's socket stays relative to the
  // working directory, which keeps it short.)
  ::setenv("TMPDIR", std::filesystem::absolute(o.workdir).c_str(), 1);

  if (o.setup_probe) {
    const double seconds = perfbench::library_setup_probe(o);
    std::printf("%.9f\n", seconds);
    return seconds < 0 ? 1 : 0;
  }

  perfbench::Report report;
  if (o.workload == "svc_jit_repeat") {
    report = perfbench::run_service(o);
  } else if (o.workload == "lib_compile_run") {
    report = perfbench::run_library(o);
  } else {
    return usage();
  }
  if (!o.dump_inputs.empty()) return 0;
  if (report.attempted == 0) report.attempted = 1;  // the result format wants >= 1
  perfbench::print_report(o, report);
  return report.correct ? 0 : 1;
}
