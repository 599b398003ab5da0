// The two workloads. Each returns the report for its mode: end-to-end
// metrics without tracing, per-layer metrics with it.
#pragma once

#include "gen.hpp"
#include "layers.hpp"

namespace perfbench {

/// svc_jit_repeat: the real daemon.
Report run_service(const Options& options);

/// lib_compile_run: the public API in this process.
Report run_library(const Options& options);

/// One library set-up (pool construction plus a warm-up pass), seconds.
/// Runs in a child process so each sample starts with a cold JIT cache.
double library_setup_probe(const Options& options);

}  // namespace perfbench
