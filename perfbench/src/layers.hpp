// Pieces shared by the workloads: run options, the result report, and the
// traced replay of one request through the modules' public calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/stmt.hpp"
#include "spans.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;   ///< path to the coalesced binary
  std::string workdir;  ///< scratch directory inside the checkout
  /// Self-test faults: "corrupt_reference" or "wrong_phase".
  std::string fault;
  /// Write the generated inputs here and exit.
  std::string dump_inputs;
  /// Internal: run one library set-up in this process and print seconds.
  bool setup_probe = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed to stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void wrong(const std::string& why) {
    correct = false;
    notes.push_back("WRONG: " + why);
  }
};

/// Prints the human-readable summary to stderr and the one-line JSON
/// result to stdout.
void print_report(const Options& options, const Report& report);

/// Span names, one per layer (a `src/` module and the call timed).
struct Layers {
  std::uint32_t handle, lib_op, codec, admit, reject, parse, verify, lint,
      race, mark, coalesce, store_init, prepare, jit_lookup, launch,
      queue_wait, region, seq_root, sync_run, check;
  static const Layers& get();
};

/// The front end of one request, each module call timed on its own: parse,
/// then every pass of analysis::default_analysis_passes, then (admitted
/// programs only) analyze_and_mark per root and coalesce_program.
struct FrontEnd {
  bool admitted = false;
  std::string phase;    ///< failing phase when rejected
  std::string message;  ///< as the service words it
  std::string diagnostics;
  coalesce::ir::Program program;  ///< coalesced program when admitted
};
/// `service` wraps admission in a service.admit / service.reject span and
/// renders rejection diagnostics, as Server::handle_submit does.
FrontEnd run_front_end(std::string_view source, SpanLog& log, std::uint64_t op,
                       bool service);

/// JIT prepare and cache lookup, each timed on its own span.
struct JitTotals {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t compiles = 0;
  double compile_ms = 0;  ///< summed over the lookups that compiled
  /// Nests whose prepare or compile failed: the launch runs them on the
  /// interpreter instead.
  std::uint64_t fallbacks = 0;
};
/// Returns the nanoseconds the two calls took: a JIT launch makes the same
/// two calls first, and that copy is booked as duplicate time.
std::uint64_t time_prepare_and_lookup(const coalesce::ir::LoopNest& nest,
                                      SpanLog& log, std::uint64_t op,
                                      JitTotals& totals);

/// Runtime figures gathered from trace::Recorder blocks and ForStats.
struct RuntimeTotals {
  std::vector<double> queue_wait_us;
  std::vector<double> region_us;
  std::vector<double> dispatch_ops;
  std::vector<double> imbalance;
  double worker_ns = 0;  ///< region wall time x workers, summed
  std::uint64_t iterations = 0;

  /// Folds in one region's report, run on `workers` workers.
  void add_region(double wall_seconds, std::uint64_t dispatch,
                  double region_imbalance, std::uint64_t iterations_done,
                  std::size_t workers);
};

/// One trace::Recorder, installed only during traced blocks, for the
/// engine's enqueue -> start times. Declare it before the engine it
/// observes: engine threads may still hold the recorder's address after a
/// region retires, so it must outlive them.
class EngineTrace {
 public:
  EngineTrace();
  ~EngineTrace();
  EngineTrace(const EngineTrace&) = delete;
  EngineTrace& operator=(const EngineTrace&) = delete;

  void begin_block();
  /// Call once every region of the block has retired (wait for the engine
  /// first). Uninstalls the recorder; each engine region named in
  /// `launches` (region id -> launch span) gets queue-wait and region
  /// child spans, and its queue wait goes into `totals`.
  void end_block(SpanLog& log,
                 const std::unordered_map<std::int64_t, std::int32_t>& launches,
                 RuntimeTotals& totals);

 private:
  coalesce::trace::Recorder recorder_{std::size_t{1} << 16};
  std::int64_t offset_ns_ = 0;      ///< our clock minus the recorder's
  std::uint64_t block_start_ = 0;   ///< recorder time at begin_block()
};

/// Adds the per-layer metrics every workload reports (zeros for layers the
/// workload does not touch) from the traced replay's spans.
struct LayerInputs {
  const SpanLog* log = nullptr;
  std::size_t ops = 0;
  double untraced_op_us = 0;  ///< mean op time of the untraced replay
  double e2e_p50_us = 0;      ///< service: end-to-end p50 (0 = library)
  double traced_op_p50_us = 0;  ///< service: median traced replay op
  double op_p99_us = 0;       ///< end-to-end (service) or untraced op p99
  double ping_rtt_us = 0;
  double gen_lag_p99_us = 0;
  std::uint64_t accepted = 0, rejected = 0, shed = 0;
  JitTotals jit;
  JitTotals jit_warmup;  ///< lookups of the replay's warm-up pass
  RuntimeTotals runtime;
};
void add_layer_metrics(const LayerInputs& in, Report& report);

}  // namespace perfbench
