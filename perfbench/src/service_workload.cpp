// svc_jit_repeat: the real `coalesced --jit` daemon driven over its socket,
// and (traced runs) the same request stream replayed in this process
// through the calls Server::handle_submit makes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "ir/eval.hpp"
#include "runtime/engine.hpp"
#include "runtime/ir_executor.hpp"
#include "service/protocol.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ir = coalesce::ir;
namespace runtime = coalesce::runtime;
namespace svc = coalesce::service;

namespace {

/// Open-loop rate, requests/s: about a tenth of the closed-loop capacity the
/// unchanged repository reached on a 4-CPU x86-64 host. A shared host
/// spends minutes at a time at half that capacity or less, and the waiting
/// a request does grows with the load the daemon is under: at half load
/// such episodes built backlogs that outlasted the run, and at a sixth they
/// still moved the median of a run by half. Fixed, so that a faster system
/// faces the same offered load.
constexpr double kOpenRate = 600.0;
/// Closed-loop requests per second of --seconds (sets a fixed count).
constexpr double kClosedPerS = 7000.0;
/// Warm-up requests in each set-up.
constexpr std::size_t kWarmup = 1000;

constexpr int kConnections = 2;
constexpr int kWorkers = 2;
constexpr int kSetups = 5;
/// Share of --seconds spent in the closed loop (untraced runs) or in the
/// open loop (traced runs, which spend the rest replaying).
constexpr double kClosedShare = 0.3;
constexpr double kTracedOpenShare = 0.3;
/// Largest share of the median latency that the generator's median lag may
/// take before the run's latency is not trusted.
constexpr double kLagShareLimit = 0.1;

std::size_t at_least_one(double v) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(v));
}

/// Latency is timed from when each request was due, so it includes how late
/// the generator itself sent it. When the median request went out later
/// than a tenth of the median latency, op_p50_us times the generator, not
/// the daemon: the run is invalid, and fails so that no reader of its
/// result takes the latency.
void check_lag(const LoadResult& open, Report& report) {
  const double lag_p50 = percentile(open.lag_us, 50.0);
  const double limit = kLagShareLimit * median(open.latency_us);
  report.notes.push_back("generator lag p50 " + std::to_string(lag_p50) +
                         " us, p90 " + std::to_string(percentile(open.lag_us, 90.0)) +
                         " us, p99 " + std::to_string(percentile(open.lag_us, 99.0)) +
                         " us");
  if (lag_p50 > limit) {
    report.wrong("INVALID run: the generator fell behind (lag p50 " +
                 std::to_string(lag_p50) + " us > " + std::to_string(limit) +
                 " us); latency not trusted");
  }
}

/// Folds one load phase into the report; returns false on a wrong answer.
bool fold(const char* phase, const LoadResult& r, Report& report,
          bool measured) {
  if (measured) {
    report.attempted += r.attempted;
    report.failed += r.failed;
  } else if (r.failed > 0) {
    report.notes.push_back(std::string(phase) + ": " + std::to_string(r.failed) +
                           " failed requests");
  }
  if (r.wrong == 0) return true;
  report.wrong(std::string(phase) + ": " + std::to_string(r.wrong) +
               " wrong answers");
  for (const std::string& m : r.mismatches) report.notes.push_back("  " + m);
  return false;
}

/// Payload of a length-prefixed frame.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

struct ReplayState {
  RuntimeTotals runtime;
  JitTotals jit;
  std::unordered_map<std::int64_t, std::int32_t> launches;
};

/// One request through the public calls Server::handle_submit makes, in
/// its order. Returns "" or what went wrong; *op_us gets the op's time
/// minus the prepare/lookup work the launch repeats internally.
std::string replay_op(const Case& c, const std::vector<std::uint8_t>& payload,
                      runtime::Engine& engine, SpanLog& log,
                      std::uint64_t op, ReplayState& state, double* op_us) {
  const Layers& L = Layers::get();
  const std::uint64_t t0 = now_ns();
  std::uint64_t duplicate = 0;
  const std::int32_t handle = log.open(L.handle, op);

  svc::Request request;
  {
    Scoped s(log, L.codec, op);
    auto decoded = svc::decode_request(payload);
    if (!decoded.ok()) return "failed: decode";
    request = std::move(decoded).value();
  }
  FrontEnd fe = run_front_end(request.submit.source, log, op, true);
  svc::Response response;
  std::unique_ptr<ir::ArrayStore> store;
  if (!fe.admitted) {
    response.status = svc::Status::kRejected;
    response.message = fe.message;
    response.diagnostics = fe.diagnostics;
  } else {
    runtime::LaunchOptions opts;
    opts.schedule = runtime::ScheduleParams{runtime::Schedule::kGuided, 1};
    opts.exec = runtime::ExecMode::kJit;
    {
      Scoped s(log, L.store_init, op);
      store = std::make_unique<ir::ArrayStore>(fe.program.symbols);
    }
    bool first = true;
    for (const ir::LoopPtr& root : fe.program.roots) {
      if (root->parallel && ir::constant_trip_count(*root).has_value()) {
        const ir::LoopNest nest{fe.program.symbols, root};
        const std::uint64_t d = time_prepare_and_lookup(nest, log, op, state.jit);
        duplicate += d;
        Scoped launch(log, L.launch, op);
        log.add_duplicate(launch.id(), d);
        runtime::RegionFuture<runtime::ForStats> future;
        if (first) {
          auto tried = runtime::try_submit_ir(engine, nest, *store, opts);
          if (!tried.ok() || !tried.value().has_value()) return "failed: submit";
          future = std::move(*tried.value());
          first = false;
        } else {
          auto submitted = runtime::submit_ir(engine, nest, *store, opts);
          if (!submitted.ok()) return "failed: submit";
          future = std::move(submitted).value();
        }
        if (log.enabled()) state.launches[future.region_id()] = launch.id();
        try {
          const runtime::ForStats stats = future.get();
          if (log.enabled()) {
            state.runtime.add_region(stats.wall_seconds, stats.dispatch_ops,
                                     stats.imbalance(), stats.iterations_done(),
                                     engine.concurrency());
          }
        } catch (const std::exception& e) {
          return std::string("failed: ") + e.what();
        }
      } else {
        Scoped s(log, L.seq_root, op);
        ir::Evaluator eval(fe.program.symbols, *store);
        eval.run(*root);
      }
    }
    response.status = svc::Status::kOk;
  }
  {
    Scoped s(log, L.codec, op);
    if (store != nullptr) {
      const ir::SymbolTable& symbols = fe.program.symbols;
      for (std::uint32_t raw = 0; raw < symbols.size(); ++raw) {
        const ir::VarId id{raw};
        if (symbols.kind(id) != ir::SymbolKind::kArray) continue;
        const auto data = store->data(id);
        response.arrays.push_back(svc::ArrayResult{
            symbols.name(id), std::vector<double>(data.begin(), data.end())});
      }
    }
    const std::vector<std::uint8_t> bytes = svc::encode_response(response);
    if (bytes.empty()) return "failed: encode";
  }
  log.close(handle);
  *op_us = static_cast<double>(now_ns() - t0 - duplicate) / 1e3;
  return check_reply(c, response);
}

/// The traced run's in-process replay: alternating untraced and traced
/// blocks over the same ops, for `seconds`.
void replay(const std::vector<Case>& cases, const Stream& stream,
            double seconds, const Options& options,
            LayerInputs& in, Report& report) {
  EngineTrace engine_trace;  // outlives the engine below
  runtime::Engine engine(kWorkers);
  ReplayState state;
  SpanLog traced(true);
  SpanLog untraced(false);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& frame : stream.frames) payloads.push_back(payload_of(frame));

  // Warm-up: every program of the pool once (JIT compiles land here).
  ReplayState warm;
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    double us = 0;
    const std::string why =
        replay_op(cases[k], payloads[k], engine, untraced, 0, warm, &us);
    if (!why.empty()) report.wrong("replay warm-up op " + std::to_string(k) + ": " + why);
  }
  in.jit_warmup = warm.jit;

  constexpr std::size_t kBlock = 32;
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  std::size_t next = 0;
  std::uint64_t op = 0;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t block = 0; now_ns() < end || block < 2; ++block) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced_pass = (pass == 0) == (block % 2 == 1);
      ReplayState scratch;
      if (traced_pass) {
        state.launches.clear();
        engine_trace.begin_block();
      }
      for (std::size_t i = 0; i < kBlock; ++i) {
        const std::size_t k = (next + i) % payloads.size();
        double us = 0;
        const std::string why =
            traced_pass ? replay_op(cases[k], payloads[k], engine, traced, ++op,
                                    state, &us)
                        : replay_op(cases[k], payloads[k], engine, untraced, 0,
                                    scratch, &us);
        if (!why.empty()) {
          report.wrong("replay op " + std::to_string(k) + ": " + why);
          return;
        }
        (traced_pass ? traced_us : untraced_us).push_back(us);
      }
      if (traced_pass) {
        engine.wait_all();
        engine_trace.end_block(traced, state.launches, state.runtime);
      }
    }
    next = (next + kBlock) % payloads.size();
  }
  engine.wait_all();
  in.log = &traced;
  in.ops = static_cast<std::size_t>(op);
  in.untraced_op_us = mean(untraced_us);
  in.traced_op_p50_us = median(traced_us);
  in.jit = state.jit;
  in.runtime = state.runtime;
  const std::string spans = options.workdir + "/" + options.workload + "-seed" +
                            std::to_string(options.seed) + ".spans.json";
  if (!traced.write_json(spans)) report.notes.push_back("could not write " + spans);
  add_layer_metrics(in, report);
}

}  // namespace

Report run_service(const Options& o) {
  Report report;
  const double open_s = o.seconds * (o.trace ? kTracedOpenShare : 1.0 - kClosedShare);
  const std::size_t n_open = at_least_one(kOpenRate * open_s);
  const std::size_t n_closed =
      o.trace ? 0 : at_least_one(kClosedPerS * o.seconds * kClosedShare);

  // Inputs and references, before any clock starts.
  std::vector<Case> pool = jit_pool(o.seed);
  compute_references(pool, 4);
  if (!o.dump_inputs.empty()) {
    std::ofstream out(o.dump_inputs, std::ios::binary);
    write_cases(out, pool);
    return report;
  }
  if (!o.fault.empty() && !apply_fault(o.fault, pool)) {
    report.wrong("fault " + o.fault + " found nothing to corrupt");
    return report;
  }
  const Stream stream = make_stream(pool);

  auto split = std::make_unique<CpuSplit>(std::getenv("PB_DCPUS") ? std::atoi(std::getenv("PB_DCPUS")) : 0);
  const DaemonConfig config{o.daemon, o.workdir + "/coalesced.sock", o.workdir,
                            kWorkers, split->daemon()};
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_s;
  const int setups = o.trace ? 1 : kSetups;
  for (int r = 0; r < setups; ++r) {
    const std::uint64_t t0 = now_ns();
    std::string error;
    daemon = Daemon::start(config, &error);
    if (daemon == nullptr) {
      report.attempted += 1;
      report.failed += 1;
      report.wrong(error);
      return report;
    }
    const LoadResult warm = closed_loop(daemon->socket(), stream, kWarmup,
                                        kConnections);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!fold("warm-up", warm, report, false)) return report;
    if (r + 1 < setups) daemon->stop();
  }

  if (!o.trace) {
    const LoadResult closed =
        closed_loop(daemon->socket(), stream, n_closed, kConnections);
    const LoadResult open =
        open_loop(daemon->socket(), stream, n_open, kOpenRate, kConnections);
    const double rss = daemon->peak_rss_mb();
    daemon->stop();
    fold("closed loop", closed, report, true);
    fold("open loop", open, report, true);
    check_lag(open, report);
    report.notes.push_back("open loop: " + std::to_string(open.latency_us.size()) +
                           " samples at " + std::to_string(kOpenRate) + "/s");
    report.notes.push_back("closed loop: " + std::to_string(closed.latency_us.size()) +
                           " requests on " + std::to_string(kConnections) +
                           " connections in " + std::to_string(closed.elapsed_s) +
                           " s");
    report.add("op_p50_us", median(open.latency_us), "us");
    report.add("ops_per_s",
               static_cast<double>(closed.latency_us.size()) / closed.elapsed_s,
               "1/s");
    report.add("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
               "ratio");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", rss, "MiB");
    return report;
  }

  // Traced run: a short open loop against the daemon for the end-to-end
  // p50 and the daemon's own counters, then the in-process replay.
  const LoadResult open =
      open_loop(daemon->socket(), stream, n_open, kOpenRate, kConnections);
  fold("open loop", open, report, true);
  check_lag(open, report);
  LayerInputs in;
  in.e2e_p50_us = median(open.latency_us);
  in.op_p99_us = percentile(open.latency_us, 99.0);
  in.gen_lag_p99_us = percentile(open.lag_us, 99.0);
  in.ping_rtt_us = ping_rtt_us(daemon->socket(), 500);
  const svc::ServerCounters counters = server_counters(daemon->socket());
  in.accepted = counters.accepted;
  in.rejected = counters.rejected;
  in.shed = counters.shed;
  daemon->stop();
  split.reset();
  if (!report.correct) return report;
  const double replay_s = o.seconds * (1.0 - kTracedOpenShare);
  replay(pool, stream, replay_s, o, in, report);
  return report;
}

}  // namespace perfbench
