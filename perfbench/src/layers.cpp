#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "analysis/doall.hpp"
#include "analysis/pipeline.hpp"
#include "codegen/jit.hpp"
#include "codegen/pipeline.hpp"
#include "frontend/parser.hpp"
#include "transform/coalesce.hpp"

namespace perfbench {

namespace ir = coalesce::ir;
namespace analysis = coalesce::analysis;
namespace trace = coalesce::trace;

const Layers& Layers::get() {
  static const Layers layers = [] {
    Layers l{};
    l.handle = SpanLog::intern("service.handle");
    l.lib_op = SpanLog::intern("lib.op");
    l.codec = SpanLog::intern("protocol.codec");
    l.admit = SpanLog::intern("service.admit");
    l.reject = SpanLog::intern("service.reject");
    l.parse = SpanLog::intern("frontend.parse");
    l.verify = SpanLog::intern("analysis.verify");
    l.lint = SpanLog::intern("analysis.lint");
    l.race = SpanLog::intern("analysis.race");
    l.mark = SpanLog::intern("analysis.mark");
    l.coalesce = SpanLog::intern("transform.coalesce");
    l.store_init = SpanLog::intern("ir.store_init");
    l.prepare = SpanLog::intern("codegen.prepare");
    l.jit_lookup = SpanLog::intern("codegen.jit_lookup");
    l.launch = SpanLog::intern("runtime.launch");
    l.queue_wait = SpanLog::intern("runtime.queue_wait");
    l.region = SpanLog::intern("runtime.region");
    l.seq_root = SpanLog::intern("ir.seq_root");
    l.sync_run = SpanLog::intern("runtime.sync_run");
    l.check = SpanLog::intern("bench.check");
    return l;
  }();
  return layers;
}

FrontEnd run_front_end(std::string_view source, SpanLog& log,
                       std::uint64_t op, bool service) {
  const Layers& L = Layers::get();
  FrontEnd fe;
  const std::int32_t admission = service ? log.open(L.admit, op) : -1;
  auto reject = [&](std::string phase, std::string detail) {
    fe.message = phase + ": " + detail;
    fe.phase = std::move(phase);
    log.rename(admission, L.reject);
    log.close(admission);
  };

  auto parsed = [&] {
    Scoped s(log, L.parse, op);
    return coalesce::frontend::parse_program(source);
  }();
  if (!parsed.ok()) {
    if (service) fe.diagnostics = parsed.error().to_string();
    reject("parse", parsed.error().to_string());
    return fe;
  }
  ir::Program program = std::move(parsed).value();

  // analysis::run_analysis_pipeline, one span per pass.
  std::vector<analysis::Diagnostic> diagnostics;
  for (const analysis::AnalysisPass& pass : analysis::default_analysis_passes()) {
    const std::uint32_t name = pass.name == "verify" ? L.verify
                               : pass.name == "lint" ? L.lint
                               : pass.name == "race" ? L.race
                                                     : SpanLog::intern("analysis." + pass.name);
    std::vector<analysis::Diagnostic> found;
    {
      Scoped s(log, name, op);
      found = pass.run(program);
    }
    const bool failed = analysis::has_errors(found);
    for (analysis::Diagnostic& d : found) {
      const bool dup = std::any_of(
          diagnostics.begin(), diagnostics.end(), [&d](const auto& prior) {
            return prior.rule == d.rule && prior.message == d.message &&
                   prior.loc.line == d.loc.line &&
                   prior.loc.column == d.loc.column;
          });
      if (!dup) diagnostics.push_back(std::move(d));
    }
    if (failed) {
      if (service) fe.diagnostics = analysis::render_json(diagnostics);
      reject(pass.name, pass.name + " rejected");
      return fe;
    }
  }
  log.close(admission);
  fe.admitted = true;

  // The dynamic half, as Server::handle_submit runs it: mark every root on
  // a private copy, then coalesce the program.
  ir::Program current{program.symbols, {}};
  {
    Scoped s(log, L.mark, op);
    for (const auto& root : program.roots) current.roots.push_back(ir::clone(*root));
    ir::Program next{current.symbols, {}};
    for (const auto& root : current.roots) {
      ir::LoopNest nest{current.symbols, root};
      analysis::analyze_and_mark(nest);
      next.symbols = std::move(nest.symbols);
      next.roots.push_back(nest.root);
    }
    current = std::move(next);
  }
  {
    Scoped s(log, L.coalesce, op);
    auto result = coalesce::transform::coalesce_program(current);
    fe.program = ir::Program{std::move(result.program.symbols),
                             std::move(result.program.roots)};
  }
  return fe;
}

std::uint64_t time_prepare_and_lookup(const ir::LoopNest& nest, SpanLog& log,
                                      std::uint64_t op, JitTotals& totals) {
  const Layers& L = Layers::get();
  const std::uint64_t t0 = now_ns();
  auto prepared = [&] {
    Scoped s(log, L.prepare, op);
    return coalesce::codegen::prepare(nest);
  }();
  const std::uint64_t t1 = now_ns();
  if (!prepared.ok()) {
    totals.fallbacks += 1;
    return t1 - t0;
  }
  auto& cache = coalesce::codegen::default_jit_cache();
  const auto before = cache.stats();
  const std::uint64_t t2 = now_ns();
  bool compiled = false;
  {
    Scoped s(log, L.jit_lookup, op);
    compiled = cache.get_or_compile(prepared.value()).ok();
  }
  const std::uint64_t t3 = now_ns();
  const auto after = cache.stats();
  totals.lookups += 1;
  if (!compiled) totals.fallbacks += 1;
  if (after.compiles > before.compiles) {
    totals.compiles += 1;
    totals.compile_ms += static_cast<double>(t3 - t2) / 1e6;
  } else if (after.hits > before.hits) {
    totals.hits += 1;
  }
  return (t1 - t0) + (t3 - t2);
}

EngineTrace::EngineTrace() {
  offset_ns_ = static_cast<std::int64_t>(now_ns()) -
               static_cast<std::int64_t>(recorder_.now_ns());
}

EngineTrace::~EngineTrace() { recorder_.uninstall(); }

void EngineTrace::begin_block() {
  block_start_ = recorder_.now_ns();
  recorder_.install();
}

void EngineTrace::end_block(
    SpanLog& log, const std::unordered_map<std::int64_t, std::int32_t>& launches,
    RuntimeTotals& totals) {
  recorder_.uninstall();
  const Layers& L = Layers::get();
  std::unordered_map<std::int64_t, std::uint64_t> start;
  std::unordered_map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> retire;
  for (const std::uint32_t w : recorder_.active_workers()) {
    for (const trace::Event& e : recorder_.events(w)) {
      if (e.begin_ns < block_start_) continue;  // an earlier block's
      switch (e.kind) {
        case trace::EventKind::kRegionStart:
          start[e.arg0] = e.begin_ns;
          break;
        case trace::EventKind::kRegionRetire:
          retire[e.arg0] = {e.begin_ns, e.end_ns};
          break;
        default:
          break;
      }
    }
  }
  const auto ours = [&](std::uint64_t t) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(t) + offset_ns_);
  };
  for (const auto& [region, span] : launches) {
    const auto s = start.find(region);
    const auto r = retire.find(region);
    if (s == start.end() || r == retire.end()) continue;
    const std::uint64_t enqueued = ours(r->second.first);
    const std::uint64_t started = ours(s->second);
    const std::uint64_t retired = ours(r->second.second);
    totals.queue_wait_us.push_back(static_cast<double>(started - enqueued) / 1e3);
    log.add(L.queue_wait, enqueued, started, span, log.op_of(span));
    log.add(L.region, started, retired, span, log.op_of(span));
  }
}

void RuntimeTotals::add_region(double wall_seconds, std::uint64_t dispatch,
                               double region_imbalance,
                               std::uint64_t iterations_done,
                               std::size_t workers) {
  region_us.push_back(wall_seconds * 1e6);
  dispatch_ops.push_back(static_cast<double>(dispatch));
  imbalance.push_back(region_imbalance);
  worker_ns += wall_seconds * 1e9 * static_cast<double>(workers);
  iterations += iterations_done;
}

void add_layer_metrics(const LayerInputs& in, Report& report) {
  const Layers& L = Layers::get();
  std::map<std::string, SpanLog::Row> rows;
  const std::vector<SpanLog::Row> table = in.log->table();
  for (const SpanLog::Row& row : table) rows[row.name] = row;
  auto row = [&](std::uint32_t name) -> SpanLog::Row {
    auto it = rows.find(SpanLog::name_of(name));
    return it == rows.end() ? SpanLog::Row{} : it->second;
  };
  auto self_per_call = [&](std::uint32_t name) {
    const SpanLog::Row r = row(name);
    return r.calls > 0 ? r.self_us / static_cast<double>(r.calls) : 0.0;
  };
  auto total_per_call = [&](std::uint32_t name) {
    const SpanLog::Row r = row(name);
    return r.calls > 0 ? (r.total_us - r.duplicate_us) / static_cast<double>(r.calls)
                       : 0.0;
  };
  const double ops = static_cast<double>(std::max<std::size_t>(in.ops, 1));
  const double op_us = in.log->accounted_root_us() / ops;
  double layers_us = 0.0;
  for (const SpanLog::Row& r : table) {
    if (r.name != SpanLog::name_of(L.handle) && r.name != SpanLog::name_of(L.lib_op)) {
      layers_us += r.self_us;
    }
  }
  layers_us /= ops;

  // The self-time table: the trace's answer to "where did the op go".
  std::fprintf(stderr, "\nper-layer self time over %zu traced ops "
                       "(mean traced op %.2f us):\n", in.ops, op_us);
  std::fprintf(stderr, "  %-22s %9s %12s %12s %12s %7s\n", "layer", "calls",
               "self us/call", "incl us/call", "self us/op", "share");
  for (const SpanLog::Row& r : table) {
    const double calls = static_cast<double>(std::max<std::uint64_t>(r.calls, 1));
    std::fprintf(stderr, "  %-22s %9llu %12.3f %12.3f %12.3f %6.1f%%\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.calls),
                 r.self_us / calls, (r.total_us - r.duplicate_us) / calls,
                 r.self_us / ops, op_us > 0 ? 100.0 * r.self_us / ops / op_us : 0.0);
  }
  std::fprintf(stderr, "  layers cover %.1f%% of the traced op; untraced op "
                       "%.2f us\n",
               op_us > 0 ? 100.0 * layers_us / op_us : 0.0, in.untraced_op_us);

  const JitTotals& j = in.jit;
  const std::uint64_t compiles = in.jit_warmup.compiles + j.compiles;
  report.add("op_p99_us", in.op_p99_us, "us");
  report.add("frontend.parse_us", self_per_call(L.parse), "us");
  report.add("analysis.verify_us", self_per_call(L.verify), "us");
  report.add("analysis.lint_us", self_per_call(L.lint), "us");
  report.add("analysis.race_us", self_per_call(L.race), "us");
  report.add("analysis.mark_us", self_per_call(L.mark), "us");
  report.add("transform.coalesce_us", self_per_call(L.coalesce), "us");
  report.add("codegen.prepare_us", self_per_call(L.prepare), "us");
  report.add("codegen.jit_lookup_ns", self_per_call(L.jit_lookup) * 1e3, "ns");
  report.add("codegen.jit_lookups", static_cast<double>(j.lookups), "count");
  report.add("codegen.jit_hit_ratio",
             j.lookups > 0 ? static_cast<double>(j.hits) / static_cast<double>(j.lookups)
                           : 0.0,
             "ratio");
  report.add("codegen.jit_compiles", static_cast<double>(compiles), "count");
  report.add("codegen.jit_compile_ms",
             compiles > 0 ? (in.jit_warmup.compile_ms + j.compile_ms) /
                                static_cast<double>(compiles)
                          : 0.0,
             "ms");
  report.add("codegen.jit_fallbacks", static_cast<double>(j.fallbacks), "count");
  report.add("service.admit_us", total_per_call(L.admit), "us");
  report.add("service.reject_us", total_per_call(L.reject), "us");
  report.add("service.unattributed_us",
             in.e2e_p50_us > 0 ? in.e2e_p50_us - in.traced_op_p50_us : 0.0, "us");
  report.add("service.accepted", static_cast<double>(in.accepted), "count");
  report.add("service.rejected", static_cast<double>(in.rejected), "count");
  report.add("service.shed", static_cast<double>(in.shed), "count");
  report.add("runtime.launch_us", self_per_call(L.launch), "us");
  report.add("runtime.queue_wait_us", mean(in.runtime.queue_wait_us), "us");
  report.add("runtime.region_us", mean(in.runtime.region_us), "us");
  report.add("runtime.iter_ns",
             in.runtime.iterations > 0
                 ? in.runtime.worker_ns / static_cast<double>(in.runtime.iterations)
                 : 0.0,
             "ns");
  report.add("runtime.dispatch_ops", mean(in.runtime.dispatch_ops), "count");
  report.add("runtime.imbalance", mean(in.runtime.imbalance), "ratio");
  report.add("runtime.sync_run_us", total_per_call(L.sync_run), "us");
  report.add("ir.store_init_us", self_per_call(L.store_init), "us");
  report.add("ir.seq_root_us", self_per_call(L.seq_root), "us");
  report.add("protocol.codec_us", row(L.codec).self_us / ops, "us");
  report.add("socket.ping_rtt_us", in.ping_rtt_us, "us");
  report.add("gen.lag_p99_us", in.gen_lag_p99_us, "us");
  report.add("trace.op_us", op_us, "us");
  report.add("trace.overhead_frac",
             in.untraced_op_us > 0 ? op_us / in.untraced_op_us - 1.0 : 0.0,
             "ratio");
  report.add("trace.coverage", op_us > 0 ? layers_us / op_us : 0.0, "ratio");
}

void print_report(const Options& options, const Report& report) {
  std::fprintf(stderr, "\n%s seed=%llu trace=%d: attempted=%llu failed=%llu "
                       "correct=%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0,
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               report.correct ? "true" : "false");
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-26s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
