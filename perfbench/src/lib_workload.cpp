// lib_compile_run: one caller compiles and runs each program through the
// public library API on a ThreadPool of one, and checks the store.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "analysis/doall.hpp"
#include "analysis/pipeline.hpp"
#include "frontend/parser.hpp"
#include "ir/eval.hpp"
#include "runtime/ir_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "transform/coalesce.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ir = coalesce::ir;
namespace runtime = coalesce::runtime;

namespace {

/// The caller alone. A ThreadPool's join waits until every worker has woken
/// and checked in, even when the caller has already run the whole region
/// (these regions take tens of microseconds). On a 4-vCPU KVM guest, one
/// busy process beside the benchmark made the op 1.8x slower with a pool of
/// 2 or 4 and left it unchanged with a pool of 1: a larger pool timed how
/// fast the host wakes an idle vCPU, not the library.
constexpr std::size_t kPoolSize = 1;
constexpr int kSetups = 5;
/// Peak RSS is read after this many timed ops, a fixed amount of work: the
/// run's own latency samples grow with how many ops a fast host fits into
/// --seconds, and read at the end they moved the figure by a fifth.
constexpr std::uint64_t kRssOps = 5000;

std::vector<ArrayView> store_arrays(const ir::SymbolTable& symbols,
                                    const ir::ArrayStore& store) {
  std::vector<ArrayView> out;
  for (std::uint32_t raw = 0; raw < symbols.size(); ++raw) {
    const ir::VarId id{raw};
    if (symbols.kind(id) != ir::SymbolKind::kArray) continue;
    out.push_back(ArrayView{symbols.name(id), store.data(id)});
  }
  return out;
}

/// One compile-and-run: parse -> analysis pipeline -> mark -> coalesce ->
/// execute_program(kJit), then the check against the reference. Returns ""
/// or what went wrong ("failed: ..." when the call itself failed).
std::string compile_and_run(runtime::ThreadPool& pool, const Case& c, bool check) {
  auto parsed = coalesce::frontend::parse_program(c.source);
  if (!parsed.ok()) return "failed: parse: " + parsed.error().to_string();
  ir::Program program = std::move(parsed).value();
  const auto pipeline = coalesce::analysis::run_analysis_pipeline(program);
  if (!pipeline.ok) return "rejected an admissible program in " + pipeline.failed_pass;
  ir::Program marked{program.symbols, {}};
  for (const auto& root : program.roots) {
    ir::LoopNest nest{marked.symbols, root};
    coalesce::analysis::analyze_and_mark(nest);
    marked.symbols = std::move(nest.symbols);
    marked.roots.push_back(nest.root);
  }
  const auto coalesced = coalesce::transform::coalesce_program(marked);
  ir::ArrayStore store(coalesced.program.symbols);
  const auto stats = runtime::execute_program(pool, coalesced.program,
                                              runtime::ScheduleParams{}, store,
                                              {}, runtime::ExecMode::kJit);
  if (!stats.ok()) return "failed: run: " + stats.error().to_string();
  if (!check) return "";
  return compare_arrays(c.reference, store_arrays(coalesced.program.symbols, store));
}

/// The same op with every module call timed on its own span. Parallel
/// roots go through runtime::run and sequential ones through
/// ir::Evaluator, which is what execute_program does root by root.
std::string traced_op(runtime::ThreadPool& pool, const Case& c, SpanLog& log,
                      std::uint64_t op, JitTotals& jit, RuntimeTotals& totals,
                      double* op_us) {
  const Layers& L = Layers::get();
  const std::uint64_t t0 = now_ns();
  std::uint64_t duplicate = 0;
  const std::int32_t handle = log.open(L.lib_op, op);
  FrontEnd fe = run_front_end(c.source, log, op, false);
  if (!fe.admitted) return "rejected an admissible program in " + fe.phase;
  std::unique_ptr<ir::ArrayStore> store;
  {
    Scoped s(log, L.store_init, op);
    store = std::make_unique<ir::ArrayStore>(fe.program.symbols);
  }
  runtime::LaunchOptions opts;
  opts.exec = runtime::ExecMode::kJit;
  for (const ir::LoopPtr& root : fe.program.roots) {
    if (root->parallel && ir::constant_trip_count(*root).has_value()) {
      const ir::LoopNest nest{fe.program.symbols, root};
      const std::uint64_t d = time_prepare_and_lookup(nest, log, op, jit);
      duplicate += d;
      Scoped run(log, L.sync_run, op);
      log.add_duplicate(run.id(), d);
      const auto stats = runtime::run(pool, nest, *store, opts);
      if (!stats.ok()) return "failed: run: " + stats.error().to_string();
      if (log.enabled()) {
        const runtime::ForStats& st = stats.value();
        const std::uint64_t end = now_ns();
        const auto wall = static_cast<std::uint64_t>(st.wall_seconds * 1e9);
        log.add(L.region, end - wall, end, run.id(), op);
        totals.add_region(st.wall_seconds, st.dispatch_ops, st.imbalance(),
                          st.iterations_done(), pool.concurrency());
      }
    } else {
      Scoped s(log, L.seq_root, op);
      ir::Evaluator eval(fe.program.symbols, *store);
      eval.run(*root);
    }
  }
  std::string why;
  {
    Scoped s(log, L.check, op);
    why = compare_arrays(c.reference, store_arrays(fe.program.symbols, *store));
  }
  log.close(handle);
  *op_us = static_cast<double>(now_ns() - t0 - duplicate) / 1e3;
  return why;
}

/// Runs one set-up in a child process (a fresh JIT cache); seconds, or a
/// negative value on failure.
double setup_in_child(const Options& o) {
  char self[4096] = {};
  if (::readlink("/proc/self/exe", self, sizeof self - 1) <= 0) return -1.0;
  std::string cmd = "'";
  cmd.append(self).append("' --workload ").append(o.workload);
  cmd.append(" --seed ").append(std::to_string(o.seed));
  cmd.append(" --workdir '").append(o.workdir).append("' --daemon '");
  cmd.append(o.daemon).append("' --setup-probe");
  std::FILE* child = ::popen(cmd.c_str(), "r");
  if (child == nullptr) return -1.0;
  double seconds = -1.0;
  if (std::fscanf(child, "%lf", &seconds) != 1) seconds = -1.0;
  if (::pclose(child) != 0) return -1.0;
  return seconds;
}

void record(const std::string& why, Report& report) {
  if (why.empty()) return;
  if (why.rfind("failed", 0) == 0) {
    report.failed += 1;
    if (report.failed <= 3) report.notes.push_back(why);
  } else {
    report.wrong(why);
  }
}

}  // namespace

double library_setup_probe(const Options& o) {
  const std::vector<Case> corpus = lib_corpus(o.seed);
  const std::uint64_t t0 = now_ns();
  runtime::ThreadPool pool(kPoolSize);
  for (const Case& c : corpus) {
    if (!compile_and_run(pool, c, false).empty()) return -1.0;
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

Report run_library(const Options& o) {
  Report report;
  std::vector<Case> corpus = lib_corpus(o.seed);
  compute_references(corpus, 4);
  if (!o.dump_inputs.empty()) {
    std::ofstream out(o.dump_inputs, std::ios::binary);
    write_cases(out, corpus);
    return report;
  }
  if (!o.fault.empty() && !apply_fault(o.fault, corpus)) {
    report.wrong("fault " + o.fault + " found nothing to corrupt");
    return report;
  }

  std::vector<double> setup_s;
  if (!o.trace) {
    for (int r = 0; r + 1 < kSetups; ++r) {
      const double s = setup_in_child(o);
      if (s < 0) {
        report.wrong("set-up probe failed");
        return report;
      }
      setup_s.push_back(s);
    }
  }
  const std::uint64_t t0 = now_ns();
  runtime::ThreadPool pool(kPoolSize);
  LayerInputs in;
  SpanLog untraced(false);
  RuntimeTotals scratch_totals;
  for (const Case& c : corpus) {
    double us = 0;
    record(o.trace ? traced_op(pool, c, untraced, 0, in.jit_warmup,
                               scratch_totals, &us)
                   : compile_and_run(pool, c, true),
           report);
  }
  setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  if (!report.correct) return report;

  if (!o.trace) {
    std::vector<double> latency_us;
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(o.seconds * 1e9);
    std::uint64_t last = start;
    double rss_mb = 0;
    for (std::size_t i = 0; last < end; ++i) {
      const Case& c = corpus[i % corpus.size()];
      const std::uint64_t t = now_ns();
      const std::string why = compile_and_run(pool, c, true);
      last = now_ns();
      report.attempted += 1;
      record(why, report);
      if (why.empty()) latency_us.push_back(static_cast<double>(last - t) / 1e3);
      if (report.attempted == kRssOps) rss_mb = vm_hwm_mb("/proc/self/status");
    }
    if (rss_mb == 0) rss_mb = vm_hwm_mb("/proc/self/status");
    const double elapsed_s = static_cast<double>(last - start) / 1e9;
    report.notes.push_back(std::to_string(latency_us.size()) +
                           " compile-and-run ops on a ThreadPool of " +
                           std::to_string(kPoolSize) + " in " +
                           std::to_string(elapsed_s) + " s");
    report.add("op_p50_us", median(latency_us), "us");
    report.add("ops_per_s", static_cast<double>(latency_us.size()) / elapsed_s,
               "1/s");
    report.add("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
               "ratio");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", rss_mb, "MiB");
    return report;
  }

  // Traced run: alternating untraced and traced blocks over the corpus.
  SpanLog traced(true);
  JitTotals jit, scratch_jit;
  RuntimeTotals totals;
  std::vector<double> untraced_us;
  std::uint64_t op = 0;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(o.seconds * 1e9);
  for (std::size_t block = 0; now_ns() < end || block < 2; ++block) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced_pass = (pass == 0) == (block % 2 == 1);
      for (const Case& c : corpus) {
        double us = 0;
        const std::string why =
            traced_pass ? traced_op(pool, c, traced, ++op, jit, totals, &us)
                        : traced_op(pool, c, untraced, 0, scratch_jit,
                                    scratch_totals, &us);
        report.attempted += 1;
        record(why, report);
        if (!report.correct) return report;
        if (!traced_pass) untraced_us.push_back(us);
      }
    }
  }
  in.log = &traced;
  in.ops = static_cast<std::size_t>(op);
  in.untraced_op_us = mean(untraced_us);
  in.op_p99_us = percentile(untraced_us, 99.0);
  in.jit = jit;
  in.runtime = totals;
  const std::string spans = o.workdir + "/" + o.workload + "-seed" +
                            std::to_string(o.seed) + ".spans.json";
  if (!traced.write_json(spans)) report.notes.push_back("could not write " + spans);
  add_layer_metrics(in, report);
  return report;
}

}  // namespace perfbench
