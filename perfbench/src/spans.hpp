// The benchmark's own span recorder and the summary helpers it reports
// with. Spans are recorded from the benchmark's files around each call into
// a module's public functions; nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// support::percentile (nearest rank, p in [0, 100]), 0 for no samples.
inline double percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : coalesce::support::percentile(values, p);
}
inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}
/// support::Accumulator's mean, 0 for no samples.
inline double mean(const std::vector<double>& values) {
  coalesce::support::Accumulator acc;
  for (const double v : values) acc.add(v);
  return values.empty() ? 0.0 : acc.mean();
}

/// VmHWM from a /proc/<pid>/status file, MiB (0 when unreadable).
double vm_hwm_mb(const std::string& proc_status);

/// Spans kept in memory: name, start, end, parent, op id. A layer's self
/// time is its span's duration minus its children's durations.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    /// Time inside this span spent repeating work a sibling span already
    /// timed on its own (removed from the span's self time and from the
    /// op's accounted time).
    std::uint64_t duplicate_ns = 0;
  };

  struct Row {
    std::string name;
    std::uint64_t calls = 0;
    double total_us = 0;  ///< inclusive time summed over calls
    double self_us = 0;   ///< self time summed over calls
    double duplicate_us = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Index of the interned layer name.
  static std::uint32_t intern(const std::string& name);
  static const std::string& name_of(std::uint32_t id);

  /// Opens a span under the innermost open one; -1 when disabled.
  std::int32_t open(std::uint32_t name, std::uint64_t op);
  void close(std::int32_t span);
  /// Adds a finished span measured elsewhere (e.g. by trace::Recorder).
  void add(std::uint32_t name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int32_t parent, std::uint64_t op);
  void add_duplicate(std::int32_t span, std::uint64_t ns);
  void rename(std::int32_t span, std::uint32_t name);
  [[nodiscard]] std::uint64_t op_of(std::int32_t span) const;

  /// Per-layer totals, in first-seen order.
  [[nodiscard]] std::vector<Row> table() const;
  /// Sum over root spans of (duration - duplicate time below them), in us.
  [[nodiscard]] double accounted_root_us() const;

  /// Writes every span as JSON (one object per span).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span on a SpanLog.
class Scoped {
 public:
  Scoped(SpanLog& log, std::uint32_t name, std::uint64_t op)
      : log_(log), span_(log.open(name, op)) {}
  ~Scoped() { log_.close(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int32_t id() const { return span_; }

 private:
  SpanLog& log_;
  std::int32_t span_;
};

}  // namespace perfbench
