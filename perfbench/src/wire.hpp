// Driving the real `coalesced` daemon: spawning and stopping it, and the
// load generator that talks to it over its Unix socket.
//
// One generator thread owns every connection (non-blocking sockets, one
// ppoll loop); a second thread decodes and checks replies so that checking
// never delays a send.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gen.hpp"
#include "service/protocol.hpp"

namespace perfbench {

/// Splits the CPUs this process may run on between the daemon and the load
/// generator: the daemon gets the first `daemon_cpus` of them and the
/// calling thread (and every thread it starts) the rest, until this is
/// destroyed. Does nothing when there are not more CPUs than that.
class CpuSplit {
 public:
  explicit CpuSplit(int daemon_cpus);
  ~CpuSplit();
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  /// The daemon's CPUs, or null when the CPUs were not split.
  [[nodiscard]] const cpu_set_t* daemon() const { return split_ ? &daemon_ : nullptr; }

 private:
  cpu_set_t saved_{};
  cpu_set_t daemon_{};
  bool split_ = false;
};

struct DaemonConfig {
  std::string binary;   ///< path to coalesced
  std::string socket;   ///< Unix socket path (short, relative is fine)
  std::string workdir;  ///< where the daemon log goes; the daemon inherits
                        ///< TMPDIR (its JIT's scratch space) from us
  int workers = 2;
  const cpu_set_t* cpus = nullptr;  ///< the daemon's CPUs (null: any)
};

class Daemon {
 public:
  /// Starts the daemon and waits until it answers a ping. Null (and
  /// *error set) on failure; a daemon that started is stopped again.
  static std::unique_ptr<Daemon> start(const DaemonConfig& config,
                                       std::string* error);
  /// stop() if still running.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Graceful kShutdown, then waits for the process; SIGKILL after 10 s.
  void stop();
  /// VmHWM of the daemon process, MiB (0 when unreadable).
  [[nodiscard]] double peak_rss_mb() const;
  [[nodiscard]] const std::string& socket() const { return config_.socket; }

 private:
  Daemon(DaemonConfig config, pid_t pid) : config_(std::move(config)), pid_(pid) {}
  DaemonConfig config_;
  pid_t pid_ = -1;
};

/// A request stream: request k sends frames[k % frames.size()] and is
/// checked against cases[k % cases.size()].
struct Stream {
  const std::vector<Case>* cases = nullptr;
  std::vector<std::vector<std::uint8_t>> frames;  ///< length-prefixed
};

/// Encodes one framed kSubmit per case (want_data on).
Stream make_stream(const std::vector<Case>& cases);

struct LoadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< transport, kError, kShed, time-outs
  /// Latency of each successful request, us: from when it was due (open
  /// loop) or sent (closed loop) to its reply.
  std::vector<double> latency_us;
  /// From the first send to the last reply, seconds.
  double elapsed_s = 0;
  /// Open loop: how late the generator itself sent each request, us.
  std::vector<double> lag_us;
  /// Wrong answers (verdict, phase or array contents). Any one fails the
  /// run; the first few are kept for the report.
  std::uint64_t wrong = 0;
  std::vector<std::string> mismatches;
};

/// Open loop: request k is due at start + k / rate and goes out on
/// connection k % connections whether or not earlier replies arrived.
LoadResult open_loop(const std::string& socket, const Stream& stream,
                     std::size_t count, double rate, int connections);

/// Closed loop: each connection sends its next request as soon as its
/// previous reply arrives, until `count` requests completed.
LoadResult closed_loop(const std::string& socket, const Stream& stream,
                       std::size_t count, int connections);

/// Median round trip of `count` kPing requests, us.
double ping_rtt_us(const std::string& socket, int count);

/// The daemon's kStats counters (zeros on failure).
coalesce::service::ServerCounters server_counters(const std::string& socket);

/// Checks one decoded reply against its case: "" when right, "failed: ..."
/// for a failure that is not a wrong answer, otherwise the wrong answer.
std::string check_reply(const Case& c, const coalesce::service::Response& r);

}  // namespace perfbench
