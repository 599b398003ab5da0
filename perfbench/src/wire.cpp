#include "wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "spans.hpp"
#include "support/socket.hpp"

namespace perfbench {

namespace svc = coalesce::service;
using coalesce::support::Socket;

namespace {

bool exited(pid_t pid, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 5) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return true;
    ::usleep(5000);
  }
  return false;
}

bool answers_ping(const std::string& socket) {
  auto conn = coalesce::support::connect_unix(socket);
  if (!conn.ok()) return false;
  svc::Request ping;
  ping.type = svc::MessageType::kPing;
  auto reply = svc::call(conn.value(), ping);
  return reply.ok() && reply.value().status == svc::Status::kOk;
}

}  // namespace

std::unique_ptr<Daemon> Daemon::start(const DaemonConfig& config,
                                      std::string* error) {
  // Everything the child needs is built before fork(): after it, only
  // async-signal-safe calls.
  std::vector<std::string> args = {config.binary, "--socket=" + config.socket,
                                   "--workers=" + std::to_string(config.workers),
                                   "--jit"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log = config.workdir + "/daemon.log";
  ::unlink(config.socket.c_str());

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    if (::getppid() != parent) ::_exit(127);
    if (config.cpus != nullptr) ::sched_setaffinity(0, sizeof(cpu_set_t), config.cpus);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  std::unique_ptr<Daemon> daemon(new Daemon(config, pid));
  const std::uint64_t deadline = now_ns() + 30'000'000'000ull;
  while (now_ns() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      *error = "coalesced exited during start-up (see " + log + ")";
      return nullptr;
    }
    if (answers_ping(config.socket)) return daemon;
    ::usleep(1000);
  }
  *error = "coalesced did not answer a ping within 30 s";
  return nullptr;
}

CpuSplit::CpuSplit(int daemon_cpus) {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t rest;
  CPU_ZERO(&daemon_);
  CPU_ZERO(&rest);
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    CPU_SET(cpu, seen++ < daemon_cpus ? &daemon_ : &rest);
  }
  split_ = CPU_COUNT(&rest) > 0 && ::sched_setaffinity(0, sizeof rest, &rest) == 0;
}

CpuSplit::~CpuSplit() {
  if (split_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ < 0) return;
  if (auto conn = coalesce::support::connect_unix(config_.socket); conn.ok()) {
    svc::Request shutdown;
    shutdown.type = svc::MessageType::kShutdown;
    (void)svc::call(conn.value(), shutdown);
  }
  if (!exited(pid_, 10000)) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
}

double Daemon::peak_rss_mb() const {
  return vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status");
}

Stream make_stream(const std::vector<Case>& cases) {
  Stream stream;
  stream.cases = &cases;
  for (const Case& c : cases) {
    svc::Request request;
    request.type = svc::MessageType::kSubmit;
    request.submit.want_data = true;
    request.submit.source = c.source;
    const std::vector<std::uint8_t> payload = svc::encode_request(request);
    std::vector<std::uint8_t> frame(4 + payload.size());
    const auto n = static_cast<std::uint32_t>(payload.size());
    for (int b = 0; b < 4; ++b) frame[b] = static_cast<std::uint8_t>(n >> (8 * b));
    std::memcpy(frame.data() + 4, payload.data(), payload.size());
    stream.frames.push_back(std::move(frame));
  }
  return stream;
}

std::string check_reply(const Case& c, const svc::Response& r) {
  if (r.status == svc::Status::kShed) return "failed: shed: " + r.message;
  if (r.status == svc::Status::kError) return "failed: error: " + r.message;
  if (!c.admit) {
    if (r.status != svc::Status::kRejected) {
      return "admitted a program admission must reject in " + c.phase;
    }
    if (r.message.rfind(c.phase + ":", 0) != 0) {
      return "rejected as '" + r.message + "', want phase " + c.phase;
    }
    return "";
  }
  if (r.status == svc::Status::kRejected) {
    return "rejected an admissible program: " + r.message;
  }
  if (r.run.cancelled || r.run.deadline_expired) return "failed: stopped early";
  std::vector<ArrayView> got;
  got.reserve(r.arrays.size());
  for (const svc::ArrayResult& a : r.arrays) got.push_back(ArrayView{a.name, a.data});
  return compare_arrays(c.reference, got);
}

namespace {

constexpr std::uint64_t kTimeoutNs = 5'000'000'000ull;

/// Decodes and checks replies on its own thread.
class Checker {
 public:
  Checker(const Stream& stream, std::vector<std::uint8_t>& failed,
          LoadResult& result)
      : stream_(stream), failed_(failed), result_(result),
        thread_([this] { run(); }) {}
  ~Checker() { finish(); }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  void push(std::uint64_t k, std::vector<std::uint8_t> payload) {
    {
      std::scoped_lock lock(mutex_);
      queue_.emplace_back(k, std::move(payload));
    }
    cv_.notify_one();
  }

  void finish() {
    {
      std::scoped_lock lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    while (true) {
      std::pair<std::uint64_t, std::vector<std::uint8_t>> item;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      const std::uint64_t k = item.first;
      auto decoded = svc::decode_response(item.second);
      if (!decoded.ok()) {
        failed_[k] = 1;
        continue;
      }
      const Case& c = (*stream_.cases)[k % stream_.cases->size()];
      const std::string why = check_reply(c, decoded.value());
      if (why.empty()) continue;
      if (why.rfind("failed", 0) == 0) {
        failed_[k] = 1;
        continue;
      }
      ++result_.wrong;
      if (result_.mismatches.size() < 10) {
        result_.mismatches.push_back("request " + std::to_string(k) + ": " +
                                     why);
      }
    }
  }

  const Stream& stream_;
  std::vector<std::uint8_t>& failed_;
  LoadResult& result_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> queue_;
  bool done_ = false;  // guarded by mutex_
  std::thread thread_;
};

struct Conn {
  Socket sock;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_off = 0;
  std::deque<std::uint64_t> inflight;
  bool dead = false;
};

/// The generator loop shared by both load shapes. rate > 0 is an open
/// loop at that rate; rate == 0 a closed loop.
LoadResult drive(const std::string& socket, const Stream& stream,
                 std::size_t count, int connections, double rate) {
  LoadResult result;
  result.attempted = count;
  std::vector<std::uint8_t> failed(count, 0);
  std::vector<std::uint64_t> sent(count, 0), done(count, 0);
  const bool open = rate > 0;
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // sub-microsecond ppoll wake-ups

  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  for (Conn& c : conns) {
    auto s = coalesce::support::connect_unix(socket);
    if (!s.ok()) {
      c.dead = true;
      continue;
    }
    c.sock = std::move(s).value();
    ::fcntl(c.sock.fd(), F_SETFL, ::fcntl(c.sock.fd(), F_GETFL) | O_NONBLOCK);
  }

  std::size_t finished = 0;
  std::size_t next = 0;
  auto fail_inflight = [&](Conn& c) {
    c.dead = true;
    for (const std::uint64_t k : c.inflight) {
      failed[k] = 1;
      ++finished;
    }
    c.inflight.clear();
  };
  auto flush = [&](Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.sock.fd(), c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        fail_inflight(c);
        return;
      }
    }
    c.out.clear();
    c.out_off = 0;
  };
  auto send = [&](Conn& c, std::uint64_t k) {
    sent[k] = now_ns();
    if (c.dead) {
      failed[k] = 1;
      ++finished;
      return;
    }
    const auto& frame = stream.frames[k % stream.frames.size()];
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    c.inflight.push_back(k);
    flush(c);
  };

  Checker checker(stream, failed, result);
  auto receive = [&](Conn& c) {
    while (!c.dead) {
      const std::size_t old = c.in.size();
      c.in.resize(old + 65536);
      const ssize_t n = ::recv(c.sock.fd(), c.in.data() + old, 65536, 0);
      c.in.resize(old + static_cast<std::size_t>(n > 0 ? n : 0));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        fail_inflight(c);
        break;
      }
    }
    const std::uint64_t at = now_ns();
    while (c.in.size() - c.in_off >= 4) {
      const std::uint8_t* p = c.in.data() + c.in_off;
      const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                static_cast<std::uint32_t>(p[1]) << 8 |
                                static_cast<std::uint32_t>(p[2]) << 16 |
                                static_cast<std::uint32_t>(p[3]) << 24;
      if (c.in.size() - c.in_off - 4 < len) break;
      if (c.inflight.empty()) {  // a reply nobody asked for
        fail_inflight(c);
        return;
      }
      const std::uint64_t k = c.inflight.front();
      c.inflight.pop_front();
      done[k] = at;
      checker.push(k, std::vector<std::uint8_t>(p + 4, p + 4 + len));
      c.in_off += 4 + len;
      ++finished;
      if (!open && next < count) send(c, next++);
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    } else if (c.in_off > (1u << 20)) {
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(c.in_off));
      c.in_off = 0;
    }
  };

  const std::uint64_t t0 = now_ns() + 1'000'000;
  const double period_ns = open ? 1e9 / rate : 0.0;
  auto due = [&](std::uint64_t k) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
  };
  const std::uint64_t first_send = open ? t0 : now_ns();
  if (!open) {
    for (Conn& c : conns) {
      if (next < count) send(c, next++);
    }
  }

  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  while (finished < count) {
    std::uint64_t now = now_ns();
    if (open) {
      while (next < count && due(next) <= now) {
        send(conns[next % conns.size()], next);
        ++next;
      }
    }
    bool alive = false;
    now = now_ns();
    for (Conn& c : conns) {
      if (!c.inflight.empty() && now > sent[c.inflight.front()] + kTimeoutNs) {
        fail_inflight(c);
      }
      alive = alive || !c.dead;
    }
    if (!alive) {  // nothing left to send on: the rest fails
      for (; next < count; ++next) {
        failed[next] = 1;
        ++finished;
      }
      break;
    }
    std::uint64_t wait_ns = 1'000'000;
    if (open && next < count) {
      now = now_ns();
      wait_ns = due(next) > now ? due(next) - now : 0;
    }
    fds.clear();
    polled.clear();
    for (Conn& c : conns) {
      if (c.dead) continue;
      const short events =
          static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      fds.push_back(pollfd{c.sock.fd(), events, 0});
      polled.push_back(&c);
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                      static_cast<long>(wait_ns % 1'000'000'000ull)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& c = *polled[i];
      if ((fds[i].revents & POLLOUT) != 0) flush(c);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) receive(c);
    }
  }
  result.elapsed_s = static_cast<double>(now_ns() - first_send) / 1e9;
  checker.finish();

  for (std::size_t k = 0; k < count; ++k) {
    if (failed[k] != 0) {
      ++result.failed;
      continue;
    }
    if (done[k] == 0) continue;  // counted as a time-out above
    const std::uint64_t from = open ? due(k) : sent[k];
    result.latency_us.push_back(static_cast<double>(done[k] - from) / 1e3);
    if (open) {
      result.lag_us.push_back(
          static_cast<double>(sent[k] > due(k) ? sent[k] - due(k) : 0) / 1e3);
    }
  }
  return result;
}

}  // namespace

LoadResult open_loop(const std::string& socket, const Stream& stream,
                     std::size_t count, double rate, int connections) {
  return drive(socket, stream, count, connections, rate);
}

LoadResult closed_loop(const std::string& socket, const Stream& stream,
                       std::size_t count, int connections) {
  return drive(socket, stream, count, connections, 0.0);
}

double ping_rtt_us(const std::string& socket, int count) {
  auto conn = coalesce::support::connect_unix(socket);
  if (!conn.ok()) return 0.0;
  svc::Request ping;
  ping.type = svc::MessageType::kPing;
  std::vector<double> rtt;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t t = now_ns();
    if (!svc::call(conn.value(), ping).ok()) return 0.0;
    rtt.push_back(static_cast<double>(now_ns() - t) / 1e3);
  }
  return median(rtt);
}

svc::ServerCounters server_counters(const std::string& socket) {
  auto conn = coalesce::support::connect_unix(socket);
  if (!conn.ok()) return {};
  svc::Request stats;
  stats.type = svc::MessageType::kStats;
  auto reply = svc::call(conn.value(), stats);
  return reply.ok() ? reply.value().counters : svc::ServerCounters{};
}

}  // namespace perfbench
