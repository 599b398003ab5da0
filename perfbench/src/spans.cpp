#include "spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>

namespace perfbench {

double vm_hwm_mb(const std::string& proc_status) {
  std::ifstream status(proc_status);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::mutex& names_mutex() {
  static std::mutex m;
  return m;
}

std::vector<std::string>& names() {
  static std::vector<std::string> n;
  return n;
}

}  // namespace

std::uint32_t SpanLog::intern(const std::string& name) {
  std::scoped_lock lock(names_mutex());
  auto& n = names();
  for (std::size_t i = 0; i < n.size(); ++i) {
    if (n[i] == name) return static_cast<std::uint32_t>(i);
  }
  n.push_back(name);
  return static_cast<std::uint32_t>(n.size() - 1);
}

const std::string& SpanLog::name_of(std::uint32_t id) {
  std::scoped_lock lock(names_mutex());
  return names()[id];
}

std::int32_t SpanLog::open(std::uint32_t name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void SpanLog::close(std::int32_t span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

void SpanLog::add(std::uint32_t name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::int32_t parent,
                  std::uint64_t op) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.parent = parent;
  s.op = op;
  spans_.push_back(s);
}

void SpanLog::add_duplicate(std::int32_t span, std::uint64_t ns) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].duplicate_ns += ns;
}

void SpanLog::rename(std::int32_t span, std::uint32_t name) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].name = name;
}

std::uint64_t SpanLog::op_of(std::int32_t span) const {
  return span < 0 ? 0 : spans_[static_cast<std::size_t>(span)].op;
}

std::vector<SpanLog::Row> SpanLog::table() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<Row> rows;
  std::vector<std::int32_t> row_of;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (row_of.size() <= s.name) row_of.resize(s.name + 1, -1);
    if (row_of[s.name] < 0) {
      row_of[s.name] = static_cast<std::int32_t>(rows.size());
      rows.push_back(Row{name_of(s.name), 0, 0.0, 0.0, 0.0});
    }
    Row& row = rows[static_cast<std::size_t>(row_of[s.name])];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const double self = static_cast<double>(dur) -
                        static_cast<double>(child_ns[i]) -
                        static_cast<double>(s.duplicate_ns);
    row.calls += 1;
    row.total_us += static_cast<double>(dur) / 1e3;
    row.self_us += self / 1e3;
    row.duplicate_us += static_cast<double>(s.duplicate_ns) / 1e3;
  }
  return rows;
}

double SpanLog::accounted_root_us() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += static_cast<double>(s.end_ns - s.start_ns);
    total -= static_cast<double>(s.duplicate_ns);
  }
  return total / 1e3;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << name_of(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"duplicate_ns\":" << s.duplicate_ns << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
