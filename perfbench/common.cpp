// Process accounting, digests, span logs and forked isolation.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "trace_fmt/reader.h"

namespace cpgbench {

namespace {

double status_field_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::stod(line.substr(klen)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

inline void mix_event(Fnv& f, std::int64_t ts, std::uint32_t ue,
                      cpg::EventType type, std::uint64_t cell) {
  f.mix(static_cast<std::uint64_t>(ts));
  f.mix((static_cast<std::uint64_t>(ue) << 8) |
        static_cast<std::uint64_t>(cpg::index_of(type)));
  f.mix(cell);
}

constexpr std::uint64_t k_no_cell = 0xffffffffffffffffull;

}  // namespace

double rss_mb() { return status_field_mb("VmRSS:"); }
double hwm_mb() { return status_field_mb("VmHWM:"); }
double cpu_self_s() { return cpu_s(RUSAGE_SELF); }
double cpu_children_s() { return cpu_s(RUSAGE_CHILDREN); }

void ColumnDigest::registry(const cpg::DeviceType* devices, std::size_t n) {
  f.mix(n);
  for (std::size_t i = 0; i < n; ++i) f.mix(cpg::index_of(devices[i]));
}

void ColumnDigest::add(const cpg::EventColumnsView& v) {
  for (std::size_t i = 0; i < v.n; ++i) {
    mix_event(f, v.ts[i], v.ue[i], v.type[i],
              v.cell != nullptr ? v.cell[i] : k_no_cell);
  }
  events += v.n;
}

void ByteDigest::add(const char* p, std::size_t n) {
  bytes += n;
  while (n > 0 && carry_len != 0) {
    carry |= static_cast<std::uint64_t>(static_cast<unsigned char>(*p++))
             << (8 * carry_len);
    --n;
    if (++carry_len == 8) {
      f.mix(carry);
      carry = 0;
      carry_len = 0;
    }
  }
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    f.mix(w);
  }
  for (; n > 0; --n) {
    carry |= static_cast<std::uint64_t>(static_cast<unsigned char>(*p++))
             << (8 * carry_len);
    ++carry_len;
  }
}

std::uint64_t ByteDigest::value() const {
  Fnv g = f;
  g.mix(carry);
  g.mix(bytes);
  return g.h;
}

std::uint64_t digest_cpgt_file(const std::string& path) {
  cpg::trace_fmt::TraceReader reader(path);
  ColumnDigest d;
  d.registry(reader.devices().data(), reader.devices().size());
  std::vector<cpg::ControlEvent> buf;
  while (reader.next_events(buf)) {
    const std::vector<std::uint32_t>& cells = reader.cells();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      mix_event(d.f, buf[i].t_ms, buf[i].ue_id, buf[i].type,
                cells.empty() ? k_no_cell : cells[i]);
    }
    d.events += buf.size();
  }
  return d.f.h;
}

std::uint64_t digest_csv_files(const std::string& prefix) {
  Fnv out;
  for (const char* suffix : {"_ues.csv", "_events.csv"}) {
    std::ifstream in(prefix + suffix, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + prefix + suffix);
    ByteDigest d;
    std::vector<char> buf(1 << 20);
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      d.add(buf.data(), static_cast<std::size_t>(in.gcount()));
    }
    out.mix(d.value());
  }
  return out.h;
}

// --- spans ------------------------------------------------------------------

int SpanLog::add(std::string_view name, Clock::time_point t0,
                 Clock::time_point t1, int parent) {
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard lock(mu_);
  spans_.push_back(Span{std::string(name), ns(t0), ns(t1), parent});
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::open(std::string_view name, int parent) {
  const auto now = Clock::now();
  return add(name, now, now, parent);
}

void SpanLog::close(int span) {
  const auto end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = end;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::string encode_spans(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& s : spans) {
    out += s.name + '\t' + std::to_string(s.start_ns) + '\t' +
           std::to_string(s.end_ns) + '\t' + std::to_string(s.parent) + '\n';
  }
  return out;
}

std::vector<Span> decode_spans(std::string_view text) {
  std::vector<Span> out;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    Span s;
    std::getline(ls, s.name, '\t');
    ls >> s.start_ns >> s.end_ns >> s.parent;
    if (!ls.fail()) out.push_back(std::move(s));
  }
  return out;
}

void write_span_file(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<Span>>>& runs) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3) << "[\n";
  bool first = true;
  for (const auto& [run, spans] : runs) {
    for (const Span& s : spans) {
      out << (first ? "" : ",\n") << "{\"run\":\"" << run << "\",\"name\":\""
          << s.name << "\",\"start_us\":" << s.start_ns / 1000.0
          << ",\"end_us\":" << s.end_ns / 1000.0
          << ",\"parent\":" << s.parent << "}";
      first = false;
    }
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

// --- isolation --------------------------------------------------------------

namespace {

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

ForkOutcome run_forked(const std::function<std::string()>& body,
                       double timeout_s) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    ::close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = body();
    } catch (const std::exception& e) {
      out = e.what();
      code = 3;
    } catch (...) {
      out = "unknown failure";
      code = 3;
    }
    write_all(fds[1], out);
    std::cout.flush();
    std::cerr.flush();
    ::_exit(code);
  }
  ::setpgid(pid, pid);
  ::close(fds[1]);

  ForkOutcome res;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  bool timed_out = false;
  char buf[1 << 16];
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(std::min<long long>(left, 1000)));
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    res.blob.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  // The child leads its group: this takes down anything it left running
  // (it is itself a zombie or still running, and the group id stays valid
  // until it is reaped below).
  ::kill(-pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  // Descendants orphaned by the kill are re-parented here (this process is a
  // child subreaper); reap them so nothing outlives the run.
  while (true) {
    const pid_t w = ::waitpid(-1, nullptr, 0);
    if (w > 0 || (w < 0 && errno == EINTR)) continue;
    break;
  }
  if (timed_out) {
    res.error = "run exceeded " + std::to_string(timeout_s) + " s";
  } else if (WIFSIGNALED(status)) {
    res.error = "run killed by signal " + std::to_string(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    res.error = "run failed: " + res.blob;
  } else {
    res.ok = true;
  }
  return res;
}

}  // namespace cpgbench
