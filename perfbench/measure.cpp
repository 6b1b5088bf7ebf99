// One measured run: set-up, then the parallel generation call, timed from
// outside through the runtime's public entry points. In a traced run, timing
// decorators wrap the sink and every rank transport, and an obs::Registry is
// attached; untraced runs carry only the first-delivery probe.
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "generator/traffic_generator.h"
#include "io/model_io.h"
#include "obs/metrics.h"
#include "scenario/spec.h"
#include "stream/binary_sink.h"
#include "stream/csv_sink.h"
#include "stream/stream_generator.h"

namespace cpgbench {

namespace {

using cpg::stream::EventSink;
using cpg::stream::StreamHeader;

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

// Sum (and max/mean ratio) over every series of one obs family.
struct FamilySum {
  double sum = 0;
  double skew = 0;
};

FamilySum family_sum(const cpg::obs::Registry& reg, std::string_view name) {
  FamilySum out;
  double max = 0;
  std::size_t n = 0;
  for (const auto& fam : reg.snapshot()) {
    if (fam.name != name) continue;
    for (const auto& s : fam.series) {
      const auto v = static_cast<double>(s.counter);
      out.sum += v;
      max = std::max(max, v);
      ++n;
    }
  }
  if (n > 0 && out.sum > 0) out.skew = max / (out.sum / static_cast<double>(n));
  return out;
}

// Counting sink that also digests the delivered stream, so a run without
// an output file can still be checked against the replay.
class CountingDigestSink final : public EventSink {
 public:
  void on_start(const StreamHeader& h) override {
    digest_.registry(h.ue_devices.data(), h.ue_devices.size());
  }
  void on_event(const cpg::ControlEvent& e) override {
    on_event_columns(cpg::EventColumnsView{&e.t_ms, &e.ue_id, &e.type, 1});
  }
  void on_event_columns(const cpg::EventColumnsView& cols) override {
    counter_.on_event_columns(cols);
    digest_.add(cols);
  }

  std::uint64_t digest() const noexcept { return digest_.f.h; }
  std::uint64_t total() const noexcept { return counter_.total(); }

 private:
  cpg::stream::CountingSink counter_;
  ColumnDigest digest_;
};

// Decorator in front of the workload's sink. It always notes the first
// delivery; with a span log it also times every call and the consumer's
// gaps between calls (which, with the calls, must tile the generation).
class ProbeSink final : public EventSink {
 public:
  ProbeSink(EventSink& inner, SpanLog* log) : inner_(inner), log_(log) {}

  void begin(Clock::time_point gen_t0, int parent) {
    last_end_ = gen_t0;
    parent_ = parent;
  }
  void end(Clock::time_point gen_t1) {
    gap_s_ += seconds_between(last_end_, gen_t1);
  }

  void on_start(const StreamHeader& h) override {
    timed("sink.on_start", start_s_, [&] { inner_.on_start(h); });
  }
  void on_event(const cpg::ControlEvent& e) override {
    note_first(1);
    timed("sink", busy_s_, [&] { inner_.on_event(e); });
  }
  void on_events(std::span<const cpg::ControlEvent> evs) override {
    note_first(evs.size());
    timed("sink", busy_s_, [&] { inner_.on_events(evs); });
  }
  void on_event_columns(const cpg::EventColumnsView& cols) override {
    note_first(cols.n);
    timed("sink", busy_s_, [&] { inner_.on_event_columns(cols); });
  }
  void on_finish() override {
    timed("sink.on_finish", finish_s_, [&] { inner_.on_finish(); });
  }

  bool delivered() const noexcept { return seen_; }
  Clock::time_point first_delivery() const noexcept { return first_; }
  double busy_s() const noexcept { return busy_s_; }
  double start_s() const noexcept { return start_s_; }
  double finish_s() const noexcept { return finish_s_; }
  double gap_s() const noexcept { return gap_s_; }

 private:
  void note_first(std::size_t n) {
    if (!seen_ && n > 0) {
      seen_ = true;
      first_ = Clock::now();
    }
  }

  template <typename F>
  void timed(std::string_view name, double& acc, F&& f) {
    if (log_ == nullptr) {
      f();
      return;
    }
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    gap_s_ += seconds_between(last_end_, t0);
    last_end_ = t1;
    acc += seconds_between(t0, t1);
    log_->add(name, t0, t1, parent_);
  }

  EventSink& inner_;
  SpanLog* log_;
  int parent_ = -1;
  bool seen_ = false;
  Clock::time_point first_{};
  Clock::time_point last_end_{};
  double busy_s_ = 0;
  double start_s_ = 0;
  double finish_s_ = 0;
  double gap_s_ = 0;
};

// Timing decorator around a rank transport: time blocked in send and recv.
// One instance is used by one thread at a time.
class TimedTransport final : public cpg::dist::RankTransport {
 public:
  TimedTransport(cpg::dist::RankTransport& inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  void send(cpg::dist::FrameType type, std::string_view payload) override {
    const auto t0 = Clock::now();
    inner_.send(type, payload);
    send_s_ += seconds_since(t0);
  }
  std::optional<cpg::dist::Frame> recv() override {
    const auto t0 = Clock::now();
    auto f = inner_.recv();
    record_recv(t0);
    return f;
  }
  cpg::dist::RecvStatus recv_timed(std::optional<cpg::dist::Frame>& out,
                                   int timeout_ms) override {
    const auto t0 = Clock::now();
    const auto st = inner_.recv_timed(out, timeout_ms);
    record_recv(t0);
    return st;
  }
  void abort() override { inner_.abort(); }

  double send_s() const noexcept { return send_s_; }
  double recv_s() const noexcept { return recv_s_; }

 private:
  void record_recv(Clock::time_point t0) {
    const auto t1 = Clock::now();
    recv_s_ += seconds_between(t0, t1);
    if (log_ != nullptr) log_->add("dist.recv", t0, t1);
  }

  cpg::dist::RankTransport& inner_;
  SpanLog* log_;
  double send_s_ = 0;
  double recv_s_ = 0;
};

// What a worker rank reports back through shared memory.
struct RankReport {
  double send_s;
  double stall_s;
  double rss_growth_mb;
  int ok;
};

cpg::stream::StreamOptions stream_options(const Prepared& p) {
  cpg::stream::StreamOptions so;
  so.num_threads = k_parallel;
  so.num_shards = k_parallel;
  if (p.spatial.has_value()) so.spatial = &*p.spatial;
  return so;
}

// Forks the worker ranks of a ranks3 run over socketpairs. Each rank runs
// run_worker on one single-threaded shard and exits; the caller keeps the
// coordinator ends and reaps `pids`.
void spawn_ranks(const Prepared& p, bool traced, RankReport* reports,
                 std::vector<std::unique_ptr<cpg::dist::FdTransport>>& coord,
                 std::vector<pid_t>& pids) {
  std::vector<std::unique_ptr<cpg::dist::FdTransport>> worker;
  for (unsigned r = 0; r < k_parallel; ++r) {
    auto [w, c] = cpg::dist::make_transport_pair();
    worker.push_back(std::move(w));
    coord.push_back(std::move(c));
  }
  for (unsigned r = 0; r < k_parallel; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork of a worker rank failed");
    if (pid == 0) {
      for (auto& c : coord) ::close(c->fd());
      for (unsigned o = 0; o < k_parallel; ++o) {
        if (o != r) ::close(worker[o]->fd());
      }
      const double rss0 = rss_mb();
      cpg::obs::Registry reg;
      cpg::dist::WorkerOptions wo;
      wo.rank = r;
      wo.num_ranks = k_parallel;
      wo.stream = stream_options(p);
      wo.stream.num_threads = 1;
      wo.stream.num_shards = 1;
      if (traced) wo.stream.metrics = &reg;
      TimedTransport tt(*worker[r], nullptr);
      int ok = 0;
      try {
        cpg::dist::run_worker(*p.plan, tt, wo);
        ok = 1;
      } catch (...) {
      }
      reports[r].send_s = tt.send_s();
      reports[r].stall_s =
          1e-6 * family_sum(reg, "cpg_stream_producer_stall_us_total").sum;
      reports[r].rss_growth_mb = hwm_mb() - rss0;
      reports[r].ok = ok;
      ::_exit(ok ? 0 : 1);
    }
    pids.push_back(pid);
  }
}

void reap_ranks(std::vector<pid_t>& pids, bool kill_first, std::string* err) {
  for (const pid_t pid : pids) {
    if (kill_first) ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (err != nullptr && err->empty() &&
        (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      *err = "a worker rank exited abnormally";
    }
  }
  pids.clear();
}

// Body of the forked measured child: returns the RunResult bytes followed
// by the encoded spans.
std::string run_measured(const RunSpec& spec, bool traced) {
  const auto t0 = Clock::now();
  const double rss0 = rss_mb();
  SpanLog log(t0);
  SpanLog* slog = traced ? &log : nullptr;
  RunResult r;

  Prepared p;
  prepare(spec, p, r, slog);

  cpg::obs::Registry reg;
  cpg::stream::StreamOptions so = stream_options(p);
  if (traced) so.metrics = &reg;

  std::unique_ptr<EventSink> inner;
  CountingDigestSink* counting = nullptr;
  switch (spec.kind) {
    case Kind::steady_cpgt:
      inner = std::make_unique<cpg::stream::BinarySink>(spec.out_prefix);
      break;
    case Kind::storm_spatial: {
      auto c = std::make_unique<CountingDigestSink>();
      counting = c.get();
      inner = std::move(c);
      break;
    }
    case Kind::ranks3_csv:
      inner = std::make_unique<cpg::stream::CsvSink>(spec.out_prefix);
      break;
  }
  ProbeSink probe(*inner, slog);

  // Worker ranks: spawned as part of set-up, reporting through a shared
  // page that outlives their exit.
  RankReport* reports = nullptr;
  std::vector<std::unique_ptr<cpg::dist::FdTransport>> coord;
  std::vector<pid_t> pids;
  if (spec.kind == Kind::ranks3_csv) {
    const auto ts = Clock::now();
    void* mem = ::mmap(nullptr, sizeof(RankReport) * k_parallel,
                       PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1,
                       0);
    if (mem == MAP_FAILED) throw std::runtime_error("mmap failed");
    reports = static_cast<RankReport*>(mem);
    std::memset(mem, 0, sizeof(RankReport) * k_parallel);
    spawn_ranks(p, traced, reports, coord, pids);
    r.spawn_s = seconds_since(ts);
    if (slog != nullptr) log.add("setup.spawn", ts, Clock::now());
  }
  r.setup_s = seconds_since(t0);

  const double cpu0 = cpu_self_s();
  const auto g0 = Clock::now();
  const int gen_span = slog != nullptr ? log.open("generate") : -1;
  probe.begin(g0, gen_span);
  cpg::stream::StreamStats stats;
  std::string rank_err;
  if (spec.kind == Kind::ranks3_csv) {
    std::vector<std::unique_ptr<TimedTransport>> timed;
    std::vector<cpg::dist::RankTransport*> ranks;
    for (auto& c : coord) {
      if (traced) {
        timed.push_back(std::make_unique<TimedTransport>(*c, slog));
        ranks.push_back(timed.back().get());
      } else {
        ranks.push_back(c.get());
      }
    }
    cpg::dist::CoordinatorOptions co;
    co.stream = so;
    cpg::dist::DistStats ds;
    try {
      ds = cpg::dist::run_merge(*p.plan, ranks, probe, co);
    } catch (...) {
      reap_ranks(pids, true, nullptr);
      throw;
    }
    reap_ranks(pids, false, &rank_err);
    stats = ds.totals;
    for (const auto& t : timed) r.recv_blocked_s += t->recv_s();
    double max = 0;
    double sum = 0;
    for (const auto& rs : ds.ranks) {
      max = std::max(max, static_cast<double>(rs.events));
      sum += static_cast<double>(rs.events);
    }
    if (sum > 0) r.event_skew = max / (sum / static_cast<double>(ds.ranks.size()));
  } else {
    stats = cpg::stream::stream_generate(*p.plan, so, probe);
  }
  const auto g1 = Clock::now();
  if (slog != nullptr) log.close(gen_span);
  probe.end(g1);
  if (!rank_err.empty()) throw std::runtime_error(rank_err);

  r.gen_wall_s = seconds_between(g0, g1);
  r.cpu_s = cpu_self_s() - cpu0 + cpu_children_s();
  r.rss_growth_mb = hwm_mb() - rss0;
  r.events = stats.events;
  r.peak_buffered = stats.peak_buffered_events;
  r.first_slice_s =
      probe.delivered() ? seconds_between(g0, probe.first_delivery()) : 0.0;
  if (reports != nullptr) {
    for (unsigned i = 0; i < k_parallel; ++i) {
      if (reports[i].ok == 0) throw std::runtime_error("a worker rank failed");
      r.rss_growth_mb += reports[i].rss_growth_mb;
      r.worker_send_s += reports[i].send_s;
      r.producer_stall_s += reports[i].stall_s;
    }
    ::munmap(reports, sizeof(RankReport) * k_parallel);
  } else if (traced) {
    r.producer_stall_s =
        1e-6 * family_sum(reg, "cpg_stream_producer_stall_us_total").sum;
    r.event_skew = family_sum(reg, "cpg_stream_shard_events_total").skew;
  }
  switch (spec.kind) {
    case Kind::steady_cpgt:
      r.out_bytes =
          file_size(cpg::stream::BinarySink::path_for(spec.out_prefix));
      break;
    case Kind::storm_spatial:
      r.digest = counting->digest();
      if (counting->total() != stats.events) {
        throw std::runtime_error("counting sink saw a different event count");
      }
      break;
    case Kind::ranks3_csv:
      r.out_bytes = file_size(spec.out_prefix + "_events.csv") +
                    file_size(spec.out_prefix + "_ues.csv");
      break;
  }
  r.sink_busy_s = probe.busy_s();
  r.sink_start_s = probe.start_s();
  r.sink_finish_s = probe.finish_s();
  r.consumer_gap_s = probe.gap_s();
  r.ok = true;
  std::string out(reinterpret_cast<const char*>(&r), sizeof r);
  if (slog != nullptr) out += encode_spans(log.spans());
  return out;
}

}  // namespace

void prepare(const RunSpec& spec, Prepared& p, RunResult& r, SpanLog* log) {
  auto stage = [&](const char* name, double& acc, auto&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    acc += seconds_between(t0, t1);
    if (log != nullptr) log->add(name, t0, t1);
  };
  stage("setup.model.load", r.model_load_s,
        [&] { p.models.emplace(cpg::io::load_model(spec.inputs.model)); });
  stage("setup.model.compile", r.model_compile_s,
        [&] { p.compiled.emplace(cpg::model::compile(*p.models)); });
  r.arena_bytes = p.compiled->stats.arena_bytes;

  if (spec.kind == Kind::storm_spatial) {
    stage("setup.scenario.compile", r.scenario_compile_s, [&] {
      p.spatial.emplace(cpg::spatial::load_spatial(spec.inputs.spatial));
      const auto scn = cpg::scenario::parse_scenario_file(spec.inputs.scn);
      cpg::scenario::CompileOptions co;
      co.seed = spec.seed;
      co.spatial = &*p.spatial;
      p.scenario.emplace(cpg::scenario::compile(scn, *p.models, co));
    });
    stage("setup.plan", r.plan_s, [&] {
      // Hand the executor the model compiled above instead of letting it
      // compile its own copy inside the generation call.
      for (auto& ref : p.scenario->plan.models) {
        if (ref.models == &*p.models) ref.compiled = &*p.compiled;
      }
      p.plan = &p.scenario->plan;
    });
  } else {
    stage("setup.plan", r.plan_s, [&] {
      cpg::gen::GenerationRequest req;
      req.ue_counts = device_mix(k_stationary_ues);
      req.start_hour = k_stationary_start_hour;
      req.duration_hours = k_stationary_hours;
      req.seed = spec.seed;
      req.num_threads = k_parallel;
      req.ue_options.compiled = &*p.compiled;
      p.stationary.emplace(cpg::stream::stationary_plan(*p.models, req));
      p.plan = &*p.stationary;
    });
  }
  r.segments = p.plan->segments.size();
}

RunResult measure_in_child(const RunSpec& spec, bool traced,
                           std::vector<Span>* spans, double timeout_s) {
  const ForkOutcome out =
      run_forked([&] { return run_measured(spec, traced); }, timeout_s);
  RunResult r;
  if (!out.ok || out.blob.size() < sizeof r) {
    const std::string msg = out.ok ? "short result from run" : out.error;
    std::strncpy(r.error, msg.c_str(), sizeof r.error - 1);
    return r;
  }
  std::memcpy(&r, out.blob.data(), sizeof r);
  if (spans != nullptr) {
    *spans = decode_spans(std::string_view(out.blob).substr(sizeof r));
  }
  return r;
}

}  // namespace cpgbench
