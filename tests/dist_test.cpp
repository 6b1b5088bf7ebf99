// Tests for the distributed runtime (src/dist/): wire codec round-trips,
// transport framing and shutdown, rank plan slicing, the coordinator merge
// determinism contract (merged N-rank stream == single-process stream, byte
// for byte, for any rank count and worker configuration), distributed
// checkpoint commit + kill/resume, failure surfacing (rank death, torn
// streams, hello mismatches) and cross-rank obs aggregation.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "generator/traffic_generator.h"
#include "model/fit.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "scenario/spec.h"
#include "spatial/config.h"
#include "stream/binary_sink.h"
#include "stream/stream_generator.h"
#include "test_util.h"
#include "trace_fmt/reader.h"

namespace cpg::dist {
namespace {

const model::ModelSet& ours_model() {
  static const model::ModelSet set = [] {
    model::FitOptions opts;
    opts.method = model::Method::ours;
    opts.clustering.theta_n = 30;
    return model::fit_model(testutil::small_ground_truth(200, 48.0, 11),
                            opts);
  }();
  return set;
}

gen::GenerationRequest small_request() {
  gen::GenerationRequest req;
  req.ue_counts = {40, 16, 8};
  req.start_hour = 10;
  req.duration_hours = 2.0;
  req.seed = 99;
  req.num_threads = 1;
  return req;
}

const stream::PopulationPlan& stationary() {
  static const stream::PopulationPlan plan =
      stream::stationary_plan(ours_model(), small_request());
  return plan;
}

constexpr const char* k_scn_spec = R"(scenario dist-mix
start-hour 9
duration 2

phase warmup 0 1
phase rush 1 2
  accel 50

cohort base
  device phone
  count 24
  join 0
  leave 1.6 1.9
cohort crowd
  device phone
  count 12
  join 0.5 0.7
cohort cars
  device car
  count 8
  migrate 1 nsa
)";

const scenario::CompiledScenario& churny() {
  static const scenario::CompiledScenario sc = scenario::compile(
      scenario::parse_scenario_string(k_scn_spec), ours_model());
  return sc;
}

constexpr TimeMs k_slice = 15 * k_ms_per_minute;

std::vector<ControlEvent> run_single(const stream::PopulationPlan& plan) {
  stream::StreamOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 1;
  opts.slice_ms = k_slice;
  std::vector<ControlEvent> store;
  stream::CallbackSink sink(
      [&](const ControlEvent& e) { store.push_back(e); });
  stream::stream_generate(plan, opts, sink);
  return store;
}

// A transport decorator that injects a deterministic rank death: after
// `limit` successful sends every further send (including the worker's
// best-effort error frame) fails — exactly what a SIGKILLed worker process
// looks like from the coordinator (EOF mid-stream).
class DyingTransport final : public RankTransport {
 public:
  DyingTransport(RankTransport& inner, std::size_t limit)
      : inner_(inner), remaining_(limit) {}

  void send(FrameType type, std::string_view payload) override {
    if (remaining_ == 0) {
      inner_.abort();
      throw std::runtime_error("dist test: injected rank death");
    }
    --remaining_;
    inner_.send(type, payload);
  }
  std::optional<Frame> recv() override { return inner_.recv(); }
  void abort() override { inner_.abort(); }

 private:
  RankTransport& inner_;
  std::size_t remaining_;
};

// A transport decorator that injects a wedge: after `limit` successful
// sends every further send (the worker's events *and* its heartbeats — a
// truly stuck process sends nothing) blocks silently until abort(). From
// the coordinator the rank looks alive-but-silent, which is exactly what
// the heartbeat deadline exists to catch.
class SilentTransport final : public RankTransport {
 public:
  SilentTransport(RankTransport& inner, std::size_t limit)
      : inner_(inner), remaining_(limit) {}

  void send(FrameType type, std::string_view payload) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (remaining_ == 0) {
        cv_.wait(lock, [this] { return aborted_; });
        throw std::runtime_error("dist test: transport aborted while hung");
      }
      --remaining_;
    }
    inner_.send(type, payload);
  }
  std::optional<Frame> recv() override { return inner_.recv(); }
  void abort() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      aborted_ = true;
    }
    cv_.notify_all();
    inner_.abort();
  }

 private:
  RankTransport& inner_;
  std::size_t remaining_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool aborted_ = false;
};

// RankControl over in-process worker threads (the tests' analogue of the
// fork/exec launcher's ProcessRankControl).
class LambdaRankControl final : public RankControl {
 public:
  std::function<void(unsigned)> kill;
  std::function<RankTransport*(unsigned, const std::string&)> resp;

  void kill_rank(unsigned rank) override { kill(rank); }
  RankTransport* respawn(unsigned rank,
                         const std::string& resume_dir) override {
    return resp(rank, resume_dir);
  }
};

struct DistResult {
  std::vector<ControlEvent> events;
  // One cell id per event when the run had a spatial layer, empty otherwise.
  std::vector<std::uint32_t> cells;
  // Every phase change the sink saw: the phase name ("" = a gap between
  // phases) and how many events had been delivered before it.
  std::vector<std::pair<std::string, std::size_t>> phases;
  DistStats stats;
};

// Capture sink for either runtime: records events, phase changes, and —
// when the stream carries the spatial cell column — the per-event cell ids.
class DistCaptureSink final : public stream::EventSink,
                              public stream::PhaseListener {
 public:
  explicit DistCaptureSink(DistResult& out) : out_(out) {}
  void on_event(const ControlEvent& e) override { out_.events.push_back(e); }
  void on_event_columns(const EventColumnsView& cols) override {
    for (std::size_t i = 0; i < cols.n; ++i) {
      out_.events.push_back(cols[i]);
      if (cols.has_cells()) out_.cells.push_back(cols.cell[i]);
    }
  }
  void on_phase(const stream::PhaseRow* phase) override {
    out_.phases.emplace_back(phase != nullptr ? phase->name : "",
                             out_.events.size());
  }

 private:
  DistResult& out_;
};

struct DistConfig {
  std::string ckpt_dir;        // empty = checkpointing off
  std::uint64_t interval = 2;  // checkpoint interval in slices
  bool resume = false;
  // Rank -> kill that rank's transport after this many sends (0 = never).
  std::vector<std::size_t> kill_after;
  // Rank -> wedge that rank's transport after this many sends (0 = never).
  // Only meaningful under supervision with a heartbeat deadline — an
  // unsupervised merge would block on the silent rank forever.
  std::vector<std::size_t> hang_after;
  // Re-arm the configured fault on every respawned incarnation too (drives
  // the restart budget to exhaustion). Default: only the first incarnation
  // is faulty, so a heal succeeds.
  bool fault_every_incarnation = false;
  // Worker heartbeat period (WorkerOptions::heartbeat_ms); 0 = none.
  int heartbeat_ms = 0;
  // Self-healing policy; enabled wires a thread-respawning RankControl.
  SuperviseOptions supervise;
  // Per-rank obs registries (size num_ranks) + a coordinator registry.
  std::vector<obs::Registry>* rank_metrics = nullptr;
  obs::Registry* coord_metrics = nullptr;
  std::size_t worker_shards = 1;
  // Spatial layer shared by every rank and the coordinator (must outlive
  // the run); null = no spatial layer.
  const spatial::SpatialConfig* spatial = nullptr;
  TimeMs slice_ms = k_slice;
  // Delivery-side knobs (coordinator, or the in-process consumer).
  std::function<bool()> stop_check;
  stream::ClockMode clock = stream::ClockMode::as_fast_as_possible;
  double accel_factor = 1.0;
  // A second sink fed alongside the capture sink (e.g. a BinarySink).
  stream::EventSink* also = nullptr;
};

// Runs an in-process distributed generation: one std::thread per worker
// rank (respawned incarnations included) over socketpair transports,
// run_merge on the calling thread.
DistResult run_dist(const stream::PopulationPlan& plan, unsigned n,
                    const DistConfig& cfg = {}) {
  // Transports (and fault decorators) for every incarnation; pointers into
  // this vector stay valid as it grows.
  std::vector<std::unique_ptr<RankTransport>> owned;
  std::vector<std::thread> rank_thread(n);        // current incarnation
  std::vector<RankTransport*> worker_end(n, nullptr);
  std::vector<unsigned> incarnation(n, 0);

  CoordinatorOptions copts;
  copts.stream.slice_ms = cfg.slice_ms;
  copts.stream.checkpoint.dir = cfg.ckpt_dir;
  copts.stream.checkpoint.interval_slices = cfg.interval;
  copts.stream.metrics = cfg.coord_metrics;
  copts.stream.spatial = cfg.spatial;
  copts.stream.stop_check = cfg.stop_check;
  copts.stream.clock = cfg.clock;
  copts.stream.accel_factor = cfg.accel_factor;
  if (cfg.resume) {
    copts.resume = prepare_resume(cfg.ckpt_dir, plan, n, cfg.slice_ms);
  }

  // Starts one incarnation of rank r and returns its coordinator-side
  // transport. Called from the merge thread only (initial spawn + respawn),
  // so the bookkeeping needs no locking.
  auto start_worker = [&](unsigned r,
                          const std::string& resume_dir) -> RankTransport* {
    auto [w, c] = make_transport_pair();
    RankTransport* base = w.get();
    RankTransport* coord = c.get();
    owned.push_back(std::move(w));
    owned.push_back(std::move(c));
    const bool faulty = incarnation[r] == 0 || cfg.fault_every_incarnation;
    ++incarnation[r];
    RankTransport* use = base;
    const std::size_t kill =
        r < cfg.kill_after.size() ? cfg.kill_after[r] : 0;
    const std::size_t hang =
        r < cfg.hang_after.size() ? cfg.hang_after[r] : 0;
    if (faulty && kill != 0) {
      owned.push_back(std::make_unique<DyingTransport>(*base, kill));
      use = owned.back().get();
    } else if (faulty && hang != 0) {
      owned.push_back(std::make_unique<SilentTransport>(*base, hang));
      use = owned.back().get();
    }
    worker_end[r] = use;
    rank_thread[r] = std::thread([&plan, &cfg, &copts, n, r, use,
                                  resume_dir] {
      WorkerOptions w;
      w.rank = r;
      w.num_ranks = n;
      w.stream.num_shards = cfg.worker_shards;
      w.stream.num_threads = 1;
      w.stream.slice_ms = cfg.slice_ms;
      w.stream.checkpoint.interval_slices = cfg.interval;
      w.ship_checkpoints = !cfg.ckpt_dir.empty();
      w.resume_dir = resume_dir;
      w.heartbeat_ms = cfg.heartbeat_ms;
      w.stream.spatial = cfg.spatial;
      if (cfg.rank_metrics) w.stream.metrics = &(*cfg.rank_metrics)[r];
      try {
        run_worker(plan, *use, w);
      } catch (...) {
        // The coordinator surfaces the failure; the thread just exits.
      }
    });
    return coord;
  };

  std::vector<RankTransport*> transports;
  for (unsigned r = 0; r < n; ++r) {
    std::string resume_dir;
    if (cfg.resume && copts.resume) {
      resume_dir =
          rank_checkpoint_dir(cfg.ckpt_dir, copts.resume->watermark, r);
    }
    transports.push_back(start_worker(r, resume_dir));
  }

  LambdaRankControl control;
  control.kill = [&](unsigned r) {
    // abort() releases a sender blocked (or wedged) in the decorator and
    // makes every further send throw — the thread analogue of SIGKILL.
    if (worker_end[r] != nullptr) worker_end[r]->abort();
    if (rank_thread[r].joinable()) rank_thread[r].join();
  };
  control.resp = [&](unsigned r, const std::string& resume_dir) {
    return start_worker(r, resume_dir);
  };
  copts.supervise = cfg.supervise;
  if (cfg.supervise.enabled) copts.control = &control;

  DistResult out;
  DistCaptureSink capture(out);
  std::optional<stream::FanoutSink> fanout;
  if (cfg.also != nullptr) {
    fanout.emplace(std::vector<stream::EventSink*>{&capture, cfg.also});
  }
  stream::EventSink& sink =
      fanout.has_value() ? static_cast<stream::EventSink&>(*fanout) : capture;
  auto shutdown_workers = [&] {
    for (unsigned r = 0; r < n; ++r) {
      if (worker_end[r] != nullptr) worker_end[r]->abort();
      if (rank_thread[r].joinable()) rank_thread[r].join();
    }
  };
  try {
    out.stats = run_merge(plan, transports, sink, copts);
  } catch (...) {
    shutdown_workers();
    throw;
  }
  shutdown_workers();
  return out;
}

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("cpg_dist_") + tag + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(DistWire, HelloRoundTrip) {
  HelloFrame h;
  h.rank = 3;
  h.num_ranks = 8;
  const HelloFrame d = decode_hello(encode_hello(h));
  EXPECT_EQ(d.proto, k_proto_version);
  EXPECT_EQ(d.rank, 3u);
  EXPECT_EQ(d.num_ranks, 8u);
}

TEST(DistWire, SliceEndRoundTrip) {
  SliceEndFrame s;
  s.slice = 17;
  s.events = 123456789;
  const SliceEndFrame d = decode_slice_end(encode_slice_end(s));
  EXPECT_EQ(d.slice, 17u);
  EXPECT_EQ(d.events, 123456789u);
}

TEST(DistWire, EventsRoundTrip) {
  std::vector<ControlEvent> in;
  for (int i = 0; i < 100; ++i) {
    ControlEvent e;
    e.t_ms = i * 1000 - 50;  // include a negative timestamp
    e.ue_id = static_cast<UeId>(i * 7);
    e.type = static_cast<EventType>(i % 4);
    in.push_back(e);
  }
  std::string payload;
  append_events(payload, in);
  std::vector<ControlEvent> out;
  decode_events(payload, out);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].t_ms, in[i].t_ms);
    EXPECT_EQ(out[i].ue_id, in[i].ue_id);
    EXPECT_EQ(out[i].type, in[i].type);
  }
}

TEST(DistWire, CheckpointRoundTrip) {
  const std::string bytes = "opaque checkpoint\0bytes";
  const std::string payload = encode_checkpoint(42, bytes);
  const auto [wm, got] = decode_checkpoint(payload);
  EXPECT_EQ(wm, 42u);
  EXPECT_EQ(got, bytes);
}

TEST(DistWire, FinishRoundTrip) {
  stream::StreamStats s;
  s.events = 1000;
  s.slices = 12;
  s.start_slice = 4;
  s.checkpoints_written = 3;
  s.num_ues = 64;
  s.num_shards = 2;
  s.peak_buffered_events = 555;
  s.cohort_joins = 7;
  s.cohort_leaves = 5;
  s.migrations = 2;
  const stream::StreamStats d = decode_finish(encode_finish(s));
  EXPECT_EQ(d.events, s.events);
  EXPECT_EQ(d.slices, s.slices);
  EXPECT_EQ(d.start_slice, s.start_slice);
  EXPECT_EQ(d.checkpoints_written, s.checkpoints_written);
  EXPECT_EQ(d.num_ues, s.num_ues);
  EXPECT_EQ(d.num_shards, s.num_shards);
  EXPECT_EQ(d.peak_buffered_events, s.peak_buffered_events);
  EXPECT_EQ(d.cohort_joins, s.cohort_joins);
  EXPECT_EQ(d.cohort_leaves, s.cohort_leaves);
  EXPECT_EQ(d.migrations, s.migrations);
}

TEST(DistWire, TruncatedPayloadIsCleanError) {
  const std::string payload = encode_slice_end({17, 9});
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(decode_slice_end(payload.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
  std::string evs;
  append_events(evs, std::vector<ControlEvent>(3));
  EXPECT_THROW(
      {
        std::vector<ControlEvent> out;
        decode_events(evs.substr(0, evs.size() - 1), out);
      },
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Transport

TEST(DistTransport, FramesCrossThePair) {
  auto [a, b] = make_transport_pair();
  a->send(FrameType::hello, "payload-1");
  a->send(FrameType::events, std::string(100000, 'x'));
  auto f1 = b->recv();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, FrameType::hello);
  EXPECT_EQ(f1->payload, "payload-1");
  auto f2 = b->recv();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, FrameType::events);
  EXPECT_EQ(f2->payload.size(), 100000u);
}

TEST(DistTransport, CleanEofIsNullopt) {
  auto [a, b] = make_transport_pair();
  a->send(FrameType::finish, "");
  a.reset();  // close the peer
  auto f = b->recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::finish);
  EXPECT_FALSE(b->recv().has_value());
}

TEST(DistTransport, TornFrameThrows) {
  auto [a, b] = make_transport_pair();
  // Half a length prefix, then EOF: a torn frame, not a clean close.
  const char partial[2] = {0x10, 0x00};
  ASSERT_EQ(::write(a->fd(), partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  a.reset();
  EXPECT_THROW(b->recv(), std::runtime_error);
}

TEST(DistTransport, AbortUnblocksABlockedReceiver) {
  auto [a, b] = make_transport_pair();
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    b->abort();
  });
  // recv blocks until the abort; afterwards it must not hang and must not
  // report a clean finish-capable stream.
  try {
    auto f = b->recv();
    EXPECT_FALSE(f.has_value());
  } catch (const std::runtime_error&) {
    // acceptable: shutdown may surface as an error
  }
  aborter.join();
  EXPECT_THROW(a->send(FrameType::hello, "x"), std::runtime_error);
}

// Regression for the short-write/EINTR audit: force every send through the
// partial-write path (tiny socket buffers) while peppering both endpoints
// with signals, so send/recv return short counts and EINTR constantly. The
// frames must still arrive complete and byte-identical — the failure mode
// this guards against is a write_all/read_exact that treats a short count
// or EINTR as success or as an error.
TEST(DistTransport, LargeFramesSurviveShortWritesAndSignals) {
  // No-op handler installed *without* SA_RESTART, so a signal interrupts
  // send/recv with EINTR instead of transparently restarting it.
  struct sigaction sa{}, old{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  auto [a, b] = make_transport_pair();
  const int small = 4096;
  ASSERT_EQ(::setsockopt(a->fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof small), 0);
  ASSERT_EQ(::setsockopt(b->fd(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof small), 0);

  std::string payload(4 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + (i >> 9));
  }

  constexpr int k_frames = 4;
  std::atomic<bool> done{false};
  const pthread_t receiver = ::pthread_self();
  std::thread sender([&] {
    for (int i = 0; i < k_frames; ++i) {
      a->send(FrameType::events, payload);
    }
    a->send(FrameType::finish, "");
  });
  std::thread pepperer([&] {
    while (!done.load()) {
      ::pthread_kill(sender.native_handle(), SIGUSR1);
      ::pthread_kill(receiver, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (int i = 0; i < k_frames; ++i) {
    auto f = b->recv();
    ASSERT_TRUE(f.has_value()) << "frame " << i;
    EXPECT_EQ(f->type, FrameType::events);
    ASSERT_EQ(f->payload.size(), payload.size()) << "frame " << i;
    EXPECT_TRUE(f->payload == payload) << "frame " << i << " corrupted";
  }
  auto fin = b->recv();
  ASSERT_TRUE(fin.has_value());
  EXPECT_EQ(fin->type, FrameType::finish);

  // The receiver drained every frame, so the sender cannot be blocked; stop
  // the pepperer before joining it (pthread_kill on a joined thread is UB).
  done = true;
  pepperer.join();
  sender.join();
  a.reset();  // clean close
  EXPECT_FALSE(b->recv().has_value());
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

// ---------------------------------------------------------------------------
// Rank plan slicing

TEST(DistPlan, RankSlicesPartitionTheSegments) {
  const stream::PopulationPlan& plan = churny().plan;
  for (const unsigned n : {1u, 3u, 4u}) {
    std::size_t total = 0;
    for (unsigned r = 0; r < n; ++r) {
      const stream::PopulationPlan s =
          stream::slice_plan_for_rank(plan, r, n);
      // Shared identity: registry, window, seed, models, phases,
      // fingerprint are untouched.
      EXPECT_EQ(s.device_of.size(), plan.device_of.size());
      EXPECT_EQ(s.seed, plan.seed);
      EXPECT_EQ(s.t_begin, plan.t_begin);
      EXPECT_EQ(s.t_end, plan.t_end);
      EXPECT_EQ(s.fingerprint, plan.fingerprint);
      EXPECT_EQ(s.models.size(), plan.models.size());
      EXPECT_EQ(s.phases.size(), plan.phases.size());
      for (const stream::UeSegment& seg : s.segments) {
        EXPECT_EQ(seg.ue % n, r);
      }
      total += s.segments.size();
    }
    EXPECT_EQ(total, plan.segments.size());
  }
}

TEST(DistPlan, InvalidRankArgsThrow) {
  EXPECT_THROW(stream::slice_plan_for_rank(stationary(), 0, 0),
               std::invalid_argument);
  EXPECT_THROW(stream::slice_plan_for_rank(stationary(), 2, 2),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Merge determinism: N ranks == 1 process, any configuration

TEST(DistMerge, StationaryMatchesSingleProcessForAnyRankCount) {
  const std::vector<ControlEvent> ref = run_single(stationary());
  ASSERT_GT(ref.size(), 50u);
  for (const unsigned n : {1u, 2u, 4u}) {
    const DistResult got = run_dist(stationary(), n);
    ASSERT_EQ(got.events.size(), ref.size()) << "ranks=" << n;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got.events[i].t_ms, ref[i].t_ms) << "ranks=" << n;
      ASSERT_EQ(got.events[i].ue_id, ref[i].ue_id) << "ranks=" << n;
      ASSERT_EQ(got.events[i].type, ref[i].type) << "ranks=" << n;
    }
    EXPECT_EQ(got.stats.totals.events, ref.size());
    EXPECT_EQ(got.stats.ranks.size(), n);
    std::uint64_t rank_sum = 0;
    for (const stream::StreamStats& rs : got.stats.ranks) {
      rank_sum += rs.events;
    }
    EXPECT_EQ(rank_sum, ref.size());
  }
}

TEST(DistMerge, ScenarioMatchesSingleProcessForAnyRankCount) {
  const std::vector<ControlEvent> ref = run_single(churny().plan);
  ASSERT_GT(ref.size(), 50u);
  for (const unsigned n : {1u, 2u, 4u}) {
    const DistResult got = run_dist(churny().plan, n);
    ASSERT_EQ(got.events.size(), ref.size()) << "ranks=" << n;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got.events[i].t_ms, ref[i].t_ms) << "ranks=" << n;
      ASSERT_EQ(got.events[i].ue_id, ref[i].ue_id) << "ranks=" << n;
      ASSERT_EQ(got.events[i].type, ref[i].type) << "ranks=" << n;
    }
  }
}

TEST(DistMerge, SpatialCellsMatchSingleProcessForAnyRankCount) {
  const spatial::SpatialConfig spatial_cfg =
      spatial::load_spatial("grid:8x8x400");

  // Single-process annotated reference over the same plan.
  std::vector<ControlEvent> ref_events;
  std::vector<std::uint32_t> ref_cells;
  {
    stream::StreamOptions opts;
    opts.num_shards = 2;
    opts.num_threads = 1;
    opts.slice_ms = k_slice;
    opts.spatial = &spatial_cfg;
    DistResult ref;
    DistCaptureSink sink(ref);
    stream::stream_generate(churny().plan, opts, sink);
    ref_events = std::move(ref.events);
    ref_cells = std::move(ref.cells);
  }
  ASSERT_GT(ref_events.size(), 50u);
  ASSERT_EQ(ref_cells.size(), ref_events.size());

  for (const unsigned n : {1u, 2u, 4u}) {
    DistConfig cfg;
    cfg.spatial = &spatial_cfg;
    cfg.worker_shards = n == 2 ? 3 : 1;  // shard count must not matter
    const DistResult got = run_dist(churny().plan, n, cfg);
    SCOPED_TRACE("ranks=" + std::to_string(n));
    ASSERT_EQ(got.events.size(), ref_events.size());
    ASSERT_EQ(got.cells.size(), ref_cells.size());
    for (std::size_t i = 0; i < ref_events.size(); ++i) {
      ASSERT_EQ(got.events[i].t_ms, ref_events[i].t_ms);
      ASSERT_EQ(got.events[i].ue_id, ref_events[i].ue_id);
      ASSERT_EQ(got.events[i].type, ref_events[i].type);
      ASSERT_EQ(got.cells[i], ref_cells[i]);
    }
  }
}

TEST(DistMerge, WorkerShardCountNeverChangesTheMergedStream) {
  const std::vector<ControlEvent> ref = run_single(churny().plan);
  DistConfig cfg;
  cfg.worker_shards = 3;
  const DistResult got = run_dist(churny().plan, 2, cfg);
  ASSERT_EQ(got.events.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got.events[i].t_ms, ref[i].t_ms);
    ASSERT_EQ(got.events[i].ue_id, ref[i].ue_id);
    ASSERT_EQ(got.events[i].type, ref[i].type);
  }
}

// ---------------------------------------------------------------------------
// Distributed checkpointing: kill a rank, resume, identical stream

void expect_tail_matches(const std::vector<ControlEvent>& ref,
                         const std::vector<ControlEvent>& tail,
                         const stream::PopulationPlan& plan,
                         std::uint64_t watermark) {
  const TimeMs boundary = plan.t_begin + static_cast<TimeMs>(watermark) *
                                             k_slice;
  std::vector<ControlEvent> want;
  for (const ControlEvent& e : ref) {
    if (e.t_ms >= boundary) want.push_back(e);
  }
  ASSERT_EQ(tail.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(tail[i].t_ms, want[i].t_ms);
    ASSERT_EQ(tail[i].ue_id, want[i].ue_id);
    ASSERT_EQ(tail[i].type, want[i].type);
  }
}

TEST(DistCheckpoint, KillAndResumeReproducesTheStream) {
  const std::vector<ControlEvent> ref = run_single(stationary());
  // Two distinct kill points: early (just after the first commit window)
  // and late — resume must reproduce the exact remaining stream from both.
  for (const std::size_t kill_at : {std::size_t{9}, std::size_t{14}}) {
    const std::string dir =
        temp_dir(("kill" + std::to_string(kill_at)).c_str());
    DistConfig cfg;
    cfg.ckpt_dir = dir;
    cfg.kill_after = {0, 0, kill_at, 0};  // rank 2 dies
    EXPECT_THROW(run_dist(stationary(), 4, cfg), std::runtime_error);

    const std::optional<DistManifest> m = load_manifest(dir);
    ASSERT_TRUE(m.has_value()) << "kill_at=" << kill_at
                               << ": no checkpoint was committed";
    EXPECT_GT(m->watermark, 0u);
    EXPECT_EQ(m->num_ranks, 4u);

    DistConfig res;
    res.ckpt_dir = dir;
    res.resume = true;
    const DistResult got = run_dist(stationary(), 4, res);
    expect_tail_matches(ref, got.events, stationary(), m->watermark);
    std::filesystem::remove_all(dir);
  }
}

TEST(DistCheckpoint, ScenarioKillAndResumeReproducesTheStream) {
  const std::vector<ControlEvent> ref = run_single(churny().plan);
  const std::string dir = temp_dir("scn_kill");
  DistConfig cfg;
  cfg.ckpt_dir = dir;
  cfg.kill_after = {0, 11};  // rank 1 of 2 dies
  EXPECT_THROW(run_dist(churny().plan, 2, cfg), std::runtime_error);
  const std::optional<DistManifest> m = load_manifest(dir);
  ASSERT_TRUE(m.has_value());
  EXPECT_GT(m->watermark, 0u);

  DistConfig res;
  res.ckpt_dir = dir;
  res.resume = true;
  const DistResult got = run_dist(churny().plan, 2, res);
  expect_tail_matches(ref, got.events, churny().plan, m->watermark);
  std::filesystem::remove_all(dir);
}

TEST(DistCheckpoint, ResumeWithNoManifestStartsFresh) {
  const std::vector<ControlEvent> ref = run_single(stationary());
  const std::string dir = temp_dir("fresh");
  DistConfig cfg;
  cfg.ckpt_dir = dir;
  cfg.resume = true;  // no manifest on disk yet
  const DistResult got = run_dist(stationary(), 2, cfg);
  ASSERT_EQ(got.events.size(), ref.size());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Failure surfacing

TEST(DistMerge, RankDeathWithoutCheckpointingNamesTheRank) {
  DistConfig cfg;
  cfg.kill_after = {0, 0, 5};  // rank 2 of 3 dies, nothing to resume from
  try {
    run_dist(stationary(), 3, cfg);
    FAIL() << "expected the merge to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos)
        << e.what();
  }
}

TEST(DistMerge, EofBeforeHelloNamesTheRank) {
  auto [w, c] = make_transport_pair();
  w.reset();  // worker dies before saying hello
  std::vector<RankTransport*> transports{c.get()};
  stream::NullSink sink;
  CoordinatorOptions copts;
  copts.stream.slice_ms = k_slice;
  try {
    run_merge(stationary(), transports, sink, copts);
    FAIL() << "expected the merge to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos)
        << e.what();
  }
}

TEST(DistMerge, HelloRankMismatchIsRejected) {
  auto [w, c] = make_transport_pair();
  std::thread impostor([&] {
    HelloFrame h;
    h.rank = 5;  // claims a rank the coordinator did not assign
    h.num_ranks = 1;
    try {
      w->send(FrameType::hello, encode_hello(h));
    } catch (...) {
    }
    while (w->recv().has_value()) {
    }
  });
  std::vector<RankTransport*> transports{c.get()};
  stream::NullSink sink;
  CoordinatorOptions copts;
  copts.stream.slice_ms = k_slice;
  EXPECT_THROW(run_merge(stationary(), transports, sink, copts),
               std::runtime_error);
  c->abort();
  impostor.join();
}

// ---------------------------------------------------------------------------
// Manifest

TEST(DistManifestIo, SaveLoadRoundTrip) {
  const std::string dir = temp_dir("manifest");
  DistManifest m;
  m.num_ranks = 4;
  m.watermark = 6;
  m.seed = 99;
  m.fingerprint = 0xdeadbeef;
  m.t_begin = 1000;
  m.t_end = 2000;
  m.slice_ms = 100;
  m.sink_token = "tok:with spaces\nand a newline";
  save_manifest(m, dir);
  const std::optional<DistManifest> got = load_manifest(dir);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->num_ranks, m.num_ranks);
  EXPECT_EQ(got->watermark, m.watermark);
  EXPECT_EQ(got->seed, m.seed);
  EXPECT_EQ(got->fingerprint, m.fingerprint);
  EXPECT_EQ(got->t_begin, m.t_begin);
  EXPECT_EQ(got->t_end, m.t_end);
  EXPECT_EQ(got->slice_ms, m.slice_ms);
  EXPECT_EQ(got->sink_token, m.sink_token);
  std::filesystem::remove_all(dir);
}

TEST(DistManifestIo, MissingManifestIsNullopt) {
  const std::string dir = temp_dir("nomanifest");
  EXPECT_FALSE(load_manifest(dir).has_value());
  std::filesystem::remove_all(dir);
}

TEST(DistManifestIo, NewerVersionIsAOneLineActionableError) {
  const std::string dir = temp_dir("newver");
  {
    std::ofstream os(manifest_path(dir));
    os << "cpg-dist-manifest 99\n";
  }
  try {
    load_manifest(dir);
    FAIL() << "expected a version error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
  }
  std::filesystem::remove_all(dir);
}

TEST(DistManifestIo, PrepareResumeNamesTheMismatchedField) {
  const std::string dir = temp_dir("mismatch");
  DistManifest m;
  m.num_ranks = 4;
  m.watermark = 2;
  m.seed = stationary().seed;
  m.fingerprint = stationary().fingerprint;
  m.t_begin = stationary().t_begin;
  m.t_end = stationary().t_end;
  m.slice_ms = k_slice;
  save_manifest(m, dir);
  for (unsigned r = 0; r < 4; ++r) {
    std::filesystem::create_directories(rank_checkpoint_dir(dir, 2, r));
    std::ofstream(rank_checkpoint_dir(dir, 2, r) + "/stream.ckpt") << "x";
  }

  // Matching run resumes.
  EXPECT_TRUE(prepare_resume(dir, stationary(), 4, k_slice).has_value());

  struct Case {
    const char* field;
    unsigned ranks;
    TimeMs slice;
  };
  for (const Case& c : {Case{"rank", 2u, k_slice},
                        Case{"slice", 4u, k_slice / 3}}) {
    try {
      prepare_resume(dir, stationary(), c.ranks, c.slice);
      FAIL() << "expected a mismatch error for " << c.field;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cross-rank obs aggregation

TEST(DistObs, CoordinatorAggregatesRankRegistriesWithRankLabels) {
  std::vector<obs::Registry> rank_regs(2);
  obs::Registry coord;
  DistConfig cfg;
  cfg.rank_metrics = &rank_regs;
  cfg.coord_metrics = &coord;
  const DistResult got = run_dist(stationary(), 2, cfg);
  ASSERT_GT(got.events.size(), 0u);

  std::uint64_t merged_rank_events = 0;
  bool saw_rank_label = false;
  for (const obs::FamilySnapshot& fam : coord.snapshot()) {
    if (fam.name != "cpg_stream_delivered_events_total") continue;
    for (const obs::SeriesSnapshot& s : fam.series) {
      for (const auto& [k, v] : s.labels) {
        if (k == "rank") {
          saw_rank_label = true;
          merged_rank_events += s.counter;
        }
      }
    }
  }
  EXPECT_TRUE(saw_rank_label)
      << "per-rank series did not reach the coordinator registry";
  EXPECT_EQ(merged_rank_events, got.events.size());
}

// ---------------------------------------------------------------------------
// Supervision: kill/hang a rank mid-run, heal it, and the merged stream must
// stay byte-identical to an unfaulted run.

void expect_same_stream(const std::vector<ControlEvent>& got,
                        const std::vector<ControlEvent>& ref,
                        const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i].t_ms, ref[i].t_ms) << what << " @" << i;
    ASSERT_EQ(got[i].ue_id, ref[i].ue_id) << what << " @" << i;
    ASSERT_EQ(got[i].type, ref[i].type) << what << " @" << i;
  }
}

SuperviseOptions fast_supervise(unsigned max_restarts = 4) {
  SuperviseOptions sup;
  sup.enabled = true;
  sup.max_restarts = max_restarts;
  sup.backoff_base_ms = 1;
  sup.backoff_cap_ms = 4;
  return sup;
}

TEST(Supervision, KilledRankIsHealedAndTheStreamStaysByteIdentical) {
  const std::vector<ControlEvent> ref = run_single(stationary());
  // Early and late kill sites: the heal must replay correctly both before
  // the first committed checkpoint and from a mid-run one.
  for (const std::size_t kill_at : {std::size_t{5}, std::size_t{13}}) {
    const std::string dir =
        temp_dir(("sup_kill" + std::to_string(kill_at)).c_str());
    DistConfig cfg;
    cfg.ckpt_dir = dir;
    cfg.kill_after = {0, kill_at, 0};
    cfg.supervise = fast_supervise();
    const DistResult got = run_dist(stationary(), 3, cfg);
    expect_same_stream(got.events, ref,
                       "kill_at=" + std::to_string(kill_at));
    EXPECT_EQ(got.stats.restarts, 1u);
    ASSERT_EQ(got.stats.incidents.size(), 1u);
    const Incident& inc = got.stats.incidents[0];
    EXPECT_EQ(inc.rank, 1u);
    EXPECT_EQ(inc.restart, 1u);
    EXPECT_FALSE(inc.hung);
    EXPECT_FALSE(inc.cause.empty());
    EXPECT_EQ(got.stats.totals.events, ref.size());
    std::filesystem::remove_all(dir);
  }
}

TEST(Supervision, ScenarioKilledRankIsHealed) {
  const std::vector<ControlEvent> ref = run_single(churny().plan);
  const std::string dir = temp_dir("sup_scn");
  DistConfig cfg;
  cfg.ckpt_dir = dir;
  cfg.kill_after = {9, 0};
  cfg.supervise = fast_supervise();
  const DistResult got = run_dist(churny().plan, 2, cfg);
  expect_same_stream(got.events, ref, "scenario heal");
  EXPECT_EQ(got.stats.restarts, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Supervision, HealWithoutCheckpointDirReplaysFromScratch) {
  const std::vector<ControlEvent> ref = run_single(stationary());
  DistConfig cfg;  // no ckpt_dir: the respawned rank regenerates everything
  cfg.kill_after = {0, 8};
  cfg.supervise = fast_supervise();
  const DistResult got = run_dist(stationary(), 2, cfg);
  expect_same_stream(got.events, ref, "heal from scratch");
  EXPECT_EQ(got.stats.restarts, 1u);
  ASSERT_EQ(got.stats.incidents.size(), 1u);
  EXPECT_EQ(got.stats.incidents[0].replay_from, 0u);
}

TEST(Supervision, HungRankTripsTheHeartbeatDeadlineAndIsHealed) {
  const std::vector<ControlEvent> ref = run_single(stationary());
  DistConfig cfg;
  cfg.hang_after = {0, 10, 0};
  cfg.heartbeat_ms = 15;
  cfg.supervise = fast_supervise();
  cfg.supervise.heartbeat_deadline_ms = 400;
  cfg.supervise.poll_ms = 10;
  const DistResult got = run_dist(stationary(), 3, cfg);
  expect_same_stream(got.events, ref, "hang heal");
  EXPECT_EQ(got.stats.restarts, 1u);
  ASSERT_EQ(got.stats.incidents.size(), 1u);
  EXPECT_EQ(got.stats.incidents[0].rank, 1u);
  EXPECT_TRUE(got.stats.incidents[0].hung);
}

TEST(Supervision, RestartBudgetExhaustionIsAOneLineActionableError) {
  DistConfig cfg;
  cfg.kill_after = {0, 6};
  cfg.fault_every_incarnation = true;  // the rank dies every incarnation
  cfg.supervise = fast_supervise(/*max_restarts=*/2);
  std::vector<Incident> log;
  cfg.supervise.on_incident = [&](const Incident& i) { log.push_back(i); };
  try {
    run_dist(stationary(), 2, cfg);
    FAIL() << "expected restart budget exhaustion";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("restart budget exhausted (2 restarts used)"),
              std::string::npos)
        << msg;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
  }
  // Two heals were attempted and logged, plus the terminal budget incident.
  EXPECT_EQ(log.size(), 3u);
}

TEST(Supervision, EnabledWithoutAControlSeamIsAnInvalidArgument) {
  auto [w, c] = make_transport_pair();
  CoordinatorOptions copts;
  copts.stream.slice_ms = k_slice;
  copts.supervise.enabled = true;  // but no copts.control
  stream::CallbackSink sink([](const ControlEvent&) {});
  std::vector<RankTransport*> ranks{c.get()};
  EXPECT_THROW(run_merge(stationary(), ranks, sink, copts),
               std::invalid_argument);
}

TEST(Supervision, RestartsAndDegradedTimeAreExportedAsMetrics) {
  obs::Registry coord;
  const std::string dir = temp_dir("sup_obs");
  DistConfig cfg;
  cfg.ckpt_dir = dir;
  cfg.kill_after = {7, 0};
  cfg.supervise = fast_supervise();
  cfg.coord_metrics = &coord;
  const DistResult got = run_dist(stationary(), 2, cfg);
  EXPECT_EQ(got.stats.restarts, 1u);
  std::uint64_t restarts = 0;
  bool saw_degraded = false;
  for (const obs::FamilySnapshot& fam : coord.snapshot()) {
    if (fam.name == "cpg_dist_restarts_total") {
      for (const obs::SeriesSnapshot& s : fam.series) restarts += s.counter;
    }
    if (fam.name == "cpg_dist_degraded_ms_total") saw_degraded = true;
  }
  EXPECT_EQ(restarts, 1u);
  EXPECT_TRUE(saw_degraded);
  std::filesystem::remove_all(dir);
}

// Randomized chaos sweep: seeded kill/hang schedules across rank counts,
// with and without checkpointing. Every trial must either heal to a
// byte-identical stream or (never, with this budget) fail loudly.
TEST(SupervisionChaos, RandomKillAndHangSchedulesStayByteIdentical) {
  const std::vector<ControlEvent> ref = run_single(stationary());
  std::mt19937 rng(20260809u);
  for (int trial = 0; trial < 4; ++trial) {
    const unsigned n = 2 + rng() % 2;  // 2..3 ranks
    DistConfig cfg;
    cfg.supervise = fast_supervise(/*max_restarts=*/8);
    const bool use_ckpt = trial % 2 == 0;
    std::string dir;
    if (use_ckpt) {
      dir = temp_dir(("chaos" + std::to_string(trial)).c_str());
      cfg.ckpt_dir = dir;
    }
    cfg.kill_after.assign(n, 0);
    cfg.hang_after.assign(n, 0);
    const unsigned victim = rng() % n;
    const std::size_t site = 2 + rng() % 12;  // dies/wedges after 2..13 sends
    if (rng() % 2 == 0) {
      cfg.kill_after[victim] = site;
    } else {
      cfg.hang_after[victim] = site;
      cfg.heartbeat_ms = 15;
      cfg.supervise.heartbeat_deadline_ms = 400;
      cfg.supervise.poll_ms = 10;
    }
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" +
                 std::to_string(n) + " victim=" + std::to_string(victim) +
                 " site=" + std::to_string(site));
    const DistResult got = run_dist(stationary(), n, cfg);
    expect_same_stream(got.events, ref, "chaos trial");
    EXPECT_GE(got.stats.restarts, 1u);
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// One consumer for both runtimes: what stream_generate and run_merge deliver
// must agree beyond the events themselves — phase changes and their stream
// positions, lifecycle tallies, graceful stop, checkpoint retirement and
// paced delivery.

// The in-process counterpart of run_dist over the same knobs.
DistResult run_local(const stream::PopulationPlan& plan,
                     const DistConfig& cfg = {}) {
  stream::StreamOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 1;
  opts.slice_ms = cfg.slice_ms;
  opts.checkpoint.dir = cfg.ckpt_dir;
  opts.checkpoint.interval_slices = cfg.interval;
  opts.resume = cfg.resume;
  opts.stop_check = cfg.stop_check;
  opts.clock = cfg.clock;
  opts.accel_factor = cfg.accel_factor;
  opts.spatial = cfg.spatial;
  opts.metrics = cfg.coord_metrics;
  DistResult out;
  DistCaptureSink capture(out);
  std::optional<stream::FanoutSink> fanout;
  if (cfg.also != nullptr) {
    fanout.emplace(std::vector<stream::EventSink*>{&capture, cfg.also});
  }
  stream::EventSink& sink =
      fanout.has_value() ? static_cast<stream::EventSink&>(*fanout) : capture;
  out.stats.totals = stream::stream_generate(plan, opts, sink);
  return out;
}

// ranks == 0 runs the in-process runtime.
DistResult run_either(const stream::PopulationPlan& plan, unsigned ranks,
                      const DistConfig& cfg = {}) {
  return ranks == 0 ? run_local(plan, cfg) : run_dist(plan, ranks, cfg);
}

std::vector<ControlEvent> events_in(const std::vector<ControlEvent>& evs,
                                    TimeMs from, TimeMs to) {
  std::vector<ControlEvent> out;
  for (const ControlEvent& e : evs) {
    if (e.t_ms >= from && e.t_ms < to) out.push_back(e);
  }
  return out;
}

TEST(Consumer, PhasesAndLifecycleAgreeAcrossRuntimes) {
  const DistResult local = run_local(churny().plan);
  const stream::StreamStats& want = local.stats.totals;
  ASSERT_GE(local.phases.size(), 2u);
  EXPECT_EQ(local.phases[0].first, "warmup");
  EXPECT_EQ(local.phases[0].second, 0u);
  EXPECT_EQ(local.phases[1].first, "rush");
  EXPECT_GT(local.phases[1].second, 0u);
  EXPECT_GT(want.cohort_joins, 0u);
  EXPECT_GT(want.cohort_leaves, 0u);
  EXPECT_GT(want.migrations, 0u);
  for (const unsigned n : {1u, 3u}) {
    SCOPED_TRACE("ranks=" + std::to_string(n));
    const DistResult got = run_dist(churny().plan, n);
    expect_same_stream(got.events, local.events, "merged stream");
    EXPECT_EQ(got.phases, local.phases);
    const stream::StreamStats& s = got.stats.totals;
    EXPECT_EQ(s.events, want.events);
    EXPECT_EQ(s.slices, want.slices);
    EXPECT_EQ(s.cohort_joins, want.cohort_joins);
    EXPECT_EQ(s.cohort_leaves, want.cohort_leaves);
    EXPECT_EQ(s.migrations, want.migrations);
  }
}

TEST(Consumer, GracefulStopAgreesAcrossRuntimesAndResumes) {
  // 10-minute slices: 12 over the 2-hour scenario, so the stop lands with
  // slices left to resume.
  DistConfig base;
  base.slice_ms = 10 * k_ms_per_minute;
  base.interval = 4;
  const stream::PopulationPlan& plan = churny().plan;
  const DistResult ref = run_local(plan, base);
  const TimeMs cut = plan.t_begin + 8 * base.slice_ms;
  const std::vector<ControlEvent> want_prefix =
      events_in(ref.events, plan.t_begin, cut);
  const std::vector<ControlEvent> want_tail =
      events_in(ref.events, cut, plan.t_end);
  ASSERT_FALSE(want_prefix.empty());
  ASSERT_FALSE(want_tail.empty());

  for (const unsigned n : {0u, 1u, 3u}) {
    SCOPED_TRACE("ranks=" + std::to_string(n));
    const std::string dir = temp_dir(("stop" + std::to_string(n)).c_str());
    DistConfig cfg = base;
    cfg.ckpt_dir = dir;
    // Polled once per slice: the sixth poll (slice 5) asks to stop, so the
    // run delivers slices 5-7, cuts the watermark-8 checkpoint and stops.
    cfg.stop_check = [polls = 0]() mutable { return ++polls > 5; };
    const DistResult stopped = run_either(plan, n, cfg);
    const stream::StreamStats& s = stopped.stats.totals;
    EXPECT_TRUE(s.stopped);
    EXPECT_EQ(s.start_slice + s.slices, 8u);
    expect_same_stream(stopped.events, want_prefix, "stopped prefix");
    if (n == 0) {
      EXPECT_TRUE(std::filesystem::exists(stream::checkpoint_path(dir)));
    } else {
      const std::optional<DistManifest> m = load_manifest(dir);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->watermark, 8u);
      for (unsigned r = 0; r < n; ++r) {
        EXPECT_TRUE(std::filesystem::exists(
            stream::checkpoint_path(rank_checkpoint_dir(dir, 8, r))));
      }
    }

    DistConfig res = base;
    res.ckpt_dir = dir;
    res.resume = true;
    const DistResult tail = run_either(plan, n, res);
    EXPECT_FALSE(tail.stats.totals.stopped);
    EXPECT_EQ(tail.stats.totals.start_slice, 8u);
    expect_same_stream(tail.events, want_tail, "resumed tail");
    std::filesystem::remove_all(dir);
  }
}

TEST(Consumer, CompletedRunsRetireTheirCheckpoint) {
  for (const unsigned n : {0u, 2u}) {
    SCOPED_TRACE("ranks=" + std::to_string(n));
    const std::string dir = temp_dir(("retire" + std::to_string(n)).c_str());
    DistConfig cfg;
    cfg.ckpt_dir = dir;
    cfg.interval = 2;
    const DistResult got = run_either(stationary(), n, cfg);
    EXPECT_GT(got.stats.totals.checkpoints_written, 0u);
    EXPECT_FALSE(got.stats.totals.stopped);
    EXPECT_TRUE(std::filesystem::is_empty(dir))
        << "a completed run left its checkpoint behind in " << dir;
    std::filesystem::remove_all(dir);
  }
}

TEST(Consumer, PacedSpatialRunsKeepTheirCells) {
  // The in-process twin is stream_test's Spatial.PacedRunKeepsItsCells.
  const spatial::SpatialConfig spatial_cfg =
      spatial::load_spatial("grid:8x8x400");
  DistConfig cfg;
  cfg.spatial = &spatial_cfg;
  // The stationary plan: its pacing stays at 1e9 (the churn scenario's
  // rush phase would retune it to 50x).
  const DistResult unpaced = run_dist(stationary(), 2, cfg);
  ASSERT_GT(unpaced.events.size(), 50u);
  ASSERT_EQ(unpaced.cells.size(), unpaced.events.size());

  const std::string dir = temp_dir("paced");
  {
    stream::BinarySink file(dir + "/paced");
    cfg.clock = stream::ClockMode::accelerated;
    cfg.accel_factor = 1e9;
    cfg.also = &file;
    run_dist(stationary(), 2, cfg);
  }
  trace_fmt::TraceReader reader(stream::BinarySink::path_for(dir + "/paced"));
  std::vector<ControlEvent> events, block;
  std::vector<std::uint32_t> cells;
  while (reader.next_events(block)) {
    ASSERT_EQ(reader.cells().size(), block.size());
    events.insert(events.end(), block.begin(), block.end());
    cells.insert(cells.end(), reader.cells().begin(), reader.cells().end());
  }
  expect_same_stream(events, unpaced.events, "paced cpgt read-back");
  EXPECT_EQ(cells, unpaced.cells);
  std::filesystem::remove_all(dir);
}

// Per-cell tallies without a rank label: the in-process run's, and the
// coordinator's over the merged stream (beside the ranks' own series).
std::map<std::string, std::uint64_t> unranked_cell_counts(
    const obs::Registry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::FamilySnapshot& fam : reg.snapshot()) {
    if (fam.name != "cpg_spatial_cell_events_total") continue;
    for (const obs::SeriesSnapshot& s : fam.series) {
      std::string cell;
      bool ranked = false;
      for (const auto& [k, v] : s.labels) {
        if (k == "cell") cell = v;
        if (k == "rank") ranked = true;
      }
      if (!ranked) out[cell] += s.counter;
    }
  }
  return out;
}

TEST(Consumer, CellTalliesAgreeAcrossRuntimes) {
  const spatial::SpatialConfig spatial_cfg =
      spatial::load_spatial("grid:8x8x400");
  obs::Registry local_reg;
  DistConfig local_cfg;
  local_cfg.spatial = &spatial_cfg;
  local_cfg.coord_metrics = &local_reg;
  const DistResult local = run_local(stationary(), local_cfg);
  const auto want = unranked_cell_counts(local_reg);
  std::uint64_t total = 0;
  for (const auto& [cell, count] : want) total += count;
  EXPECT_EQ(total, local.events.size());

  std::vector<obs::Registry> rank_regs(2);
  obs::Registry coord;
  DistConfig cfg;
  cfg.spatial = &spatial_cfg;
  cfg.rank_metrics = &rank_regs;
  cfg.coord_metrics = &coord;
  run_dist(stationary(), 2, cfg);
  EXPECT_EQ(unranked_cell_counts(coord), want);
}

TEST(Consumer, CoordinatorCellSeriesLeaveTheRanksUnfolded) {
  // 20x20 cells at 2 ranks: the ranks' merged series (at most 800) fit the
  // default cap, and the coordinator's own unlabeled ones, on top, must not
  // push them into cell="other".
  const spatial::SpatialConfig spatial_cfg =
      spatial::load_spatial("grid:20x20x500");
  gen::GenerationRequest req = small_request();
  req.ue_counts = {1500, 300, 100};
  req.duration_hours = 0.5;
  const stream::PopulationPlan plan =
      stream::stationary_plan(ours_model(), req);
  std::vector<obs::Registry> rank_regs(2);
  obs::Registry coord;
  DistConfig cfg;
  cfg.spatial = &spatial_cfg;
  cfg.rank_metrics = &rank_regs;
  cfg.coord_metrics = &coord;
  run_dist(plan, 2, cfg);
  std::size_t series = 0;
  for (const obs::FamilySnapshot& fam : coord.snapshot()) {
    if (fam.name != "cpg_spatial_cell_events_total") continue;
    series = fam.series.size();
    for (const obs::SeriesSnapshot& s : fam.series) {
      for (const auto& [k, v] : s.labels) EXPECT_NE(v, "other") << k;
    }
  }
  // More series than one shared cap holds, so a fold would show.
  EXPECT_GT(series, obs::Registry::k_default_series_limit);
}

TEST(Consumer, RankCellOutsideTheGridIsAnError) {
  // A rank stream is outside input: a cell id off the coordinator's grid
  // must fail the run before any sink sees it, with or without metrics.
  const spatial::SpatialConfig spatial_cfg =
      spatial::load_spatial("grid:2x2x500");
  for (const bool with_metrics : {false, true}) {
    SCOPED_TRACE(with_metrics ? "with metrics" : "without metrics");
    auto [w, c] = make_transport_pair();
    HelloFrame h;
    h.num_ranks = 1;
    w->send(FrameType::hello, encode_hello(h));
    const TimeMs t = stationary().t_begin;
    const UeId ue = 0;
    const EventType type = EventType::srv_req;
    const std::uint32_t cell = 99;
    std::string payload;
    append_events_cells(payload, EventColumnsView{&t, &ue, &type, 1, &cell});
    w->send(FrameType::events_cells, payload);
    w->send(FrameType::slice_end, encode_slice_end(SliceEndFrame{0, 1}));
    std::vector<RankTransport*> transports{c.get()};
    std::size_t delivered = 0;
    stream::CallbackSink sink([&](const ControlEvent&) { ++delivered; });
    obs::Registry registry;
    CoordinatorOptions copts;
    copts.stream.slice_ms = k_slice;
    copts.stream.spatial = &spatial_cfg;
    if (with_metrics) copts.stream.metrics = &registry;
    try {
      run_merge(stationary(), transports, sink, copts);
      ADD_FAILURE() << "expected the merge to fail";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cell id 99"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(delivered, 0u);
  }
}

}  // namespace
}  // namespace cpg::dist
