// Tests for the streaming generation runtime (src/stream/): the
// determinism contract (streamed == batch, byte-identical, for any shard /
// thread / slice configuration), backpressure behavior under a slow sink,
// CSV sink byte-compatibility, and live MCN ingest parity.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "generator/traffic_generator.h"
#include "io/csv.h"
#include "mcn/simulator.h"
#include "model/fit.h"
#include "obs/metrics.h"
#include "stream/binary_sink.h"
#include "stream/bounded_queue.h"
#include "stream/csv_sink.h"
#include "spatial/config.h"
#include "stream/mcn_sink.h"
#include "stream/stream_generator.h"
#include "test_util.h"
#include "trace_fmt/reader.h"

namespace cpg::stream {
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
  req.ue_counts = {120, 50, 30};
  req.start_hour = 10;
  req.duration_hours = 2.0;
  req.seed = 99;
  req.num_threads = 2;
  return req;
}

const Trace& batch_trace() {
  static const Trace t = gen::generate_trace(ours_model(), small_request());
  return t;
}

void expect_identical(const Trace& streamed, const Trace& batch) {
  ASSERT_EQ(streamed.num_ues(), batch.num_ues());
  for (UeId u = 0; u < batch.num_ues(); ++u) {
    ASSERT_EQ(streamed.device(u), batch.device(u));
  }
  ASSERT_TRUE(streamed.finalized());
  ASSERT_EQ(streamed.num_events(), batch.num_events());
  const auto a = streamed.events();
  const auto b = batch.events();
  ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(Stream, ByteIdenticalToBatchAcrossShardsSlicesThreads) {
  const Trace& batch = batch_trace();
  ASSERT_GT(batch.num_events(), 100u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    for (const TimeMs slice_ms : {7 * k_ms_per_minute, 25 * k_ms_per_minute}) {
      for (const unsigned threads : {1u, 3u}) {
        StreamOptions opts;
        opts.num_shards = shards;
        opts.num_threads = threads;
        opts.slice_ms = slice_ms;
        CaptureSink cap;
        const StreamStats stats =
            stream_generate(ours_model(), small_request(), opts, cap);
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " slice_ms=" + std::to_string(slice_ms) +
                     " threads=" + std::to_string(threads));
        expect_identical(cap.trace(), batch);
        EXPECT_EQ(stats.events, batch.num_events());
        EXPECT_EQ(stats.num_ues, batch.num_ues());
      }
    }
  }
}

TEST(Stream, DeliversInCanonicalOrder) {
  bool ordered = true;
  bool has_prev = false;
  ControlEvent prev{};
  CallbackSink sink([&](const ControlEvent& e) {
    if (has_prev && event_time_less(e, prev)) ordered = false;
    prev = e;
    has_prev = true;
  });
  StreamOptions opts;
  opts.num_shards = 4;
  opts.slice_ms = 10 * k_ms_per_minute;
  stream_generate(ours_model(), small_request(), opts, sink);
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(has_prev);
}

TEST(Stream, BackpressureBoundsBufferingWithoutLossOrDeadlock) {
  // A deliberately slow sink: the bounded queues must absorb the mismatch
  // by blocking producers, never by dropping events or deadlocking.
  constexpr std::size_t k_cap = 256;
  constexpr std::size_t k_shards = 4;
  std::uint64_t received = 0;
  CallbackSink slow([&](const ControlEvent&) {
    if (++received % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  StreamOptions opts;
  opts.num_shards = k_shards;
  opts.num_threads = 4;
  opts.slice_ms = 5 * k_ms_per_minute;
  opts.max_buffered_events = k_cap;
  const StreamStats stats =
      stream_generate(ours_model(), small_request(), opts, slow);

  EXPECT_EQ(received, batch_trace().num_events());  // nothing dropped
  EXPECT_GT(stats.peak_buffered_events, 0u);
  // Hard bound: per queue max(cap, largest single batch); slices here are
  // far smaller than the cap, so the total stays under shards * cap.
  EXPECT_LE(stats.peak_buffered_events, k_shards * k_cap);
}

TEST(Stream, CsvSinkMatchesBatchCsvByteForByte) {
  std::ostringstream batch_events, batch_ues;
  io::write_events_csv(batch_trace(), batch_events);
  io::write_ues_csv(batch_trace(), batch_ues);

  std::ostringstream stream_events, stream_ues;
  CsvSink sink(stream_events, &stream_ues);
  StreamOptions opts;
  opts.num_shards = 3;
  opts.slice_ms = 11 * k_ms_per_minute;
  stream_generate(ours_model(), small_request(), opts, sink);

  EXPECT_EQ(stream_events.str(), batch_events.str());
  EXPECT_EQ(stream_ues.str(), batch_ues.str());
}

TEST(Stream, LiveMcnIngestMatchesBatchSimulation) {
  mcn::SimulationConfig cfg;
  cfg.nfs[index_of(mcn::NetworkFunction::mme)].workers = 2;
  const mcn::SimulationResult batch = mcn::simulate(batch_trace(), cfg);

  McnLiveSink sink(cfg);
  StreamOptions opts;
  opts.num_shards = 4;
  stream_generate(ours_model(), small_request(), opts, sink);
  const mcn::SimulationResult& live = sink.result();

  EXPECT_EQ(live.procedures, batch.procedures);
  EXPECT_EQ(live.messages, batch.messages);
  EXPECT_DOUBLE_EQ(live.latency_us.mean, batch.latency_us.mean);
  EXPECT_DOUBLE_EQ(live.makespan_s, batch.makespan_s);
  for (std::size_t n = 0; n < mcn::k_num_nfs; ++n) {
    EXPECT_EQ(live.nf[n].messages, batch.nf[n].messages);
  }
}

TEST(Stream, AcceleratedClockPacesDelivery) {
  // 2 trace hours at 18000x ≈ 400 ms of wall time: fast enough for a test,
  // slow enough to prove the pacer actually waits.
  CountingSink sink;
  StreamOptions opts;
  opts.num_shards = 2;
  opts.clock = ClockMode::accelerated;
  opts.accel_factor = 18'000.0;
  const auto t0 = std::chrono::steady_clock::now();
  stream_generate(ours_model(), small_request(), opts, sink);
  const auto wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(sink.total(), batch_trace().num_events());
  EXPECT_GE(wall, 0.1);  // the span between first and last event, scaled
}

TEST(Stream, EmptyPopulationStillOpensAndClosesStream) {
  gen::GenerationRequest req;  // all counts zero
  bool started = false;
  bool finished = false;
  class Probe final : public EventSink {
   public:
    Probe(bool& started, bool& finished)
        : started_(started), finished_(finished) {}
    void on_start(const StreamHeader& h) override {
      started_ = h.ue_devices.empty();
    }
    void on_event(const ControlEvent&) override { FAIL(); }
    void on_finish() override { finished_ = true; }

   private:
    bool& started_;
    bool& finished_;
  } probe(started, finished);
  const StreamStats stats =
      stream_generate(ours_model(), req, StreamOptions{}, probe);
  EXPECT_TRUE(started);
  EXPECT_TRUE(finished);
  EXPECT_EQ(stats.events, 0u);
}

SliceBatch make_batch(std::uint64_t slice, std::size_t n) {
  SliceBatch b;
  b.slice = slice;
  for (std::size_t i = 0; i < n; ++i) {
    b.events.push_back(0, static_cast<UeId>(i), EventType::atch);
  }
  return b;
}

// Regression for the shutdown deadlock: before the fix, close() only
// notified the consumer side and push() never rechecked closed_, so a
// producer blocked on a full queue waited forever once the consumer closed
// the queue and walked away. Now close() wakes the producer and its push
// returns false.
TEST(BoundedQueue, CloseReleasesBlockedProducer) {
  BoundedBatchQueue q(4);
  ASSERT_TRUE(q.push(make_batch(0, 4)));  // fills the queue to capacity

  std::atomic<bool> push_returned{false};
  bool accepted = true;
  std::thread producer([&] {
    accepted = q.push(make_batch(1, 4));  // 4 + 4 > 4: blocks
    push_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(push_returned.load());  // producer is parked on backpressure

  q.close();  // consumer abandons the stream
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(accepted);  // the blocked push reported shutdown
}

TEST(BoundedQueue, PushAfterCloseDropsAndPopDrainsThenEnds) {
  BoundedBatchQueue q(100);
  ASSERT_TRUE(q.push(make_batch(0, 3)));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(make_batch(1, 1)));  // closed: dropped, not queued

  const auto drained = q.pop();  // what was buffered is still delivered
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->events.size(), 3u);
  EXPECT_FALSE(q.pop().has_value());  // then the stream ends
}

TEST(Stream, SinkThrowPropagatesWithoutDeadlockOrLeak) {
  // Small queues + a sink that dies early: producers are blocked on
  // backpressure at the moment of the throw. The runtime must close the
  // queues, join every worker, and rethrow the sink's exception.
  std::uint64_t delivered = 0;
  CallbackSink dying([&](const ControlEvent&) {
    if (++delivered == 64) throw std::runtime_error("sink failed");
  });
  StreamOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  opts.slice_ms = 2 * k_ms_per_minute;
  opts.max_buffered_events = 64;
  EXPECT_THROW(stream_generate(ours_model(), small_request(), opts, dying),
               std::runtime_error);
  EXPECT_EQ(delivered, 64u);
}

TEST(Stream, InvalidAccelFactorThrowsBeforeStreamStarts) {
  class NeverSink final : public EventSink {
   public:
    void on_start(const StreamHeader&) override { FAIL(); }
    void on_event(const ControlEvent&) override { FAIL(); }
    void on_finish() override { FAIL(); }
  } sink;
  StreamOptions opts;
  opts.clock = ClockMode::accelerated;
  for (const double bad : {0.0, -3.0,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    opts.accel_factor = bad;
    EXPECT_THROW(stream_generate(ours_model(), small_request(), opts, sink),
                 std::invalid_argument)
        << "accel_factor=" << bad;
  }
}

TEST(Stream, MetricsAccountForEveryDeliveredEvent) {
  obs::Registry registry;
  gen::GenMetrics gen_metrics = gen::GenMetrics::register_in(registry);
  gen::GenerationRequest req = small_request();
  req.ue_options.metrics = &gen_metrics;

  StreamOptions opts;
  opts.num_shards = 3;
  opts.num_threads = 2;
  opts.slice_ms = 7 * k_ms_per_minute;
  opts.metrics = &registry;
  CountingSink sink;
  const StreamStats stats = stream_generate(ours_model(), req, opts, sink);
  ASSERT_GT(stats.events, 0u);

  std::uint64_t delivered = 0, shard_sum = 0, device_sum = 0, slices = 0;
  for (const obs::FamilySnapshot& fam : registry.snapshot()) {
    for (const obs::SeriesSnapshot& s : fam.series) {
      if (fam.name == "cpg_stream_delivered_events_total") {
        delivered = s.counter;
      } else if (fam.name == "cpg_stream_shard_events_total") {
        shard_sum += s.counter;
      } else if (fam.name == "cpg_gen_events_total") {
        device_sum += s.counter;
      } else if (fam.name == "cpg_stream_slices_delivered_total") {
        slices = s.counter;
      }
    }
  }
  // Three independent accountings of the same stream agree exactly: the
  // consumer-side delivery counter, the per-shard producer counters, and
  // the per-device generator counters.
  EXPECT_EQ(delivered, stats.events);
  EXPECT_EQ(shard_sum, stats.events);
  EXPECT_EQ(device_sum, stats.events);
  EXPECT_EQ(slices, stats.slices);

  // The streamed output also stays byte-identical with metrics enabled
  // (instrumentation must not perturb the delivered sequence).
  EXPECT_EQ(stats.events, batch_trace().num_events());
}

// ---------------------------------------------------------------------------
// Spatial layer: cell-annotated delivery
// ---------------------------------------------------------------------------

struct CellRow {
  TimeMs t;
  UeId ue;
  EventType type;
  std::uint32_t cell;
  bool operator==(const CellRow&) const = default;
};

// Captures the full annotated stream — (t, ue, type, cell) per event — via
// the columnar hook, the only path that carries the cell column.
class CellRowSink final : public EventSink {
 public:
  std::vector<CellRow> rows;
  bool header_had_spatial = false;

  void on_start(const StreamHeader& h) override {
    header_had_spatial = h.spatial != nullptr;
    rows.clear();
  }
  void on_event(const ControlEvent&) override {
    FAIL() << "unpaced delivery must use the columnar path";
  }
  void on_event_columns(const EventColumnsView& cols) override {
    ASSERT_TRUE(cols.has_cells() || cols.empty());
    for (std::size_t i = 0; i < cols.n; ++i) {
      rows.push_back({cols.ts[i], cols.ue[i], cols.type[i], cols.cell[i]});
    }
  }
};

TEST(Spatial, CellsAreByteIdenticalAcrossShardsSlicesThreads) {
  const spatial::SpatialConfig cfg = spatial::load_spatial("grid:12x12x300");

  StreamOptions ref_opts;
  ref_opts.num_shards = 1;
  ref_opts.num_threads = 1;
  ref_opts.spatial = &cfg;
  CellRowSink ref;
  stream_generate(ours_model(), small_request(), ref_opts, ref);
  ASSERT_GT(ref.rows.size(), 100u);
  EXPECT_TRUE(ref.header_had_spatial);

  // The annotated stream is the plain stream plus a cell column: same
  // events, same order, and every cell id on the grid.
  const Trace& batch = batch_trace();
  ASSERT_EQ(ref.rows.size(), batch.num_events());
  const auto batch_events = batch.events();
  for (std::size_t i = 0; i < ref.rows.size(); ++i) {
    ASSERT_EQ(ref.rows[i].t, batch_events[i].t_ms);
    ASSERT_EQ(ref.rows[i].ue, batch_events[i].ue_id);
    ASSERT_EQ(ref.rows[i].type, batch_events[i].type);
    ASSERT_LT(ref.rows[i].cell, cfg.grid.num_cells());
  }

  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    for (const TimeMs slice_ms : {7 * k_ms_per_minute, 25 * k_ms_per_minute}) {
      for (const unsigned threads : {1u, 3u}) {
        StreamOptions opts;
        opts.num_shards = shards;
        opts.num_threads = threads;
        opts.slice_ms = slice_ms;
        opts.spatial = &cfg;
        CellRowSink cap;
        stream_generate(ours_model(), small_request(), opts, cap);
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " slice_ms=" + std::to_string(slice_ms) +
                     " threads=" + std::to_string(threads));
        ASSERT_EQ(cap.rows.size(), ref.rows.size());
        EXPECT_TRUE(
            std::equal(cap.rows.begin(), cap.rows.end(), ref.rows.begin()));
      }
    }
  }
}

TEST(Spatial, PacedRunKeepsItsCells) {
  // Paced delivery is columnar too: an accelerated spatial run written to a
  // cpgt file must read back with the unpaced run's cells.
  const spatial::SpatialConfig cfg = spatial::load_spatial("grid:12x12x300");
  StreamOptions opts;
  opts.num_shards = 3;
  opts.num_threads = 2;
  opts.spatial = &cfg;
  CellRowSink unpaced;
  stream_generate(ours_model(), small_request(), opts, unpaced);
  ASSERT_GT(unpaced.rows.size(), 100u);

  const std::string prefix =
      ::testing::TempDir() + "/cpg_stream_paced_cells_" +
      std::to_string(::getpid());
  opts.clock = ClockMode::accelerated;
  opts.accel_factor = 1e9;
  {
    BinarySink file(prefix);
    stream_generate(ours_model(), small_request(), opts, file);
  }
  trace_fmt::TraceReader reader(BinarySink::path_for(prefix));
  std::vector<CellRow> rows;
  std::vector<ControlEvent> block;
  while (reader.next_events(block)) {
    ASSERT_EQ(reader.cells().size(), block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      rows.push_back({block[i].t_ms, block[i].ue_id, block[i].type,
                      reader.cells()[i]});
    }
  }
  std::filesystem::remove(BinarySink::path_for(prefix));
  EXPECT_EQ(rows, unpaced.rows);
}

TEST(Spatial, RunWithoutSpatialCarriesNoCellColumn) {
  StreamOptions opts;
  opts.num_shards = 2;
  bool any = false;
  bool cells = false;
  class Probe final : public EventSink {
   public:
    bool* any;
    bool* cells;
    void on_event(const ControlEvent&) override {}
    void on_event_columns(const EventColumnsView& cols) override {
      if (cols.empty()) return;
      *any = true;
      if (cols.has_cells()) *cells = true;
    }
  } probe;
  probe.any = &any;
  probe.cells = &cells;
  stream_generate(ours_model(), small_request(), opts, probe);
  EXPECT_TRUE(any);
  EXPECT_FALSE(cells);
}

TEST(Spatial, PerCellMetricsAccountForEveryEvent) {
  const spatial::SpatialConfig cfg = spatial::load_spatial("grid:4x4x900");
  obs::Registry registry;
  StreamOptions opts;
  opts.num_shards = 4;
  opts.spatial = &cfg;
  opts.metrics = &registry;
  CountingSink sink;
  const StreamStats stats =
      stream_generate(ours_model(), small_request(), opts, sink);
  std::uint64_t cell_sum = 0;
  std::size_t cell_series = 0;
  for (const obs::FamilySnapshot& fam : registry.snapshot()) {
    if (fam.name != "cpg_spatial_cell_events_total") continue;
    for (const obs::SeriesSnapshot& s : fam.series) {
      cell_sum += s.counter;
      ++cell_series;
    }
  }
  EXPECT_EQ(cell_sum, stats.events);
  EXPECT_GT(cell_series, 1u);
}

}  // namespace
}  // namespace cpg::stream
