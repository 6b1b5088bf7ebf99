// Tests for the runtime observability layer (src/obs/): instrument
// semantics, registry registration rules, Prometheus / JSON exposition
// formats, the periodic SnapshotReporter, and the cpg_mcn_* instruments a
// simulation registers end-to-end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mcn/simulator.h"
#include "obs/exporters.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/reporter.h"

namespace cpg::obs {
namespace {

TEST(Instruments, CounterAndGaugeSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.add(10);
  g.sub(3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(Instruments, HistogramBucketsObservations) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive upper edge)
  h.observe(2.0);    // <= 10
  h.observe(150.0);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 153.5);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);  // the implicit +Inf bucket
}

TEST(Instruments, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({}), std::invalid_argument);
}

TEST(Instruments, ExponentialBuckets) {
  const auto b = exponential_buckets(10.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 10.0);
  EXPECT_DOUBLE_EQ(b[3], 80.0);
  EXPECT_THROW(exponential_buckets(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(exponential_buckets(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(exponential_buckets(1.0, 2.0, 0), std::invalid_argument);
}

TEST(Registry, ReRegistrationReturnsTheSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("cpg_test_total", "help");
  Counter& b = reg.counter("cpg_test_total", "help");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("cpg_test_total", "help", {{"shard", "0"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.num_series(), 2u);

  Histogram& h1 = reg.histogram("cpg_test_us", "help", {1.0, 2.0});
  Histogram& h2 = reg.histogram("cpg_test_us", "help", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, KindAndBoundsMismatchesThrow) {
  Registry reg;
  reg.counter("cpg_x_total", "help");
  EXPECT_THROW(reg.gauge("cpg_x_total", "help"), std::invalid_argument);
  reg.histogram("cpg_x_us", "help", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("cpg_x_us", "help", {1.0, 3.0}),
               std::invalid_argument);
}

TEST(Registry, InvalidNamesAndLabelKeysThrow) {
  Registry reg;
  EXPECT_THROW(reg.counter("", "help"), std::invalid_argument);
  EXPECT_THROW(reg.counter("9bad", "help"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space", "help"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has-dash", "help"), std::invalid_argument);
  EXPECT_THROW(reg.counter("cpg_ok", "help", {{"bad key", "v"}}),
               std::invalid_argument);
  reg.counter("_ok_total", "leading underscore is valid");
}

TEST(Registry, SnapshotPreservesRegistrationOrder) {
  Registry reg;
  reg.counter("cpg_b_total", "second family registered first");
  reg.gauge("cpg_a", "first alphabetically, second in order");
  reg.counter("cpg_b_total", "x", {{"k", "v"}});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "cpg_b_total");
  EXPECT_EQ(snap[1].name, "cpg_a");
  ASSERT_EQ(snap[0].series.size(), 2u);
  EXPECT_TRUE(snap[0].series[0].labels.empty());
  ASSERT_EQ(snap[0].series[1].labels.size(), 1u);
  EXPECT_EQ(snap[0].series[1].labels[0].first, "k");
}

TEST(Registry, ConcurrentCounterUpdatesAreExact) {
  Registry reg;
  Counter& c = reg.counter("cpg_conc_total", "hammered from four threads");
  constexpr int k_threads = 4;
  constexpr std::uint64_t k_incs = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < k_incs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), k_threads * k_incs);
}

TEST(Prometheus, TextExpositionFormat) {
  Registry reg;
  reg.counter("cpg_events_total", "Total events").inc(7);
  reg.gauge("cpg_depth", "Queue depth", {{"shard", "2"}}).set(-3);
  Histogram& h =
      reg.histogram("cpg_wait_us", "Wait time", {10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);

  std::ostringstream os;
  write_prometheus(reg, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# HELP cpg_events_total Total events\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cpg_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("cpg_events_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cpg_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("cpg_depth{shard=\"2\"} -3\n"), std::string::npos);
  // Histogram buckets are cumulative; the +Inf bucket equals _count.
  EXPECT_NE(text.find("# TYPE cpg_wait_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("cpg_wait_us_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cpg_wait_us_bucket{le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cpg_wait_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("cpg_wait_us_sum 555\n"), std::string::npos);
  EXPECT_NE(text.find("cpg_wait_us_count 3\n"), std::string::npos);
}

TEST(Prometheus, LabelValuesAreEscaped) {
  Registry reg;
  reg.counter("cpg_esc_total", "h",
              {{"path", "a\\b\"c\nd"}});
  std::ostringstream os;
  write_prometheus(reg, os);
  EXPECT_NE(os.str().find("cpg_esc_total{path=\"a\\\\b\\\"c\\nd\"} 0\n"),
            std::string::npos);
}

TEST(Json, ExportShape) {
  Registry reg;
  reg.counter("cpg_j_total", "help").inc(3);
  Histogram& h = reg.histogram("cpg_j_us", "help", {1.0});
  h.observe(0.5);
  std::ostringstream os;
  write_json(reg, os);
  const std::string text = os.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"name\":\"cpg_j_total\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":3"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(text.find("\"buckets\":[{\"le\":\"1\",\"count\":1},"
                      "{\"le\":\"+Inf\",\"count\":0}]"),
            std::string::npos);
}

TEST(Reporter, EmitsPeriodicallyAndOnceMoreOnStop) {
  Registry reg;
  Counter& c = reg.counter("cpg_r_total", "help");
  std::atomic<std::uint64_t> emits{0};
  std::atomic<std::uint64_t> last_value{0};
  SnapshotReporter reporter(
      reg, std::chrono::milliseconds(20), [&](const Registry& r) {
        ++emits;
        for (const FamilySnapshot& f : r.snapshot()) {
          if (f.name == "cpg_r_total") last_value = f.series[0].counter;
        }
      });
  c.inc(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_GE(emits.load(), 2u);  // several periodic emits happened
  const std::uint64_t before_stop = emits.load();
  reporter.stop();
  EXPECT_GT(emits.load(), 0u);
  EXPECT_GE(emits.load(), before_stop);  // stop added the final snapshot
  EXPECT_EQ(last_value.load(), 5u);      // final emit sees the end state
  EXPECT_EQ(reporter.snapshots(), emits.load());
  reporter.stop();  // idempotent
  EXPECT_EQ(reporter.snapshots(), emits.load());
}

TEST(Reporter, RejectsBadArguments) {
  Registry reg;
  EXPECT_THROW(SnapshotReporter(reg, std::chrono::milliseconds(0),
                                [](const Registry&) {}),
               std::invalid_argument);
  EXPECT_THROW(
      SnapshotReporter(reg, std::chrono::milliseconds(10), nullptr),
      std::invalid_argument);
}

TEST(Reporter, FileWriterPublishesCompleteSnapshots) {
  const std::string path = ::testing::TempDir() + "obs_reporter_out.prom";
  Registry reg;
  reg.counter("cpg_f_total", "help").inc(9);
  {
    SnapshotReporter reporter(
        reg, std::chrono::milliseconds(10),
        SnapshotReporter::file_writer(path, ExportFormat::prometheus));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }  // destruction stops and publishes the final snapshot
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("cpg_f_total 9\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(McnMetrics, SimulationRegistersAndCountsProcedures) {
  Trace trace;
  const UeId u = trace.add_ue(DeviceType::phone);
  trace.add_event(1000, u, EventType::atch);
  trace.add_event(5000, u, EventType::srv_req);
  trace.add_event(9000, u, EventType::dtch);
  trace.finalize();

  Registry reg;
  mcn::SimulationConfig cfg;
  cfg.metrics = &reg;
  const mcn::SimulationResult result = mcn::simulate(trace, cfg);
  ASSERT_EQ(result.procedures, 3u);

  std::uint64_t procedures = 0, messages = 0, latency_count = 0;
  std::int64_t in_flight = -1;
  bool saw_mme_label = false;
  for (const FamilySnapshot& f : reg.snapshot()) {
    for (const SeriesSnapshot& s : f.series) {
      if (f.name == "cpg_mcn_procedures_total") {
        procedures = s.counter;
      } else if (f.name == "cpg_mcn_station_messages_total") {
        messages += s.counter;
        for (const auto& [k, v] : s.labels) {
          if (k == "station" && v == "MME") saw_mme_label = true;
        }
      } else if (f.name == "cpg_mcn_procedure_latency_us") {
        latency_count = s.hist.count;
      } else if (f.name == "cpg_mcn_in_flight_jobs") {
        in_flight = s.gauge;
      }
    }
  }
  EXPECT_EQ(procedures, result.procedures);
  EXPECT_EQ(messages, result.messages);
  EXPECT_EQ(latency_count, result.procedures);
  EXPECT_EQ(in_flight, 0);  // everything drained by finish()
  EXPECT_TRUE(saw_mme_label);  // station labels carry NF names
}

// ---------------------------------------------------------------------------
// Snapshot serialization + cross-process merge (obs/merge.h)

Registry& sample_registry(Registry& reg) {
  reg.counter("cpg_t_total", "a counter").inc(5);
  reg.counter("cpg_t_total", "a counter", {{"shard", "1"}}).inc(7);
  reg.gauge("cpg_t_level", "a gauge").set(-3);
  auto& h = reg.histogram("cpg_t_wait", "a histogram", {0.5, 2.0, 8.0});
  h.observe(0.1);
  h.observe(1.7);
  h.observe(100.0);
  h.observe(0.3333333333333333);  // exercises full-precision sums
  return reg;
}

TEST(Merge, SerializeParseRoundTripIsExact) {
  Registry reg;
  const auto families = sample_registry(reg).snapshot();
  const std::string text = serialize_snapshot(families);
  const auto parsed = parse_snapshot(text);
  ASSERT_EQ(parsed.size(), families.size());
  for (std::size_t i = 0; i < families.size(); ++i) {
    EXPECT_EQ(parsed[i].name, families[i].name);
    EXPECT_EQ(parsed[i].help, families[i].help);
    EXPECT_EQ(parsed[i].kind, families[i].kind);
    ASSERT_EQ(parsed[i].series.size(), families[i].series.size());
    for (std::size_t j = 0; j < families[i].series.size(); ++j) {
      const SeriesSnapshot& a = parsed[i].series[j];
      const SeriesSnapshot& b = families[i].series[j];
      EXPECT_EQ(a.labels, b.labels);
      EXPECT_EQ(a.counter, b.counter);
      EXPECT_EQ(a.gauge, b.gauge);
      EXPECT_EQ(a.hist.bounds, b.hist.bounds);
      EXPECT_EQ(a.hist.buckets, b.hist.buckets);
      EXPECT_EQ(a.hist.count, b.hist.count);
      // Hexfloat sums make the round trip bit-exact, not approximate.
      EXPECT_EQ(a.hist.sum, b.hist.sum);
    }
  }
}

TEST(Merge, MalformedSnapshotsAreCleanErrors) {
  EXPECT_THROW(parse_snapshot("obsreg 99\n"), std::runtime_error);
  EXPECT_THROW(parse_snapshot("not a snapshot"), std::runtime_error);
  EXPECT_THROW(parse_snapshot("obsreg 1\nseries before family\n"),
               std::runtime_error);
}

TEST(Merge, FoldsCountersGaugesAndHistograms) {
  Registry rank_a;
  Registry rank_b;
  sample_registry(rank_a);
  sample_registry(rank_b);
  Registry coord;
  merge_snapshot(coord, rank_a.snapshot());
  merge_snapshot(coord, rank_b.snapshot());
  for (const FamilySnapshot& f : coord.snapshot()) {
    if (f.name == "cpg_t_total") {
      for (const SeriesSnapshot& s : f.series) {
        EXPECT_EQ(s.counter, s.labels.empty() ? 10u : 14u);
      }
    } else if (f.name == "cpg_t_level") {
      EXPECT_EQ(f.series.at(0).gauge, -6);
    } else if (f.name == "cpg_t_wait") {
      EXPECT_EQ(f.series.at(0).hist.count, 8u);
    }
  }
}

TEST(Merge, ExtraLabelsKeepPerRankResolution) {
  Registry rank_a;
  Registry rank_b;
  sample_registry(rank_a);
  sample_registry(rank_b);
  Registry coord;
  merge_snapshot(coord, rank_a.snapshot(), {{"rank", "0"}});
  merge_snapshot(coord, rank_b.snapshot(), {{"rank", "1"}});
  std::size_t rank_series = 0;
  for (const FamilySnapshot& f : coord.snapshot()) {
    if (f.name != "cpg_t_total") continue;
    for (const SeriesSnapshot& s : f.series) {
      for (const auto& [k, v] : s.labels) {
        if (k == "rank") ++rank_series;
      }
      EXPECT_TRUE(s.counter == 5 || s.counter == 7);  // never summed
    }
  }
  EXPECT_EQ(rank_series, 4u);  // 2 series x 2 ranks, kept distinct
}

TEST(Merge, HistogramAbsorbRequiresMatchingBounds) {
  Registry a;
  auto& h = a.histogram("cpg_t_lat", "h", {1.0, 2.0});
  h.observe(1.5);
  HistogramSnapshot snap;
  snap.bounds = {1.0, 4.0};  // different ladder
  snap.buckets = {0, 1, 0};
  snap.count = 1;
  EXPECT_THROW(h.absorb(snap), std::invalid_argument);

  Registry b;
  b.histogram("cpg_t_lat", "h", {1.0, 4.0}).observe(0.5);
  Registry coord;
  merge_snapshot(coord, a.snapshot());
  EXPECT_ANY_THROW(merge_snapshot(coord, b.snapshot()));

  // Matching bounds fold per-bucket.
  Registry c;
  auto& hc = c.histogram("cpg_t_lat", "h", {1.0, 2.0});
  hc.observe(0.2);
  hc.observe(10.0);
  merge_snapshot(coord, c.snapshot());
  for (const FamilySnapshot& f : coord.snapshot()) {
    if (f.name != "cpg_t_lat") continue;
    EXPECT_EQ(f.series.at(0).hist.count, 3u);
    EXPECT_EQ(f.series.at(0).hist.buckets.at(0), 1u);  // 0.2
    EXPECT_EQ(f.series.at(0).hist.buckets.at(1), 1u);  // 1.5
    EXPECT_EQ(f.series.at(0).hist.buckets.at(2), 1u);  // 10.0 (+Inf)
  }
}

// ---------------------------------------------------------------------------
// Snapshot-vs-mutation races: these exist to run under TSan (the tsan CI
// preset builds and runs the whole test suite instrumented). Writers hammer
// every instrument kind while readers snapshot, serialize and merge — any
// unsynchronized access in Registry::snapshot, Histogram::absorb or the
// merge path is a TSan report.

TEST(Races, SnapshotWhileAllInstrumentKindsMutate) {
  Registry reg;
  auto& c = reg.counter("cpg_r_total", "c");
  auto& g = reg.gauge("cpg_r_level", "g");
  auto& h = reg.histogram("cpg_r_wait", "h", exponential_buckets(1, 2, 6));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc(1);
        g.add(2);
        g.add(-1);
        h.observe(3.7);
      }
    });
  }
  // Registration of new series during snapshots is part of the contract.
  std::thread registrar([&] {
    for (int i = 0; i < 200; ++i) {
      reg.counter("cpg_r_total", "c", {{"shard", std::to_string(i % 8)}})
          .inc(1);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const auto snap = reg.snapshot();
    ASSERT_GE(snap.size(), 3u);
    // Serialization + merge read the snapshot concurrently with writers.
    Registry scratch;
    merge_snapshot(scratch, parse_snapshot(serialize_snapshot(snap)));
  }
  registrar.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  const auto final_snap = reg.snapshot();
  std::uint64_t total = 0;
  for (const FamilySnapshot& f : final_snap) {
    if (f.name != "cpg_r_total") continue;
    for (const SeriesSnapshot& s : f.series) total += s.counter;
  }
  EXPECT_GT(total, 0u);
}

TEST(Races, AbsorbWhileTheTargetHistogramMutates) {
  Registry reg;
  auto& h = reg.histogram("cpg_r_lat", "h", {1.0, 10.0, 100.0});
  HistogramSnapshot snap;
  snap.bounds = {1.0, 10.0, 100.0};
  snap.buckets = {1, 2, 3, 4};
  snap.count = 10;
  snap.sum = 314.0;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) h.observe(5.0);
  });
  for (int i = 0; i < 1000; ++i) h.absorb(snap);
  stop.store(true);
  writer.join();
  EXPECT_GE(h.count(), 10000u);
}

// ---------------------------------------------------------------------------
// Label-cardinality guard
// ---------------------------------------------------------------------------

TEST(Registry, SeriesLimitFoldsOverflowLabelsIntoOther) {
  Registry reg;
  reg.set_series_limit(4);
  // Four distinct label values register normally...
  for (int c = 0; c < 4; ++c) {
    reg.counter("cpg_spatial_cell_events_total", "per-cell events",
                {{"cell", std::to_string(c)}})
        .inc();
  }
  // ...and everything past the cap shares one "other" series.
  for (int c = 4; c < 40; ++c) {
    reg.counter("cpg_spatial_cell_events_total", "per-cell events",
                {{"cell", std::to_string(c)}})
        .inc();
  }

  std::size_t series = 0;
  std::uint64_t total = 0, other = 0;
  bool other_seen = false;
  for (const FamilySnapshot& fam : reg.snapshot()) {
    if (fam.name != "cpg_spatial_cell_events_total") continue;
    for (const SeriesSnapshot& s : fam.series) {
      ++series;
      total += s.counter;
      for (const auto& [k, v] : s.labels) {
        if (k == "cell" && v == "other") {
          other_seen = true;
          other = s.counter;
        }
      }
    }
  }
  // The fold itself occupies one slot past the cap, never more: the family
  // stays bounded no matter how many label values arrive.
  EXPECT_EQ(series, 5u);
  EXPECT_TRUE(other_seen);
  EXPECT_EQ(other, 36u);
  EXPECT_EQ(total, 40u);  // no increments are lost to the fold

  // Series registered before the cap keep resolving to their own slot.
  reg.counter("cpg_spatial_cell_events_total", "per-cell events",
              {{"cell", "2"}})
      .inc(9);
  for (const FamilySnapshot& fam : reg.snapshot()) {
    if (fam.name != "cpg_spatial_cell_events_total") continue;
    for (const SeriesSnapshot& s : fam.series) {
      for (const auto& [k, v] : s.labels) {
        if (k == "cell" && v == "2") {
          EXPECT_EQ(s.counter, 10u);
        }
      }
    }
  }
}

TEST(Registry, SeriesLimitAppliesPerFamilyAndSparesUnlabeled) {
  Registry reg;
  reg.set_series_limit(2);
  reg.counter("fam_a", "a", {{"x", "1"}}).inc();
  reg.counter("fam_a", "a", {{"x", "2"}}).inc();
  reg.counter("fam_a", "a", {{"x", "3"}}).inc();  // folds
  // A second family gets its own budget, and unlabeled metrics are exempt.
  reg.counter("fam_b", "b", {{"x", "1"}}).inc();
  reg.counter("fam_c", "c").inc();
  std::size_t a = 0, b = 0;
  for (const FamilySnapshot& fam : reg.snapshot()) {
    if (fam.name == "fam_a") a = fam.series.size();
    if (fam.name == "fam_b") b = fam.series.size();
  }
  EXPECT_EQ(a, 3u);  // 2 real + "other"
  EXPECT_EQ(b, 1u);
}

TEST(Registry, SeriesLimitBudgetsEachLabelKeySetApart) {
  Registry reg;
  reg.set_series_limit(2);
  // A coordinator's own per-cell series, then its ranks' merged copies: the
  // rank-labeled set gets its own two slots instead of folding at once.
  reg.counter("cells", "c", {{"cell", "0"}}).inc();
  reg.counter("cells", "c", {{"cell", "1"}}).inc();
  reg.counter("cells", "c", {{"cell", "0"}, {"rank", "0"}}).inc();
  reg.counter("cells", "c", {{"cell", "1"}, {"rank", "0"}}).inc();
  // Each set still folds past its own cap.
  reg.counter("cells", "c", {{"cell", "2"}}).inc();
  reg.counter("cells", "c", {{"cell", "2"}, {"rank", "0"}}).inc();
  std::vector<Labels> got;
  for (const FamilySnapshot& fam : reg.snapshot()) {
    for (const SeriesSnapshot& s : fam.series) got.push_back(s.labels);
  }
  const std::vector<Labels> want{{{"cell", "0"}},
                                 {{"cell", "1"}},
                                 {{"cell", "0"}, {"rank", "0"}},
                                 {{"cell", "1"}, {"rank", "0"}},
                                 {{"cell", "other"}},
                                 {{"cell", "other"}, {"rank", "other"}}};
  EXPECT_EQ(got, want);
}

TEST(Registry, SeriesLimitRejectsZero) {
  Registry reg;
  EXPECT_THROW(reg.set_series_limit(0), std::invalid_argument);
}

}  // namespace
}  // namespace cpg::obs
