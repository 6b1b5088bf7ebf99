// Tests for the fault-tolerant streaming layer: ResilientSink retry/backoff
// math under a fake clock (exact delays, cap, jitter bounds, deadline
// abort), degradation policies (fail / drop / spill + recover_spill), and
// checkpoint/resume — including the central guarantee that a run killed at
// a failpoint-chosen slice and resumed from its checkpoint delivers a
// byte-identical stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <system_error>
#include <vector>

#include "core/event_columns.h"
#include "core/time_utils.h"
#include "fault/failpoint.h"
#include "generator/traffic_generator.h"
#include "model/fit.h"
#include "spatial/config.h"
#include "stream/binary_sink.h"
#include "stream/checkpoint.h"
#include "stream/csv_sink.h"
#include "stream/event_sink.h"
#include "stream/resilient_sink.h"
#include "stream/stream_generator.h"
#include "test_util.h"
#include "trace_fmt/cpgt.h"
#include "trace_fmt/reader.h"

namespace cpg::stream {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// ResilientSink: retry / backoff / degradation
// ---------------------------------------------------------------------------

// Inner sink that fails the first `fail_first` deliveries with the given
// exception, then accepts everything.
class FlakySink final : public EventSink {
 public:
  FlakySink(int fail_first, bool retryable)
      : fail_first_(fail_first), retryable_(retryable) {}

  void on_event(const ControlEvent& e) override {
    maybe_throw();
    events.push_back(e);
  }
  void on_events(std::span<const ControlEvent> es) override {
    maybe_throw();
    events.insert(events.end(), es.begin(), es.end());
  }

  int attempts = 0;
  std::vector<ControlEvent> events;

 private:
  void maybe_throw() {
    ++attempts;
    if (attempts <= fail_first_) {
      if (retryable_) throw fault::InjectedFault("flaky", true);
      throw SinkError("permanent", FailureClass::fatal);
    }
  }

  int fail_first_;
  bool retryable_;
};

ControlEvent make_event(TimeMs t, UeId u, EventType type) {
  ControlEvent e;
  e.t_ms = t;
  e.ue_id = u;
  e.type = type;
  return e;
}

RetryPolicy no_jitter_policy() {
  RetryPolicy rp;
  rp.max_attempts = 5;
  rp.initial_backoff = milliseconds(10);
  rp.backoff_multiplier = 2.0;
  rp.max_backoff = milliseconds(2000);
  rp.jitter = 0.0;
  rp.deadline = milliseconds(60'000);
  return rp;
}

TEST(ResilientSink, RetriesWithExponentialBackoffThenSucceeds) {
  FlakySink inner(/*fail_first=*/3, /*retryable=*/true);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.retry = no_jitter_policy();
  ResilientSink sink(inner, opts, &clock);

  sink.on_event(make_event(1, 0, EventType::srv_req));
  ASSERT_EQ(inner.events.size(), 1u);
  EXPECT_EQ(inner.attempts, 4);
  // Deterministic delays with jitter off: 10, 20, 40 ms.
  const std::vector<milliseconds> want{milliseconds(10), milliseconds(20),
                                       milliseconds(40)};
  EXPECT_EQ(clock.sleeps(), want);
  EXPECT_EQ(sink.stats().retries, 3u);
  EXPECT_EQ(sink.stats().backoff_ms, 70u);
  EXPECT_EQ(sink.stats().delivered_events, 1u);
}

TEST(ResilientSink, BackoffIsCappedAtMaxBackoff) {
  FlakySink inner(/*fail_first=*/6, /*retryable=*/true);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.retry = no_jitter_policy();
  opts.retry.max_attempts = 8;
  opts.retry.max_backoff = milliseconds(50);
  ResilientSink sink(inner, opts, &clock);

  sink.on_event(make_event(1, 0, EventType::srv_req));
  // 10, 20, 40 then clamped to 50.
  const std::vector<milliseconds> want{milliseconds(10), milliseconds(20),
                                       milliseconds(40), milliseconds(50),
                                       milliseconds(50), milliseconds(50)};
  EXPECT_EQ(clock.sleeps(), want);
}

TEST(ResilientSink, JitterStaysWithinConfiguredBounds) {
  FlakySink inner(/*fail_first=*/4, /*retryable=*/true);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.retry = no_jitter_policy();
  opts.retry.jitter = 0.2;
  opts.retry.jitter_seed = 99;
  ResilientSink sink(inner, opts, &clock);

  sink.on_event(make_event(1, 0, EventType::srv_req));
  ASSERT_EQ(clock.sleeps().size(), 4u);
  const double base[] = {10.0, 20.0, 40.0, 80.0};
  for (std::size_t i = 0; i < 4; ++i) {
    const double d = static_cast<double>(clock.sleeps()[i].count());
    EXPECT_GE(d, 0.8 * base[i] - 1.0) << "delay " << i;
    EXPECT_LE(d, 1.2 * base[i] + 1.0) << "delay " << i;
  }
}

TEST(ResilientSink, JitterScheduleIsReproducibleFromSeed) {
  const auto run = [](std::uint64_t seed) {
    FlakySink inner(4, true);
    FakeRetryClock clock;
    ResilientSinkOptions opts;
    opts.retry = no_jitter_policy();
    opts.retry.jitter = 0.3;
    opts.retry.jitter_seed = seed;
    ResilientSink sink(inner, opts, &clock);
    sink.on_event(make_event(1, 0, EventType::srv_req));
    return clock.sleeps();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(ResilientSink, DeadlineAbortsBeforeMaxAttempts) {
  FlakySink inner(/*fail_first=*/100, /*retryable=*/true);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.retry = no_jitter_policy();
  opts.retry.max_attempts = 100;
  // Budget admits 10 + 20 + 40 = 70 ms of backoff; the next delay (80 ms)
  // would overrun 100 ms, so the delivery gives up after 4 attempts.
  opts.retry.deadline = milliseconds(100);
  ResilientSink sink(inner, opts, &clock);

  EXPECT_THROW(sink.on_event(make_event(1, 0, EventType::srv_req)),
               fault::InjectedFault);
  EXPECT_EQ(inner.attempts, 4);
  EXPECT_EQ(sink.stats().exhausted_deliveries, 1u);
}

TEST(ResilientSink, FatalFailureIsNotRetried) {
  FlakySink inner(/*fail_first=*/1, /*retryable=*/false);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.retry = no_jitter_policy();
  ResilientSink sink(inner, opts, &clock);

  EXPECT_THROW(sink.on_event(make_event(1, 0, EventType::srv_req)),
               SinkError);
  EXPECT_EQ(inner.attempts, 1);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(ResilientSink, DropPolicyCountsAndContinues) {
  FlakySink inner(/*fail_first=*/1000, /*retryable=*/true);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.policy = SinkPolicy::drop;
  opts.retry = no_jitter_policy();
  opts.retry.max_attempts = 2;
  ResilientSink sink(inner, opts, &clock);

  const std::vector<ControlEvent> batch{
      make_event(1, 0, EventType::srv_req),
      make_event(2, 1, EventType::dtch)};
  EXPECT_NO_THROW(sink.on_events(batch));
  EXPECT_EQ(sink.stats().dropped_events, 2u);
  EXPECT_EQ(sink.stats().delivered_events, 0u);
}

TEST(ResilientSink, SpillPolicyWritesRecoverableDeadLetterFile) {
  const std::string spill_path =
      ::testing::TempDir() + "/cpg_resilience_spill.csv";
  std::remove(spill_path.c_str());

  FlakySink inner(/*fail_first=*/1000, /*retryable=*/true);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.policy = SinkPolicy::spill;
  opts.spill_path = spill_path;
  opts.retry = no_jitter_policy();
  opts.retry.max_attempts = 2;
  ResilientSink sink(inner, opts, &clock);

  const std::vector<ControlEvent> batch{
      make_event(10, 3, EventType::srv_req),
      make_event(20, 4, EventType::ho)};
  EXPECT_NO_THROW(sink.on_events(batch));
  sink.on_event(make_event(30, 5, EventType::s1_conn_rel));
  EXPECT_EQ(sink.stats().spilled_events, 3u);

  // The spill file leads with its magic line and is fully re-deliverable.
  std::ifstream is(spill_path);
  std::string first_line;
  ASSERT_TRUE(std::getline(is, first_line));
  EXPECT_EQ(first_line, "cpg-spill 1");

  std::vector<ControlEvent> recovered;
  CallbackSink collect([&](const ControlEvent& e) { recovered.push_back(e); });
  EXPECT_EQ(recover_spill(spill_path, collect), 3u);
  ASSERT_EQ(recovered.size(), 3u);
  EXPECT_TRUE(std::equal(batch.begin(), batch.end(), recovered.begin()));
  EXPECT_EQ(recovered[2].ue_id, 5u);
  std::remove(spill_path.c_str());
}

TEST(ResilientSink, RecoverSpillRejectsMalformedFiles) {
  const std::string path = ::testing::TempDir() + "/cpg_bad_spill.csv";
  {
    std::ofstream os(path);
    os << "cpg-spill 1\n123,4,NOT_A_TYPE\n";
  }
  NullSink sink;
  EXPECT_THROW(recover_spill(path, sink), std::runtime_error);
  {
    std::ofstream os(path);
    os << "something else\n";
  }
  EXPECT_THROW(recover_spill(path, sink), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ResilientSink, SpillPolicyRequiresPath) {
  FlakySink inner(0, true);
  ResilientSinkOptions opts;
  opts.policy = SinkPolicy::spill;
  EXPECT_THROW(ResilientSink(inner, opts), std::invalid_argument);
}

// Spatial test columns: `n` time-ordered events over `num_ues` UEs, every
// event type, cells spread over a 64-cell grid.
EventColumns spatial_columns(std::size_t n, UeId num_ues) {
  EventColumns cols;
  for (std::size_t i = 0; i < n; ++i) {
    cols.push_back(static_cast<TimeMs>(1'000 + 3 * i),
                   static_cast<UeId>((i * 7) % num_ues),
                   k_all_event_types[i % k_num_event_types]);
    cols.cell.push_back(static_cast<std::uint32_t>((i * 13) % 64));
  }
  return cols;
}

TEST(ResilientSink, ColumnRetryKeepsCellsInTheCpgtFile) {
  const std::vector<DeviceType> devices(40, DeviceType::phone);
  const EventColumns cols = spatial_columns(3000, 40);
  trace_fmt::SpatialInfo sp;
  sp.cols = 8;
  sp.rows = 8;
  sp.cell_m = 500.0;
  sp.ta_block = 4;
  sp.fingerprint = 0x5eed;
  StreamHeader header;
  header.ue_devices = devices;
  header.t_end = 100'000;
  header.spatial = &sp;

  const std::string prefix = ::testing::TempDir() + "/cpg_resilient_cells";
  {
    BinarySink file(prefix, /*block_events=*/256);
    FakeRetryClock clock;
    ResilientSinkOptions opts;
    opts.retry = no_jitter_policy();
    ResilientSink sink(file, opts, &clock);
    sink.on_start(header);
    // One retryable block-write failure inside the first delivery.
    fault::FailpointSpec spec;
    spec.action = fault::Action::error;
    spec.skip = 2;
    spec.max_fires = 1;
    fault::arm("cpgt.write_block", spec);
    const EventColumnsView view = cols.view();
    for (std::size_t i = 0; i < view.n; i += 1000) {
      const std::size_t n = std::min<std::size_t>(1000, view.n - i);
      sink.on_event_columns(view.subview(i, n));
    }
    fault::disarm_all();
    sink.on_finish();
    EXPECT_EQ(sink.stats().retries, 1u);
    EXPECT_EQ(sink.stats().delivered_events, cols.size());
  }

  trace_fmt::TraceReader reader(BinarySink::path_for(prefix));
  ASSERT_TRUE(reader.has_spatial());
  EventColumns got;
  std::vector<ControlEvent> block;
  while (reader.next_events(block)) {
    ASSERT_EQ(reader.cells().size(), block.size());
    got.append(std::span<const ControlEvent>(block));
    got.cell.insert(got.cell.end(), reader.cells().begin(),
                    reader.cells().end());
  }
  std::filesystem::remove(BinarySink::path_for(prefix));
  EXPECT_EQ(got.ts, cols.ts);
  EXPECT_EQ(got.ue, cols.ue);
  EXPECT_EQ(got.type, cols.type);
  EXPECT_EQ(got.cell, cols.cell);
}

TEST(ResilientSink, ColumnSpillWritesTheAosSpillRows) {
  const EventColumns cols = spatial_columns(500, 9);
  std::vector<ControlEvent> events;
  cols.view().materialize(events);

  // Every delivery exhausts its retries; the columnar and the AoS path must
  // leave the same dead-letter file (no cell column in either).
  const auto spill_through = [&](const std::string& path, bool columnar) {
    std::remove(path.c_str());
    FlakySink inner(/*fail_first=*/1000, /*retryable=*/true);
    FakeRetryClock clock;
    ResilientSinkOptions opts;
    opts.policy = SinkPolicy::spill;
    opts.spill_path = path;
    opts.retry = no_jitter_policy();
    opts.retry.max_attempts = 2;
    ResilientSink sink(inner, opts, &clock);
    if (columnar) {
      sink.on_event_columns(cols.view());
    } else {
      sink.on_events(events);
    }
    EXPECT_EQ(sink.stats().spilled_events, events.size());
    std::ifstream is(path);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string cols_path = ::testing::TempDir() + "/cpg_spill_cols.csv";
  const std::string aos_path = ::testing::TempDir() + "/cpg_spill_aos.csv";
  const std::string from_columns = spill_through(cols_path, true);
  EXPECT_EQ(from_columns, spill_through(aos_path, false));
  EXPECT_EQ(from_columns.substr(0, 19), "cpg-spill 1\n1000,0,");

  std::vector<ControlEvent> recovered;
  CallbackSink collect([&](const ControlEvent& e) { recovered.push_back(e); });
  EXPECT_EQ(recover_spill(cols_path, collect), events.size());
  EXPECT_EQ(recovered, events);
  std::remove(cols_path.c_str());
  std::remove(aos_path.c_str());
}

TEST(Classify, MapsExceptionTypesToFailureClasses) {
  EXPECT_EQ(classify_failure(fault::InjectedFault("x", true)),
            FailureClass::retryable);
  EXPECT_EQ(classify_failure(fault::InjectedFault("x", false)),
            FailureClass::fatal);
  EXPECT_EQ(classify_failure(SinkError("x", FailureClass::retryable)),
            FailureClass::retryable);
  EXPECT_EQ(classify_failure(std::system_error(
                std::make_error_code(std::errc::io_error))),
            FailureClass::retryable);
  EXPECT_EQ(classify_failure(std::runtime_error("unknown")),
            FailureClass::fatal);
  EXPECT_EQ(classify_failure(std::logic_error("bug")), FailureClass::fatal);
}

// ---------------------------------------------------------------------------
// CsvSink write-failure detection (the silent-ENOSPC bug): a failed stream
// write must surface as a *retryable* SinkError at the batch boundary, the
// sink must rewind to the last committed row, and a supervised retry of the
// identical span must produce byte-identical output — no duplicated or lost
// rows.
// ---------------------------------------------------------------------------

// Seekable string buffer that rejects exactly one write: the first one
// attempted at or past `fail_at` bytes. Models an ENOSPC that clears by the
// time the supervisor retries (space was freed), on a device that still
// seeks — the shape CsvSink promises to recover from.
class FlakyOnceBuf final : public std::stringbuf {
 public:
  explicit FlakyOnceBuf(std::streamoff fail_at)
      : std::stringbuf(std::ios::out), fail_at_(fail_at) {}

  bool fired = false;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (should_fail()) return 0;
    return std::stringbuf::xsputn(s, n);
  }
  int_type overflow(int_type ch) override {
    if (should_fail()) return traits_type::eof();
    return std::stringbuf::overflow(ch);
  }

 private:
  bool should_fail() {
    if (fired) return false;
    const pos_type pos = seekoff(0, std::ios::cur, std::ios::out);
    if (pos == pos_type(off_type(-1)) ||
        static_cast<std::streamoff>(pos) < fail_at_) {
      return false;
    }
    fired = true;
    return true;
  }

  std::streamoff fail_at_;
};

// Write buffer with no seek support at all — CsvSink must refuse to retry
// (a blind re-delivery would duplicate whatever prefix reached the device).
class UnseekableBuf final : public std::streambuf {
 public:
  std::string written;
  bool reject = false;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (reject) return 0;
    written.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (reject || ch == traits_type::eof()) return traits_type::eof();
    written.push_back(traits_type::to_char_type(ch));
    return ch;
  }
};

std::vector<ControlEvent> csv_failure_events() {
  std::vector<ControlEvent> events;
  for (int i = 0; i < 60; ++i) {
    events.push_back(make_event(1000 + 17 * i, static_cast<UeId>(i % 3),
                                k_all_event_types[static_cast<std::size_t>(
                                    i % static_cast<int>(k_num_event_types))]));
  }
  return events;
}

StreamHeader csv_failure_header(const std::vector<DeviceType>& devices) {
  StreamHeader header;
  header.ue_devices = devices;
  header.t_begin = 0;
  header.t_end = 10'000;
  return header;
}

TEST(CsvSinkFailure, WriteFailureRewindsAndRetryIsByteIdentical) {
  const std::vector<DeviceType> devices{
      DeviceType::phone, DeviceType::connected_car, DeviceType::tablet};
  const StreamHeader header = csv_failure_header(devices);
  const std::vector<ControlEvent> events = csv_failure_events();
  const std::span<const ControlEvent> all(events);

  // Reference: the same batches through a clean stream.
  std::ostringstream ref;
  {
    CsvSink sink(ref);
    sink.on_start(header);
    sink.on_events(all.subspan(0, 25));
    sink.on_events(all.subspan(25));
    sink.on_finish();
  }
  ASSERT_GT(ref.str().size(), 400u);

  // Fail one write mid-file; ResilientSink must re-deliver the batch and the
  // bytes must come out as if nothing happened.
  FlakyOnceBuf buf(static_cast<std::streamoff>(ref.str().size() / 2));
  std::ostream out(&buf);
  CsvSink inner(out);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.retry = no_jitter_policy();
  ResilientSink sink(inner, opts, &clock);
  sink.on_start(header);
  sink.on_events(all.subspan(0, 25));
  sink.on_events(all.subspan(25));
  sink.on_finish();

  EXPECT_TRUE(buf.fired);
  EXPECT_EQ(sink.stats().retries, 1u);
  EXPECT_EQ(sink.stats().dropped_events, 0u);
  EXPECT_EQ(inner.events_written(), events.size());
  EXPECT_EQ(buf.str(), ref.str());
}

TEST(CsvSinkFailure, UnseekableStreamFailureIsFatalNotDuplicated) {
  const std::vector<DeviceType> devices{DeviceType::phone};
  const StreamHeader header = csv_failure_header(devices);
  const std::vector<ControlEvent> events = csv_failure_events();

  UnseekableBuf buf;
  std::ostream out(&buf);
  CsvSink sink(out);
  sink.on_start(header);
  buf.reject = true;
  try {
    sink.on_events(std::span(events));
    FAIL() << "write failure was swallowed";
  } catch (const SinkError& e) {
    EXPECT_EQ(e.failure_class(), FailureClass::fatal);
    EXPECT_NE(std::string(e.what()).find("cannot rewind"), std::string::npos);
  }
}

TEST(CsvSinkFailure, WriteFailpointEngagesResilientSink) {
  const std::vector<DeviceType> devices{DeviceType::phone};
  const StreamHeader header = csv_failure_header(devices);
  const std::vector<ControlEvent> events = csv_failure_events();
  const std::span<const ControlEvent> all(events);

  std::ostringstream ref;
  {
    CsvSink sink(ref);
    sink.on_start(header);
    for (std::size_t i = 0; i < all.size(); i += 10) {
      sink.on_events(all.subspan(i, std::min<std::size_t>(10, all.size() - i)));
    }
    sink.on_finish();
  }

  fault::FailpointSpec spec;
  spec.action = fault::Action::error;  // retryable, like a transient ENOSPC
  spec.skip = 2;
  spec.max_fires = 2;
  fault::arm("csv_sink.write", spec);

  std::ostringstream got;
  {
    CsvSink inner(got);
    FakeRetryClock clock;
    ResilientSinkOptions opts;
    opts.retry = no_jitter_policy();
    ResilientSink sink(inner, opts, &clock);
    sink.on_start(header);
    for (std::size_t i = 0; i < all.size(); i += 10) {
      sink.on_events(all.subspan(i, std::min<std::size_t>(10, all.size() - i)));
    }
    sink.on_finish();
    EXPECT_GE(sink.stats().retries, 1u);
    EXPECT_EQ(sink.stats().dropped_events, 0u);
  }
  fault::disarm_all();

  EXPECT_EQ(got.str(), ref.str());
}

// ---------------------------------------------------------------------------
// CsvSink column deliveries: rows are formatted into k_chunk_bytes chunks,
// and a failure in any chunk rewinds the whole delivery.
// ---------------------------------------------------------------------------

// String buffer that records where each write landed and how long it was.
class WriteLogBuf final : public std::stringbuf {
 public:
  WriteLogBuf() : std::stringbuf(std::ios::out) {}

  struct Write {
    std::streamoff at;
    std::streamsize n;
  };
  std::vector<Write> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    writes.push_back(
        {static_cast<std::streamoff>(seekoff(0, std::ios::cur, std::ios::out)),
         n});
    return std::stringbuf::xsputn(s, n);
  }
};

// Enough wide rows for one delivery to fill several chunks.
EventColumns multi_chunk_columns() {
  EventColumns cols;
  for (std::size_t i = 0; i < 12'000; ++i) {
    cols.push_back(static_cast<TimeMs>(1'700'000'000'000 + 7 * i),
                   static_cast<UeId>(4'000'000'000u - 977 * i),
                   k_all_event_types[i % k_num_event_types]);
  }
  return cols;
}

struct ColumnDeliveryRef {
  std::string bytes;             // the rows written one by one (AoS path)
  std::streamoff second_write;   // where the delivery's second chunk starts
  std::size_t chunks;            // writes the column delivery made
};

ColumnDeliveryRef column_delivery_reference(const EventColumns& cols,
                                            const StreamHeader& header) {
  std::vector<ControlEvent> events;
  cols.view().materialize(events);
  std::ostringstream aos;
  {
    CsvSink sink(aos);
    sink.on_start(header);
    sink.on_events(events);
    sink.on_finish();
  }

  WriteLogBuf buf;
  std::ostream out(&buf);
  CsvSink sink(out);
  sink.on_start(header);
  const std::size_t first = buf.writes.size();
  sink.on_event_columns(cols.view());
  sink.on_finish();
  EXPECT_EQ(buf.str(), aos.str());
  const std::size_t chunks = buf.writes.size() - first;
  for (std::size_t w = first; w < buf.writes.size(); ++w) {
    EXPECT_LE(buf.writes[w].n,
              static_cast<std::streamsize>(CsvSink::k_chunk_bytes));
  }
  return {aos.str(), chunks >= 2 ? buf.writes[first + 1].at : -1, chunks};
}

TEST(CsvSinkColumns, ChunkedDeliveryMatchesRowByRowBytes) {
  const std::vector<DeviceType> devices{DeviceType::phone,
                                        DeviceType::tablet};
  const StreamHeader header = csv_failure_header(devices);
  const EventColumns cols = multi_chunk_columns();
  const ColumnDeliveryRef ref = column_delivery_reference(cols, header);
  EXPECT_GE(ref.chunks, 3u);
  EXPECT_GT(ref.bytes.size(), 3 * CsvSink::k_chunk_bytes);
}

TEST(CsvSinkColumns, FailureInSecondChunkRewindsTheWholeDelivery) {
  const std::vector<DeviceType> devices{DeviceType::phone};
  const StreamHeader header = csv_failure_header(devices);
  const EventColumns cols = multi_chunk_columns();
  const ColumnDeliveryRef ref = column_delivery_reference(cols, header);
  ASSERT_GE(ref.chunks, 3u);

  // The first chunk reaches the stream, the second write fails: the sink
  // must cut back to where the delivery started.
  {
    FlakyOnceBuf buf(ref.second_write);
    std::ostream out(&buf);
    CsvSink sink(out);
    sink.on_start(header);
    const std::streamoff start = out.tellp();
    try {
      sink.on_event_columns(cols.view());
      FAIL() << "write failure was swallowed";
    } catch (const SinkError& e) {
      EXPECT_EQ(e.failure_class(), FailureClass::retryable);
    }
    EXPECT_TRUE(buf.fired);
    EXPECT_EQ(static_cast<std::streamoff>(out.tellp()), start);
    EXPECT_EQ(sink.events_written(), 0u);
  }

  // Supervised, the retry re-delivers the same view onto clean ground.
  FlakyOnceBuf buf(ref.second_write);
  std::ostream out(&buf);
  CsvSink inner(out);
  FakeRetryClock clock;
  ResilientSinkOptions opts;
  opts.retry = no_jitter_policy();
  ResilientSink sink(inner, opts, &clock);
  sink.on_start(header);
  sink.on_event_columns(cols.view());
  sink.on_finish();
  EXPECT_TRUE(buf.fired);
  EXPECT_EQ(sink.stats().retries, 1u);
  EXPECT_EQ(inner.events_written(), cols.size());
  EXPECT_EQ(buf.str(), ref.bytes);
}

// ---------------------------------------------------------------------------
// Checkpoint file round trip
// ---------------------------------------------------------------------------

class CheckpointDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/cpg_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    fault::disarm_all();
  }
  std::string dir_;
};

TEST_F(CheckpointDir, SaveLoadRoundTrip) {
  StreamCheckpoint ck;
  ck.seed = 42;
  ck.ue_counts = {10, 5, 2};
  ck.t_begin = 9 * k_ms_per_hour;
  ck.t_end = ck.t_begin + k_ms_per_hour + k_ms_per_hour / 2;
  ck.scenario_fingerprint = 0xfeedface;
  ck.num_shards = 2;
  ck.slice_ms = 60'000;
  ck.resume_slice = 7;
  ck.sink_token = "csv 1234 56 78";
  ck.shards.resize(2);
  ck.shards[0].next_seg = 11;
  gen::UeGenSnapshot g;
  g.ue_id = 3;
  g.device = DeviceType::tablet;
  g.modeled_ue = 1;
  g.rng.engine = {1, 2, 3, 4};
  g.rng.has_cached = true;
  g.rng.cached_bits = 0xdeadbeefULL;
  g.started = true;
  g.now = 123456;
  g.top_deadline = 234567;
  g.top_edge = 2;
  g.overlay_deadline[0] = 99;
  ck.shards[0].gens.push_back(g);
  ck.shards[0].gen_seg.push_back(23);
  ck.shards[1].carry.push_back(make_event(777, 3, EventType::tau));

  save_checkpoint(ck, dir_);
  const auto loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, 42u);
  EXPECT_EQ(loaded->ue_counts, ck.ue_counts);
  EXPECT_EQ(loaded->t_begin, ck.t_begin);
  EXPECT_EQ(loaded->t_end, ck.t_end);
  EXPECT_EQ(loaded->scenario_fingerprint, 0xfeedfaceu);
  EXPECT_EQ(loaded->resume_slice, 7u);
  EXPECT_EQ(loaded->sink_token, ck.sink_token);
  ASSERT_EQ(loaded->shards.size(), 2u);
  EXPECT_EQ(loaded->shards[0].next_seg, 11u);
  ASSERT_EQ(loaded->shards[0].gens.size(), 1u);
  ASSERT_EQ(loaded->shards[0].gen_seg.size(), 1u);
  EXPECT_EQ(loaded->shards[0].gen_seg[0], 23u);
  const gen::UeGenSnapshot& lg = loaded->shards[0].gens[0];
  EXPECT_EQ(lg.ue_id, 3u);
  EXPECT_EQ(lg.device, DeviceType::tablet);
  EXPECT_EQ(lg.rng.engine, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_TRUE(lg.rng.has_cached);
  EXPECT_EQ(lg.rng.cached_bits, 0xdeadbeefULL);
  EXPECT_TRUE(lg.started);
  EXPECT_EQ(lg.now, 123456);
  EXPECT_EQ(lg.top_edge, 2);
  EXPECT_EQ(lg.overlay_deadline[0], 99);
  ASSERT_EQ(loaded->shards[1].carry.size(), 1u);
  EXPECT_EQ(loaded->shards[1].carry[0], make_event(777, 3, EventType::tau));
}

TEST_F(CheckpointDir, MissingFileIsNullopt) {
  EXPECT_FALSE(load_checkpoint(dir_).has_value());
}

TEST_F(CheckpointDir, FailedSaveLeavesThePreviousCheckpointIntact) {
  // The atomic-publish contract: a save that dies mid-write (ENOSPC, crash)
  // must never clobber the checkpoint a resume depends on.
  StreamCheckpoint ck;
  ck.seed = 42;
  ck.ue_counts = {1, 0, 0};
  ck.num_shards = 1;
  ck.slice_ms = 60'000;
  ck.resume_slice = 3;
  ck.shards.resize(1);
  save_checkpoint(ck, dir_);

  fault::FailpointSpec spec;
  spec.action = fault::Action::error;
  fault::arm("io.write_file", spec);
  ck.resume_slice = 9;
  EXPECT_THROW(save_checkpoint(ck, dir_), fault::InjectedFault);
  fault::disarm_all();

  const auto loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->resume_slice, 3u);  // the failed save changed nothing
}

TEST_F(CheckpointDir, CorruptFileThrowsWithDiagnostic) {
  StreamCheckpoint ck;
  ck.num_shards = 1;
  ck.shards.resize(1);
  save_checkpoint(ck, dir_);
  // Truncate the file mid-way.
  const std::string path = checkpoint_path(dir_);
  std::string content;
  {
    std::ifstream is(path);
    std::ostringstream buf;
    buf << is.rdbuf();
    content = buf.str();
  }
  {
    std::ofstream os(path, std::ios::trunc);
    os << content.substr(0, content.size() / 2);
  }
  EXPECT_THROW(load_checkpoint(dir_), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Forward compatibility: files written by a newer build (or mangled beyond
// recognition) must die with one actionable line — never crash, and never
// be treated as "no checkpoint" (a silent fresh start would overwrite the
// newer run's durable state).
// ---------------------------------------------------------------------------

class CheckpointForwardCompat : public CheckpointDir {
 protected:
  void write_raw(const std::string& content) {
    std::filesystem::create_directories(dir_);
    std::ofstream os(checkpoint_path(dir_), std::ios::trunc);
    os << content;
    ASSERT_TRUE(os.good());
  }

  std::string load_error() {
    try {
      const auto ck = load_checkpoint(dir_);
      EXPECT_TRUE(ck.has_value() || !ck.has_value());
      ADD_FAILURE() << "load_checkpoint accepted the file (has_value="
                    << ck.has_value()
                    << ") instead of raising a clean error";
      return {};
    } catch (const std::runtime_error& e) {
      return e.what();
    }
  }

  void expect_actionable(const std::string& msg) {
    EXPECT_FALSE(msg.empty());
    // One line, and it names the offending file so the operator knows what
    // to remove or inspect.
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_NE(msg.find(checkpoint_path(dir_)), std::string::npos) << msg;
  }
};

TEST_F(CheckpointForwardCompat, NewerVersionIsAOneLineActionableError) {
  write_raw("cpg-checkpoint 4\nfuture fields this build cannot know\n");
  const std::string msg = load_error();
  expect_actionable(msg);
  EXPECT_NE(msg.find("newer"), std::string::npos) << msg;
  EXPECT_NE(msg.find('4'), std::string::npos) << msg;
}

TEST_F(CheckpointForwardCompat, FarFutureVersionIsStillACleanError) {
  write_raw("cpg-checkpoint 2147483000\n");
  expect_actionable(load_error());
}

TEST_F(CheckpointForwardCompat, TruncatedHeaderIsACleanError) {
  for (const char* header : {"", "cpg-checkpo", "cpg-checkpoint",
                             "cpg-checkpoint\n"}) {
    write_raw(header);
    expect_actionable(load_error());
  }
}

TEST_F(CheckpointForwardCompat, ForeignFileIsACleanError) {
  write_raw("PK\x03\x04 this is definitely not a checkpoint");
  expect_actionable(load_error());
}

// ---------------------------------------------------------------------------
// Kill-and-resume byte identity
// ---------------------------------------------------------------------------

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
  req.ue_counts = {60, 25, 15};
  req.start_hour = 10;
  req.duration_hours = 1.0;
  req.seed = 424;
  req.num_threads = 2;
  return req;
}

TEST_F(CheckpointForwardCompat, ResumeRunNeverSilentlyRestartsOnNewerFile) {
  write_raw("cpg-checkpoint 3\n");
  StreamOptions opts;
  opts.num_shards = 1;
  opts.num_threads = 1;
  opts.checkpoint.dir = dir_;
  opts.resume = true;
  NullSink sink;
  // The run must refuse to start (a fresh start would clobber the newer
  // build's checkpoint), not crash and not generate from slice 0.
  EXPECT_THROW(stream_generate(ours_model(), small_request(), opts, sink),
               std::runtime_error);
}

StreamOptions checkpointed_options(const std::string& dir) {
  StreamOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  opts.slice_ms = 5 * k_ms_per_minute;  // 12 slices over 1 h
  opts.checkpoint.dir = dir;
  opts.checkpoint.interval_slices = 3;
  return opts;
}

// Emulates a durable sink across "process death": the event store outlives
// the sink (like a file on disk outlives the process). checkpoint_save
// makes the store durable and returns its size; checkpoint_resume truncates
// it back to the token, exactly as CsvSink truncates its .tmp files.
class DurableStoreSink final : public EventSink, public CheckpointParticipant {
 public:
  explicit DurableStoreSink(std::vector<ControlEvent>& store)
      : store_(store) {}

  void on_start(const StreamHeader&) override { store_.clear(); }
  void on_event(const ControlEvent& e) override { store_.push_back(e); }
  void on_events(std::span<const ControlEvent> es) override {
    store_.insert(store_.end(), es.begin(), es.end());
  }

  std::string checkpoint_save() override {
    return std::to_string(store_.size());
  }
  void checkpoint_resume(const std::string& token,
                         const StreamHeader&) override {
    store_.resize(std::stoull(token));
  }

 private:
  std::vector<ControlEvent>& store_;
};

std::vector<ControlEvent> reference_events() {
  static const std::vector<ControlEvent> events = [] {
    std::vector<ControlEvent> store;
    DurableStoreSink sink(store);
    StreamOptions opts;
    opts.num_shards = 4;
    opts.num_threads = 2;
    opts.slice_ms = 5 * k_ms_per_minute;
    stream_generate(ours_model(), small_request(), opts, sink);
    return store;
  }();
  return events;
}

TEST_F(CheckpointDir, KillAndResumeIsByteIdenticalAcrossKillPoints) {
  const std::vector<ControlEvent>& want = reference_events();
  ASSERT_GT(want.size(), 100u);

  // Kill at the failpoint-chosen slice: before the first checkpoint (kill
  // at slice 1 -> resume is a fresh start), just past a checkpoint (slice
  // 4 -> resume from 3), at a checkpoint slice (6), and late (10 ->
  // resume from 9).
  for (const std::uint64_t kill_slice : {1u, 4u, 6u, 10u}) {
    std::vector<ControlEvent> store;
    DurableStoreSink sink(store);
    std::filesystem::remove_all(dir_);

    fault::FailpointSpec kill;
    kill.action = fault::Action::fatal;
    kill.skip = kill_slice;  // fire on the (kill_slice+1)-th delivered slice
    kill.max_fires = 1;
    fault::arm("stream.deliver_slice", kill);

    EXPECT_THROW(stream_generate(ours_model(), small_request(),
                                 checkpointed_options(dir_), sink),
                 fault::InjectedFault)
        << "kill_slice=" << kill_slice;
    fault::disarm_all();

    StreamOptions resume_opts = checkpointed_options(dir_);
    resume_opts.resume = true;
    const StreamStats stats =
        stream_generate(ours_model(), small_request(), resume_opts, sink);
    if (kill_slice >= 4) {
      EXPECT_GT(stats.start_slice, 0u) << "kill_slice=" << kill_slice;
    }
    ASSERT_EQ(store.size(), want.size()) << "kill_slice=" << kill_slice;
    EXPECT_TRUE(std::equal(store.begin(), store.end(), want.begin()))
        << "kill_slice=" << kill_slice;
    // A completed run retires its checkpoint.
    EXPECT_FALSE(load_checkpoint(dir_).has_value());
  }
}

TEST_F(CheckpointDir, SurvivesRepeatedKills) {
  const std::vector<ControlEvent>& want = reference_events();
  std::vector<ControlEvent> store;
  DurableStoreSink sink(store);

  for (const std::uint64_t skip : {4u, 3u}) {
    fault::FailpointSpec kill;
    kill.action = fault::Action::fatal;
    kill.skip = skip;
    kill.max_fires = 1;
    fault::arm("stream.deliver_slice", kill);
    StreamOptions opts = checkpointed_options(dir_);
    opts.resume = true;  // harmless on the first run (no checkpoint yet)
    EXPECT_THROW(stream_generate(ours_model(), small_request(), opts, sink),
                 fault::InjectedFault);
    fault::disarm_all();
  }
  StreamOptions opts = checkpointed_options(dir_);
  opts.resume = true;
  stream_generate(ours_model(), small_request(), opts, sink);
  ASSERT_EQ(store.size(), want.size());
  EXPECT_TRUE(std::equal(store.begin(), store.end(), want.begin()));
}

TEST_F(CheckpointDir, ResumeRejectsMismatchedFingerprint) {
  std::vector<ControlEvent> store;
  DurableStoreSink sink(store);
  fault::FailpointSpec kill;
  kill.action = fault::Action::fatal;
  kill.skip = 5;
  kill.max_fires = 1;
  fault::arm("stream.deliver_slice", kill);
  EXPECT_THROW(stream_generate(ours_model(), small_request(),
                               checkpointed_options(dir_), sink),
               fault::InjectedFault);
  fault::disarm_all();

  gen::GenerationRequest other = small_request();
  other.seed = 425;
  StreamOptions resume_opts = checkpointed_options(dir_);
  resume_opts.resume = true;
  try {
    stream_generate(ours_model(), other, resume_opts, sink);
    FAIL() << "expected fingerprint mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
}

TEST_F(CheckpointDir, WorkerFailpointUnwindsCleanly) {
  // A fault in a shard worker must shut the pipeline down and surface the
  // fault — no deadlock, no silent truncation.
  std::vector<ControlEvent> store;
  DurableStoreSink sink(store);
  fault::FailpointSpec kill;
  kill.action = fault::Action::fatal;
  kill.skip = 3;
  kill.max_fires = 1;
  fault::arm("stream.shard_slice", kill);
  EXPECT_THROW(stream_generate(ours_model(), small_request(),
                               checkpointed_options(dir_), sink),
               fault::InjectedFault);
}

TEST_F(CheckpointDir, CsvSinkKillAndResumeProducesIdenticalFiles) {
  const std::string ref_prefix = dir_ + "/ref";
  const std::string run_prefix = dir_ + "/run";
  std::filesystem::create_directories(dir_);

  const auto read_file = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  };

  {
    CsvSink ref(ref_prefix);
    StreamOptions opts = checkpointed_options(dir_ + "/ck_ref");
    opts.checkpoint.dir.clear();  // plain run
    stream_generate(ours_model(), small_request(), opts, ref);
  }
  ASSERT_TRUE(std::filesystem::exists(ref_prefix + "_events.csv"));
  // The tmp staging files were renamed away.
  EXPECT_FALSE(std::filesystem::exists(ref_prefix + "_events.csv.tmp"));

  {
    CsvSink run(run_prefix);
    fault::FailpointSpec kill;
    kill.action = fault::Action::fatal;
    kill.skip = 7;
    kill.max_fires = 1;
    fault::arm("stream.deliver_slice", kill);
    EXPECT_THROW(stream_generate(ours_model(), small_request(),
                                 checkpointed_options(dir_ + "/ck"), run),
                 fault::InjectedFault);
    fault::disarm_all();
  }
  // The killed run left only staging files.
  EXPECT_TRUE(std::filesystem::exists(run_prefix + "_events.csv.tmp"));
  EXPECT_FALSE(std::filesystem::exists(run_prefix + "_events.csv"));

  {
    CsvSink run(run_prefix);
    StreamOptions opts = checkpointed_options(dir_ + "/ck");
    opts.resume = true;
    const StreamStats stats =
        stream_generate(ours_model(), small_request(), opts, run);
    EXPECT_EQ(stats.start_slice, 6u);
  }
  EXPECT_EQ(read_file(run_prefix + "_events.csv"),
            read_file(ref_prefix + "_events.csv"));
  EXPECT_EQ(read_file(run_prefix + "_ues.csv"),
            read_file(ref_prefix + "_ues.csv"));
}

TEST_F(CheckpointDir, GracefulStopFinalizesFilesAndResumeRestagesThem) {
  const std::string ref_prefix = dir_ + "/ref";
  const std::string run_prefix = dir_ + "/run";
  std::filesystem::create_directories(dir_);

  const auto read_file = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  };

  {
    CsvSink ref(ref_prefix);
    StreamOptions opts = checkpointed_options(dir_ + "/ck_ref");
    opts.checkpoint.dir.clear();  // plain run
    stream_generate(ours_model(), small_request(), opts, ref);
  }

  {
    CsvSink run(run_prefix);
    StreamOptions opts = checkpointed_options(dir_ + "/ck");
    std::uint64_t polls = 0;
    opts.stop_check = [&polls] { return ++polls >= 4; };
    const StreamStats stats =
        stream_generate(ours_model(), small_request(), opts, run);
    EXPECT_TRUE(stats.stopped);
    EXPECT_LT(stats.slices, 12u);
  }
  // Unlike a kill, a graceful stop finalizes the prefix: the staging files
  // were renamed to their final names, and the checkpoint was kept.
  EXPECT_TRUE(std::filesystem::exists(run_prefix + "_events.csv"));
  EXPECT_TRUE(std::filesystem::exists(run_prefix + "_ues.csv"));
  EXPECT_FALSE(std::filesystem::exists(run_prefix + "_events.csv.tmp"));
  EXPECT_FALSE(std::filesystem::exists(run_prefix + "_ues.csv.tmp"));
  ASSERT_TRUE(load_checkpoint(dir_ + "/ck").has_value());

  {
    // A fresh sink resuming must move the finalized files back into
    // staging (the restage path) before truncating to the token.
    CsvSink run(run_prefix);
    StreamOptions opts = checkpointed_options(dir_ + "/ck");
    opts.resume = true;
    const StreamStats stats =
        stream_generate(ours_model(), small_request(), opts, run);
    EXPECT_GT(stats.start_slice, 0u);
    EXPECT_FALSE(stats.stopped);
  }
  EXPECT_EQ(read_file(run_prefix + "_events.csv"),
            read_file(ref_prefix + "_events.csv"));
  EXPECT_EQ(read_file(run_prefix + "_ues.csv"),
            read_file(ref_prefix + "_ues.csv"));
  // The completed resume retired the checkpoint.
  EXPECT_FALSE(load_checkpoint(dir_ + "/ck").has_value());
}

TEST_F(CheckpointDir, ResumeWithoutCheckpointStartsFresh) {
  std::vector<ControlEvent> store;
  DurableStoreSink sink(store);
  StreamOptions opts = checkpointed_options(dir_);
  opts.resume = true;  // no checkpoint file exists
  const StreamStats stats =
      stream_generate(ours_model(), small_request(), opts, sink);
  EXPECT_EQ(stats.start_slice, 0u);
  EXPECT_EQ(store.size(), reference_events().size());
}

// ---------------------------------------------------------------------------
// Spatial kill-and-resume: the cell column survives process death too
// ---------------------------------------------------------------------------

struct CellRow {
  TimeMs t;
  UeId ue;
  EventType type;
  std::uint32_t cell;
  bool operator==(const CellRow&) const = default;
};

// DurableStoreSink with the cell column: captures the annotated stream via
// the columnar hook and truncates back to the checkpoint token on resume.
class DurableCellStoreSink final : public EventSink,
                                   public CheckpointParticipant {
 public:
  explicit DurableCellStoreSink(std::vector<CellRow>& store)
      : store_(store) {}

  void on_start(const StreamHeader&) override { store_.clear(); }
  void on_event(const ControlEvent&) override {
    FAIL() << "unpaced delivery must use the columnar path";
  }
  void on_event_columns(const EventColumnsView& cols) override {
    ASSERT_TRUE(cols.has_cells() || cols.empty());
    for (std::size_t i = 0; i < cols.n; ++i) {
      store_.push_back({cols.ts[i], cols.ue[i], cols.type[i], cols.cell[i]});
    }
  }

  std::string checkpoint_save() override {
    return std::to_string(store_.size());
  }
  void checkpoint_resume(const std::string& token,
                         const StreamHeader& header) override {
    // Resume re-announces the grid: a spatial run must still be spatial.
    EXPECT_NE(header.spatial, nullptr);
    store_.resize(std::stoull(token));
  }

 private:
  std::vector<CellRow>& store_;
};

const spatial::SpatialConfig& resume_spatial_config() {
  static const spatial::SpatialConfig cfg =
      spatial::load_spatial("grid:10x10x250");
  return cfg;
}

TEST_F(CheckpointDir, SpatialKillAndResumeKeepsCellsByteIdentical) {
  // Reference: one uninterrupted spatial run.
  std::vector<CellRow> want;
  {
    DurableCellStoreSink sink(want);
    StreamOptions opts = checkpointed_options(dir_);
    opts.checkpoint.dir.clear();
    opts.spatial = &resume_spatial_config();
    stream_generate(ours_model(), small_request(), opts, sink);
  }
  ASSERT_GT(want.size(), 100u);

  for (const std::uint64_t kill_slice : {1u, 4u, 6u}) {
    std::vector<CellRow> store;
    DurableCellStoreSink sink(store);
    std::filesystem::remove_all(dir_);

    fault::FailpointSpec kill;
    kill.action = fault::Action::fatal;
    kill.skip = kill_slice;
    kill.max_fires = 1;
    fault::arm("stream.deliver_slice", kill);

    StreamOptions opts = checkpointed_options(dir_);
    opts.spatial = &resume_spatial_config();
    EXPECT_THROW(stream_generate(ours_model(), small_request(), opts, sink),
                 fault::InjectedFault)
        << "kill_slice=" << kill_slice;
    fault::disarm_all();

    StreamOptions resume_opts = checkpointed_options(dir_);
    resume_opts.spatial = &resume_spatial_config();
    resume_opts.resume = true;
    stream_generate(ours_model(), small_request(), resume_opts, sink);
    ASSERT_EQ(store.size(), want.size()) << "kill_slice=" << kill_slice;
    EXPECT_TRUE(std::equal(store.begin(), store.end(), want.begin()))
        << "kill_slice=" << kill_slice;
  }
}

TEST_F(CheckpointDir, ResumeRejectsChangedSpatialConfig) {
  std::vector<CellRow> store;
  DurableCellStoreSink sink(store);
  fault::FailpointSpec kill;
  kill.action = fault::Action::fatal;
  kill.skip = 5;
  kill.max_fires = 1;
  fault::arm("stream.deliver_slice", kill);
  StreamOptions opts = checkpointed_options(dir_);
  opts.spatial = &resume_spatial_config();
  EXPECT_THROW(stream_generate(ours_model(), small_request(), opts, sink),
               fault::InjectedFault);
  fault::disarm_all();

  // A different grid (and a dropped spatial layer) must both refuse to
  // resume: splicing coordinates from two geometries would corrupt the
  // trace silently.
  const spatial::SpatialConfig other = spatial::load_spatial("grid:9x9x250");
  StreamOptions changed = checkpointed_options(dir_);
  changed.spatial = &other;
  changed.resume = true;
  EXPECT_THROW(
      stream_generate(ours_model(), small_request(), changed, sink),
      std::runtime_error);

  StreamOptions dropped = checkpointed_options(dir_);
  dropped.resume = true;
  EXPECT_THROW(
      stream_generate(ours_model(), small_request(), dropped, sink),
      std::runtime_error);
}

}  // namespace
}  // namespace cpg::stream
