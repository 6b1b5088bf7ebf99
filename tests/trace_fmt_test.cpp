// Tests for the cpgt columnar binary trace format (src/trace_fmt/) and the
// BinarySink built on it: primitive codecs, file round trips, the one-line
// corruption diagnostics, retry safety under the resilient sink, checkpoint
// kill/resume, and the cpgt <-> CSV byte-identity the converter guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/trace.h"
#include "fault/failpoint.h"
#include "io/csv.h"
#include "io/file_util.h"
#include "stream/binary_sink.h"
#include "stream/csv_sink.h"
#include "stream/event_sink.h"
#include "stream/resilient_sink.h"
#include "test_util.h"
#include "trace_fmt/cpgt.h"
#include "trace_fmt/reader.h"
#include "trace_fmt/salvage.h"
#include "trace_fmt/writer.h"

namespace cpg {
namespace {

namespace tf = trace_fmt;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(CpgtPrimitives, ZigzagRoundTrip) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{2},
        std::int64_t{-2}, std::int64_t{123456789}, std::int64_t{-987654321},
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(tf::zigzag_decode(tf::zigzag_encode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the property the ts column needs).
  EXPECT_EQ(tf::zigzag_encode(0), 0u);
  EXPECT_EQ(tf::zigzag_encode(-1), 1u);
  EXPECT_EQ(tf::zigzag_encode(1), 2u);
}

TEST(CpgtPrimitives, VarintRoundTrip) {
  std::string buf;
  const std::vector<std::uint64_t> values = {
      0,   1,    127,  128,   255,    16383, 16384,
      1u << 20, std::uint64_t{1} << 35, ~std::uint64_t{0}};
  for (const std::uint64_t v : values) tf::put_varint(buf, v);
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    EXPECT_EQ(tf::get_varint(buf, pos), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(CpgtPrimitives, VarintTruncatedThrows) {
  std::string buf;
  tf::put_varint(buf, 1u << 20);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(tf::get_varint(buf, pos), std::runtime_error);
}

TEST(CpgtPrimitives, Crc32KnownVector) {
  // IEEE CRC32 of "123456789" — the standard check value.
  EXPECT_EQ(tf::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(tf::crc32(""), 0u);
}

TEST(CpgtPrimitives, FingerprintSensitivity) {
  const std::vector<DeviceType> a{DeviceType::phone, DeviceType::tablet};
  const std::vector<DeviceType> b{DeviceType::tablet, DeviceType::phone};
  const std::uint64_t fa = tf::run_fingerprint(a, 0, 1000);
  EXPECT_NE(fa, tf::run_fingerprint(b, 0, 1000));   // registry order
  EXPECT_NE(fa, tf::run_fingerprint(a, 0, 2000));   // window
  EXPECT_EQ(fa, tf::run_fingerprint(a, 0, 1000));   // deterministic
}

// ---------------------------------------------------------------------------
// Writer / reader round trips
// ---------------------------------------------------------------------------

class CpgtFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/cpg_trace_fmt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    fault::disarm_all();
  }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }
  std::string dir_;
};

std::vector<ControlEvent> make_events(std::size_t n, std::size_t num_ues,
                                      TimeMs t0 = 1000) {
  std::vector<ControlEvent> evs;
  evs.reserve(n);
  TimeMs t = t0;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<TimeMs>((i * 37) % 2000);
    evs.push_back({t, static_cast<UeId>(i % num_ues),
                   k_all_event_types[i % k_num_event_types]});
  }
  return evs;
}

TEST_F(CpgtFile, WriterReaderRoundTripManyBlocks) {
  const std::vector<DeviceType> devices{
      DeviceType::phone, DeviceType::phone, DeviceType::connected_car,
      DeviceType::tablet};
  const std::vector<ControlEvent> evs = make_events(10'000, devices.size());

  tf::TraceWriter::Options opts;
  opts.block_events = 256;  // force ~40 blocks
  tf::TraceWriter writer(path("t.cpgt"), opts);
  writer.begin(devices, 0, 3'600'000);
  // Append in uneven chunks to exercise block cutting across appends.
  std::size_t i = 0;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{100},
                                  std::size_t{999}, std::size_t{3000}}) {
    writer.append({evs.data() + i, chunk});
    i += chunk;
  }
  writer.append({evs.data() + i, evs.size() - i});
  writer.finish();

  tf::TraceReader reader(path("t.cpgt"));
  EXPECT_EQ(reader.devices(), devices);
  EXPECT_EQ(reader.fingerprint(), tf::run_fingerprint(devices, 0, 3'600'000));
  std::vector<ControlEvent> got, block;
  while (reader.next_events(block)) {
    got.insert(got.end(), block.begin(), block.end());
  }
  EXPECT_EQ(reader.total_events(), evs.size());
  EXPECT_EQ(got, evs);
}

TEST_F(CpgtFile, WriterBufferStaysUnderTwoBlocksOnMisalignedAppends) {
  // Append sizes that never line up with block_events: the written prefix
  // must leave the buffer, or it grows with the run.
  const std::vector<DeviceType> devices{DeviceType::phone, DeviceType::tablet};
  const std::vector<ControlEvent> evs = make_events(20'000, devices.size());
  constexpr std::size_t k_block = 1000;
  tf::TraceWriter::Options opts;
  opts.block_events = k_block;
  tf::TraceWriter writer(path("w.cpgt"), opts);
  writer.begin(devices, 0, 3'600'000);
  std::size_t i = 0;
  for (std::size_t step = 0; i < evs.size(); ++step) {
    const std::size_t chunk =
        std::min<std::size_t>(step % 2 == 0 ? 337 : 1301, evs.size() - i);
    writer.append({evs.data() + i, chunk});
    i += chunk;
    ASSERT_LT(writer.buffered_events(), 2 * k_block) << "after " << i;
  }
  writer.finish();

  tf::TraceReader reader(path("w.cpgt"));
  std::vector<ControlEvent> got, block;
  while (reader.next_events(block)) {
    got.insert(got.end(), block.begin(), block.end());
  }
  EXPECT_EQ(got, evs);
}

// ---------------------------------------------------------------------------
// Cross-version: v1 (plain) and v2 (spatial) files through one reader
// ---------------------------------------------------------------------------

TEST_F(CpgtFile, PlainWriterStillEmitsVersion1) {
  // A run without the spatial layer must keep producing files older builds
  // (and old fixtures) can read: format version 1, no spatial block.
  const std::vector<DeviceType> devices{DeviceType::phone,
                                        DeviceType::tablet};
  tf::TraceWriter writer(path("v1.cpgt"));
  writer.begin(devices, 0, 1000);
  const std::vector<ControlEvent> evs = make_events(100, devices.size());
  writer.append(evs);
  writer.finish();

  tf::TraceReader reader(path("v1.cpgt"));
  EXPECT_EQ(reader.version(), 1u);
  EXPECT_FALSE(reader.has_spatial());
  std::vector<ControlEvent> block;
  while (reader.next_events(block)) {
    // A v1 file has no cell column to surface.
    EXPECT_TRUE(reader.cells().empty());
  }
  EXPECT_EQ(reader.total_events(), evs.size());
}

TEST_F(CpgtFile, SpatialRoundTripCarriesCellsPerBlock) {
  const std::vector<DeviceType> devices{
      DeviceType::phone, DeviceType::phone, DeviceType::connected_car,
      DeviceType::tablet};
  const std::vector<ControlEvent> evs = make_events(5'000, devices.size());
  std::vector<TimeMs> ts;
  std::vector<UeId> ue;
  std::vector<EventType> type;
  std::vector<std::uint32_t> cell;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    ts.push_back(evs[i].t_ms);
    ue.push_back(evs[i].ue_id);
    type.push_back(evs[i].type);
    cell.push_back(static_cast<std::uint32_t>((i * 31) % 64));
  }

  tf::SpatialInfo sp;
  sp.cols = 8;
  sp.rows = 8;
  sp.cell_m = 250.0;
  sp.wrap = true;
  sp.ta_block = 4;
  sp.fingerprint = 0xabcdef12u;

  tf::TraceWriter::Options opts;
  opts.block_events = 256;  // many events+cells block pairs
  tf::TraceWriter writer(path("v2.cpgt"), opts);
  writer.begin(devices, 0, 3'600'000, &sp);
  // Uneven chunks to exercise cell buffering across block cuts.
  std::size_t i = 0;
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{700}, std::size_t{2999}}) {
    writer.append(EventColumnsView{ts.data() + i, ue.data() + i,
                                   type.data() + i, chunk, cell.data() + i});
    i += chunk;
  }
  writer.append(EventColumnsView{ts.data() + i, ue.data() + i,
                                 type.data() + i, evs.size() - i,
                                 cell.data() + i});
  writer.finish();

  tf::TraceReader reader(path("v2.cpgt"));
  EXPECT_EQ(reader.version(), 2u);
  ASSERT_TRUE(reader.has_spatial());
  EXPECT_EQ(reader.spatial(), sp);
  std::vector<ControlEvent> got, block;
  std::vector<std::uint32_t> got_cells;
  while (reader.next_events(block)) {
    ASSERT_EQ(reader.cells().size(), block.size());
    got.insert(got.end(), block.begin(), block.end());
    got_cells.insert(got_cells.end(), reader.cells().begin(),
                     reader.cells().end());
  }
  EXPECT_EQ(got, evs);
  EXPECT_EQ(got_cells, cell);
}

TEST_F(CpgtFile, SpatialAndPlainFilesAgreeOnEvents) {
  // The cell column is strictly additive: the same event sequence written
  // with and without a spatial block decodes to the same events.
  const std::vector<DeviceType> devices{DeviceType::phone};
  const std::vector<ControlEvent> evs = make_events(1'000, 1);
  std::vector<TimeMs> ts;
  std::vector<UeId> ue;
  std::vector<EventType> type;
  const std::vector<std::uint32_t> cell(evs.size(), 7);
  for (const ControlEvent& e : evs) {
    ts.push_back(e.t_ms);
    ue.push_back(e.ue_id);
    type.push_back(e.type);
  }

  tf::TraceWriter plain(path("plain.cpgt"));
  plain.begin(devices, 0, 1000);
  plain.append(evs);
  plain.finish();

  tf::SpatialInfo sp;
  sp.cols = 4;
  sp.rows = 4;
  sp.cell_m = 100.0;
  sp.fingerprint = 1;
  tf::TraceWriter spatial(path("spatial.cpgt"), {});
  spatial.begin(devices, 0, 1000, &sp);
  spatial.append(
      EventColumnsView{ts.data(), ue.data(), type.data(), ts.size(),
                       cell.data()});
  spatial.finish();

  const Trace a = tf::read_trace_cpgt(path("plain.cpgt"));
  const Trace b = tf::read_trace_cpgt(path("spatial.cpgt"));
  ASSERT_EQ(a.num_events(), b.num_events());
  const auto ea = a.events();
  const auto eb = b.events();
  EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin()));
  // And the two headers differ exactly in version.
  EXPECT_EQ(tf::TraceReader(path("plain.cpgt")).version(), 1u);
  EXPECT_EQ(tf::TraceReader(path("spatial.cpgt")).version(), 2u);
}

TEST_F(CpgtFile, EmptyTraceRoundTrip) {
  tf::TraceWriter writer(path("empty.cpgt"));
  writer.begin({}, 0, 0);
  writer.finish();
  const Trace t = tf::read_trace_cpgt(path("empty.cpgt"));
  EXPECT_EQ(t.num_ues(), 0u);
  EXPECT_EQ(t.num_events(), 0u);
}

TEST_F(CpgtFile, UnsortedTimestampsSurvive) {
  // Foreign CSV imports need not be sorted; zigzag handles regressions.
  const std::vector<DeviceType> devices{DeviceType::phone};
  std::vector<ControlEvent> evs{{5000, 0, EventType::atch},
                                {100, 0, EventType::ho},
                                {99999, 0, EventType::tau},
                                {0, 0, EventType::dtch}};
  tf::TraceWriter writer(path("u.cpgt"));
  writer.begin(devices, 0, 0);
  writer.append(evs);
  writer.finish();
  tf::TraceReader reader(path("u.cpgt"));
  std::vector<ControlEvent> block;
  ASSERT_TRUE(reader.next_events(block));
  EXPECT_EQ(block, evs);
}

// ---------------------------------------------------------------------------
// Corruption diagnostics
// ---------------------------------------------------------------------------

class CpgtCorruption : public CpgtFile {
 protected:
  // A small valid file to mutilate per test.
  std::string write_valid() {
    const std::string p = path("victim.cpgt");
    tf::TraceWriter::Options opts;
    opts.block_events = 64;
    const std::vector<DeviceType> devices{DeviceType::phone,
                                          DeviceType::tablet};
    tf::TraceWriter writer(p, opts);
    writer.begin(devices, 0, 1000);
    const auto evs = make_events(300, 2);
    writer.append(evs);
    writer.finish();
    return p;
  }

  static std::string slurp(const std::string& p) { return io::read_file(p); }

  static void spit(const std::string& p, const std::string& data) {
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os << data;
    ASSERT_TRUE(os.good());
  }

  static std::string error_of(const std::string& p) {
    try {
      Trace t = tf::read_trace_cpgt(p);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  }
};

TEST_F(CpgtCorruption, TruncatedBlockIsTornFile) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  data.resize(data.size() - 37);  // cut into the trailing blocks
  spit(p, data);
  const std::string err = error_of(p);
  EXPECT_NE(err.find("truncated block"), std::string::npos) << err;
  EXPECT_NE(err.find("resume the run or regenerate"), std::string::npos)
      << err;
  EXPECT_NE(err.find(p), std::string::npos) << err;  // names the file
}

TEST_F(CpgtCorruption, MissingEndBlockIsTornFile) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  // Remove exactly the end block (8-byte payload + frame) — a writer killed
  // between the last events block and finish().
  data.resize(data.size() - (tf::k_block_head_bytes + 8 + tf::k_crc_bytes));
  spit(p, data);
  const std::string err = error_of(p);
  EXPECT_NE(err.find("truncated block"), std::string::npos) << err;
}

TEST_F(CpgtCorruption, FlippedBitFailsCrc) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  data[data.size() / 2] ^= 0x04;  // flip one bit mid-file
  spit(p, data);
  const std::string err = error_of(p);
  EXPECT_NE(err.find("CRC mismatch"), std::string::npos) << err;
  EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
}

TEST_F(CpgtCorruption, NewerVersionIsActionable) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  data[4] = static_cast<char>(tf::k_version + 1);  // bump the version field
  spit(p, data);
  const std::string err = error_of(p);
  EXPECT_NE(err.find("newer than this build"), std::string::npos) << err;
  EXPECT_NE(err.find("trace_cat"), std::string::npos) << err;
}

TEST_F(CpgtCorruption, BadMagicIsNotACpgtFile) {
  const std::string p = path("not_cpgt");
  spit(p, "t_ms,ue_id,event\n100,0,ATCH\n");
  const std::string err = error_of(p);
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST_F(CpgtCorruption, TrailingGarbageRejected) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  data += "garbage";
  spit(p, data);
  const std::string err = error_of(p);
  EXPECT_NE(err.find("trailing data"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Salvage: recover the valid prefix of a torn file (trace_cat salvage)
// ---------------------------------------------------------------------------

class CpgtSalvage : public CpgtCorruption {
 protected:
  // All events write_valid() encodes, for prefix comparison.
  static std::vector<ControlEvent> valid_events() {
    return make_events(300, 2);
  }

  // Reads every event of a (salvaged) file back.
  static std::vector<ControlEvent> read_all(const std::string& p) {
    tf::TraceReader reader(p);
    std::vector<ControlEvent> got, block;
    while (reader.next_events(block)) {
      got.insert(got.end(), block.begin(), block.end());
    }
    return got;
  }
};

TEST_F(CpgtSalvage, IntactFileSalvagesToAnEquivalentFile) {
  const std::string p = write_valid();
  const std::string out = path("intact_out.cpgt");
  const tf::SalvageResult r = tf::salvage_trace(p, out);
  EXPECT_TRUE(r.intact);
  EXPECT_TRUE(r.failure.empty()) << r.failure;
  EXPECT_EQ(r.dropped_bytes, 0u);
  EXPECT_EQ(r.events_recovered, 300u);
  EXPECT_EQ(r.ues_recovered, 2u);
  EXPECT_EQ(read_all(out), valid_events());
  tf::TraceReader reader(out);
  EXPECT_EQ(reader.fingerprint(), tf::TraceReader(p).fingerprint());
}

TEST_F(CpgtSalvage, TruncationMidBlockRecoversTheValidPrefix) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  data.resize(data.size() - 37);  // tear into the trailing blocks
  spit(p, data);
  const std::string out = path("torn_out.cpgt");
  const tf::SalvageResult r = tf::salvage_trace(p, out);
  EXPECT_FALSE(r.intact);
  EXPECT_NE(r.failure.find("truncated block"), std::string::npos)
      << r.failure;
  EXPECT_GT(r.dropped_bytes, 0u);
  EXPECT_LT(r.valid_bytes, data.size());
  // The recovered events are an exact prefix of the original stream, and
  // the salvaged file reads cleanly end to end.
  const std::vector<ControlEvent> got = read_all(out);
  const std::vector<ControlEvent> want = valid_events();
  ASSERT_EQ(got.size(), r.events_recovered);
  ASSERT_GT(got.size(), 0u);
  ASSERT_LT(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "salvaged prefix diverges at " << i;
  }
  // The fingerprint (resume/append identity) survives salvage.
  const std::vector<DeviceType> devices{DeviceType::phone,
                                        DeviceType::tablet};
  EXPECT_EQ(tf::TraceReader(out).fingerprint(),
            tf::run_fingerprint(devices, 0, 1000));
}

TEST_F(CpgtSalvage, CutOnABlockBoundaryKeepsEveryEvent) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  // Remove exactly the end block: a writer killed between its last events
  // block and finish(). Every event is still recoverable.
  data.resize(data.size() - (tf::k_block_head_bytes + 8 + tf::k_crc_bytes));
  spit(p, data);
  const std::string out = path("boundary_out.cpgt");
  const tf::SalvageResult r = tf::salvage_trace(p, out);
  EXPECT_FALSE(r.intact);
  EXPECT_NE(r.failure.find("missing end block"), std::string::npos)
      << r.failure;
  EXPECT_EQ(r.events_recovered, 300u);
  EXPECT_EQ(r.dropped_bytes, 0u);
  EXPECT_EQ(read_all(out), valid_events());
}

TEST_F(CpgtSalvage, CrcFailureStopsTheScanAtTheCorruptBlock) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  data[data.size() / 2] ^= 0x04;  // flip one bit mid-file
  spit(p, data);
  const std::string out = path("crc_out.cpgt");
  const tf::SalvageResult r = tf::salvage_trace(p, out);
  EXPECT_FALSE(r.intact);
  EXPECT_NE(r.failure.find("CRC mismatch"), std::string::npos) << r.failure;
  EXPECT_GT(r.dropped_bytes, 0u);
  const std::vector<ControlEvent> got = read_all(out);
  const std::vector<ControlEvent> want = valid_events();
  ASSERT_EQ(got.size(), r.events_recovered);
  ASSERT_LT(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]);
  }
}

TEST_F(CpgtSalvage, TrailingGarbageAfterTheEndBlockIsDropped) {
  const std::string p = write_valid();
  std::string data = slurp(p);
  data += "garbage";  // an interrupted append after a clean finish
  spit(p, data);
  const std::string out = path("trail_out.cpgt");
  const tf::SalvageResult r = tf::salvage_trace(p, out);
  EXPECT_FALSE(r.intact);
  EXPECT_NE(r.failure.find("trailing bytes after the end block"),
            std::string::npos)
      << r.failure;
  EXPECT_EQ(r.events_recovered, 300u);
  EXPECT_EQ(r.dropped_bytes, std::string("garbage").size());
  EXPECT_EQ(read_all(out), valid_events());
}

TEST_F(CpgtSalvage, UnusableHeaderIsNotSalvageable) {
  const std::string p = path("stub.cpgt");
  spit(p, "cpgt");  // truncated inside the 16-byte header
  EXPECT_THROW(tf::salvage_trace(p, path("stub_out.cpgt")),
               std::runtime_error);
  const std::string csv = path("not_cpgt.csv");
  spit(csv, "t_ms,ue_id,event\n100,0,ATCH\n");
  EXPECT_THROW(tf::salvage_trace(csv, path("csv_out.cpgt")),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// BinarySink: delivery, checkpoint kill/resume, retry safety
// ---------------------------------------------------------------------------

stream::StreamHeader header_for(const std::vector<DeviceType>& devices,
                                TimeMs t_begin, TimeMs t_end) {
  stream::StreamHeader h;
  h.ue_devices = devices;
  h.t_begin = t_begin;
  h.t_end = t_end;
  return h;
}

TEST_F(CpgtFile, BinarySinkWritesReadableFile) {
  const std::vector<DeviceType> devices{DeviceType::phone, DeviceType::tablet};
  const auto evs = make_events(5000, devices.size());
  stream::BinarySink sink(path("run"), /*block_events=*/512);
  sink.on_start(header_for(devices, 0, 1000));
  sink.on_events({evs.data(), 2000});
  sink.on_events({evs.data() + 2000, 3000});
  sink.on_finish();
  EXPECT_EQ(sink.events_written(), evs.size());
  // The tmp staging file is gone; the final file parses.
  EXPECT_FALSE(std::filesystem::exists(path("run.cpgt.tmp")));
  const Trace t = tf::read_trace_cpgt(path("run.cpgt"));
  EXPECT_EQ(t.num_events(), evs.size());
}

TEST_F(CpgtFile, BinarySinkCheckpointKillResume) {
  const std::vector<DeviceType> devices{DeviceType::phone};
  const auto evs = make_events(4000, 1);
  const auto header = header_for(devices, 0, 1000);

  // Reference: one uninterrupted run.
  {
    stream::BinarySink ref(path("ref"), 128);
    ref.on_start(header);
    ref.on_events(evs);
    ref.on_finish();
  }

  // Killed run: deliver a prefix, checkpoint, deliver more (lost on kill).
  std::string token;
  {
    stream::BinarySink sink(path("killed"), 128);
    sink.on_start(header);
    sink.on_events({evs.data(), 1500});
    token = sink.checkpoint_save();
    sink.on_events({evs.data() + 1500, 1000});
    // The sink dies here (no on_finish): the tmp file holds uncommitted
    // blocks past the token offset.
  }
  ASSERT_FALSE(token.empty());

  // Resume: truncate back to the token, re-deliver the tail.
  {
    stream::BinarySink sink(path("killed"), 128);
    sink.checkpoint_resume(token, header);
    sink.on_events({evs.data() + 1500, evs.size() - 1500});
    sink.on_finish();
  }

  // The resumed file converts to the same trace as the reference. (Block
  // boundaries may differ — identity is of the *decoded* stream.)
  const Trace a = tf::read_trace_cpgt(path("ref.cpgt"));
  const Trace b = tf::read_trace_cpgt(path("killed.cpgt"));
  ASSERT_EQ(a.num_events(), b.num_events());
  EXPECT_TRUE(std::equal(a.events().begin(), a.events().end(),
                         b.events().begin()));
}

TEST_F(CpgtFile, BinarySinkResumeRejectsForeignFile) {
  const std::vector<DeviceType> devices{DeviceType::phone};
  const auto header = header_for(devices, 0, 1000);
  std::string token;
  {
    stream::BinarySink sink(path("a"));
    sink.on_start(header);
    sink.on_events(make_events(10, 1));
    token = sink.checkpoint_save();
  }
  // Same token against a *different* run configuration: the fingerprint in
  // the on-disk header no longer matches.
  const std::vector<DeviceType> other_devices{DeviceType::tablet,
                                              DeviceType::phone};
  const auto other = header_for(other_devices, 0, 9999);
  stream::BinarySink sink(path("a"));
  try {
    sink.checkpoint_resume(token, other);
    FAIL() << "resume against a foreign file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CpgtFile, BinarySinkRetrySafeUnderResilientSink) {
  // Fail the 3rd..5th block writes; the resilient sink must retry the same
  // span and the file must come out with no duplicated and no lost events.
  const std::vector<DeviceType> devices{DeviceType::phone};
  const auto evs = make_events(6000, 1);

  stream::BinarySink sink(path("retry"), /*block_events=*/256);
  stream::ResilientSinkOptions opts;
  opts.policy = stream::SinkPolicy::fail;
  opts.retry.max_attempts = 4;
  stream::FakeRetryClock clock;
  stream::ResilientSink supervised(sink, opts, &clock);

  fault::FailpointSpec spec;
  spec.action = fault::Action::error;
  spec.probability = 1.0;
  spec.skip = 3;       // let header/ues + first blocks through
  spec.max_fires = 3;  // then fail three consecutive write attempts
  fault::arm("cpgt.write_block", spec);

  supervised.on_start(header_for(devices, 0, 1000));
  // Deliver in spans smaller than a multiple of the block size, so failures
  // land mid-span as well as at span boundaries.
  std::size_t i = 0;
  while (i < evs.size()) {
    const std::size_t n = std::min<std::size_t>(700, evs.size() - i);
    supervised.on_events({evs.data() + i, n});
    i += n;
  }
  supervised.on_finish();
  fault::disarm_all();

  EXPECT_GT(supervised.stats().retries, 0u);
  EXPECT_EQ(supervised.stats().dropped_events, 0u);
  const Trace t = tf::read_trace_cpgt(path("retry.cpgt"));
  ASSERT_EQ(t.num_events(), evs.size());
  EXPECT_TRUE(
      std::equal(t.events().begin(), t.events().end(), evs.begin()));
}

// ---------------------------------------------------------------------------
// cpgt <-> CSV byte identity (the trace_cat contract, exercised in-process)
// ---------------------------------------------------------------------------

// Writes `trace` through both sinks and checks the cpgt file re-encodes to
// the exact CSV bytes — the invariant `trace_cat to-csv` relies on.
void expect_csv_cpgt_identity(const Trace& trace, const std::string& prefix) {
  stream::StreamHeader header;
  header.ue_devices = trace.devices();
  header.t_begin = trace.empty() ? 0 : trace.begin_time();
  header.t_end = trace.empty() ? 0 : trace.end_time();

  stream::CsvSink csv(prefix + "_csv");
  csv.on_start(header);
  csv.on_events(trace.events());
  csv.on_finish();

  stream::BinarySink bin(prefix + "_bin", 1000);
  bin.on_start(header);
  bin.on_events(trace.events());
  bin.on_finish();

  // Re-encode the cpgt file as CSV (what trace_cat to-csv does).
  tf::TraceReader reader(prefix + "_bin.cpgt");
  std::ostringstream ues, events;
  io::write_ues_csv_header(ues);
  for (std::size_t u = 0; u < reader.devices().size(); ++u) {
    io::append_ue_csv(ues, static_cast<UeId>(u), reader.devices()[u]);
  }
  io::write_events_csv_header(events);
  std::vector<ControlEvent> block;
  while (reader.next_events(block)) {
    for (const ControlEvent& e : block) io::append_event_csv(events, e);
  }

  EXPECT_EQ(events.str(), io::read_file(prefix + "_csv_events.csv"));
  EXPECT_EQ(ues.str(), io::read_file(prefix + "_csv_ues.csv"));
}

TEST_F(CpgtFile, CsvIdentityOverGroundTruthTraces) {
  // Property over several synthetic populations (different seeds => churn
  // in event mix, timestamps, and registry composition).
  for (const std::uint64_t seed : {7u, 19u, 311u}) {
    const Trace t = testutil::small_ground_truth(60, 6.0, seed);
    ASSERT_GT(t.num_events(), 0u);
    expect_csv_cpgt_identity(t, path("gt" + std::to_string(seed)));
  }
}

// ---------------------------------------------------------------------------
// io::write_file_atomic
// ---------------------------------------------------------------------------

TEST_F(CpgtFile, WriteFileAtomicReplaces) {
  const std::string p = path("atomic.txt");
  io::write_file_atomic(p, "first");
  EXPECT_EQ(io::read_file(p), "first");
  io::write_file_atomic(p, "second, longer payload");
  EXPECT_EQ(io::read_file(p), "second, longer payload");
  EXPECT_FALSE(std::filesystem::exists(p + ".tmp"));
}

TEST_F(CpgtFile, WriteFileAtomicFailpointLeavesOldFile) {
  const std::string p = path("atomic.txt");
  io::write_file_atomic(p, "keep me");
  fault::FailpointSpec spec;
  spec.action = fault::Action::error;
  fault::arm("io.write_file", spec);
  EXPECT_THROW(io::write_file_atomic(p, "never lands"), fault::InjectedFault);
  fault::disarm_all();
  EXPECT_EQ(io::read_file(p), "keep me");
}

}  // namespace
}  // namespace cpg
