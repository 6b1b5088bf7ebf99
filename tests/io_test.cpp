#include <gtest/gtest.h>

#include <cstddef>
#include <iomanip>
#include <limits>
#include <locale>
#include <sstream>

#include "io/csv.h"
#include "io/table.h"

namespace cpg::io {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"Event", "P", "CC"});
  t.add_row({"SRV_REQ", "45.5%", "38.9%"});
  t.add_rule();
  t.add_row({"HO", "3.8%", "6.6%"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Event   |"), std::string::npos);
  EXPECT_NE(s.find("| SRV_REQ | 45.5% | 38.9% |"), std::string::npos);
  EXPECT_NE(s.find("| HO      |"), std::string::npos);
  // Rule lines (4 total: top, under header, mid, bottom).
  std::size_t rules = 0;
  std::istringstream lines(s);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
  EXPECT_EQ(t.num_rows(), 3u);  // incl. the rule marker
}

TEST(Table, ShortRowsArePadded) {
  Table t({"A", "B"});
  t.add_row({"x"});
  EXPECT_NE(t.to_string().find("| x | "), std::string::npos);
}

TEST(Format, Percent) {
  EXPECT_EQ(fmt_pct(0.455), "45.5%");
  EXPECT_EQ(fmt_pct(0.0), "0.0%");
  EXPECT_EQ(fmt_pct(0.12345, 2), "12.35%");
}

TEST(Format, SignedPercent) {
  EXPECT_EQ(fmt_signed_pct(0.014), "+1.4%");
  EXPECT_EQ(fmt_signed_pct(-0.455), "-45.5%");
  EXPECT_EQ(fmt_signed_pct(0.0), "+0.0%");
}

TEST(Format, DoubleAndCount) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1234), "1,234");
  EXPECT_EQ(fmt_count(1234567890), "1,234,567,890");
}

Trace sample_trace() {
  Trace t;
  const UeId p = t.add_ue(DeviceType::phone);
  const UeId c = t.add_ue(DeviceType::connected_car);
  t.add_event(100, p, EventType::atch);
  t.add_event(250, c, EventType::srv_req);
  t.add_event(900, p, EventType::s1_conn_rel);
  t.finalize();
  return t;
}

TEST(Csv, WriteFormat) {
  std::ostringstream events, ues;
  const Trace t = sample_trace();
  write_events_csv(t, events);
  write_ues_csv(t, ues);
  EXPECT_EQ(events.str(),
            "t_ms,ue_id,event\n"
            "100,0,ATCH\n"
            "250,1,SRV_REQ\n"
            "900,0,S1_CONN_REL\n");
  EXPECT_EQ(ues.str(),
            "ue_id,device\n"
            "0,phone\n"
            "1,connected_car\n");
}

// Literal rows at the edges of every field, so a change in how rows are
// formatted cannot pass by agreeing with itself.
TEST(Csv, EventRowsAtTheEdges) {
  constexpr TimeMs t_min = std::numeric_limits<TimeMs>::min();
  constexpr TimeMs t_max = std::numeric_limits<TimeMs>::max();
  constexpr UeId ue_max = std::numeric_limits<UeId>::max();
  std::ostringstream os;
  append_event_csv(os, {0, 0, EventType::atch});
  append_event_csv(os, {t_min, ue_max, EventType::dtch});
  append_event_csv(os, {t_max, 0, EventType::srv_req});
  append_event_csv(os, {-1, 4294967294u, EventType::s1_conn_rel});
  append_event_csv(os, {1, 1, EventType::ho});
  append_event_csv(os, {86'400'000, 17, EventType::tau});
  append_event_csv(os, {t_min, ue_max, EventType::s1_conn_rel}, 4294967295u);
  append_event_csv(os, {250, 3, EventType::ho}, 0u);
  EXPECT_EQ(os.str(),
            "0,0,ATCH\n"
            "-9223372036854775808,4294967295,DTCH\n"
            "9223372036854775807,0,SRV_REQ\n"
            "-1,4294967294,S1_CONN_REL\n"
            "1,1,HO\n"
            "86400000,17,TAU\n"
            "-9223372036854775808,4294967295,S1_CONN_REL,4294967295\n"
            "250,3,HO,0\n");
  // The last-but-one row is the longest one the formatter can write.
  char row[k_max_event_row];
  EXPECT_EQ(format_event_row(row, t_min, ue_max, EventType::s1_conn_rel,
                             4294967295u) -
                row,
            static_cast<std::ptrdiff_t>(k_max_event_row));
}

// Digit grouping and format flags on the stream must not reach the rows.
TEST(Csv, RowsIgnoreStreamLocaleAndFlags) {
  struct Grouped final : std::numpunct<char> {
    char do_thousands_sep() const override { return '\''; }
    std::string do_grouping() const override { return "\3"; }
  };
  std::ostringstream os;
  os.imbue(std::locale(os.getloc(), new Grouped));
  os << std::hex << std::showpos << std::setw(30) << std::setfill('*');
  append_event_csv(os, {1'234'567, 4'000'000'000u, EventType::srv_req}, 65536u);
  append_ue_csv(os, 1'000'000, DeviceType::connected_car);
  EXPECT_EQ(os.str(),
            "1234567,4000000000,SRV_REQ,65536\n"
            "1000000,connected_car\n");
}

TEST(Csv, RoundTrip) {
  const Trace t = sample_trace();
  std::ostringstream events, ues;
  write_events_csv(t, events);
  write_ues_csv(t, ues);
  std::istringstream events_in(events.str()), ues_in(ues.str());
  const Trace back = read_trace_streams(ues_in, events_in);
  ASSERT_EQ(back.num_ues(), t.num_ues());
  ASSERT_EQ(back.num_events(), t.num_events());
  for (std::size_t i = 0; i < t.num_events(); ++i) {
    EXPECT_EQ(back.events()[i], t.events()[i]);
  }
  EXPECT_EQ(back.device(0), DeviceType::phone);
  EXPECT_EQ(back.device(1), DeviceType::connected_car);
}

TEST(Csv, RejectsMalformedInput) {
  {
    std::istringstream ues("wrong header\n"), events("t_ms,ue_id,event\n");
    EXPECT_THROW(read_trace_streams(ues, events), std::runtime_error);
  }
  {
    std::istringstream ues("ue_id,device\n0,phone\n");
    std::istringstream events("t_ms,ue_id,event\nabc,0,ATCH\n");
    EXPECT_THROW(read_trace_streams(ues, events), std::runtime_error);
  }
  {
    std::istringstream ues("ue_id,device\n0,phone\n");
    std::istringstream events("t_ms,ue_id,event\n1,0,NOT_AN_EVENT\n");
    EXPECT_THROW(read_trace_streams(ues, events), std::runtime_error);
  }
  {
    std::istringstream ues("ue_id,device\n5,phone\n");  // non-dense id
    std::istringstream events("t_ms,ue_id,event\n");
    EXPECT_THROW(read_trace_streams(ues, events), std::runtime_error);
  }
}

TEST(Csv, FileRoundTrip) {
  const Trace t = sample_trace();
  const std::string prefix = ::testing::TempDir() + "/cpg_csv_test";
  write_trace(t, prefix);
  const Trace back = read_trace(prefix);
  EXPECT_EQ(back.num_events(), t.num_events());
}

}  // namespace
}  // namespace cpg::io
