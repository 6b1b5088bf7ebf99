// CSV import/export of control-plane traces.
//
// Format (one header line, then one line per event, time-ordered):
//   t_ms,ue_id,event
//   1234,17,SRV_REQ
// UE metadata travels in a companion file:
//   ue_id,device
//   17,phone
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/trace.h"

namespace cpg::io {

// Longest row format_event_row writes: an INT64_MIN timestamp (20 chars),
// a 10-digit UE id, the longest event name (S1_CONN_REL, 11), a 10-digit
// cell, three commas and the newline.
inline constexpr std::size_t k_max_event_row = 20 + 10 + 11 + 10 + 3 + 1;

// The one event-row formatter every CSV writer goes through: writes
// `t_ms,ue_id,event\n`, or `t_ms,ue_id,event,cell\n` when `cell` is given,
// to `out` (room for k_max_event_row chars) and returns one past the last
// char written. std::to_chars makes the bytes independent of any stream's
// locale and format flags.
inline char* format_event_row(
    char* out, TimeMs t, UeId ue, EventType type,
    std::optional<std::uint32_t> cell = std::nullopt) noexcept {
  out = std::to_chars(out, out + 20, t).ptr;
  *out++ = ',';
  out = std::to_chars(out, out + 10, ue).ptr;
  *out++ = ',';
  const std::string_view name = to_string(type);
  std::memcpy(out, name.data(), name.size());
  out += name.size();
  if (cell.has_value()) {
    *out++ = ',';
    out = std::to_chars(out, out + 10, *cell).ptr;
  }
  *out++ = '\n';
  return out;
}

void write_events_csv(const Trace& trace, std::ostream& os);
void write_ues_csv(const Trace& trace, std::ostream& os);

// Incremental variants used by the streaming runtime (src/stream/): write
// the header once, then one row per event as it arrives (one os.write per
// row). Byte-compatible with write_events_csv / write_ues_csv over the same
// data; a `cell` adds the fourth column of trace_cat's spatial CSV.
void write_events_csv_header(std::ostream& os);
void append_event_csv(std::ostream& os, const ControlEvent& e,
                      std::optional<std::uint32_t> cell = std::nullopt);
void write_ues_csv_header(std::ostream& os);
void append_ue_csv(std::ostream& os, UeId ue, DeviceType device);

// Convenience: writes <prefix>_events.csv and <prefix>_ues.csv.
void write_trace(const Trace& trace, const std::string& path_prefix);

// Reads the two-file format back; throws std::runtime_error on malformed
// input. The returned trace is finalized.
Trace read_trace(const std::string& path_prefix);

Trace read_trace_streams(std::istream& ues, std::istream& events);

}  // namespace cpg::io
