#include "io/csv.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cpg::io {

void write_events_csv_header(std::ostream& os) { os << "t_ms,ue_id,event\n"; }

void append_event_csv(std::ostream& os, const ControlEvent& e,
                      std::optional<std::uint32_t> cell) {
  char row[k_max_event_row];
  const char* end = format_event_row(row, e.t_ms, e.ue_id, e.type, cell);
  os.write(row, end - row);
}

void write_ues_csv_header(std::ostream& os) { os << "ue_id,device\n"; }

void append_ue_csv(std::ostream& os, UeId ue, DeviceType device) {
  // A 10-digit UE id, a comma, the longest device name (connected_car, 13)
  // and the newline.
  char row[10 + 1 + 13 + 1];
  char* p = std::to_chars(row, row + 10, ue).ptr;
  *p++ = ',';
  const std::string_view name = to_string(device);
  std::memcpy(p, name.data(), name.size());
  p += name.size();
  *p++ = '\n';
  os.write(row, p - row);
}

void write_events_csv(const Trace& trace, std::ostream& os) {
  write_events_csv_header(os);
  for (const ControlEvent& e : trace.events()) append_event_csv(os, e);
}

void write_ues_csv(const Trace& trace, std::ostream& os) {
  write_ues_csv_header(os);
  for (std::size_t u = 0; u < trace.num_ues(); ++u) {
    append_ue_csv(os, static_cast<UeId>(u), trace.device(static_cast<UeId>(u)));
  }
}

void write_trace(const Trace& trace, const std::string& path_prefix) {
  {
    std::ofstream events(path_prefix + "_events.csv");
    if (!events) {
      throw std::runtime_error("write_trace: cannot open events file");
    }
    write_events_csv(trace, events);
  }
  {
    std::ofstream ues(path_prefix + "_ues.csv");
    if (!ues) {
      throw std::runtime_error("write_trace: cannot open ues file");
    }
    write_ues_csv(trace, ues);
  }
}

namespace {

std::vector<std::string_view> split_csv(std::string_view line,
                                        std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

template <typename Int>
Int parse_int(std::string_view s, const char* what) {
  Int v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error(std::string("csv: malformed ") + what);
  }
  return v;
}

}  // namespace

Trace read_trace_streams(std::istream& ues, std::istream& events) {
  Trace trace;
  std::string line;
  std::vector<std::string_view> cells;

  if (!std::getline(ues, line) || line.rfind("ue_id,device", 0) != 0) {
    throw std::runtime_error("csv: missing ue header");
  }
  while (std::getline(ues, line)) {
    if (line.empty()) continue;
    split_csv(line, cells);
    if (cells.size() != 2) throw std::runtime_error("csv: bad ue row");
    const auto id = parse_int<UeId>(cells[0], "ue id");
    const auto device = parse_device_type(cells[1]);
    if (!device) throw std::runtime_error("csv: unknown device type");
    const UeId assigned = trace.add_ue(*device);
    if (assigned != id) {
      throw std::runtime_error("csv: ue ids must be dense and ordered");
    }
  }

  if (!std::getline(events, line) || line.rfind("t_ms,ue_id,event", 0) != 0) {
    throw std::runtime_error("csv: missing event header");
  }
  while (std::getline(events, line)) {
    if (line.empty()) continue;
    split_csv(line, cells);
    if (cells.size() != 3) throw std::runtime_error("csv: bad event row");
    const auto t = parse_int<TimeMs>(cells[0], "timestamp");
    const auto ue = parse_int<UeId>(cells[1], "ue id");
    const auto type = parse_event_type(cells[2]);
    if (!type) throw std::runtime_error("csv: unknown event type");
    trace.add_event(t, ue, *type);
  }
  trace.finalize();
  return trace;
}

Trace read_trace(const std::string& path_prefix) {
  std::ifstream ues(path_prefix + "_ues.csv");
  if (!ues) throw std::runtime_error("read_trace: cannot open ues file");
  std::ifstream events(path_prefix + "_events.csv");
  if (!events) throw std::runtime_error("read_trace: cannot open events file");
  return read_trace_streams(ues, events);
}

}  // namespace cpg::io
