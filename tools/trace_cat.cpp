// trace_cat — convert and inspect cpgt columnar binary traces.
//
//   trace_cat to-csv  <in.cpgt> <out-prefix>   cpgt -> <out-prefix>_{events,ues}.csv
//   trace_cat to-cpgt <in-prefix> <out.cpgt>   CSV pair -> cpgt
//   trace_cat info    <in.cpgt>                header + block summary
//   trace_cat heatmap <in.cpgt>                per-cell event counts (v2)
//
// to-csv emits exactly the bytes `stream_gen --format csv` would have
// written for the same stream (same io::append_* formatting, same canonical
// event order), so a cpgt run converts to a CSV run byte-identically — the
// invariant scripts/dist_smoke.sh checks across rank counts and
// kill/resume. to-cpgt inverts it: CSV -> cpgt -> CSV round-trips
// byte-identically for any canonically ordered trace.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "io/csv.h"
#include "trace_fmt/cpgt.h"
#include "trace_fmt/reader.h"
#include "trace_fmt/salvage.h"
#include "trace_fmt/writer.h"

namespace {

using namespace cpg;

constexpr const char* k_usage = R"(usage: trace_cat <command> ...
  to-csv <in.cpgt> <out-prefix>    convert to <out-prefix>_{events,ues}.csv;
                                   spatial traces (cpgt v2) gain a fourth
                                   `cell` column, plain traces stay
                                   byte-identical to stream_gen CSV output
  to-cpgt <in-prefix> <out.cpgt>   convert <in-prefix>_{events,ues}.csv to cpgt
  info <in.cpgt>                   print header and block summary
  heatmap <in.cpgt> [<t0> <t1>]    per-cell event counts of a spatial trace:
                                   one `cell <id> <col> <row> <events>` line
                                   per nonzero cell plus a summary; with
                                   <t0> <t1> only events with t0 <= t_ms < t1
                                   count (isolating e.g. a storm window)
  salvage <in.cpgt> <out.cpgt>     recover the valid prefix of a torn or
                                   corrupt file: blocks up to the first CRC
                                   or framing failure are kept and closed
                                   with a fresh end block
)";

void checked(std::ostream& os, const std::string& path) {
  if (!os) {
    throw std::runtime_error("write failed for " + path +
                             " (disk full or path not writable)");
  }
}

int to_csv(const std::string& in, const std::string& out_prefix) {
  trace_fmt::TraceReader reader(in);

  const std::string ues_path = out_prefix + "_ues.csv";
  std::ofstream ues(ues_path, std::ios::trunc);
  if (!ues) throw std::runtime_error("cannot open " + ues_path);
  io::write_ues_csv_header(ues);
  const auto& devices = reader.devices();
  for (std::size_t u = 0; u < devices.size(); ++u) {
    io::append_ue_csv(ues, static_cast<UeId>(u), devices[u]);
  }
  ues.flush();
  checked(ues, ues_path);

  const std::string events_path = out_prefix + "_events.csv";
  std::ofstream events(events_path, std::ios::trunc);
  if (!events) throw std::runtime_error("cannot open " + events_path);
  // Spatial traces add a `cell` column; plain traces keep the exact bytes
  // stream_gen --format csv writes.
  const bool cells = reader.has_spatial();
  if (cells) {
    events << "t_ms,ue_id,event,cell\n";
  } else {
    io::write_events_csv_header(events);
  }
  std::vector<ControlEvent> block;
  std::uint64_t n = 0;
  while (reader.next_events(block)) {
    const std::vector<std::uint32_t>& cell = reader.cells();
    if (cells && cell.size() != block.size()) {
      throw std::runtime_error(in +
                               ": spatial trace has an events block "
                               "without its cell column");
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
      io::append_event_csv(events, block[i],
                           cells ? std::optional(cell[i]) : std::nullopt);
    }
    checked(events, events_path);
    n += block.size();
  }
  events.flush();
  checked(events, events_path);
  std::cerr << "wrote " << out_prefix << "_{events,ues}.csv (" << n
            << " events, " << devices.size() << " UEs)\n";
  return 0;
}

int to_cpgt(const std::string& in_prefix, const std::string& out) {
  const Trace trace = io::read_trace(in_prefix);
  // A converted file has no generation window; fingerprint over the
  // registry alone (t_begin = t_end = 0) still ties resumes/appends to the
  // same population.
  trace_fmt::TraceWriter writer(out);
  writer.begin(trace.devices(), 0, 0);
  writer.append(trace.events());
  writer.finish();
  std::cerr << "wrote " << out << " (" << trace.num_events() << " events, "
            << trace.num_ues() << " UEs)\n";
  return 0;
}

int info(const std::string& in) {
  trace_fmt::TraceReader reader(in);
  std::cout << "file:        " << in << "\n"
            << "version:     " << reader.version() << "\n"
            << "fingerprint: " << reader.fingerprint() << "\n"
            << "ues:         " << reader.devices().size() << "\n"
            << "read via:    " << (reader.mapped() ? "mmap" : "buffered")
            << "\n";
  if (reader.has_spatial()) {
    const trace_fmt::SpatialInfo& sp = reader.spatial();
    std::cout << "spatial:     " << sp.cols << "x" << sp.rows << " cells of "
              << sp.cell_m << " m (" << (sp.wrap ? "wrap" : "clip")
              << ", ta_block=" << sp.ta_block << ", fingerprint "
              << sp.fingerprint << ")\n";
  }
  std::vector<ControlEvent> block;
  std::uint64_t blocks = 0;
  TimeMs t_first = 0, t_last = 0;
  bool any = false;
  while (reader.next_events(block)) {
    ++blocks;
    if (!block.empty()) {
      if (!any) t_first = block.front().t_ms;
      t_last = block.back().t_ms;
      any = true;
    }
  }
  std::cout << "events:      " << reader.total_events() << "\n"
            << "blocks:      " << blocks << "\n";
  if (any) {
    std::cout << "t_ms range:  [" << t_first << ", " << t_last << "]\n";
  }
  return 0;
}

// Per-cell load of a spatial trace. Output is line-oriented for scripting
// (scripts/spatial_smoke.sh greps it): one `cell <id> <col> <row> <events>`
// line per nonzero cell in id order, then `cells <nonzero>/<total>`,
// `max_cell_events <n>` and `mean_nonzero_events <x>` summary lines.
int heatmap(const std::string& in, TimeMs t0, TimeMs t1) {
  trace_fmt::TraceReader reader(in);
  if (!reader.has_spatial()) {
    throw std::runtime_error(in +
                             ": not a spatial trace (no grid geometry "
                             "block; generate with stream_gen --spatial)");
  }
  const trace_fmt::SpatialInfo& sp = reader.spatial();
  const std::uint64_t num_cells =
      static_cast<std::uint64_t>(sp.cols) * sp.rows;
  std::vector<std::uint64_t> counts(num_cells, 0);
  std::vector<ControlEvent> block;
  while (reader.next_events(block)) {
    const std::vector<std::uint32_t>& cell = reader.cells();
    if (cell.size() != block.size()) {
      throw std::runtime_error(
          in + ": spatial trace has an events block without its cell column");
    }
    for (std::size_t i = 0; i < cell.size(); ++i) {
      const std::uint32_t c = cell[i];
      if (c >= num_cells) {
        throw std::runtime_error(in + ": cell id " + std::to_string(c) +
                                 " outside the " + std::to_string(sp.cols) +
                                 "x" + std::to_string(sp.rows) + " grid");
      }
      if (block[i].t_ms < t0 || block[i].t_ms >= t1) continue;
      ++counts[c];
    }
  }
  std::uint64_t nonzero = 0, max_events = 0, sum = 0;
  for (std::uint64_t c = 0; c < num_cells; ++c) {
    if (counts[c] == 0) continue;
    ++nonzero;
    sum += counts[c];
    max_events = std::max(max_events, counts[c]);
    std::cout << "cell " << c << " " << (c % sp.cols) << " " << (c / sp.cols)
              << " " << counts[c] << "\n";
  }
  std::cout << "cells " << nonzero << "/" << num_cells << "\n"
            << "max_cell_events " << max_events << "\n"
            << "mean_nonzero_events "
            << (nonzero > 0 ? static_cast<double>(sum) /
                                  static_cast<double>(nonzero)
                            : 0.0)
            << "\n";
  return 0;
}

int salvage(const std::string& in, const std::string& out) {
  const trace_fmt::SalvageResult r = trace_fmt::salvage_trace(in, out);
  if (r.intact) {
    std::cerr << "input is intact (clean end block); copied "
              << r.blocks_recovered << " block(s), " << r.events_recovered
              << " events, " << r.ues_recovered << " UEs\n";
    return 0;
  }
  std::cerr << "torn input: " << r.failure << "\n"
            << "recovered " << r.blocks_recovered << " block(s), "
            << r.events_recovered << " events, " << r.ues_recovered
            << " UEs up to byte offset " << r.valid_bytes << "; dropped "
            << r.dropped_bytes << " byte(s)\n"
            << "wrote " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc >= 2 ? argv[1] : "";
    if (cmd == "to-csv" && argc == 4) return to_csv(argv[2], argv[3]);
    if (cmd == "to-cpgt" && argc == 4) return to_cpgt(argv[2], argv[3]);
    if (cmd == "info" && argc == 3) return info(argv[2]);
    if (cmd == "heatmap" && (argc == 3 || argc == 5)) {
      const TimeMs t0 = argc == 5 ? std::stoll(argv[3])
                                  : std::numeric_limits<TimeMs>::min();
      const TimeMs t1 = argc == 5 ? std::stoll(argv[4])
                                  : std::numeric_limits<TimeMs>::max();
      return heatmap(argv[2], t0, t1);
    }
    if (cmd == "salvage" && argc == 4) return salvage(argv[2], argv[3]);
    if (cmd == "--help" || cmd == "help") {
      std::cout << k_usage;
      return 0;
    }
    std::cerr << k_usage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
