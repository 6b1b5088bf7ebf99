// The one delivery loop behind both runtimes. stream_generate (in-process
// shards) and dist::run_merge (remote ranks) differ only in where slice k's
// sorted runs come from and where a checkpoint goes: a RunSource.
// Everything after the runs are in hand lives once, in consume(): header,
// pacing, phases, merge and delivery, lifecycle and per-cell bookkeeping,
// SliceListener, stop polling, checkpoint commit and retirement, shutdown.
//
// Delivery is columnar: unpaced, one on_event_columns call per phase span
// of a merged slice; paced, one pace() and one call per run of equal
// timestamps.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>

#include "core/event_columns.h"
#include "stream/event_sink.h"
#include "stream/population.h"
#include "stream/stream_generator.h"

namespace cpg::stream {

// The slice grid every producer and the consumer share: slice k covers
// [start(k), limit(k)). An empty run (no UEs or an empty window) has no
// slices.
struct SliceGrid {
  TimeMs t_begin = 0;
  TimeMs t_end = 0;
  TimeMs slice_ms = 1;
  std::uint64_t num_slices = 0;

  SliceGrid() = default;
  SliceGrid(const PopulationPlan& plan, TimeMs slice_ms);

  TimeMs start(std::uint64_t k) const noexcept {
    return t_begin + static_cast<TimeMs>(k) * slice_ms;
  }
  TimeMs limit(std::uint64_t k) const noexcept {
    return k + 1 == num_slices ? t_end : start(k + 1);
  }
};

// An opened source: sorted runs per slice (shards or ranks), and where
// delivery starts — slice 0, or the checkpointed watermark plus the sink's
// resume token.
struct RunStart {
  std::size_t width = 0;
  std::uint64_t slice = 0;
  std::optional<std::string> sink_token;
};

// Handed to the source after each delivered slice, for its own instruments.
struct SliceReport {
  std::uint64_t events = 0;            // delivered in this slice
  std::uint64_t slices_delivered = 0;  // by this process, this one included
  double seconds = 0.0;                // from pull() to delivered
  double pacing_drift_ms = 0.0;
};

// Supplies slice k's sorted runs and persists or retires checkpoints. All
// calls come from the consumer's thread, in this order: open(); per slice
// pull(), commit() when a full checkpoint arrived, delivered(); finish()
// once the run completed or stopped; close() on every path; then, for a
// completed checkpointed run that closed cleanly, retire().
class RunSource {
 public:
  virtual ~RunSource() = default;

  // Validates the run, loads any resume point and launches the producers.
  virtual RunStart open(const SliceGrid& grid) = 0;

  // Fills runs[i] with slice k's sorted run i and returns how many
  // checkpoint parts arrived with the slice (width = a complete checkpoint
  // at watermark k). Throws when a producer failed.
  virtual std::size_t pull(std::uint64_t k, std::span<EventColumns> runs) = 0;

  // Persists the checkpoint at watermark k from the parts pull() returned.
  virtual void commit(std::uint64_t k, const std::string& sink_token) = 0;

  // Slice delivered: take back the run buffers, update own instruments.
  virtual void delivered(const SliceReport& report,
                         std::span<EventColumns> runs) = 0;

  // Fills num_shards and peak_buffered_events; for a completed run (not
  // stats.stopped) also cross-checks totals — the remote source collects
  // each rank's trailer (obs snapshot, finish stats) for that first.
  virtual void finish(StreamStats& stats) = 0;

  // Shuts the producers down and joins them; returns the first producer
  // error. Never throws; safe to call again.
  virtual std::exception_ptr close() noexcept = 0;

  // Removes the checkpoint of a completed run.
  virtual void retire() = 0;
};

// Delivers the run `source` produces for `plan` into `sink` and returns the
// stream's totals. Uses options.clock / accel_factor, metrics (the
// cpg_scenario_* and cpg_spatial_cell_events_total instruments), spatial
// (the header's grid geometry), stop_check, and whether checkpointing is on
// (checkpoint.dir or checkpoint_sink). Invalid pacing options throw
// std::invalid_argument before the source opens. If the sink or a producer
// throws, the source is closed and the first error rethrown.
StreamStats consume(const PopulationPlan& plan, const StreamOptions& options,
                    EventSink& sink, RunSource& source);

}  // namespace cpg::stream
