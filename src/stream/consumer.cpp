#include "stream/consumer.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "spatial/config.h"
#include "stream/merge.h"
#include "stream/pacing.h"
#include "stream/phase.h"
#include "trace_fmt/cpgt.h"

namespace cpg::stream {

SliceGrid::SliceGrid(const PopulationPlan& plan, TimeMs slice)
    : t_begin(plan.t_begin),
      t_end(plan.t_end),
      slice_ms(std::max<TimeMs>(1, slice)) {
  if (!plan.device_of.empty() && t_end > t_begin) {
    num_slices =
        static_cast<std::uint64_t>((t_end - t_begin + slice_ms - 1) / slice_ms);
  }
}

namespace {

// Scenario bookkeeping: the StreamStats lifecycle tallies and the
// cpg_scenario_* instruments, registered only for scenario runs (plans with
// a nonzero fingerprint) and maintained on the delivery thread. The plan's
// segment start and end marks are kept in time order and rolled forward
// once per slice; stationary plans have none.
class Lifecycle {
 public:
  Lifecycle(const PopulationPlan& plan, obs::Registry* metrics) {
    if (plan.fingerprint == 0) return;
    if (metrics != nullptr) {
      active_ues_ = &metrics->gauge(
          "cpg_scenario_active_ues",
          "UEs with a currently open plan segment (scheduled population)");
      phase_ = &metrics->gauge(
          "cpg_scenario_phase",
          "Index of the active scenario phase (-1 between phases)");
      joins_ = &metrics->counter("cpg_scenario_cohort_joins_total",
                                 "UEs that joined the population mid-run");
      leaves_ = &metrics->counter(
          "cpg_scenario_cohort_leaves_total",
          "UEs that left the population before the run end");
      migrations_ = &metrics->counter(
          "cpg_scenario_migrations_total",
          "UEs handed off to another model by a migration wave");
    }
    starts_.reserve(plan.segments.size());
    ends_.reserve(plan.segments.size());
    for (const UeSegment& seg : plan.segments) {
      starts_.push_back({seg.t_start, seg.counts_join, seg.counts_migration});
      ends_.push_back({seg.t_end, seg.counts_leave});
    }
    // Plan order is already sorted by t_start; ends are not.
    std::sort(ends_.begin(), ends_.end(),
              [](const EndMark& a, const EndMark& b) { return a.t < b.t; });
    publish();
  }

  void set_phase(int idx) {
    if (phase_ != nullptr) phase_->set(idx);
  }

  // Passes every segment that starts before `t` or ends at or before it,
  // tallying into `stats` — or silently when null: a resumed run counts
  // only what this process schedules, like stats.events.
  void roll_to(TimeMs t, StreamStats* stats) {
    while (next_start_ < starts_.size() && starts_[next_start_].t < t) {
      const StartMark& m = starts_[next_start_++];
      if (stats == nullptr) continue;
      if (m.join) {
        ++stats->cohort_joins;
        if (joins_ != nullptr) joins_->inc();
      }
      if (m.migration) {
        ++stats->migrations;
        if (migrations_ != nullptr) migrations_->inc();
      }
    }
    while (next_end_ < ends_.size() && ends_[next_end_].t <= t) {
      if (ends_[next_end_++].leave && stats != nullptr) {
        ++stats->cohort_leaves;
        if (leaves_ != nullptr) leaves_->inc();
      }
    }
    publish();
  }

 private:
  struct StartMark {
    TimeMs t;
    bool join;
    bool migration;
  };
  struct EndMark {
    TimeMs t;
    bool leave;
  };

  void publish() const {
    if (active_ues_ != nullptr) {
      active_ues_->set(static_cast<std::int64_t>(next_start_ - next_end_));
    }
  }

  obs::Gauge* active_ues_ = nullptr;
  obs::Gauge* phase_ = nullptr;
  obs::Counter* joins_ = nullptr;
  obs::Counter* leaves_ = nullptr;
  obs::Counter* migrations_ = nullptr;
  std::vector<StartMark> starts_;
  std::vector<EndMark> ends_;
  std::size_t next_start_ = 0;
  std::size_t next_end_ = 0;
};

// Per-cell load accounting (cpg_spatial_cell_events_total): a delivered
// slice is tallied into a dense per-cell array, then flushed to lazily
// registered labeled counters — one array increment per event plus one
// counter inc per touched cell per slice, never a label lookup per event.
// The registry folds cells beyond its cardinality cap into cell="other"
// (obs/metrics.h).
class CellTally {
 public:
  CellTally(const spatial::SpatialConfig* cfg, obs::Registry* metrics)
      : metrics_(metrics) {
    if (cfg != nullptr && metrics != nullptr) {
      tally_.assign(cfg->grid.num_cells(), 0);
      counters_.assign(cfg->grid.num_cells(), nullptr);
    }
  }

  void tally(const EventColumnsView& evs) {
    if (tally_.empty() || evs.cell == nullptr) return;
    for (std::size_t i = 0; i < evs.n; ++i) {
      const std::uint32_t c = evs.cell[i];
      if (tally_[c]++ == 0) touched_.push_back(c);
    }
    for (const std::uint32_t c : touched_) {
      obs::Counter*& ctr = counters_[c];
      if (ctr == nullptr) {
        ctr = &metrics_->counter("cpg_spatial_cell_events_total",
                                 "Events delivered per grid cell",
                                 obs::Labels{{"cell", std::to_string(c)}});
      }
      ctr->inc(tally_[c]);
      tally_[c] = 0;
    }
    touched_.clear();
  }

 private:
  obs::Registry* metrics_;
  std::vector<std::uint64_t> tally_;
  std::vector<std::uint32_t> touched_;
  std::vector<obs::Counter*> counters_;
};

// Unpaced delivery: one sorted batch split at the schedule's pending phase
// change points (binary search on the timestamp column). Spans with no
// boundary inside reach the sink in one on_event_columns call, and
// `apply(phase_index)` fires for every point crossed (-1 = gap) before the
// first event at or after it.
template <typename Apply>
void deliver_phased_columns(EventSink& sink, const EventColumnsView& evs,
                            PhaseSchedule& schedule, Apply&& apply) {
  std::size_t i = 0;
  while (schedule.has_pending() && !evs.empty() &&
         evs.ts[evs.n - 1] >= schedule.next_time()) {
    const TimeMs* it = std::lower_bound(evs.ts + i, evs.ts + evs.n,
                                        schedule.next_time());
    const auto cut = static_cast<std::size_t>(it - evs.ts);
    if (cut > i) sink.on_event_columns(evs.subview(i, cut - i));
    schedule.fire_until(*it, apply);
    i = cut;
  }
  if (i < evs.n || i == 0) sink.on_event_columns(evs.subview(i, evs.n - i));
}

// Paced delivery: one pace() and one on_event_columns call per run of equal
// timestamps. Phase points fire before the first run at or after them —
// where deliver_phased_columns splits, since a run of equal timestamps
// never straddles a point.
template <typename Apply>
void deliver_paced(EventSink& sink, const EventColumnsView& evs,
                   PhaseSchedule& schedule, Pacer& pacer, Apply&& apply) {
  std::size_t i = 0;
  while (i < evs.n) {
    const TimeMs t = evs.ts[i];
    std::size_t j = i + 1;
    while (j < evs.n && evs.ts[j] == t) ++j;
    schedule.fire_until(t, apply);
    pacer.pace(t);
    sink.on_event_columns(evs.subview(i, j - i));
    i = j;
  }
}

}  // namespace

StreamStats consume(const PopulationPlan& plan, const StreamOptions& options,
                    EventSink& sink, RunSource& source) {
  // Validates accelerated-clock options (std::invalid_argument) before the
  // source opens — so before any producer starts — and before the sink
  // sees on_start.
  Pacer pacer(options.clock, options.accel_factor);
  const double base_factor = pacer.factor();
  const SliceGrid grid(plan, options.slice_ms);
  const RunStart start = source.open(grid);

  StreamStats stats;
  stats.num_ues = plan.device_of.size();
  stats.start_slice = start.slice;
  const bool checkpointing =
      !options.checkpoint.dir.empty() || options.checkpoint_sink != nullptr;
  std::exception_ptr error;
  try {
    // Spatial runs announce the grid geometry to sinks (the cpgt writer's
    // v2 spatial block).
    trace_fmt::SpatialInfo spatial_info{};
    if (options.spatial != nullptr) {
      const spatial::CellGrid& g = options.spatial->grid;
      spatial_info = {g.cols, g.rows, g.cell_m, g.wrap, g.ta_block,
                      options.spatial->fingerprint()};
    }
    const StreamHeader header{
        plan.device_of, grid.t_begin, grid.t_end,
        options.spatial != nullptr ? &spatial_info : nullptr};
    auto* participant = dynamic_cast<CheckpointParticipant*>(&sink);
    if (start.sink_token.has_value() && participant != nullptr) {
      participant->checkpoint_resume(*start.sink_token, header);
    } else {
      // Non-participating sinks get a plain start on resume and see only
      // the re-generated tail — fine for stateless consumers (event_sink.h).
      sink.on_start(header);
    }

    Lifecycle lifecycle(plan, options.metrics);
    CellTally cells(options.spatial, options.metrics);
    auto* phase_sink = dynamic_cast<PhaseListener*>(&sink);
    auto* slice_sink = dynamic_cast<SliceListener*>(&sink);

    // Phase timeline, applied at exact trace times: every boundary fires
    // before the first event at or after it is delivered, so the effect
    // sequence depends only on the plan and the delivered stream — never on
    // the shard, thread, slice or rank layout.
    PhaseSchedule schedule(plan.phases);
    auto apply_phase = [&](int idx) {
      const PhaseRow* row =
          idx >= 0 ? &plan.phases[static_cast<std::size_t>(idx)] : nullptr;
      if (!pacer.passthrough()) {
        pacer.set_factor(row != nullptr && row->accel > 0.0 ? row->accel
                                                            : base_factor);
      }
      if (phase_sink != nullptr) phase_sink->on_phase(row);
      lifecycle.set_phase(idx);
    };
    // On resume, re-establish the mid-run state a previous process had
    // built up: the active phase (pacer factor, listener, gauge) and the
    // lifecycle cursors.
    if (start.slice > 0) {
      schedule.resume_at(grid.start(start.slice), apply_phase);
      lifecycle.roll_to(grid.start(start.slice), nullptr);
    }

    std::vector<EventColumns> runs(start.width);
    EventColumns merged;  // multi-run delivery buffer
    bool stopping = false;
    for (std::uint64_t k = start.slice; k < grid.num_slices; ++k) {
      // Graceful stop: once requested, wind down at a checkpoint boundary.
      // Without checkpointing the current slice boundary is as good as any
      // — stop before pulling slice k. With it, keep delivering until the
      // next cadence slice arrives with every checkpoint part, commit that
      // checkpoint (watermark k, slice k undelivered) and stop — at most
      // checkpoint.interval_slices extra slices.
      if (!stopping && options.stop_check && options.stop_check()) {
        stopping = true;
        if (!checkpointing) {
          stats.stopped = true;
          break;
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t parts = source.pull(k, runs);
      // Producers checkpoint at the same slice indices, so a slice carries
      // every part or none. The checkpoint is committed after slice k-1 was
      // fully delivered and before slice k is, with the sink's durable
      // token captured in that same quiescent window (invariant 2 in
      // checkpoint.h).
      if (parts == runs.size()) {
        source.commit(k, participant != nullptr ? participant->checkpoint_save()
                                                : std::string());
        ++stats.checkpoints_written;
        if (stopping) {
          // The checkpoint just committed resumes at slice k; delivering
          // slice k now would double it on resume.
          stats.stopped = true;
          break;
        }
      } else if (parts != 0) {
        throw std::runtime_error(
            "stream: inconsistent checkpoint at slice " + std::to_string(k) +
            " (" + std::to_string(parts) + " of " +
            std::to_string(runs.size()) + " parts)");
      }
      CPG_FAILPOINT("stream.deliver_slice");
      // Run-aware merge: runs interleave coarsely, so whole sub-spans move
      // with one columnar append each; the cell column rides along.
      EventColumnsView evs;
      if (runs.size() == 1) {
        evs = runs[0].view();
      } else {
        merged.clear();
        gallop_merge(std::span<const EventColumns>(runs),
                     [&](std::size_t r, std::size_t b, std::size_t e) {
                       merged.append(runs[r].view().subview(b, e - b));
                     });
        evs = merged.view();
      }
      if (pacer.passthrough()) {
        deliver_phased_columns(sink, evs, schedule, apply_phase);
      } else {
        deliver_paced(sink, evs, schedule, pacer, apply_phase);
      }
      stats.events += evs.size();
      cells.tally(evs);
      ++stats.slices;
      if (slice_sink != nullptr) slice_sink->on_slice_delivered(k);
      lifecycle.roll_to(grid.limit(k), &stats);
      const SliceReport report{
          evs.size(), stats.slices,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          pacer.drift_ms()};
      source.delivered(report, runs);
    }
    source.finish(stats);
  } catch (...) {
    error = std::current_exception();
  }

  // Shutdown, on every path: closing the source releases blocked producers
  // and joins them, so it always completes; then the first error surfaces.
  const std::exception_ptr source_error = source.close();
  if (error) std::rethrow_exception(error);
  if (source_error) std::rethrow_exception(source_error);
  // A graceful stop keeps its final checkpoint: it is the resume point.
  if (checkpointing && !stats.stopped) source.retire();
  sink.on_finish();
  return stats;
}

}  // namespace cpg::stream
