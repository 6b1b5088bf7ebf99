// Scenario phases: named spans of the generation window that retune the
// delivery side of a streaming run (pacing factor, core service rates)
// without touching what is generated. Phase boundaries are applied on the
// consumer thread at exact trace times, so for a fixed plan the delivered
// event sequence is independent of shard/thread/slice configuration.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/time_utils.h"

namespace cpg::stream {

// One declared phase over [t_start, t_end). Phases never overlap; in the
// gaps between them the run's defaults apply (base pacing factor, core
// service scale 1.0).
struct PhaseRow {
  std::string name;
  TimeMs t_start = 0;
  TimeMs t_end = 0;
  // Pacing factor while the phase is active (real_time / accelerated clock
  // modes only; ignored as-fast-as-possible). 0 = keep the run's base
  // factor.
  double accel = 0.0;
  // Multiplier on NF service times for live-core sinks (core degradation:
  // > 1 slows the core down). Delivered to PhaseListener sinks.
  double mcn_scale = 1.0;
};

// Optional side interface for sinks that react to phase boundaries (e.g.
// McnLiveSink rescaling NF service times). The runtime discovers it via
// dynamic_cast, like CheckpointParticipant. Called on the delivery thread
// before the first event at or after the boundary; `phase` is null when a
// gap between declared phases begins (defaults restored).
class PhaseListener {
 public:
  virtual ~PhaseListener() = default;
  virtual void on_phase(const PhaseRow* phase) = 0;
};

// A phase timeline flattened to its change points and a cursor over them:
// at each point's time, phase `phase` begins (-1 = a gap between declared
// phases; defaults apply). The consumer loop both runtimes share
// (stream/consumer.h) drives delivery through this cursor, so phase effects
// land at identical stream positions in either runtime.
class PhaseSchedule {
 public:
  PhaseSchedule() = default;

  explicit PhaseSchedule(std::span<const PhaseRow> phases) {
    points_.reserve(phases.size() * 2);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseRow& p = phases[i];
      points_.push_back({p.t_start, static_cast<int>(i)});
      if (i + 1 == phases.size() || phases[i + 1].t_start != p.t_end) {
        points_.push_back({p.t_end, -1});
      }
    }
  }

  bool has_pending() const noexcept { return next_ < points_.size(); }
  // Only valid while has_pending().
  TimeMs next_time() const noexcept { return points_[next_].t; }

  // Fires `apply(phase_index)` for every change point at or before `t`, in
  // order, advancing the cursor past them.
  template <typename Apply>
  void fire_until(TimeMs t, Apply&& apply) {
    while (next_ < points_.size() && points_[next_].t <= t) {
      apply(points_[next_].phase);
      ++next_;
    }
  }

  // Resume fast-forward: skips every change point at or before `t` and
  // applies only the last one — the phase active at `t` — so a resumed run
  // re-establishes mid-run pacing/listener state without replaying the
  // boundaries a previous process already delivered.
  template <typename Apply>
  void resume_at(TimeMs t, Apply&& apply) {
    int active = -1;
    bool fired = false;
    while (next_ < points_.size() && points_[next_].t <= t) {
      active = points_[next_].phase;
      fired = true;
      ++next_;
    }
    if (fired) apply(active);
  }

 private:
  struct Point {
    TimeMs t = 0;
    int phase = -1;
  };
  std::vector<Point> points_;
  std::size_t next_ = 0;
};

}  // namespace cpg::stream
