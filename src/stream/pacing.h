// Pacing layer: maps trace time onto wall-clock time on the delivery path.
//
// as_fast_as_possible  deliver as soon as merged (offline generation).
// real_time            1 trace second per wall second — the paper's §3.1
//                      use case of driving a live MCN under test.
// accelerated          N trace seconds per wall second (N may be < 1 to
//                      slow a stream down; must be > 0 and finite —
//                      construction throws otherwise, it is never silently
//                      degraded to as-fast-as-possible).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "core/time_utils.h"

namespace cpg::stream {

enum class ClockMode : std::uint8_t {
  as_fast_as_possible = 0,
  real_time = 1,
  accelerated = 2,
};

class Pacer {
 public:
  // `accel_factor` is only used in accelerated mode and must be > 0 and
  // finite; throws std::invalid_argument otherwise.
  explicit Pacer(ClockMode mode, double accel_factor = 1.0)
      : mode_(mode),
        factor_(mode == ClockMode::real_time ? 1.0 : accel_factor) {
    if (mode_ == ClockMode::accelerated &&
        (!(accel_factor > 0.0) || !std::isfinite(accel_factor))) {
      throw std::invalid_argument(
          "Pacer: accel_factor must be > 0 and finite in accelerated mode");
    }
  }

  // Blocks until the wall clock reaches the stream position of `t_ms`. The
  // first call anchors trace time to the wall clock.
  void pace(TimeMs t_ms) {
    if (mode_ == ClockMode::as_fast_as_possible) return;
    const auto now = std::chrono::steady_clock::now();
    if (!anchored_) {
      anchored_ = true;
      anchor_wall_ = now;
      anchor_trace_ms_ = t_ms;
      return;
    }
    const double ahead_ms =
        static_cast<double>(t_ms - anchor_trace_ms_) / factor_;
    const auto target =
        anchor_wall_ + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(ahead_ms));
    if (target > now) {
      drift_ms_ = 0.0;
      std::this_thread::sleep_until(target);
    } else {
      // Delivery is running behind its wall-clock schedule (slow sink or
      // slow generation) — the stream's pacing drift.
      drift_ms_ =
          std::chrono::duration<double, std::milli>(now - target).count();
    }
  }

  // Retunes the pacing factor mid-stream (scenario phase boundaries) and
  // re-anchors on the next pace() call, so the new rate applies from the
  // current stream position instead of being applied retroactively to the
  // whole elapsed stream. No-op in as_fast_as_possible mode; throws
  // std::invalid_argument on a non-positive or non-finite factor.
  void set_factor(double factor) {
    if (mode_ == ClockMode::as_fast_as_possible) return;
    if (!(factor > 0.0) || !std::isfinite(factor)) {
      throw std::invalid_argument(
          "Pacer: set_factor requires a factor > 0 and finite");
    }
    factor_ = factor;
    anchored_ = false;
  }

  double factor() const noexcept { return factor_; }

  // True when the pacer never blocks (as_fast_as_possible): deliveries can
  // skip pace() calls entirely.
  bool passthrough() const noexcept {
    return mode_ == ClockMode::as_fast_as_possible;
  }

  // Milliseconds the last paced delivery lagged its wall-clock target; 0
  // while the pacer is keeping up (sleeping). Always 0 in
  // as_fast_as_possible mode.
  double drift_ms() const noexcept { return drift_ms_; }

 private:
  ClockMode mode_;
  double factor_;
  bool anchored_ = false;
  double drift_ms_ = 0.0;
  std::chrono::steady_clock::time_point anchor_wall_{};
  TimeMs anchor_trace_ms_ = 0;
};

}  // namespace cpg::stream
