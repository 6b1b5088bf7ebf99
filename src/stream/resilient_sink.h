// Sink supervision: retry, backoff, and graceful degradation.
//
// ResilientSink decorates any EventSink with the failure handling a
// multi-hour streaming run needs (ISSUE: live EPC ingest and CSV on shared
// storage *will* hiccup):
//
//   1. Failures thrown by the inner sink are *classified* retryable vs
//      fatal (classify_failure below; the table lives in DESIGN.md).
//   2. Retryable failures are retried with capped exponential backoff plus
//      deterministic jitter, bounded by a per-delivery deadline. All timing
//      goes through an injectable RetryClock, so the backoff math is
//      unit-testable without sleeping.
//   3. When retries are exhausted, the delivery degrades per policy:
//        fail   rethrow (the pre-existing behavior: the run dies cleanly),
//        drop   count the events and move on,
//        spill  append the events to a disk-backed dead-letter file that
//               recover_spill() can re-deliver later.
//      Fatal failures always rethrow regardless of policy.
//
// The decorator forwards CheckpointParticipant to the inner sink, so a
// supervised CSV sink still supports checkpoint/resume.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.h"
#include "obs/metrics.h"
#include "stream/event_sink.h"

namespace cpg::stream {

// Injectable time source for the backoff loop.
class RetryClock {
 public:
  virtual ~RetryClock() = default;
  virtual std::chrono::steady_clock::time_point now() = 0;
  virtual void sleep_for(std::chrono::milliseconds d) = 0;
};

// The process clock: steady_clock + this_thread::sleep_for.
RetryClock& system_retry_clock();

// Deterministic clock for tests: now() advances only through sleep_for(),
// and every requested sleep is recorded.
class FakeRetryClock final : public RetryClock {
 public:
  std::chrono::steady_clock::time_point now() override { return t_; }
  void sleep_for(std::chrono::milliseconds d) override {
    t_ += d;
    sleeps_.push_back(d);
  }
  const std::vector<std::chrono::milliseconds>& sleeps() const noexcept {
    return sleeps_;
  }

 private:
  std::chrono::steady_clock::time_point t_{};
  std::vector<std::chrono::milliseconds> sleeps_;
};

enum class FailureClass : std::uint8_t { retryable, fatal };

// For sinks that know their own failure semantics: an exception carrying an
// explicit classification, honored verbatim by classify_failure.
class SinkError : public std::runtime_error {
 public:
  SinkError(const std::string& what, FailureClass cls)
      : std::runtime_error(what), cls_(cls) {}

  FailureClass failure_class() const noexcept { return cls_; }

 private:
  FailureClass cls_;
};

// Classifies an inner-sink failure (DESIGN.md table): injected faults carry
// their own flag; I/O and system errors are transient; allocation failures
// and logic errors are not worth retrying; anything unrecognized is treated
// as fatal — retrying an unknown condition forever is worse than failing
// loudly.
FailureClass classify_failure(const std::exception& e) noexcept;

// What to do once retries are exhausted on a retryable failure.
enum class SinkPolicy : std::uint8_t { fail = 0, drop = 1, spill = 2 };

const char* to_string(SinkPolicy p) noexcept;

struct RetryPolicy {
  int max_attempts = 5;  // total tries per delivery, including the first
  std::chrono::milliseconds initial_backoff{10};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds max_backoff{2000};
  // Each delay is scaled by a uniform factor in [1 - jitter, 1 + jitter],
  // drawn from a generator seeded with `jitter_seed` — the schedule is
  // reproducible.
  double jitter = 0.2;
  std::uint64_t jitter_seed = 0;
  // Per-delivery budget: once the next backoff would overrun it, retries
  // stop (a slow sink must not stall the stream for ever; the streaming
  // runtime sizes this to its slice cadence).
  std::chrono::milliseconds deadline{30'000};
};

struct ResilientSinkOptions {
  SinkPolicy policy = SinkPolicy::fail;
  RetryPolicy retry{};
  // Dead-letter file, required for SinkPolicy::spill (construction throws
  // without one).
  std::string spill_path;
  // Optional cpg_stream_sink_* instruments. Must outlive the sink.
  obs::Registry* metrics = nullptr;
};

struct ResilientSinkStats {
  std::uint64_t delivered_events = 0;  // handed to the inner sink and ack'd
  std::uint64_t retries = 0;           // re-attempts after a retryable fail
  std::uint64_t backoff_ms = 0;        // total time slept in backoff
  std::uint64_t dropped_events = 0;    // policy drop, after exhaustion
  std::uint64_t spilled_events = 0;    // policy spill, after exhaustion
  std::uint64_t exhausted_deliveries = 0;
};

class ResilientSink final : public EventSink,
                            public CheckpointParticipant,
                            public PhaseListener {
 public:
  // `inner` must outlive the decorator. `clock` defaults to the process
  // clock; tests inject a FakeRetryClock.
  ResilientSink(EventSink& inner, ResilientSinkOptions options,
                RetryClock* clock = nullptr);
  ~ResilientSink() override;

  void on_start(const StreamHeader& header) override;
  void on_event(const ControlEvent& e) override;
  void on_events(std::span<const ControlEvent> events) override;
  // Columns stay columns: the view is valid for the whole call, so a retry
  // re-delivers it as is (cells included), and a spill writes its rows.
  void on_event_columns(const EventColumnsView& cols) override;
  void on_finish() override;

  std::string checkpoint_save() override;
  void checkpoint_resume(const std::string& token,
                         const StreamHeader& header) override;

  // Phase boundaries are control flow, not deliveries: forwarded to a
  // listening inner sink without retry/backoff (a failing phase hook is a
  // configuration error, not a transient).
  void on_phase(const PhaseRow* phase) override {
    if (auto* p = dynamic_cast<PhaseListener*>(&inner_)) p->on_phase(phase);
  }

  const ResilientSinkStats& stats() const noexcept { return stats_; }

 private:
  // `rows` are the events `attempt` delivers — a span of ControlEvents or
  // an EventColumnsView — and empty for lifecycle calls.
  template <typename Rows, typename Attempt>
  void deliver(const Rows& rows, Attempt&& attempt);
  template <typename Rows>
  void degrade(const Rows& rows, std::exception_ptr last_error);
  template <typename Rows>
  void spill(const Rows& rows);

  EventSink& inner_;
  ResilientSinkOptions options_;
  RetryClock* clock_;
  Rng jitter_rng_;
  ResilientSinkStats stats_;
  std::unique_ptr<std::ofstream> spill_os_;

  struct Instruments {
    obs::Counter* retries = nullptr;
    obs::Counter* backoff_ms = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* spilled = nullptr;
    obs::Counter* exhausted = nullptr;
    obs::Counter* fatal = nullptr;
  } ins_;
};

// Re-delivers the events of a spill file to `sink` (on_event per row, in
// file order). Returns the number of events re-delivered; throws
// std::runtime_error naming the offending line on a malformed file.
std::uint64_t recover_spill(const std::string& path, EventSink& sink);

}  // namespace cpg::stream
