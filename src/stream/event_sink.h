// Pluggable consumers for the streaming generation runtime.
//
// Both runtimes deliver a single globally time-ordered event stream to an
// EventSink through one consumer loop (stream/consumer.h): on_start() once
// with the UE registry, then on_event_columns() per merged slice — or per
// run of equal timestamps when paced — in canonical trace order
// (event_time_less), then on_finish() once. Sinks are not called
// concurrently, so they need no internal locking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/event_columns.h"
#include "core/trace.h"
#include "stream/phase.h"

namespace cpg::trace_fmt {
struct SpatialInfo;
}  // namespace cpg::trace_fmt

namespace cpg::stream {

// Stream metadata delivered before the first event. `ue_devices` is indexed
// by UeId and only valid for the duration of on_start. `spatial` is non-null
// exactly when the run has a spatial layer (StreamOptions::spatial): sinks
// that persist the stream use it to record the grid geometry (the cpgt
// writer's v2 spatial block); it too is only valid during on_start.
struct StreamHeader {
  std::span<const DeviceType> ue_devices;
  TimeMs t_begin = 0;
  TimeMs t_end = 0;
  const trace_fmt::SpatialInfo* spatial = nullptr;
};

class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void on_start(const StreamHeader& header) { (void)header; }
  virtual void on_event(const ControlEvent& e) = 0;
  // Batch delivery: the same events in the same canonical order as
  // repeated on_event calls, but one virtual dispatch per span instead of
  // per event. The runtime reaches it through the on_event_columns shim;
  // sinks with cheap bulk handling should override.
  virtual void on_events(std::span<const ControlEvent> events) {
    for (const ControlEvent& e : events) on_event(e);
  }
  // Columnar delivery, the runtime's only delivery call: the same events in
  // the same canonical order as the equivalent on_events span, but as SoA
  // column views straight out of the merge buffers. Sinks that consume
  // columns (the cpgt binary and CSV sinks, counting, and the supervising
  // ResilientSink, which forwards the view) override this and skip the AoS
  // round-trip; everything else falls back through this materializing shim,
  // which gathers into a reused scratch vector and forwards to on_events —
  // so a sink written before columns existed behaves exactly as it always
  // has.
  virtual void on_event_columns(const EventColumnsView& cols) {
    if (cols.empty()) return;
    columns_shim_.clear();
    cols.materialize(columns_shim_);
    on_events(columns_shim_);
  }
  virtual void on_finish() {}

 private:
  std::vector<ControlEvent> columns_shim_;
};

// Optional side interface for sinks that can participate in
// checkpoint/resume (stream/checkpoint.h). The runtime discovers it via
// dynamic_cast; sinks that do not implement it still work — a resumed
// stream then calls on_start() and re-delivers from the checkpointed slice
// watermark, which is fine for stateless consumers (counting, live ingest)
// but cannot give byte-identical files.
class CheckpointParticipant {
 public:
  virtual ~CheckpointParticipant() = default;

  // Called on the delivery thread between two slices (delivery quiescent):
  // make everything delivered so far durable and return an opaque resume
  // token (e.g. a flushed byte offset). The token is stored inside the
  // checkpoint file.
  virtual std::string checkpoint_save() = 0;

  // Called *instead of* on_start() when a stream resumes from a
  // checkpoint: re-attach to the partially delivered output and discard
  // anything beyond `token` (events after the token were re-generated and
  // will be delivered again). Throws if the token no longer matches the
  // on-disk state.
  virtual void checkpoint_resume(const std::string& token,
                                 const StreamHeader& header) = 0;
};

// Optional side interface for sinks that need slice-grain framing on top of
// the event stream (e.g. the distributed worker's transport sink, which
// must mark where one slice's batches end so the coordinator can merge
// rank streams slice by slice). The runtime discovers it via dynamic_cast,
// like CheckpointParticipant, and calls it on the delivery thread after
// every slice — including empty ones — has been fully handed to the sink.
class SliceListener {
 public:
  virtual ~SliceListener() = default;
  virtual void on_slice_delivered(std::uint64_t slice) = 0;
};

// Adapts a callable; useful for ad-hoc consumers and tests.
class CallbackSink final : public EventSink {
 public:
  explicit CallbackSink(std::function<void(const ControlEvent&)> fn)
      : fn_(std::move(fn)) {}

  void on_event(const ControlEvent& e) override { fn_(e); }

 private:
  std::function<void(const ControlEvent&)> fn_;
};

// Collects the stream back into a Trace (defeats the purpose of streaming
// for large runs; meant for tests and small tools).
class CaptureSink final : public EventSink {
 public:
  void on_start(const StreamHeader& header) override {
    for (DeviceType d : header.ue_devices) trace_.add_ue(d);
  }
  void on_event(const ControlEvent& e) override { trace_.add_event(e); }
  void on_events(std::span<const ControlEvent> events) override {
    trace_.append_events(events);
  }
  void on_finish() override { trace_.finalize(); }

  const Trace& trace() const noexcept { return trace_; }
  Trace take() { return std::move(trace_); }

 private:
  Trace trace_;
};

// Counts events per type without retaining them.
class CountingSink final : public EventSink {
 public:
  void on_event(const ControlEvent& e) override {
    ++counts_[index_of(e.type)];
    ++total_;
    last_t_ms_ = e.t_ms;
  }

  void on_events(std::span<const ControlEvent> events) override {
    for (const ControlEvent& e : events) ++counts_[index_of(e.type)];
    total_ += events.size();
    if (!events.empty()) last_t_ms_ = events.back().t_ms;
  }

  // Columnar fast path: only the 1-byte type column is touched.
  void on_event_columns(const EventColumnsView& cols) override {
    for (std::size_t i = 0; i < cols.n; ++i) ++counts_[index_of(cols.type[i])];
    total_ += cols.n;
    if (cols.n > 0) last_t_ms_ = cols.ts[cols.n - 1];
  }

  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t count(EventType e) const noexcept {
    return counts_[index_of(e)];
  }
  TimeMs last_t_ms() const noexcept { return last_t_ms_; }

 private:
  std::array<std::uint64_t, k_num_event_types> counts_{};
  std::uint64_t total_ = 0;
  TimeMs last_t_ms_ = 0;
};

class NullSink final : public EventSink {
 public:
  void on_event(const ControlEvent&) override {}
  void on_events(std::span<const ControlEvent>) override {}
  void on_event_columns(const EventColumnsView&) override {}
};

// Broadcasts the stream to several sinks in order (e.g. CSV + live core).
// Participates in checkpointing on behalf of its children: the fanout token
// concatenates the child tokens (length-prefixed); children that are not
// CheckpointParticipants contribute an empty token and get a plain
// on_start() at resume. Phase boundaries are forwarded to every child that
// listens.
class FanoutSink final : public EventSink,
                         public CheckpointParticipant,
                         public PhaseListener,
                         public SliceListener {
 public:
  explicit FanoutSink(std::vector<EventSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void on_start(const StreamHeader& header) override {
    for (EventSink* s : sinks_) s->on_start(header);
  }
  void on_event(const ControlEvent& e) override {
    for (EventSink* s : sinks_) s->on_event(e);
  }
  void on_events(std::span<const ControlEvent> events) override {
    for (EventSink* s : sinks_) s->on_events(events);
  }
  void on_event_columns(const EventColumnsView& cols) override {
    // Each child picks its own path: columnar consumers stay zero-copy,
    // the rest materialize once in their own shim.
    for (EventSink* s : sinks_) s->on_event_columns(cols);
  }
  void on_finish() override {
    for (EventSink* s : sinks_) s->on_finish();
  }

  void on_phase(const PhaseRow* phase) override {
    for (EventSink* s : sinks_) {
      if (auto* p = dynamic_cast<PhaseListener*>(s)) p->on_phase(phase);
    }
  }

  void on_slice_delivered(std::uint64_t slice) override {
    for (EventSink* s : sinks_) {
      if (auto* p = dynamic_cast<SliceListener*>(s)) {
        p->on_slice_delivered(slice);
      }
    }
  }

  std::string checkpoint_save() override {
    std::string token;
    for (EventSink* s : sinks_) {
      std::string child;
      if (auto* p = dynamic_cast<CheckpointParticipant*>(s)) {
        child = p->checkpoint_save();
      }
      token += std::to_string(child.size());
      token += ':';
      token += child;
    }
    return token;
  }

  void checkpoint_resume(const std::string& token,
                         const StreamHeader& header) override {
    std::size_t pos = 0;
    for (EventSink* s : sinks_) {
      const auto colon = token.find(':', pos);
      if (colon == std::string::npos) {
        throw std::runtime_error(
            "FanoutSink: checkpoint token does not match sink list");
      }
      const std::size_t len =
          static_cast<std::size_t>(std::stoull(token.substr(pos, colon - pos)));
      if (colon + 1 + len > token.size()) {
        throw std::runtime_error("FanoutSink: truncated checkpoint token");
      }
      const std::string child = token.substr(colon + 1, len);
      pos = colon + 1 + len;
      if (auto* p = dynamic_cast<CheckpointParticipant*>(s)) {
        p->checkpoint_resume(child, header);
      } else {
        s->on_start(header);
      }
    }
  }

 private:
  std::vector<EventSink*> sinks_;
};

}  // namespace cpg::stream
