#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/failpoint.h"

#include "obs/merge.h"
#include "stream/checkpoint.h"
#include "stream/event_sink.h"

namespace cpg::dist {

namespace {

// Events per events-frame: big enough that framing overhead vanishes, small
// enough that a frame never strains the coordinator's per-rank buffer.
constexpr std::size_t k_events_per_frame = std::size_t{1} << 16;

// EventSink that encodes the rank's stream onto the transport. All calls
// arrive on the runtime's delivery thread, so frame order is the protocol
// order by construction.
class TransportSink final : public stream::EventSink,
                            public stream::SliceListener {
 public:
  TransportSink(RankTransport& transport, unsigned rank, unsigned num_ranks)
      : transport_(transport), rank_(rank), num_ranks_(num_ranks) {}

  void on_start(const stream::StreamHeader&) override {
    HelloFrame h;
    h.rank = rank_;
    h.num_ranks = num_ranks_;
    transport_.send(FrameType::hello, encode_hello(h));
  }

  void on_event(const ControlEvent& e) override {
    on_event_columns(EventColumnsView{&e.t_ms, &e.ue_id, &e.type, 1});
  }

  // The runtime delivers columns straight off its merge buffers. A spatial
  // rank's batches carry the cell column and ship as events_cells frames;
  // without cells they ship as 13-byte event records.
  void on_event_columns(const EventColumnsView& cols) override {
    slice_events_ += cols.n;
    std::size_t i = 0;
    while (i < cols.n) {
      const std::size_t n = std::min(cols.n - i, k_events_per_frame);
      const EventColumnsView chunk = cols.subview(i, n);
      payload_.clear();
      if (chunk.cell != nullptr) {
        append_events_cells(payload_, chunk);
        transport_.send(FrameType::events_cells, payload_);
      } else {
        append_events(payload_, chunk);
        transport_.send(FrameType::events, payload_);
      }
      i += n;
    }
  }

  void on_slice_delivered(std::uint64_t slice) override {
    // Chaos site: `kill` here dies after the slice's events but before its
    // slice_end (a torn slice for the coordinator); `hang` wedges the
    // delivery thread mid-protocol. scripts/chaos_smoke.sh arms this per
    // rank via CPG_FAILPOINTS_RANK<r>.
    CPG_FAILPOINT("dist.worker_slice");
    SliceEndFrame s;
    s.slice = slice;
    s.events = slice_events_;
    slice_events_ = 0;
    transport_.send(FrameType::slice_end, encode_slice_end(s));
  }

  void ship_checkpoint(const stream::StreamCheckpoint& ck) {
    std::ostringstream os;
    stream::write_checkpoint(os, ck);
    transport_.send(FrameType::checkpoint,
                    encode_checkpoint(ck.resume_slice, os.str()));
  }

 private:
  RankTransport& transport_;
  unsigned rank_;
  unsigned num_ranks_;
  std::uint64_t slice_events_ = 0;
  std::string payload_;
};

// Sends a heartbeat frame every `interval_ms` until stopped. Liveness only:
// the coordinator ignores heartbeat content, so a send failure (coordinator
// gone, transport aborted) just ends the loop — the delivery thread's own
// send will surface the authoritative error.
class Heartbeater {
 public:
  Heartbeater(RankTransport& transport, int interval_ms)
      : transport_(transport), interval_ms_(interval_ms) {
    if (interval_ms_ > 0) thread_ = std::thread([this] { loop(); });
  }

  ~Heartbeater() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::uint64_t seq = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stopped_; })) {
        return;
      }
      lock.unlock();
      try {
        transport_.send(FrameType::heartbeat, encode_heartbeat(seq++));
      } catch (...) {
        return;  // peer gone; nothing left to prove alive to
      }
      lock.lock();
    }
  }

  RankTransport& transport_;
  int interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace

stream::StreamStats run_worker(const stream::PopulationPlan& plan,
                               RankTransport& transport,
                               const WorkerOptions& opts) {
  if (opts.num_ranks == 0 || opts.rank >= opts.num_ranks) {
    throw std::invalid_argument("dist worker: rank out of range");
  }
  if (!opts.resume_dir.empty() && !opts.ship_checkpoints) {
    throw std::invalid_argument(
        "dist worker: resume_dir requires ship_checkpoints");
  }

  const stream::PopulationPlan rank_plan =
      stream::slice_plan_for_rank(plan, opts.rank, opts.num_ranks);

  TransportSink sink(transport, opts.rank, opts.num_ranks);

  stream::StreamOptions so = opts.stream;
  so.clock = stream::ClockMode::as_fast_as_possible;
  so.accel_factor = 1.0;
  so.checkpoint.dir.clear();
  so.resume = false;
  so.checkpoint_sink = nullptr;
  if (opts.ship_checkpoints) {
    so.checkpoint_sink = [&sink](const stream::StreamCheckpoint& ck) {
      sink.ship_checkpoint(ck);
    };
    if (!opts.resume_dir.empty()) {
      so.checkpoint.dir = opts.resume_dir;
      so.resume = true;
    }
  }

  // Heartbeats start after on_start's hello frame would normally go out —
  // but hello is sent from inside stream_generate, so start the beater
  // first and let the coordinator accept heartbeats from byte 0. (The
  // protocol allows heartbeat anywhere; the supervisor only cares that
  // bytes flow.)
  Heartbeater heartbeat(transport, opts.heartbeat_ms);

  stream::StreamStats stats;
  try {
    stats = stream::stream_generate(rank_plan, so, sink);
  } catch (const std::exception& e) {
    heartbeat.stop();
    try {
      transport.send(FrameType::error, e.what());
    } catch (...) {
      // The transport itself may be what failed; the rethrow below is the
      // authoritative report.
    }
    throw;
  }
  heartbeat.stop();

  if (so.metrics != nullptr) {
    transport.send(FrameType::obs,
                   obs::serialize_snapshot(so.metrics->snapshot()));
  }
  transport.send(FrameType::finish, encode_finish(stats));
  return stats;
}

}  // namespace cpg::dist
