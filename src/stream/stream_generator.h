// Streaming generation runtime (bounded-memory population synthesis).
//
// The batch generator (generator/traffic_generator.h) materializes the
// whole Trace before anyone can consume an event — memory-infeasible for
// the "millions of UEs" target and useless for driving a live core. This
// runtime instead:
//
//   1. shards the UE population across worker threads (UE u -> shard
//      u % num_shards, each shard owned by one worker),
//   2. generates in bounded time slices: every shard advances its
//      slice-resumable per-UE generators (UeSliceGenerator) to the next
//      slice boundary, sorts the slice locally, and carries boundary
//      events over to the next slice,
//   3. pushes per-shard slice batches through bounded queues
//      (backpressure: a slow sink blocks the producers, nothing is
//      dropped), and
//   4. gallop-merges the shard batches of each slice on the calling thread
//      and delivers them, paced (as-fast-as-possible / real-time /
//      N×-accelerated), into a pluggable EventSink — through the consumer
//      loop the distributed coordinator shares (stream/consumer.h).
//
// Determinism contract: for a fixed seed the delivered event sequence is
// byte-identical to the finalized output of gen::generate_trace, for any
// shard count, thread count, and slice length. This holds because every UE
// derives its RNG from (seed, ue_id) alone, slicing never changes a UE's
// draw sequence, and the slice/merge scheme reproduces the canonical
// event_time_less order exactly.
//
// Peak memory is O(#UEs * per-UE state + buffered slice events), not
// O(total events).
#pragma once

#include <cstdint>
#include <functional>

#include "core/time_utils.h"
#include "generator/traffic_generator.h"
#include "obs/metrics.h"
#include "stream/checkpoint.h"
#include "stream/event_sink.h"
#include "stream/pacing.h"
#include "stream/population.h"

namespace cpg::spatial {
struct SpatialConfig;
}  // namespace cpg::spatial

namespace cpg::stream {

struct StreamOptions {
  // 0 = one shard per worker thread. Sharding only affects scheduling and
  // memory, never the delivered sequence.
  std::size_t num_shards = 0;
  // 0 = request.num_threads (which itself defaults to hardware threads).
  unsigned num_threads = 0;
  // Generation slice length; memory scales with events per slice.
  TimeMs slice_ms = 10 * k_ms_per_minute;
  // Backpressure threshold per shard queue, in buffered events. An empty
  // queue always accepts one batch, so the hard bound per queue is
  // max(this, largest single slice batch).
  std::size_t max_buffered_events = 1 << 16;
  ClockMode clock = ClockMode::as_fast_as_possible;
  double accel_factor = 1.0;  // accelerated mode: trace seconds per second
  // Optional runtime observability: when set, the runtime registers and
  // maintains the `cpg_stream_*` instruments (per-shard events/slices,
  // queue depth and producer stall time, merge lag, sink throughput,
  // pacing drift — see DESIGN.md). Null = zero instrumentation cost. The
  // registry must outlive the stream_generate call.
  obs::Registry* metrics = nullptr;
  // Checkpoint/resume (stream/checkpoint.h). `checkpoint.dir` empty =
  // checkpointing off. With `resume` set and a valid checkpoint present in
  // the directory, the run continues from the checkpointed slice and the
  // delivered stream is byte-identical to an uninterrupted run; a resume
  // with no checkpoint file starts from scratch. A checkpoint whose run
  // fingerprint (seed, population, window, shard count, slice length)
  // disagrees with this request throws std::runtime_error naming the field.
  CheckpointOptions checkpoint;
  bool resume = false;
  // When set, assembled checkpoints are handed to this callback (on the
  // delivery thread, inside the same quiescent window save_checkpoint would
  // use) *instead of* being written to checkpoint.dir, and the end-of-run
  // checkpoint retirement is skipped — the callback's owner commits and
  // retires. Checkpointing is enabled whenever this is set, even with an
  // empty checkpoint.dir. The distributed worker uses this to ship its rank
  // checkpoints to the coordinator, which alone decides when a distributed
  // checkpoint is durable.
  std::function<void(const StreamCheckpoint&)> checkpoint_sink;
  // Cooperative graceful stop (e.g. a SIGTERM handler's flag), polled once
  // per slice on the delivery thread. Once it returns true the run winds
  // down at a checkpoint boundary: with checkpointing enabled, delivery
  // continues to the next checkpoint cadence slice, that checkpoint is cut
  // and kept (not retired), and the run returns with stats.stopped set;
  // without checkpointing it stops at the current slice boundary. Either
  // way the sink's on_finish still runs, so staged output files land as a
  // valid prefix — no .tmp litter. Null = never stops early.
  std::function<bool()> stop_check;
  // Optional spatial layer (src/spatial/): when set, every delivered event
  // carries a cell id (EventColumnsView::cell) derived from the UE's
  // deterministic trajectory over the configured cell grid, the stream
  // header announces the grid geometry to sinks, per-cell event counts feed
  // `cpg_spatial_cell_events_total` through `metrics`, and the checkpoint
  // fingerprint pins the spatial config. Cell assignment is a pure function
  // of (config, seed, ue, t), so the annotated stream stays byte-identical
  // across shard/thread/slice splits and checkpoint resume. The config must
  // outlive the stream_generate call. Null = no spatial layer; output is
  // bit-identical to runs without one.
  const spatial::SpatialConfig* spatial = nullptr;
};

struct StreamStats {
  std::uint64_t events = 0;
  std::uint64_t slices = 0;
  // First slice generated by this process: 0 for a fresh run, the
  // checkpointed watermark when resuming.
  std::uint64_t start_slice = 0;
  std::uint64_t checkpoints_written = 0;
  // True when options.stop_check ended the run early at a slice boundary;
  // the delivered stream is a valid prefix and (with checkpointing) the
  // final checkpoint was kept for --resume.
  bool stopped = false;
  std::size_t num_ues = 0;
  std::size_t num_shards = 0;
  // High-water mark of events buffered in shard queues (all queues
  // combined), i.e. the memory the backpressure layer allowed to
  // accumulate.
  std::size_t peak_buffered_events = 0;
  // Scenario lifecycle tallies, counted as this process schedules them
  // (a resumed run counts only its own tail). All zero for stationary runs.
  std::uint64_t cohort_joins = 0;
  std::uint64_t cohort_leaves = 0;
  std::uint64_t migrations = 0;
};

// Streams the population of `request` into `sink`. Blocks until the stream
// is fully delivered (on_finish has returned). The sink runs on the calling
// thread; generation runs on worker threads.
//
// Shutdown contract: invalid options (accelerated clock with
// accel_factor <= 0) throw std::invalid_argument before any work starts. If
// the sink or a worker throws mid-stream, every shard queue is closed,
// blocked producers unwind, all workers are joined, and the exception is
// rethrown — stream_generate never deadlocks or leaks threads on error.
StreamStats stream_generate(const model::ModelSet& models,
                            const gen::GenerationRequest& request,
                            const StreamOptions& options, EventSink& sink);

// Streams a compiled population plan (stream/population.h) — the
// time-varying generalization used by the scenario engine (src/scenario/):
// segments activate at their start times (drawing the first event from
// their model's first-event law at that hour), drain at their end times,
// and phase boundaries retune pacing, notify PhaseListener sinks, and move
// the cpg_scenario_* gauges. The determinism and shutdown contracts above
// carry over verbatim: the delivered sequence depends only on
// (plan, seed), never on shard/thread/slice configuration. The stationary
// overload is this one applied to the trivial one-segment-per-UE plan.
StreamStats stream_generate(const PopulationPlan& plan,
                            const StreamOptions& options, EventSink& sink);

}  // namespace cpg::stream
