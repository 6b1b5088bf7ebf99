// Coordinator side of the distributed runtime: merges N rank streams
// (dist/wire.h protocol) into the ordinary pluggable sink chain. It is the
// remote run source of the consumer loop (stream/consumer.h): rank readers,
// supervision (heal and replay discard) and checkpoint durability. The
// consumer owns what the workers gave up: pacing, phase application,
// scenario and per-cell bookkeeping.
//
// Merge model: ranks generate on the same slice grid, so the coordinator
// collects every rank's batch for slice k (a reader thread per rank feeds a
// bounded queue; backpressure reaches the worker through the socket) and
// the consumer merges and delivers it exactly as for in-process shards, so
// the delivered stream is byte-identical to a 1-process run for any rank
// count.
//
// Distributed checkpoints: every rank ships its checkpoint for watermark W
// just before its slice-W events. The coordinator commits only when all N
// parts arrived — capture the sink token (delivery is quiescent between
// slices), persist each rank's bytes under <dir>/w<W>/rank<r>/, then
// atomically replace <dir>/dist.manifest (the commit point), then GC older
// bundles. A crash anywhere leaves either the old or the new checkpoint
// fully intact, never a torn mix of rank generations. A completed run
// retires its checkpoint (manifest first, then the bundle) before the
// sink's on_finish; a graceful stop keeps it as the resume point.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dist/transport.h"
#include "stream/event_sink.h"
#include "stream/population.h"
#include "stream/stream_generator.h"

namespace cpg::dist {

// The committed state of a distributed checkpoint, persisted as
// <dir>/dist.manifest. The sink token is the coordinator's — rank tokens
// are always empty (workers do not own durable outputs).
struct DistManifest {
  unsigned num_ranks = 0;
  std::uint64_t watermark = 0;  // first slice not yet delivered
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;  // plan scenario fingerprint (0 stationary)
  TimeMs t_begin = 0;
  TimeMs t_end = 0;
  TimeMs slice_ms = 0;
  std::string sink_token;
};

std::string manifest_path(const std::string& dir);
// <dir>/w<watermark>/rank<r> — the directory a resumed rank reads its
// checkpoint back from (it contains the usual stream.ckpt file).
std::string rank_checkpoint_dir(const std::string& dir,
                                std::uint64_t watermark, unsigned rank);

void save_manifest(const DistManifest& m, const std::string& dir);
// nullopt when no manifest file exists; throws std::runtime_error with a
// one-line actionable message on a corrupt or newer-version file.
std::optional<DistManifest> load_manifest(const std::string& dir);

// Resume gate, run before spawning workers: loads the manifest (nullopt =
// no checkpoint, start fresh) and validates it against this run — rank
// count, seed, scenario fingerprint, window, slice length, and that every
// rank's checkpoint directory is present. Throws std::runtime_error
// ("dist resume: ...") naming the offending field.
std::optional<DistManifest> prepare_resume(const std::string& dir,
                                           const stream::PopulationPlan& plan,
                                           unsigned num_ranks,
                                           TimeMs slice_ms);

// One line of the supervisor's incident log: a rank died or hung and was
// (or could not be) healed.
struct Incident {
  unsigned rank = 0;
  unsigned restart = 0;           // 1-based restart ordinal (global budget)
  std::uint64_t slice = 0;        // slice the merge was collecting
  std::uint64_t replay_from = 0;  // watermark the respawned rank resumes at
  bool hung = false;              // heartbeat deadline (vs death/torn stream)
  std::string cause;              // one-line failure description
};

// Process-control seam the supervisor heals through. The fork/exec launcher
// implements it over real worker processes (dist/launch.h); the tests
// implement it over in-process worker threads.
class RankControl {
 public:
  virtual ~RankControl() = default;

  // Forcibly terminates rank `rank` and reaps it. Must be idempotent and
  // safe on an already-dead rank (the common case: the rank crashed and the
  // supervisor is cleaning up).
  virtual void kill_rank(unsigned rank) = 0;

  // Starts a fresh incarnation of rank `rank`, resuming from `resume_dir`
  // (a rank_checkpoint_dir of the last committed distributed checkpoint;
  // empty = regenerate from the start of the run — workers are
  // deterministic, so replay is byte-identical either way). Returns the new
  // incarnation's transport; the control retains ownership. Throws on
  // spawn failure (the supervisor gives up: respawn failure is not a
  // budget-countable rank fault).
  virtual RankTransport* respawn(unsigned rank,
                                 const std::string& resume_dir) = 0;
};

// Self-healing policy (--supervise). Default-constructed = disabled: any
// rank failure aborts the run exactly as before.
struct SuperviseOptions {
  bool enabled = false;
  // Total respawns allowed across all ranks before the run fails with a
  // budget-exhaustion error.
  unsigned max_restarts = 3;
  // > 0: declare a rank hung after this many ms without a single frame
  // (heartbeats count — workers send them every heartbeat_ms, so a healthy
  // but compute-bound rank never trips this). 0: hang detection off; only
  // death (EOF / torn stream / error frame) is healed.
  int heartbeat_deadline_ms = 0;
  // Granularity of the reader's silence polling (tests shrink it).
  int poll_ms = 50;
  // Respawn backoff: min(cap, base << (per-rank restarts so far)) ms.
  int backoff_base_ms = 100;
  int backoff_cap_ms = 5000;
  // Structured incident log, invoked once per heal attempt (and once for
  // the final budget-exhaustion failure) from the merge thread.
  std::function<void(const Incident&)> on_incident;
};

struct CoordinatorOptions {
  // Coordinator-side knobs reused from the single-process runtime: clock /
  // accel_factor (pacing of the merged stream), slice_ms (must match the
  // workers' — it defines the shared grid), max_buffered_events (per-rank
  // receive buffer bound), metrics, checkpoint.dir (empty = distributed
  // checkpointing off). num_shards / num_threads are ignored here; they
  // shape the workers.
  stream::StreamOptions stream;
  // Set from prepare_resume to continue a committed distributed checkpoint;
  // workers must have been started with the matching resume_dir.
  std::optional<DistManifest> resume;
  // Self-healing: requires `control` when enabled.
  SuperviseOptions supervise;
  RankControl* control = nullptr;
};

struct DistStats {
  // Coordinator-side totals, shaped like a single-process run: events and
  // slices count the merged deliveries, checkpoints_written the committed
  // distributed checkpoints, num_shards the sum over ranks.
  stream::StreamStats totals;
  std::vector<stream::StreamStats> ranks;  // each rank's finish stats
  unsigned restarts = 0;                   // supervisor respawns performed
  std::vector<Incident> incidents;         // one entry per respawn
};

// Merges the rank streams of `plan` from `ranks` (one connected transport
// per rank, index = rank id) into `sink`. Blocks until every rank finished
// and the merged stream is fully delivered. On a rank failure (error frame,
// premature EOF, torn or out-of-order stream, heartbeat silence) every
// transport is aborted, reader threads are joined and std::runtime_error
// names the rank; a sink exception shuts down the same way and is rethrown.
// With options.supervise.enabled and a RankControl, a rank failure is
// healed instead: the rank is killed and respawned from the last committed
// distributed checkpoint (or from scratch), its replayed slices are
// discarded at the sink boundary, and the merge continues — merged output
// stays byte-identical to an unfaulted run until the restart budget runs
// out.
DistStats run_merge(const stream::PopulationPlan& plan,
                    const std::vector<RankTransport*>& ranks,
                    stream::EventSink& sink, const CoordinatorOptions& options);

}  // namespace cpg::dist
