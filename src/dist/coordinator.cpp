#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "fault/failpoint.h"
#include "io/file_util.h"
#include "obs/merge.h"
#include "spatial/config.h"
#include "stream/checkpoint.h"
#include "stream/consumer.h"

namespace cpg::dist {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view k_manifest_magic = "cpg-dist-manifest";
constexpr int k_manifest_version = 1;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("dist: " + what);
}

// A failure attributable to one rank — the unit the supervisor can heal.
// Thrown only inside the remote source and always caught there:
// unsupervised it is converted to the classic fail() error, supervised it
// triggers a kill/respawn/replay cycle.
struct RankFailure {
  unsigned rank = 0;
  std::string message;  // full "rank r ..." text
  bool hung = false;
};

[[noreturn]] void fail_rank(unsigned rank, const std::string& message,
                            bool hung = false) {
  throw RankFailure{rank, message, hung};
}

[[noreturn]] void manifest_fail(const std::string& what,
                                const std::string& path) {
  throw std::runtime_error("dist manifest: " + what + " [" + path + "]");
}

// --- per-rank receive pipeline -------------------------------------------

struct RankItem {
  enum class Kind {
    events,
    slice_end,
    checkpoint,
    obs,
    finish,
    eof,
    error,
    hung  // heartbeat deadline expired: no frames for the silence window
  };
  Kind kind = Kind::error;
  EventColumns events;  // SoA; carries the cell column for spatial ranks
  SliceEndFrame slice_end{};
  std::uint64_t ck_watermark = 0;
  std::string text;  // checkpoint bytes / obs payload / error message
  stream::StreamStats stats{};
};

// Bounded by buffered events with the same invariant as the in-process
// shard queues: an empty queue always accepts one item, so the hard bound
// is max(max_events, largest single frame) and the pipeline cannot
// deadlock. Closing releases both sides; a push after close is dropped.
class RankQueue {
 public:
  explicit RankQueue(std::size_t max_events)
      : max_events_(std::max<std::size_t>(1, max_events)) {}

  bool push(RankItem item) {
    std::unique_lock lock(mu_);
    const std::size_t ev = item.events.size();
    cv_push_.wait(lock, [&] {
      return closed_ || items_.empty() || buffered_ + ev <= max_events_;
    });
    if (closed_) return false;
    buffered_ += ev;
    peak_ = std::max(peak_, buffered_);
    items_.push_back(std::move(item));
    cv_pop_.notify_one();
    return true;
  }

  std::optional<RankItem> pop() {
    std::unique_lock lock(mu_);
    cv_pop_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    RankItem item = std::move(items_.front());
    items_.pop_front();
    buffered_ -= item.events.size();
    cv_push_.notify_one();
    return item;
  }

  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    cv_push_.notify_all();
    cv_pop_.notify_all();
  }

  std::size_t peak() const {
    std::lock_guard lock(mu_);
    return peak_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_push_, cv_pop_;
  std::deque<RankItem> items_;
  std::size_t buffered_ = 0;
  std::size_t peak_ = 0;
  std::size_t max_events_ = 0;
  bool closed_ = false;
};

// Reader thread: turns one rank's frame stream into typed queue items.
// Protocol violations become error items (the remote source reports them);
// the thread itself never throws out.
//
// With deadline_ms > 0 the reader polls the transport in poll_ms windows,
// accumulating silence. Any frame — heartbeats included — resets the
// silence clock and the rank's lag gauge; silence >= deadline_ms pushes a
// hung item and ends the thread. Heartbeat frames themselves never reach
// the queue: they prove liveness and carry nothing else.
void reader_loop(RankTransport& transport, unsigned rank, unsigned num_ranks,
                 RankQueue& queue, int deadline_ms, int poll_ms,
                 obs::Gauge* lag) {
  auto push_error = [&](const std::string& msg) {
    RankItem it;
    it.kind = RankItem::Kind::error;
    it.text = msg;
    queue.push(std::move(it));
  };
  bool hung = false;
  // Next non-heartbeat frame; nullopt = EOF, or hang when `hung` got set.
  auto next_frame = [&]() -> std::optional<Frame> {
    if (deadline_ms <= 0) {
      while (true) {
        auto f = transport.recv();
        if (f.has_value() && f->type == FrameType::heartbeat) continue;
        return f;
      }
    }
    int silent = 0;
    std::optional<Frame> f;
    while (true) {
      const int window = std::max(1, std::min(poll_ms, deadline_ms));
      const RecvStatus s = transport.recv_timed(f, window);
      if (s == RecvStatus::eof) {
        if (lag != nullptr) lag->set(0);
        return std::nullopt;
      }
      if (s == RecvStatus::frame) {
        silent = 0;
        if (lag != nullptr) lag->set(0);
        if (f->type == FrameType::heartbeat) continue;
        return f;
      }
      silent += window;
      if (lag != nullptr) lag->set(silent);
      if (silent >= deadline_ms) {
        hung = true;
        return std::nullopt;
      }
    }
  };
  auto push_silence = [&] {
    RankItem it;
    if (hung) {
      it.kind = RankItem::Kind::hung;
      it.text = "no frames for " + std::to_string(deadline_ms) + " ms";
    } else {
      it.kind = RankItem::Kind::eof;
    }
    queue.push(std::move(it));
  };
  try {
    auto hello = next_frame();
    if (!hello.has_value()) {
      push_silence();
      return;
    }
    if (hello->type != FrameType::hello) {
      push_error("stream did not start with hello");
      return;
    }
    const HelloFrame h = decode_hello(hello->payload);
    if (h.proto != k_proto_version) {
      push_error("protocol version mismatch (worker speaks " +
                 std::to_string(h.proto) + ", coordinator speaks " +
                 std::to_string(k_proto_version) + ")");
      return;
    }
    if (h.rank != rank || h.num_ranks != num_ranks) {
      push_error("hello identifies rank " + std::to_string(h.rank) + "/" +
                 std::to_string(h.num_ranks) + ", expected " +
                 std::to_string(rank) + "/" + std::to_string(num_ranks));
      return;
    }
    while (true) {
      auto f = next_frame();
      RankItem it;
      if (!f.has_value()) {
        push_silence();
        return;
      }
      switch (f->type) {
        case FrameType::events:
          it.kind = RankItem::Kind::events;
          decode_events(f->payload, it.events);
          break;
        case FrameType::events_cells:
          it.kind = RankItem::Kind::events;
          decode_events_cells(f->payload, it.events);
          break;
        case FrameType::slice_end:
          it.kind = RankItem::Kind::slice_end;
          it.slice_end = decode_slice_end(f->payload);
          break;
        case FrameType::checkpoint: {
          it.kind = RankItem::Kind::checkpoint;
          const auto [watermark, bytes] = decode_checkpoint(f->payload);
          it.ck_watermark = watermark;
          it.text.assign(bytes);
          break;
        }
        case FrameType::obs:
          it.kind = RankItem::Kind::obs;
          it.text = std::move(f->payload);
          break;
        case FrameType::finish:
          it.kind = RankItem::Kind::finish;
          it.stats = decode_finish(f->payload);
          break;
        case FrameType::error:
          push_error(f->payload.empty() ? "worker reported an unnamed error"
                                        : f->payload);
          return;
        case FrameType::hello:
          push_error("duplicate hello");
          return;
        case FrameType::heartbeat:
          continue;  // filtered by next_frame; defensive
      }
      if (!queue.push(std::move(it))) return;  // coordinator shut down
    }
  } catch (const std::exception& e) {
    push_error(e.what());
  }
}

// Coordinator-side instruments (cpg_dist_*).
struct DistInstruments {
  obs::Counter* delivered_events = nullptr;
  obs::Counter* delivered_slices = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Gauge* last_checkpoint_slice = nullptr;
  obs::Counter* restarts = nullptr;
  obs::Counter* degraded_ms = nullptr;
  std::vector<obs::Counter*> rank_events;
  std::vector<obs::Gauge*> rank_lag;

  DistInstruments(obs::Registry& reg, unsigned ranks) {
    delivered_events =
        &reg.counter("cpg_dist_delivered_events_total",
                     "Events delivered by the distributed merge");
    delivered_slices =
        &reg.counter("cpg_dist_slices_delivered_total",
                     "Slices fully merged across all ranks and delivered");
    checkpoints =
        &reg.counter("cpg_dist_checkpoints_total",
                     "Distributed checkpoints committed (manifest replaces)");
    last_checkpoint_slice =
        &reg.gauge("cpg_dist_last_checkpoint_slice",
                   "Slice watermark of the most recent committed manifest");
    restarts =
        &reg.counter("cpg_dist_restarts_total",
                     "Worker ranks killed and respawned by the supervisor");
    degraded_ms = &reg.counter(
        "cpg_dist_degraded_ms_total",
        "Milliseconds the merge spent healing (failure detected to replay "
        "caught up)");
    rank_events.resize(ranks);
    rank_lag.resize(ranks);
    for (unsigned r = 0; r < ranks; ++r) {
      rank_events[r] =
          &reg.counter("cpg_dist_rank_events_total",
                       "Events received from one worker rank",
                       {{"rank", std::to_string(r)}});
      rank_lag[r] = &reg.gauge(
          "cpg_dist_heartbeat_lag_ms",
          "Milliseconds since the last frame (heartbeats included) from "
          "one worker rank",
          {{"rank", std::to_string(r)}});
    }
  }
};

}  // namespace

std::string manifest_path(const std::string& dir) {
  return dir + "/dist.manifest";
}

std::string rank_checkpoint_dir(const std::string& dir,
                                std::uint64_t watermark, unsigned rank) {
  return dir + "/w" + std::to_string(watermark) + "/rank" +
         std::to_string(rank);
}

void save_manifest(const DistManifest& m, const std::string& dir) {
  fs::create_directories(dir);
  // The manifest rename is the commit point of the whole distributed
  // checkpoint; io::write_file_atomic fsyncs before renaming so a crash
  // right after the commit cannot leave a manifest whose bytes never hit
  // the disk, and its checked close catches a buffered ENOSPC.
  std::ostringstream os;
  os << k_manifest_magic << ' ' << k_manifest_version << '\n'
     << "num_ranks " << m.num_ranks << '\n'
     << "watermark " << m.watermark << '\n'
     << "seed " << m.seed << '\n'
     << "fingerprint " << m.fingerprint << '\n'
     << "window " << m.t_begin << ' ' << m.t_end << '\n'
     << "slice_ms " << m.slice_ms << '\n'
     << "sink_token " << m.sink_token.size() << ':' << m.sink_token << '\n';
  try {
    io::write_file_atomic(manifest_path(dir), os.str());
  } catch (const std::system_error& e) {
    manifest_fail(e.what(), manifest_path(dir));
  }
}

std::optional<DistManifest> load_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::string magic, tag;
  int version = 0;
  if (!(is >> magic >> version) || magic != k_manifest_magic) {
    manifest_fail(
        "unreadable or truncated header (not a dist manifest; remove the "
        "checkpoint directory to start over)",
        path);
  }
  if (version > k_manifest_version) {
    manifest_fail("manifest format version " + std::to_string(version) +
                      " is newer than this build understands (version " +
                      std::to_string(k_manifest_version) +
                      "); resume with a newer build or remove the checkpoint "
                      "directory to start over",
                  path);
  }
  DistManifest m;
  auto expect = [&](const char* want) {
    if (!(is >> tag) || tag != want) {
      manifest_fail(std::string("missing or misordered field \"") + want +
                        "\" (remove the checkpoint directory to start over)",
                    path);
    }
  };
  expect("num_ranks");
  if (!(is >> m.num_ranks)) manifest_fail("bad num_ranks", path);
  expect("watermark");
  if (!(is >> m.watermark)) manifest_fail("bad watermark", path);
  expect("seed");
  if (!(is >> m.seed)) manifest_fail("bad seed", path);
  expect("fingerprint");
  if (!(is >> m.fingerprint)) manifest_fail("bad fingerprint", path);
  expect("window");
  if (!(is >> m.t_begin >> m.t_end)) manifest_fail("bad window", path);
  expect("slice_ms");
  if (!(is >> m.slice_ms)) manifest_fail("bad slice_ms", path);
  expect("sink_token");
  std::size_t token_len = 0;
  if (!(is >> token_len) || is.get() != ':') {
    manifest_fail("bad sink_token length", path);
  }
  m.sink_token.resize(token_len);
  if (token_len > 0 &&
      !is.read(m.sink_token.data(),
               static_cast<std::streamsize>(token_len))) {
    manifest_fail("truncated sink_token", path);
  }
  return m;
}

std::optional<DistManifest> prepare_resume(const std::string& dir,
                                           const stream::PopulationPlan& plan,
                                           unsigned num_ranks,
                                           TimeMs slice_ms) {
  const auto m = load_manifest(dir);
  if (!m.has_value()) return std::nullopt;
  const auto mismatch = [](const char* field) {
    throw std::runtime_error(
        std::string("dist resume: manifest mismatch on ") + field +
        " (remove the checkpoint directory to start over)");
  };
  if (m->num_ranks != num_ranks) mismatch("num_ranks");
  if (m->fingerprint != plan.fingerprint) mismatch("scenario");
  if (m->seed != plan.seed) mismatch("seed");
  if (m->t_begin != plan.t_begin || m->t_end != plan.t_end) {
    mismatch("window");
  }
  if (m->slice_ms != std::max<TimeMs>(1, slice_ms)) mismatch("slice_ms");
  for (unsigned r = 0; r < num_ranks; ++r) {
    const std::string ck =
        stream::checkpoint_path(rank_checkpoint_dir(dir, m->watermark, r));
    if (!fs::exists(ck)) {
      throw std::runtime_error(
          "dist resume: manifest references missing rank checkpoint " + ck +
          " (remove the checkpoint directory to start over)");
    }
  }
  return m;
}

namespace {

// Removes every w<watermark> bundle under `dir` except the one named `keep`.
void remove_bundles(const std::string& dir, const std::string& keep) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 1 && name[0] == 'w' && name != keep &&
        name.find_first_not_of("0123456789", 1) == std::string::npos) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

// The remote run source: a reader thread per rank turns its frame stream
// into a bounded queue of typed items, and slice k's run from rank r is
// everything rank r sent before its slice-k end frame. A rank failure is
// healed here when supervision is on — kill, respawn from the last
// committed distributed checkpoint, discard the replayed slices — so the
// consumer never sees it. A checkpoint is the ranks' parts persisted as a
// w<k> bundle, committed by replacing dist.manifest.
class RemoteSource final : public stream::RunSource {
 public:
  RemoteSource(const stream::PopulationPlan& plan,
               const std::vector<RankTransport*>& ranks,
               const CoordinatorOptions& options, DistStats& out)
      : plan_(plan),
        options_(options),
        out_(out),
        n_(static_cast<unsigned>(ranks.size())),
        num_cells_(options.stream.spatial != nullptr
                       ? options.stream.spatial->grid.num_cells()
                       : 0),
        live_(ranks) {
    if (n_ == 0) throw std::invalid_argument("dist: no rank transports");
    for (RankTransport* t : ranks) {
      if (t == nullptr) {
        throw std::invalid_argument("dist: null rank transport");
      }
    }
    out_.ranks.resize(n_);
  }
  ~RemoteSource() override { close(); }
  RemoteSource(const RemoteSource&) = delete;
  RemoteSource& operator=(const RemoteSource&) = delete;

  stream::RunStart open(const stream::SliceGrid& grid) override {
    slice_ms_ = grid.slice_ms;
    num_slices_ = grid.num_slices;
    stream::RunStart start{n_, 0, std::nullopt};
    if (options_.resume.has_value()) {
      if (ck_dir_.empty()) {
        throw std::invalid_argument(
            "dist resume requires a checkpoint directory");
      }
      start.slice = options_.resume->watermark;
      start.sink_token = options_.resume->sink_token;
      committed_w_ = options_.resume->watermark;
    }
    if (sup_.enabled && options_.control == nullptr) {
      throw std::invalid_argument(
          "dist: supervision requires a RankControl (respawn seam)");
    }
    if (options_.stream.metrics != nullptr) {
      ins_ = std::make_unique<DistInstruments>(*options_.stream.metrics, n_);
    }
    queues_.resize(n_);
    readers_.resize(n_);
    pending_ck_.resize(n_);
    cur_delivered_.assign(n_, 0);
    cur_discarded_.assign(n_, 0);
    rank_restarts_.assign(n_, 0);
    for (unsigned r = 0; r < n_; ++r) spawn_reader(r);
    return start;
  }

  std::size_t pull(std::uint64_t k, std::span<EventColumns> runs) override {
    for (unsigned r = 0; r < n_; ++r) {
      healing(k, [&] { collect_slice(r, k, &runs[r]); });
    }
    return static_cast<std::size_t>(
        std::count_if(pending_ck_.begin(), pending_ck_.end(),
                      [](const auto& p) { return p.has_value(); }));
  }

  // Rank bytes into a fresh bundle, the manifest rename as the commit
  // point, then GC of superseded bundles.
  void commit(std::uint64_t k, const std::string& sink_token) override {
    CPG_FAILPOINT("dist.checkpoint_commit");
    if (ck_dir_.empty()) {
      fail("checkpoint frames arrived but the coordinator has no "
           "checkpoint directory configured");
    }
    DistManifest m;
    m.num_ranks = n_;
    m.watermark = k;
    m.seed = plan_.seed;
    m.fingerprint = plan_.fingerprint;
    m.t_begin = plan_.t_begin;
    m.t_end = plan_.t_end;
    m.slice_ms = slice_ms_;
    m.sink_token = sink_token;
    for (unsigned r = 0; r < n_; ++r) {
      const std::string rdir = rank_checkpoint_dir(ck_dir_, k, r);
      fs::create_directories(rdir);
      const std::string path = stream::checkpoint_path(rdir);
      try {
        io::write_file_atomic(path, *pending_ck_[r]);
      } catch (const std::system_error& e) {
        fail("cannot write rank checkpoint " + path + ": " + e.what());
      }
      pending_ck_[r].reset();
    }
    save_manifest(m, ck_dir_);
    remove_bundles(ck_dir_, "w" + std::to_string(k));
    committed_w_ = k;
    if (ins_) {
      ins_->checkpoints->inc();
      ins_->last_checkpoint_slice->set(static_cast<std::int64_t>(k));
    }
  }

  void delivered(const stream::SliceReport& report,
                 std::span<EventColumns> runs) override {
    if (ins_) {
      ins_->delivered_events->inc(report.events);
      ins_->delivered_slices->inc();
    }
    for (unsigned r = 0; r < n_; ++r) {
      if (ins_) ins_->rank_events[r]->inc(runs[r].size());
      cur_delivered_[r] += runs[r].size();
      runs[r].clear();
    }
  }

  void finish(stream::StreamStats& stats) override {
    if (!stats.stopped) {
      for (unsigned r = 0; r < n_; ++r) {
        healing(num_slices_, [&] { collect_trailer(r); });
      }
    }
    std::uint64_t rank_total = retired_delivered_;
    for (unsigned r = 0; r < n_; ++r) {
      // Each current incarnation's generated events were either merged or
      // discarded as checkpoint replay; any other split lost or duplicated
      // events. (Without restarts this reduces to delivered == generated.)
      // A graceful stop skips the accounting: ranks never sent their
      // finish stats, and undelivered in-flight slices are expected.
      if (!stats.stopped) {
        if (out_.ranks[r].events != cur_delivered_[r] + cur_discarded_[r]) {
          fail(rank_tag(r) + " generated " +
               std::to_string(out_.ranks[r].events) + " events but " +
               std::to_string(cur_delivered_[r]) + " were merged and " +
               std::to_string(cur_discarded_[r]) + " discarded as replay");
        }
        rank_total += cur_delivered_[r];
      }
      stats.num_shards += out_.ranks[r].num_shards;
      stats.peak_buffered_events =
          std::max(stats.peak_buffered_events, queues_[r]->peak());
    }
    if (!stats.stopped && rank_total != stats.events) {
      fail("merged event count " + std::to_string(stats.events) +
           " disagrees with rank totals " + std::to_string(rank_total));
    }
  }

  // Aborting the transports releases readers blocked in recv and workers
  // blocked in send; closing the queues releases a reader blocked on
  // backpressure, so the joins always complete. Rank failures surface
  // through pull() and finish(): there is no producer error to return.
  std::exception_ptr close() noexcept override {
    for (RankTransport* t : live_) t->abort();
    for (auto& q : queues_) q->close();
    for (auto& th : readers_) {
      if (th.joinable()) th.join();
    }
    return nullptr;
  }

  // Drops the commit point first, so a crash midway leaves orphaned
  // bundles but never a manifest without them.
  void retire() override {
    if (ck_dir_.empty()) return;
    std::error_code ec;
    fs::remove(manifest_path(ck_dir_), ec);
    remove_bundles(ck_dir_, "");
  }

 private:
  static std::string rank_tag(unsigned r) {
    return "rank " + std::to_string(r);
  }

  void spawn_reader(unsigned r) {
    queues_[r] =
        std::make_unique<RankQueue>(options_.stream.max_buffered_events);
    readers_[r] = std::thread(
        reader_loop, std::ref(*live_[r]), r, n_, std::ref(*queues_[r]),
        sup_.enabled ? sup_.heartbeat_deadline_ms : 0, sup_.poll_ms,
        ins_ ? ins_->rank_lag[r] : nullptr);
  }

  // Runs `step`, a collection from one rank's queue, until it succeeds:
  // every rank failure it throws is healed on the way to slice target_k.
  template <typename Step>
  void healing(std::uint64_t target_k, Step&& step) {
    while (true) {
      try {
        return step();
      } catch (RankFailure& f) {
        heal(std::move(f), target_k);
      }
    }
  }

  // Pops rank r's queue through slice k's slice_end. A delivered slice
  // accumulates its events into `*run` and stashes an in-band checkpoint
  // part. A replayed slice (run == nullptr, after a heal) is validated and
  // dropped with its checkpoint part — the replay-mark dedupe at the sink
  // boundary: workers are deterministic, so the replayed events are
  // byte-identical to what already reached the sink before the failure,
  // and dropping them keeps the merged output byte-identical to an
  // unfaulted run. Rank-attributable failures throw RankFailure — the
  // caller heals or converts to a fatal error; only a coordinator-side
  // shutdown ("pipeline closed") stays a plain failure.
  void collect_slice(unsigned r, std::uint64_t k, EventColumns* run) {
    const std::string tag = rank_tag(r);
    const std::string at =
        (run != nullptr ? " at slice " : " replaying slice ") +
        std::to_string(k);
    if (run != nullptr) run->clear();
    std::uint64_t count = 0;
    while (true) {
      auto item = queues_[r]->pop();
      if (!item.has_value()) fail(tag + " pipeline closed");
      switch (item->kind) {
        case RankItem::Kind::error:
          fail_rank(r, tag + " failed" + at + ": " + item->text);
        case RankItem::Kind::eof:
          fail_rank(r, tag + " stream ended" + at);
        case RankItem::Kind::hung:
          fail_rank(r, tag + " hung" + at + ": " + item->text, true);
        case RankItem::Kind::finish:
        case RankItem::Kind::obs:
          fail_rank(r, tag + " sent its trailer early" + at);
        case RankItem::Kind::checkpoint:
          if (item->ck_watermark != k ||
              (run != nullptr && pending_ck_[r].has_value())) {
            fail_rank(r, tag + " sent an out-of-order checkpoint (watermark " +
                             std::to_string(item->ck_watermark) + ")" + at);
          }
          if (run != nullptr) pending_ck_[r] = std::move(item->text);
          break;
        case RankItem::Kind::events:
          // Cell ids come off the wire: check them against the grid before
          // a sink or the per-cell tally indexes by them.
          if (num_cells_ != 0) {
            for (const std::uint32_t c : item->events.cell) {
              if (c >= num_cells_) {
                fail_rank(r, tag + " sent cell id " + std::to_string(c) +
                                 " outside the " + std::to_string(num_cells_) +
                                 "-cell grid" + at);
              }
            }
          }
          count += item->events.size();
          if (run == nullptr) {
            cur_discarded_[r] += item->events.size();
          } else if (run->empty()) {
            *run = std::move(item->events);
          } else {
            run->append(item->events.view());
          }
          break;
        case RankItem::Kind::slice_end:
          if (item->slice_end.slice != k) {
            fail_rank(r, tag + " sent slice " +
                             std::to_string(item->slice_end.slice) +
                             " out of order" + at);
          }
          if (item->slice_end.events != count) {
            fail_rank(r, tag + " tore its slice: received " +
                             std::to_string(count) + " events, header says " +
                             std::to_string(item->slice_end.events) + at);
          }
          return;
      }
    }
  }

  // Trailer per rank: optional obs snapshot, then finish. The reader may
  // still be blocked waiting for EOF afterwards — close() aborts the
  // transports to release it. The obs snapshot is merged only once finish
  // arrives, so a rank that dies between the two and gets respawned never
  // double-counts its metrics.
  void collect_trailer(unsigned r) {
    const std::string tag = rank_tag(r);
    std::optional<std::string> obs_text;
    while (true) {
      auto item = queues_[r]->pop();
      if (!item.has_value()) fail(tag + " pipeline closed");
      switch (item->kind) {
        case RankItem::Kind::error:
          fail_rank(r, tag + " failed: " + item->text);
        case RankItem::Kind::eof:
          fail_rank(r, tag + " stream ended before finish");
        case RankItem::Kind::hung:
          fail_rank(r, tag + " hung: " + item->text, true);
        case RankItem::Kind::obs:
          if (obs_text.has_value()) {
            fail_rank(r, tag + " sent a duplicate obs snapshot");
          }
          obs_text = std::move(item->text);
          break;
        case RankItem::Kind::finish:
          out_.ranks[r] = item->stats;
          if (obs_text.has_value() && options_.stream.metrics != nullptr) {
            obs::merge_snapshot(*options_.stream.metrics,
                                obs::parse_snapshot(*obs_text),
                                {{"rank", std::to_string(r)}});
          }
          return;
        default:
          fail_rank(r, tag + " sent an unexpected frame after its last slice");
      }
    }
  }

  // Heals a rank failure: kill and reap just that rank, roll its stream
  // back to the last committed distributed checkpoint, respawn it through
  // the RankControl and discard the replayed slices so the merge resumes at
  // `target_k` as if nothing happened. Loops because the replacement can
  // itself fail mid-replay (each attempt consumes restart budget). Throws
  // std::runtime_error when supervision is off or the budget runs out.
  void heal(RankFailure f, std::uint64_t target_k) {
    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
      if (!sup_.enabled || options_.control == nullptr) fail(f.message);
      if (out_.restarts >= sup_.max_restarts) {
        const std::string msg =
            "restart budget exhausted (" + std::to_string(sup_.max_restarts) +
            " restart" + (sup_.max_restarts == 1 ? "" : "s") +
            " used); last failure: " + f.message;
        if (sup_.on_incident) {
          Incident inc;
          inc.rank = f.rank;
          inc.restart = out_.restarts;
          inc.slice = target_k;
          inc.hung = f.hung;
          inc.cause = msg;
          sup_.on_incident(inc);
        }
        fail(msg);
      }
      const unsigned r = f.rank;
      ++out_.restarts;
      ++rank_restarts_[r];
      if (ins_) ins_->restarts->inc();

      // Tear down the failed incarnation: unblock and retire its reader,
      // then reap the process (SIGKILL — also the only way out of a hang).
      live_[r]->abort();
      queues_[r]->close();
      readers_[r].join();
      options_.control->kill_rank(r);
      pending_ck_[r].reset();
      retired_delivered_ += cur_delivered_[r];
      cur_delivered_[r] = 0;
      cur_discarded_[r] = 0;

      const std::uint64_t replay_from = committed_w_.value_or(0);
      Incident inc;
      inc.rank = r;
      inc.restart = out_.restarts;
      inc.slice = target_k;
      inc.replay_from = replay_from;
      inc.hung = f.hung;
      inc.cause = f.message;
      out_.incidents.push_back(inc);
      if (sup_.on_incident) sup_.on_incident(inc);

      // Exponential backoff per rank: a crash-looping rank slows down, a
      // first-time failure respawns almost immediately.
      const int shift =
          static_cast<int>(std::min<unsigned>(rank_restarts_[r] - 1, 20));
      const long long backoff = std::min<long long>(
          sup_.backoff_cap_ms,
          static_cast<long long>(sup_.backoff_base_ms) << shift);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }

      const std::string resume_dir =
          committed_w_.has_value() && !ck_dir_.empty()
              ? rank_checkpoint_dir(ck_dir_, *committed_w_, r)
              : std::string();
      live_[r] = options_.control->respawn(r, resume_dir);
      spawn_reader(r);
      try {
        for (std::uint64_t s = replay_from; s < target_k; ++s) {
          collect_slice(r, s, nullptr);
        }
        break;
      } catch (RankFailure& again) {
        f = std::move(again);  // replacement failed too: loop, spend budget
      }
    }
    if (ins_) {
      ins_->degraded_ms->inc(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }

  const stream::PopulationPlan& plan_;
  const CoordinatorOptions& options_;
  const SuperviseOptions& sup_ = options_.supervise;
  const std::string& ck_dir_ = options_.stream.checkpoint.dir;
  DistStats& out_;
  const unsigned n_;
  const std::uint32_t num_cells_;  // 0 = no spatial layer
  TimeMs slice_ms_ = 1;
  std::uint64_t num_slices_ = 0;
  std::unique_ptr<DistInstruments> ins_;
  // The current incarnation of each rank's transport; a heal swaps in the
  // respawned one, with a fresh queue and reader.
  std::vector<RankTransport*> live_;
  std::vector<std::unique_ptr<RankQueue>> queues_;
  std::vector<std::thread> readers_;
  std::vector<std::optional<std::string>> pending_ck_;
  // Per-incarnation event accounting: everything the *current*
  // incarnation of a rank emitted was either delivered (merged into the
  // sink) or discarded as checkpoint replay. Its finish stats must account
  // for exactly that sum — the distributed analogue of the single-process
  // merged-vs-generated cross-check, and the proof the replay dedupe
  // dropped neither too little nor too much.
  std::vector<std::uint64_t> cur_delivered_;
  std::vector<std::uint64_t> cur_discarded_;
  // Events merged from incarnations that later died (they stay part of
  // the delivered stream; their replacement replays past them).
  std::uint64_t retired_delivered_ = 0;
  // Watermark of the last committed distributed checkpoint — where a
  // respawned rank resumes from. nullopt = none: respawn regenerates from
  // the start of the run.
  std::optional<std::uint64_t> committed_w_;
  std::vector<unsigned> rank_restarts_;
};

}  // namespace

DistStats run_merge(const stream::PopulationPlan& plan,
                    const std::vector<RankTransport*>& ranks,
                    stream::EventSink& sink,
                    const CoordinatorOptions& options) {
  DistStats out;
  RemoteSource source(plan, ranks, options, out);
  out.totals = stream::consume(plan, options.stream, sink, source);
  return out;
}

}  // namespace cpg::dist
