// Shared declarations of the generator benchmark (see README.md).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/event_columns.h"
#include "core/types.h"
#include "model/compiled.h"
#include "model/semi_markov.h"
#include "scenario/scenario.h"
#include "spatial/config.h"
#include "stream/population.h"

namespace cpgbench {

// --- workloads --------------------------------------------------------------

enum class Kind : std::uint8_t { steady_cpgt, storm_spatial, ranks3_csv };

// Fixed input sizes. The device mix is the paper's 63/25/12.
inline constexpr std::size_t k_stationary_ues = 100'000;
inline constexpr double k_stationary_hours = 8.0;
inline constexpr int k_stationary_start_hour = 9;
inline constexpr std::size_t k_storm_ues = 1'200'000;
// Generator threads (in-process) or worker ranks (distributed); the consumer
// or coordinator takes the fourth core.
inline constexpr unsigned k_parallel = 3;

// UE counts per device type (indexed by index_of) for `total` UEs in the
// paper's 63/25/12 phone/car/tablet mix.
inline std::array<std::size_t, cpg::k_num_device_types> device_mix(
    std::size_t total) {
  const std::size_t phones = total * 63 / 100;
  const std::size_t cars = total * 25 / 100;
  return {phones, cars, total - phones - cars};
}

// Seeded model fit: a synthetic ground-truth trace of this many UEs.
inline constexpr std::size_t k_fit_ues = 1000;
inline constexpr double k_fit_hours = 48.0;

struct Workload {
  std::string_view name;
  Kind kind;
};

inline constexpr Workload k_workloads[] = {
    {"steady_cpgt", Kind::steady_cpgt},
    {"storm_spatial", Kind::storm_spatial},
    {"ranks3_csv", Kind::ranks3_csv},
};

// Files the program under test receives, generated from the seed.
struct Inputs {
  std::string dir;
  std::string model;    // fitted model file
  std::string scn;      // scaled alarm-storm scenario spec
  std::string spatial;  // matching spatial spec
};

// Creates (or reuses) the inputs of `seed` under `cache_root`. The fit runs
// in a forked child so the calling process stays small.
Inputs ensure_inputs(const std::string& cache_root, std::uint64_t seed);

// --- clocks and process accounting -----------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// /proc/self/status fields in MiB (VmRSS, VmHWM).
double rss_mb();
double hwm_mb();
// User + system CPU seconds of this process (all threads) and of its reaped
// children.
double cpu_self_s();
double cpu_children_s();

// --- digests ----------------------------------------------------------------

// 64-bit FNV-1a over words: order-sensitive, cheap enough for tens of
// millions of events.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) noexcept { h = (h ^ v) * 1099511628211ull; }
};

// Digest of a delivered stream: the UE registry, then (ts, ue, type, cell)
// per event in delivery order. Events without a cell column hash a fixed
// marker in its place.
struct ColumnDigest {
  Fnv f;
  std::uint64_t events = 0;

  void registry(const cpg::DeviceType* devices, std::size_t n);
  void add(const cpg::EventColumnsView& v);
};

// Byte-stream digest (CSV outputs), hashing 8-byte words with a carry.
struct ByteDigest {
  Fnv f;
  std::uint64_t bytes = 0;
  std::uint64_t carry = 0;
  unsigned carry_len = 0;

  void add(const char* p, std::size_t n);
  std::uint64_t value() const;
};

// Digests of files a run wrote, read back from disk.
std::uint64_t digest_cpgt_file(const std::string& path);
std::uint64_t digest_csv_files(const std::string& prefix);

// --- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the log's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the same log, -1 = root
};

// In-memory span log, appended from any thread, written out at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int add(std::string_view name, Clock::time_point t0, Clock::time_point t1,
          int parent = -1);
  // A span whose end is not known yet: open() records it, close() ends it.
  int open(std::string_view name, int parent = -1);
  void close(int span);
  std::vector<Span> spans() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Serialization of spans through the result pipe and into the span file.
std::string encode_spans(const std::vector<Span>& spans);
std::vector<Span> decode_spans(std::string_view text);
// Writes `runs` (run id -> spans) as one JSON array of
// {run, name, start_us, end_us, parent}.
void write_span_file(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<Span>>>& runs);

// --- isolation --------------------------------------------------------------

struct ForkOutcome {
  bool ok = false;     // exited 0 within the timeout
  std::string blob;    // everything the child wrote back
  std::string error;   // why !ok
};

// Runs `body` in a forked child that leads its own process group, and
// returns the bytes it produced. A child that throws, crashes, exits
// non-zero or overruns `timeout_s` yields ok == false; on timeout the whole
// group (the child and any processes it started) is killed. Every process
// is reaped before this returns.
ForkOutcome run_forked(const std::function<std::string()>& body,
                       double timeout_s);

// --- measured runs ----------------------------------------------------------

struct RunSpec {
  Kind kind = Kind::steady_cpgt;
  std::uint64_t seed = 1;
  Inputs inputs;
  std::string out_prefix;  // file sinks write under this prefix
};

// Everything a measured run reports back to the parent. Trivially copyable:
// it crosses the result pipe as raw bytes.
struct RunResult {
  bool ok = false;
  char error[240] = {};

  // End to end.
  double setup_s = 0;
  double gen_wall_s = 0;
  double first_slice_s = 0;
  double cpu_s = 0;
  double rss_growth_mb = 0;
  std::uint64_t events = 0;
  std::uint64_t out_bytes = 0;
  std::uint64_t digest = 0;  // counting sink only; files are read back

  // Set-up breakdown.
  double model_load_s = 0;
  double model_compile_s = 0;
  double scenario_compile_s = 0;
  double plan_s = 0;
  double spawn_s = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t segments = 0;

  // Traced runs only.
  double sink_busy_s = 0;
  double sink_start_s = 0;
  double sink_finish_s = 0;
  double consumer_gap_s = 0;
  double producer_stall_s = 0;
  double recv_blocked_s = 0;
  double worker_send_s = 0;
  double event_skew = 0;
  std::uint64_t peak_buffered = 0;
};

// The set-up a user pays before generation starts: model load and compile,
// scenario and spatial parse and compile, and plan build. The plan points
// into the other members, so a Prepared is filled in place and never moved.
struct Prepared {
  std::optional<cpg::model::ModelSet> models;
  std::optional<cpg::model::CompiledModel> compiled;
  std::optional<cpg::spatial::SpatialConfig> spatial;
  std::optional<cpg::scenario::CompiledScenario> scenario;
  std::optional<cpg::stream::PopulationPlan> stationary;
  const cpg::stream::PopulationPlan* plan = nullptr;

  Prepared() = default;
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;
};

// Fills `p` for `spec`, recording the set-up breakdown in `r` (and spans
// into `log` when non-null).
void prepare(const RunSpec& spec, Prepared& p, RunResult& r, SpanLog* log);

// Runs one measured generation in a forked child (its own process group;
// worker ranks are its children) and returns what it reported. `spans`
// receives the traced run's spans. A child that crashes, exits non-zero or
// overruns `timeout_s` yields ok == false.
RunResult measure_in_child(const RunSpec& spec, bool traced,
                           std::vector<Span>* spans, double timeout_s);

// --- single-thread layer replay ---------------------------------------------

struct ReplayResult {
  bool ok = false;
  std::string error;
  std::uint64_t column_digest = 0;
  std::uint64_t csv_digest = 0;  // ranks3_csv only
  std::uint64_t events = 0;
  std::uint64_t ues_started = 0;
  std::uint64_t wire_bytes = 0;
  double wall_s = 0;
  // Resident-set growth across the sink's calls after the first: memory the
  // sink keeps as the stream goes on.
  double sink_rss_growth_mb = 0;
  // Self time per layer span name, seconds.
  std::map<std::string, double> self_s;
  std::vector<Span> spans;
};

// Replays `spec` on one thread, calling the runtime's layers in the
// runtime's order with a span around each call, and digests the stream.
ReplayResult replay(const RunSpec& spec);

}  // namespace cpgbench
