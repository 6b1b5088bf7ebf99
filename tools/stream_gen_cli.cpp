#include "stream_gen_cli.h"

#include <cerrno>
#include <cstdlib>

namespace cpg::cli {

const char* const k_usage = R"(usage: stream_gen [options]
  --model <file>            load a fitted model (default: fit a demo model)
  --scenario <file>         drive the run from a scenario spec (population
                            churn, flash crowds, 4G->5G migration waves,
                            phase pacing / core degradation); replaces
                            --phones/--cars/--tablets/--start-hour/--hours
  --phones <n>              phone UE count (default 1000)
  --cars <n>                connected-car UE count (default 0)
  --tablets <n>             tablet UE count (default 0)
  --start-hour <h>          starting hour of day (default 10)
  --hours <h>               duration in hours (default 1.0)
  --seed <s>                master seed (default 42)
  --spatial <spec>          attach a spatial layer: a topology spec file, or
                            grid:<cols>x<rows>x<cell_m>[:wrap|:clip] to
                            synthesize one. Every event then carries the
                            serving cell (cpgt v2 cell column, per-cell
                            metrics); scenario `storm` verbs require this
  --shards <k>              shard count (0 = one per worker thread)
  --threads <t>             worker threads (0 = hardware concurrency)
  --slice-min <m>           slice length in minutes (default 10)
  --queue-events <q>        per-queue backpressure threshold in events
  --clock <mode>            afap | realtime | accel (default afap)
  --accel <x>               trace seconds per wall second (accel mode, > 0)
  --out <prefix>            write the trace incrementally; --format picks the
                            encoding
  --format <f>              trace encoding for --out: csv (default, writes
                            <prefix>_{events,ues}.csv) or cpgt (the columnar
                            binary format, writes <prefix>.cpgt; convert with
                            trace_cat)
  --mcn                     feed the stream into the live EPC core simulator
  --ranks <n>               distributed generation: spawn n worker processes
                            (one rank each) and merge their streams here;
                            output is byte-identical to a 1-process run
  --supervise <p>           self-healing for --ranks runs: off (default,
                            fail-fast) or restart[:max_restarts] — kill and
                            respawn a dead or hung rank from the last
                            committed distributed checkpoint, replaying and
                            deduping so merged output stays byte-identical;
                            at most max_restarts respawns (default 3)
  --heartbeat-deadline-ms <ms>
                            declare a supervised rank hung after this much
                            frame silence (default 5000; workers heartbeat
                            at a quarter of this; 0 = hang detection off)
  --checkpoint-dir <dir>    periodically checkpoint stream progress to <dir>
  --checkpoint-interval <k> slices between checkpoints (default 16)
  --resume                  continue from the checkpoint in --checkpoint-dir
                            (byte-identical output; fresh start if absent)
  --sink-policy <p>         supervise the sink with retry/backoff; on retry
                            exhaustion: fail | drop | spill (default: no
                            supervision). Failpoints arm via CPG_FAILPOINTS
                            (plus CPG_FAILPOINTS_RANK<r> per worker rank).
  --spill-file <path>       dead-letter file for --sink-policy spill
                            (default <out>_spill.csv)
  --metrics-out <path>      export runtime metrics to <path>; format is JSON
                            when the path ends in .json, Prometheus text
                            exposition otherwise
  --metrics-interval-s <s>  metrics snapshot period in seconds (default 1.0)
  --dist-worker <r>         internal: run as worker rank r of a --ranks run,
                            speaking the rank protocol on fd 3 (spawned by
                            the coordinator, not for interactive use)
  --dist-resume-dir <dir>   internal: directory of this rank's committed
                            checkpoint when resuming a distributed run
  --dist-heartbeat-ms <ms>  internal: worker heartbeat period under
                            --supervise (set by the coordinator)
  --dist-obs                internal: ship this rank's metrics registry
                            snapshot to the coordinator for aggregation
  --help                    print this message and exit
)";

const std::set<std::string>& value_flags() {
  static const std::set<std::string> flags{
      "model",      "scenario", "phones",      "cars",        "tablets",
      "start-hour", "hours",    "seed",        "shards",      "spatial",
      "threads",    "slice-min", "queue-events", "clock",
      "accel",      "out",      "format",      "metrics-out",
      "metrics-interval-s",
      "checkpoint-dir", "checkpoint-interval", "sink-policy", "spill-file",
      "ranks",      "dist-worker", "dist-resume-dir", "dist-heartbeat-ms",
      "supervise",  "heartbeat-deadline-ms"};
  return flags;
}

const std::set<std::string>& switch_flags() {
  static const std::set<std::string> flags{"mcn", "resume", "dist-obs",
                                           "help"};
  return flags;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument \"" + arg +
                       "\" (flags start with --)");
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    if (switch_flags().count(name) != 0) {
      if (has_value) {
        throw UsageError("--" + name + " does not take a value");
      }
      flags.insert_or_assign(name, std::string("1"));
      continue;
    }
    if (value_flags().count(name) == 0) {
      throw UsageError("unknown flag --" + name);
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        throw UsageError("--" + name + " requires a value");
      }
      value = argv[++i];
    }
    flags[name] = value;
  }
  return flags;
}

std::uint64_t flag_u64(const std::map<std::string, std::string>& flags,
                       const std::string& key, std::uint64_t fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno == ERANGE || s.front() == '-') {
    throw UsageError("--" + key + ": expected a non-negative integer, got \"" +
                     s + "\"");
  }
  return v;
}

double flag_double(const std::map<std::string, std::string>& flags,
                   const std::string& key, double fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || errno == ERANGE || v != v) {
    throw UsageError("--" + key + ": expected a number, got \"" + s + "\"");
  }
  return v;
}

std::uint64_t flag_u64_range(const std::map<std::string, std::string>& flags,
                             const std::string& key, std::uint64_t fallback,
                             std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t v = flag_u64(flags, key, fallback);
  if (v < lo || v > hi) {
    throw UsageError("--" + key + ": must be between " + std::to_string(lo) +
                     " and " + std::to_string(hi) + ", got " +
                     std::to_string(v));
  }
  return v;
}

double flag_double_positive(const std::map<std::string, std::string>& flags,
                            const std::string& key, double fallback,
                            double hi) {
  const double v = flag_double(flags, key, fallback);
  if (!(v > 0.0) || !(v <= hi)) {
    throw UsageError("--" + key + ": must be > 0 and at most " +
                     std::to_string(hi) + ", got \"" +
                     (flags.count(key) ? flags.at(key)
                                       : std::to_string(fallback)) +
                     "\"");
  }
  return v;
}

}  // namespace cpg::cli
