// cpgbench: the generator's benchmark program (see README.md).
//
//   cpgbench --workload <steady_cpgt|storm_spatial|ranks3_csv> --seed <n>
//            --seconds <s> --trace <0|1> [--root <dir>] [--commit <id>]
//
// Untraced (--trace 0): repeats forked, isolated runs of the workload for
// --seconds, checks each run's output digest against the single-thread
// layer replay of the same seed, and prints the end-to-end metrics (medians
// over the runs). Traced (--trace 1): alternates untraced and traced runs,
// then times the layer replay, checks that spans account for wall time, and
// prints the per-layer metrics. The last line of stdout is one JSON object.
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "stream/binary_sink.h"

namespace cpgbench {
namespace {

namespace fs = std::filesystem;

// Wall-time guards that keep one invocation under three minutes even when
// runs hang: input generation and every forked run are killed after
// k_run_timeout_s (a healthy run takes a few seconds), and no run starts
// after k_start_cutoff_s.
constexpr double k_run_timeout_s = 40.0;
constexpr double k_start_cutoff_s = 90.0;
// Accounting tolerances of the traced run (see README.md).
constexpr double k_replay_tolerance = 0.05;
constexpr double k_consumer_tolerance = 0.01;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".bench_build";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--root") {
      a.root = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --- host record ------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_record(const Args& a) {
  utsname u{};
  ::uname(&u);
  std::ostringstream os;
  os << "{\"host_cpus\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"cpu_model\":" << json_str(cpu_model())
     << ",\"compiler\":" << json_str(std::string("g++ ") + __VERSION__)
     << ",\"build_type\":" << json_str(CPGBENCH_BUILD_TYPE)
     << ",\"commit\":" << json_str(a.commit)
     << ",\"kernel\":" << json_str(u.release) << "}";
  return os.str();
}

// --- reference digests ------------------------------------------------------

std::string encode_replay(const ReplayResult& r) {
  std::ostringstream os;
  os << std::setprecision(17) << "column_digest " << r.column_digest
     << "\ncsv_digest " << r.csv_digest << "\nevents " << r.events
     << "\nues_started " << r.ues_started << "\nwire_bytes " << r.wire_bytes
     << "\nwall_s " << r.wall_s << "\nsink_rss_growth_mb "
     << r.sink_rss_growth_mb << "\n";
  for (const auto& [name, s] : r.self_s) os << "self " << name << ' ' << s << "\n";
  os << "--spans--\n" << encode_spans(r.spans);
  return os.str();
}

ReplayResult decode_replay(const std::string& blob) {
  ReplayResult r;
  const auto cut = blob.find("--spans--\n");
  std::istringstream in(blob.substr(0, cut));
  std::string key;
  while (in >> key) {
    if (key == "column_digest") in >> r.column_digest;
    else if (key == "csv_digest") in >> r.csv_digest;
    else if (key == "events") in >> r.events;
    else if (key == "ues_started") in >> r.ues_started;
    else if (key == "wire_bytes") in >> r.wire_bytes;
    else if (key == "wall_s") in >> r.wall_s;
    else if (key == "sink_rss_growth_mb") in >> r.sink_rss_growth_mb;
    else if (key == "self") {
      std::string name;
      double s = 0;
      in >> name >> s;
      r.self_s[name] = s;
    }
  }
  if (cut != std::string::npos) {
    r.spans = decode_spans(std::string_view(blob).substr(cut + 10));
  }
  r.ok = true;
  return r;
}

ReplayResult replay_in_child(const RunSpec& spec) {
  const ForkOutcome out =
      run_forked([&] { return encode_replay(replay(spec)); }, k_run_timeout_s);
  if (!out.ok) {
    ReplayResult r;
    r.error = out.error;
    return r;
  }
  return decode_replay(out.blob);
}

struct Reference {
  std::uint64_t column = 0;
  std::uint64_t csv = 0;
};

// The replay's digests for this seed and workload, cached next to the
// inputs.
Reference load_or_replay_reference(const RunSpec& spec,
                                   std::string_view workload) {
  const std::string path =
      spec.inputs.dir + "/ref_" + std::string(workload) + ".txt";
  Reference ref;
  if (std::ifstream in(path); in >> ref.column >> ref.csv) return ref;
  const ReplayResult r = replay_in_child(spec);
  if (!r.ok) throw std::runtime_error("reference replay: " + r.error);
  std::ofstream(path) << r.column_digest << ' ' << r.csv_digest << "\n";
  return Reference{r.column_digest, r.csv_digest};
}

// --- one checked run --------------------------------------------------------

// Reads back what the run wrote (or takes the sink's own digest), compares
// it against the replay, and removes the outputs.
bool output_matches(const RunSpec& spec, const RunResult& r,
                    const Reference& ref) {
  bool ok = false;
  try {
    switch (spec.kind) {
      case Kind::steady_cpgt:
        ok = digest_cpgt_file(
                 cpg::stream::BinarySink::path_for(spec.out_prefix)) ==
             ref.column;
        break;
      case Kind::storm_spatial:
        ok = r.digest == ref.column;
        break;
      case Kind::ranks3_csv:
        ok = digest_csv_files(spec.out_prefix) == ref.csv;
        break;
    }
  } catch (const std::exception& e) {
    std::cerr << "digest read-back failed: " << e.what() << "\n";
  }
  for (const char* suffix : {".cpgt", ".cpgt.tmp", "_events.csv", "_ues.csv",
                             "_events.csv.tmp", "_ues.csv.tmp"}) {
    std::error_code ec;
    fs::remove(spec.out_prefix + suffix, ec);
  }
  return ok;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(12) << "\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_str(metrics[i].name)
       << ": {\"value\": " << metrics[i].value
       << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

// Prints the result line and keeps a copy with the host record.
void report(const Args& a, const std::string& host, bool correct,
            std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& file_metrics,
            const std::vector<Metric>& metrics) {
  fs::create_directories(a.root + "/results");
  std::ofstream(a.root + "/results/" + a.workload + "_s" +
                std::to_string(a.seed) + "_t" + (a.trace ? "1" : "0") +
                ".json")
      << "{\"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"host\": " << host
      << ", " << result_json(correct, attempted, failed, file_metrics)
      << "}\n";
  std::cout << "{" << result_json(correct, attempted, failed, metrics) << "}"
            << std::endl;
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const Metric& m : ms) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
}

int run(const Args& a) {
  const auto t_start = Clock::now();
  const Workload* wl = nullptr;
  for (const Workload& w : k_workloads) {
    if (w.name == a.workload) wl = &w;
  }
  if (wl == nullptr) throw std::invalid_argument("unknown workload " + a.workload);

  // Descendants of a killed run are re-parented here and reaped.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  const std::string host = host_record(a);
  std::cout << "host " << host << "\n";

  RunSpec spec;
  spec.kind = wl->kind;
  spec.seed = a.seed;
  spec.inputs = ensure_inputs(a.root + "/inputs", a.seed);
  fs::create_directories(a.root + "/out");
  spec.out_prefix = a.root + "/out/" + a.workload;
  const Reference ref = load_or_replay_reference(spec, wl->name);

  std::vector<RunResult> plain;
  std::vector<RunResult> traced;
  std::vector<std::pair<std::string, std::vector<Span>>> span_runs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool accounting_ok = true;

  auto one = [&](bool with_trace, bool warmup = false) {
    std::vector<Span> spans;
    const RunResult r = measure_in_child(spec, with_trace,
                                         with_trace ? &spans : nullptr,
                                         k_run_timeout_s);
    ++attempted;
    const bool match = r.ok && output_matches(spec, r, ref);
    if (!match) {
      ++failed;
      std::cerr << "run " << attempted << " failed: "
                << (r.ok ? "output digest differs from the replay" : r.error)
                << "\n";
      return;
    }
    std::cerr << "run " << attempted << (with_trace ? " traced" : "")
              << ": " << r.events << " events, gen " << r.gen_wall_s
              << " s, setup " << r.setup_s << " s, first slice "
              << r.first_slice_s << " s, cpu " << r.cpu_s << " s, rss +"
              << r.rss_growth_mb << " MiB\n";
    if (warmup) return;
    if (!with_trace) {
      plain.push_back(r);
      return;
    }
    // The sink's calls and the consumer's gaps between them must tile the
    // generation call.
    const double tiled =
        r.sink_busy_s + r.sink_start_s + r.sink_finish_s + r.consumer_gap_s;
    const double err = std::abs(tiled - r.gen_wall_s) / r.gen_wall_s;
    if (err > k_consumer_tolerance) {
      accounting_ok = false;
      std::cerr << "accounting: sink spans + consumer gaps = " << tiled
                << " s vs generation wall " << r.gen_wall_s << " s\n";
    }
    span_runs.emplace_back(a.workload + "-s" + std::to_string(a.seed) + "-r" +
                               std::to_string(attempted),
                           std::move(spans));
    traced.push_back(r);
  };

  // One checked warm-up run first: the first run after input generation
  // and the replay pays for cold caches and is not representative.
  one(false, true);
  const double budget = a.trace ? 0.7 * a.seconds : a.seconds;
  const auto t_loop = Clock::now();
  const std::size_t min_runs = a.trace ? 5 : 4;
  while (attempted < min_runs ||
         (seconds_since(t_loop) < budget && attempted < 400)) {
    if (seconds_since(t_start) > k_start_cutoff_s) break;
    one(a.trace && attempted % 2 == 1);
  }

  auto med = [](const std::vector<RunResult>& rs, auto&& f) {
    std::vector<double> v;
    for (const RunResult& r : rs) v.push_back(f(r));
    return median(v);
  };
  auto eps = [](const RunResult& r) {
    return static_cast<double>(r.events) / r.gen_wall_s;
  };
  auto per_event = [](const RunResult& r, double x) {
    return r.events > 0 ? x / static_cast<double>(r.events) : 0.0;
  };

  const std::vector<Metric> e2e{
      {"events_per_s", med(plain, eps), "events/s"},
      {"setup_s", med(plain, [](const RunResult& r) { return r.setup_s; }), "s"},
      {"first_slice_s",
       med(plain, [](const RunResult& r) { return r.first_slice_s; }), "s"},
      {"peak_rss_mb",
       med(plain, [](const RunResult& r) { return r.rss_growth_mb; }), "MiB"},
      {"cpu_ns_per_event",
       med(plain, [&](const RunResult& r) { return per_event(r, 1e9 * r.cpu_s); }),
       "ns/event"},
  };
  const std::vector<Metric> e2e_text{
      {"out_bytes_per_event",
       med(plain,
           [&](const RunResult& r) {
             return per_event(r, static_cast<double>(r.out_bytes));
           }),
       "B/event"},
      {"failed_frac",
       attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                     : 1.0,
       "frac"},
  };
  std::cout << "workload " << a.workload << " seed " << a.seed << ": "
            << plain.size() << " untraced and " << traced.size()
            << " traced runs, " << (plain.empty() ? 0 : plain.front().events)
            << " events per run\n";
  std::vector<Metric> all = e2e;
  all.insert(all.end(), e2e_text.begin(), e2e_text.end());
  print_table("end-to-end (median over untraced runs)", all);

  if (!a.trace) {
    const bool correct = failed == 0 && !plain.empty();
    report(a, host, correct, attempted, failed, all, e2e);
    return 0;
  }

  // Traced part 2: the single-thread layer replay.
  ReplayResult rp;
  if (seconds_since(t_start) < k_start_cutoff_s) rp = replay_in_child(spec);
  ++attempted;
  if (!rp.ok) {
    ++failed;
    std::cerr << "replay failed: " << rp.error << "\n";
  } else if (rp.column_digest != ref.column ||
             (spec.kind == Kind::ranks3_csv && rp.csv_digest != ref.csv)) {
    ++failed;
    std::cerr << "replay digest differs from the reference\n";
  }
  const double unaccounted =
      rp.wall_s > 0 ? rp.self_s["replay"] / rp.wall_s : 1.0;
  if (unaccounted > k_replay_tolerance) {
    accounting_ok = false;
    std::cerr << "accounting: replay spans leave " << unaccounted * 100
              << "% of the replay wall time uncovered\n";
  }
  span_runs.emplace_back(a.workload + "-s" + std::to_string(a.seed) + "-replay",
                         rp.spans);
  fs::create_directories(a.root + "/spans");
  const std::string span_path =
      a.root + "/spans/" + a.workload + "_s" + std::to_string(a.seed) + ".json";
  write_span_file(span_path, span_runs);

  const double ev = static_cast<double>(std::max<std::uint64_t>(rp.events, 1));
  const double ues =
      static_cast<double>(std::max<std::uint64_t>(rp.ues_started, 1));
  auto ns_per = [&](const char* layer, double n) {
    return 1e9 * rp.self_s[layer] / n;
  };
  auto tmed = [&](auto&& f) { return med(traced, f); };
  const double overhead =
      traced.empty() || plain.empty() ? 0.0
                                      : 1.0 - med(traced, eps) / med(plain, eps);

  const std::vector<Metric> layers{
      {"model.load_s", tmed([](const RunResult& r) { return r.model_load_s; }), "s"},
      {"model.compile_s",
       tmed([](const RunResult& r) { return r.model_compile_s; }), "s"},
      {"model.arena_bytes",
       tmed([](const RunResult& r) { return double(r.arena_bytes); }), "B"},
      {"scenario.compile_s",
       tmed([](const RunResult& r) { return r.scenario_compile_s + r.plan_s; }),
       "s"},
      {"scenario.segments",
       tmed([](const RunResult& r) { return double(r.segments); }), "count"},
      {"spatial.annotate_ns_per_event", ns_per("spatial.annotate", ev),
       "ns/event"},
      {"generator.ctor_ns_per_ue", ns_per("generator.ctor", ues), "ns/UE"},
      {"generator.first_advance_ns_per_ue",
       ns_per("generator.first_advance", ues), "ns/UE"},
      {"generator.advance_ns_per_event", ns_per("generator.advance", ev),
       "ns/event"},
      {"generator.events", static_cast<double>(rp.events), "count"},
      {"core.sort_ns_per_event", ns_per("core.sort", ev), "ns/event"},
      {"stream.merge_ns_per_event", ns_per("stream.merge", ev), "ns/event"},
      {"stream.consumer_gap_s",
       tmed([](const RunResult& r) { return r.consumer_gap_s; }), "s"},
      {"stream.producer_stall_s",
       tmed([](const RunResult& r) { return r.producer_stall_s; }), "s"},
      {"stream.sink_ns_per_event",
       tmed([&](const RunResult& r) { return per_event(r, 1e9 * r.sink_busy_s); }),
       "ns/event"},
      {"stream.sink_busy_frac",
       tmed([](const RunResult& r) { return r.sink_busy_s / r.gen_wall_s; }),
       "frac"},
      {"stream.sink_finish_s",
       tmed([](const RunResult& r) { return r.sink_finish_s; }), "s"},
      {"stream.peak_buffered_events",
       tmed([](const RunResult& r) { return double(r.peak_buffered); }), "count"},
      {"stream.out_bytes_per_event",
       tmed([&](const RunResult& r) {
         return per_event(r, static_cast<double>(r.out_bytes));
       }),
       "B/event"},
      {"stream.sink_rss_growth_mb", rp.sink_rss_growth_mb, "MiB"},
      {"trace_fmt.encode_ns_per_event", ns_per("trace_fmt.encode", ev),
       "ns/event"},
      {"dist.wire_bytes_per_event", static_cast<double>(rp.wire_bytes) / ev,
       "B/event"},
      {"dist.encode_ns_per_event", ns_per("dist.encode", ev), "ns/event"},
      {"dist.decode_ns_per_event", ns_per("dist.decode", ev), "ns/event"},
      {"dist.recv_blocked_s",
       tmed([](const RunResult& r) { return r.recv_blocked_s; }), "s"},
      {"dist.worker_send_s",
       tmed([](const RunResult& r) { return r.worker_send_s; }), "s"},
      {"dist.rank_event_skew",
       tmed([](const RunResult& r) { return r.event_skew; }), "ratio"},
      {"obs.trace_overhead_frac", overhead, "frac"},
  };
  print_table("per-layer (traced runs and the layer replay)", layers);
  std::cout << "replay: " << rp.wall_s << " s wall, "
            << std::setprecision(4) << unaccounted * 100
            << "% outside layer spans (tolerance "
            << k_replay_tolerance * 100 << "%); spans in " << span_path << "\n";

  const bool correct =
      failed == 0 && accounting_ok && !plain.empty() && !traced.empty();
  report(a, host, correct, attempted, failed, layers, layers);
  return 0;
}

}  // namespace
}  // namespace cpgbench

int main(int argc, char** argv) {
  try {
    return cpgbench::run(cpgbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "cpgbench: " << e.what() << "\n";
    return 1;
  }
}
