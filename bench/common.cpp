#include "common.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string_view>

#include "io/table.h"
#include "statemachine/replay.h"
#include "synthetic/workload.h"
#include "validation/macro.h"

namespace cpg::bench {

namespace {

bool consume_flag(std::string_view arg, std::string_view name,
                  std::string_view& value) {
  if (arg.substr(0, name.size()) != name) return false;
  if (arg.size() <= name.size() || arg[name.size()] != '=') return false;
  value = arg.substr(name.size() + 1);
  return true;
}

}  // namespace

std::size_t BenchConfig::fit_ues() const {
  return static_cast<std::size_t>(2000.0 * scale);
}

std::size_t BenchConfig::scenario1_ues() const {
  // Paper: 38,000 validation UEs against 37,325 fitted UEs (~1.02x).
  return static_cast<std::size_t>(static_cast<double>(fit_ues()) * 1.02);
}

std::size_t BenchConfig::scenario2_ues() const {
  return 10 * scenario1_ues();
}

std::size_t BenchConfig::cluster_theta_n() const {
  // theta_n = 1000 for the paper's 37,325 UEs, scaled proportionally.
  const auto scaled = static_cast<std::size_t>(
      1000.0 * static_cast<double>(fit_ues()) / 37'325.0);
  return std::max<std::size_t>(25, scaled);
}

BenchConfig BenchConfig::from_args(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (consume_flag(arg, "--scale", value)) {
      config.scale = std::strtod(std::string(value).c_str(), nullptr);
    } else if (consume_flag(arg, "--seed", value)) {
      config.seed = std::strtoull(std::string(value).c_str(), nullptr, 10);
    } else if (consume_flag(arg, "--threads", value)) {
      config.threads = static_cast<unsigned>(
          std::strtoul(std::string(value).c_str(), nullptr, 10));
    } else if (consume_flag(arg, "--fit-hours", value)) {
      config.fit_hours = std::strtod(std::string(value).c_str(), nullptr);
    }
  }
  config.scale = std::max(config.scale, 0.05);
  return config;
}

void print_header(std::ostream& os, const std::string& title,
                  const std::string& paper_ref, const BenchConfig& config) {
  os << "=== " << title << " ===\n"
     << "Reproduces: " << paper_ref << "\n"
     << "Config: scale=" << config.scale << " fit_ues=" << config.fit_ues()
     << " fit_hours=" << config.fit_hours << " seed=" << config.seed
     << " theta_n=" << config.cluster_theta_n() << "\n\n";
}

std::array<std::size_t, k_num_device_types> device_mix(std::size_t total) {
  const auto opts = synthetic::default_population(total);
  return opts.ue_counts;
}

Trace make_fit_trace(const BenchConfig& config) {
  auto opts = synthetic::default_population(config.fit_ues());
  opts.duration_hours = config.fit_hours;
  opts.seed = config.seed;
  opts.num_threads = config.threads;
  return synthetic::generate_ground_truth(opts);
}

Trace make_real_trace(const BenchConfig& config, std::size_t total_ues) {
  auto opts = synthetic::default_population(total_ues);
  opts.duration_hours = 48.0;
  opts.seed = config.seed ^ 0x5ca1ab1eULL;  // independent draw
  opts.num_threads = config.threads;
  return synthetic::generate_ground_truth(opts);
}

Trace slice_hour(const Trace& trace, int hour) {
  Trace out;
  for (std::size_t u = 0; u < trace.num_ues(); ++u) {
    out.add_ue(trace.device(static_cast<UeId>(u)));
  }
  const TimeMs lo = k_ms_per_day + static_cast<TimeMs>(hour) * k_ms_per_hour;
  const auto [a, b] = trace.time_range(lo, lo + k_ms_per_hour);
  for (std::size_t i = a; i < b; ++i) out.add_event(trace.events()[i]);
  out.finalize();
  return out;
}

model::ModelSet fit_method(const Trace& fit_trace, model::Method method,
                           const BenchConfig& config) {
  model::FitOptions opts;
  opts.method = method;
  opts.clustering.theta_n = config.cluster_theta_n();
  opts.seed = config.seed + 17;
  return model::fit_model(fit_trace, opts);
}

Trace synthesize_hour(const model::ModelSet& models, std::size_t total_ues,
                      int hour, const BenchConfig& config) {
  gen::GenerationRequest req;
  req.ue_counts = device_mix(total_ues);
  req.start_hour = hour;
  req.duration_hours = 1.0;
  req.seed = config.seed + 101;
  req.num_threads = config.threads;
  return gen::generate_trace(models, req);
}

void run_macro_comparison(const BenchConfig& config, std::size_t total_ues,
                          const char* title, const char* paper_ref,
                          const double (&paper_ours)[3][8],
                          std::ostream& os) {
  print_header(os, title, paper_ref, config);

  os << "Fitting ground-truth trace (" << io::fmt_count(config.fit_ues())
     << " UEs, " << config.fit_hours << " h)...\n";
  const Trace fit_trace = make_fit_trace(config);
  const Trace real_full = make_real_trace(config, total_ues);
  const int busy = validation::busy_hour(real_full);
  const Trace real = slice_hour(real_full, busy);
  os << "Real validation trace: " << real.num_events()
     << " events at busy hour " << busy << " for " << total_ues << " UEs\n\n";

  const auto real_bd = sm::compute_state_breakdown(
      sm::lte_two_level_spec(), real);

  constexpr model::Method methods[] = {model::Method::base, model::Method::b1,
                                       model::Method::b2, model::Method::ours};
  std::array<sm::StateBreakdown, 4> bds;
  for (std::size_t m = 0; m < 4; ++m) {
    const auto set = fit_method(fit_trace, methods[m], config);
    const Trace synth = synthesize_hour(set, total_ues, busy, config);
    bds[m] = sm::compute_state_breakdown(sm::lte_two_level_spec(), synth);
  }

  for (DeviceType d : k_all_device_types) {
    io::Table table({"Row", "Real", "Base", "B1", "B2", "Ours",
                     "Ours (paper)"});
    for (std::size_t r = 0; r < sm::StateBreakdown::k_num_rows; ++r) {
      std::vector<std::string> row{
          std::string(sm::StateBreakdown::row_name(r)),
          io::fmt_pct(real_bd.fraction(d, r))};
      for (std::size_t m = 0; m < 4; ++m) {
        row.push_back(io::fmt_signed_pct(bds[m].fraction(d, r) -
                                         real_bd.fraction(d, r)));
      }
      row.push_back(io::fmt_signed_pct(paper_ours[index_of(d)][r] / 100.0));
      table.add_row(std::move(row));
    }
    os << "Device: " << to_string(d) << " ("
       << device_short_name(d) << ")\n";
    table.print(os);
    os << "\n";
  }
  os << "Expected shape: Base/B1 leak HO into IDLE; B2 and Ours emit none "
        "(HO (IDLE) = 0 on every device). Ours is not the tightest: summed "
        "over the rows, B2's |delta| is smaller for phones and cars "
        "(EXPERIMENTS.md, Tables 4 & 11).\n";
}

std::string_view device_short_name(DeviceType d) {
  switch (d) {
    case DeviceType::phone:
      return "P";
    case DeviceType::connected_car:
      return "CC";
    case DeviceType::tablet:
      return "T";
  }
  return "?";
}

}  // namespace cpg::bench
