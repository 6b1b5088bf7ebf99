// Seeded input generation: a fitted model file and a scaled alarm-storm
// scenario with its spatial spec, all derived from the benchmark seed and
// cached per seed, outside every timed region.
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "io/model_io.h"
#include "model/fit.h"
#include "synthetic/workload.h"

namespace cpgbench {

namespace {

namespace fs = std::filesystem;

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// examples/alarm_storm.{scn,spatial} scaled to k_storm_ues: a metro grid
// sized for the population, the meter fleet Thomas-clustered around
// substations, and a district whose meters all wake inside one 72-second
// window. The seed places the district.
void write_storm_specs(const Inputs& in, std::uint64_t seed) {
  constexpr int k_cells = 48;  // 48 x 48 cells of 500 m: a 24 km metro
  constexpr int k_district_m = 6000;
  std::uint64_t s = seed ^ 0x5707a11ce5ull;
  const auto span = static_cast<std::uint64_t>(k_cells * 500 - k_district_m);
  const std::uint64_t x0 = splitmix(s) % span / 500 * 500;
  const std::uint64_t y0 = splitmix(s) % span / 500 * 500;
  const auto mix = device_mix(k_storm_ues);

  std::ofstream scn(in.scn);
  scn << "# Generated: alarm storm scaled to " << k_storm_ues
      << " UEs, seed " << seed << "\n"
      << "scenario bench-alarm-storm\nstart-hour 2\nduration 3\n"
      << "phase quiet 0 0.5\nphase outage 0.5 1.5\n  mcn-scale 1.5\n"
      << "phase recovery 1.5 3\n"
      << "cohort phones\n  device phone\n  count " << mix[0]
      << "\n  join 0\n"
      << "cohort cars\n  device car\n  count " << mix[1]
      << "\n  join 0\n"
      << "cohort meters\n  device tablet\n  count " << mix[2]
      << "\n  join 0 1\n  storm 0.5 0.52 " << x0 << ' ' << y0 << ' '
      << x0 + k_district_m << ' ' << y0 + k_district_m << "\n";

  std::ofstream spatial(in.spatial);
  spatial << "# Generated: metro grid for the scaled alarm storm\n"
          << "grid " << k_cells << ' ' << k_cells << " 500 clip\nta 8\n"
          << "place phone uniform\nmobility phone waypoint 0.5 1.5 30\n"
          << "place connected_car uniform\n"
          << "mobility connected_car waypoint 8 25 60\n"
          << "place tablet thomas " << mix[2] / 100 << " 150\n"
          << "mobility tablet static\n";
  if (!scn || !spatial) {
    throw std::runtime_error("cannot write storm specs under " + in.dir);
  }
}

}  // namespace

Inputs ensure_inputs(const std::string& cache_root, std::uint64_t seed) {
  Inputs in;
  in.dir = cache_root + "/s" + std::to_string(seed);
  in.model = in.dir + "/model.txt";
  in.scn = in.dir + "/storm.scn";
  in.spatial = in.dir + "/storm.spatial";
  const std::string done = in.dir + "/complete";
  if (fs::exists(done)) return in;

  fs::create_directories(in.dir);
  const ForkOutcome fit = run_forked(
      [&]() -> std::string {
        auto opts = cpg::synthetic::default_population(k_fit_ues);
        opts.duration_hours = k_fit_hours;
        opts.seed = seed;
        const cpg::Trace truth = cpg::synthetic::generate_ground_truth(opts);
        cpg::model::FitOptions fopts;
        fopts.method = cpg::model::Method::ours;
        fopts.clustering.theta_n = 50;
        cpg::io::save_model(cpg::model::fit_model(truth, fopts), in.model);
        write_storm_specs(in, seed);
        return {};
      },
      40.0);
  if (!fit.ok) throw std::runtime_error("input generation: " + fit.error);
  std::ofstream(done) << "ok\n";
  return in;
}

}  // namespace cpgbench
