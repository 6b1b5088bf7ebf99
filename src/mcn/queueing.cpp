#include "mcn/queueing.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.h"

namespace cpg::mcn {

namespace {

struct Job {
  EventType event;
  double start_us;
};

enum class EventKind : std::uint8_t { arrival, completion };

struct SimEvent {
  double t_us;
  std::uint64_t seq;  // FIFO tie-break
  EventKind kind;
  std::uint32_t job;
  std::uint16_t step;
  std::uint8_t station;  // completion only

  bool operator>(const SimEvent& other) const {
    if (t_us != other.t_us) return t_us > other.t_us;
    return seq > other.seq;
  }
};

struct QueuedStep {
  double arrival_us;
  std::uint32_t job;
  std::uint16_t step;
};

struct Station {
  int free_workers = 1;
  double service_scale = 1.0;
  std::queue<QueuedStep> queue;
  std::uint64_t messages = 0;
  double busy_us = 0.0;
  double wait_sum_us = 0.0;
  double wait_max_us = 0.0;
  std::size_t max_queue_depth = 0;
};

// The cpg_mcn_* instrument set, registered when QueueingConfig::metrics is
// set. The engine is single-threaded, so these are plain relaxed-atomic
// updates with no contention; null instruments cost one branch each.
struct EngineInstruments {
  struct PerStation {
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* busy_workers = nullptr;
    obs::Counter* messages = nullptr;
    obs::Histogram* wait_us = nullptr;
  };
  std::vector<PerStation> station;
  obs::Gauge* in_flight = nullptr;
  obs::Counter* procedures = nullptr;
  obs::Histogram* latency_us = nullptr;

  EngineInstruments(obs::Registry& reg, const QueueingConfig& cfg) {
    in_flight = &reg.gauge("cpg_mcn_in_flight_jobs",
                           "Procedures in flight (job slots in use)");
    procedures = &reg.counter("cpg_mcn_procedures_total",
                              "Signaling procedures completed");
    latency_us = &reg.histogram(
        "cpg_mcn_procedure_latency_us",
        "End-to-end procedure latency in microseconds",
        obs::exponential_buckets(50.0, 2.0, 16));
    station.resize(cfg.num_stations);
    for (std::size_t n = 0; n < cfg.num_stations; ++n) {
      std::string name(cfg.station_names[n]);
      if (name.empty()) name.append("s").append(std::to_string(n));
      const obs::Labels labels{{"station", name}};
      station[n].queue_depth =
          &reg.gauge("cpg_mcn_station_queue_depth",
                     "Steps queued at one station", labels);
      station[n].busy_workers =
          &reg.gauge("cpg_mcn_station_busy_workers",
                     "Workers currently serving at one station (occupancy)",
                     labels);
      station[n].messages = &reg.counter(
          "cpg_mcn_station_messages_total",
          "Messages (service steps) handled by one station", labels);
      station[n].wait_us = &reg.histogram(
          "cpg_mcn_station_wait_us",
          "Queue wait before service in microseconds",
          obs::exponential_buckets(10.0, 2.0, 16), labels);
    }
  }
};

class Reservoir {
 public:
  Reservoir(std::size_t cap, Rng& rng) : cap_(cap), rng_(&rng) {}

  void add(double v) {
    ++total_;
    if (samples_.size() < cap_) {
      samples_.push_back(v);
    } else {
      const std::uint64_t j = rng_->uniform_index(total_);
      if (j < cap_) samples_[static_cast<std::size_t>(j)] = v;
    }
  }

  stats::Summary summarize() const {
    auto s = stats::summarize(samples_);
    s.n = static_cast<std::size_t>(total_);
    return s;
  }

 private:
  std::size_t cap_;
  Rng* rng_;
  std::vector<double> samples_;
  std::uint64_t total_ = 0;
};

}  // namespace

struct QueueingEngine::Impl {
  ProcedureLookup procedure;
  QueueingConfig config;
  std::vector<Station> stations;
  Rng rng;
  Reservoir latency_all;
  std::vector<Reservoir> latency_by_event;
  std::unique_ptr<EngineInstruments> ins;

  // Job slots are recycled through a free list so that memory stays
  // proportional to in-flight procedures rather than total arrivals.
  std::vector<Job> jobs;
  std::vector<std::uint32_t> free_slots;
  std::size_t in_flight = 0;

  std::priority_queue<SimEvent, std::vector<SimEvent>, std::greater<SimEvent>>
      heap;
  std::uint64_t seq = 0;
  std::uint64_t procedures = 0;
  // Global multiplier on top of the per-station service_scale; applied to
  // services as they start, so a mid-run change never rewrites completion
  // times already on the heap.
  double global_service_scale = 1.0;
  bool has_arrival = false;
  double first_arrival_us = 0.0;
  double last_completion_us = 0.0;

  Impl(ProcedureLookup proc, const QueueingConfig& cfg)
      : procedure(std::move(proc)),
        config(cfg),
        stations(cfg.num_stations),
        rng(cfg.seed),
        latency_all(cfg.max_latency_samples, rng),
        latency_by_event(k_num_event_types,
                         Reservoir(cfg.max_latency_samples / 4, rng)) {
    if (cfg.num_stations == 0 || cfg.num_stations > k_max_stations) {
      throw std::invalid_argument("QueueingEngine: bad station count");
    }
    for (std::size_t n = 0; n < cfg.num_stations; ++n) {
      stations[n].free_workers = std::max(1, cfg.workers[n]);
      stations[n].service_scale =
          cfg.service_scale[n] > 0.0 ? cfg.service_scale[n] : 1.0;
    }
    if (cfg.metrics != nullptr) {
      ins = std::make_unique<EngineInstruments>(*cfg.metrics, cfg);
    }
  }

  std::uint32_t alloc_job(EventType event, double start_us) {
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
      jobs[slot] = {event, start_us};
    } else {
      slot = static_cast<std::uint32_t>(jobs.size());
      jobs.push_back({event, start_us});
    }
    ++in_flight;
    if (ins) ins->in_flight->add(1);
    return slot;
  }

  void free_job(std::uint32_t slot) {
    free_slots.push_back(slot);
    --in_flight;
    if (ins) ins->in_flight->sub(1);
  }

  void begin_service(Station& st, std::uint8_t station_idx,
                     const QueuedStep& qs, double now_us) {
    const GenericStep& step = procedure(jobs[qs.job].event)[qs.step];
    const double service =
        step.service_us * st.service_scale * global_service_scale;
    --st.free_workers;
    ++st.messages;
    st.busy_us += service;
    const double wait = now_us - qs.arrival_us;
    st.wait_sum_us += wait;
    st.wait_max_us = std::max(st.wait_max_us, wait);
    if (ins) {
      EngineInstruments::PerStation& m = ins->station[station_idx];
      m.busy_workers->add(1);
      m.messages->inc();
      m.wait_us->observe(wait);
    }
    heap.push({now_us + service, seq++, EventKind::completion, qs.job,
               qs.step, station_idx});
  }

  void handle_arrival(std::uint32_t job, std::uint16_t step_idx,
                      double t_us) {
    const auto proc = procedure(jobs[job].event);
    if (proc.empty()) {  // event type not handled by this core
      free_job(job);
      return;
    }
    const std::uint8_t station_idx = proc[step_idx].station;
    Station& st = stations[station_idx];
    const QueuedStep qs{t_us, job, step_idx};
    if (st.free_workers > 0) {
      begin_service(st, station_idx, qs, t_us);
    } else {
      st.queue.push(qs);
      st.max_queue_depth = std::max(st.max_queue_depth, st.queue.size());
      if (ins) ins->station[station_idx].queue_depth->add(1);
    }
  }

  void handle_completion(const SimEvent& ev) {
    Station& st = stations[ev.station];
    ++st.free_workers;
    last_completion_us = std::max(last_completion_us, ev.t_us);
    if (ins) ins->station[ev.station].busy_workers->sub(1);

    if (!st.queue.empty()) {
      const QueuedStep qs = st.queue.front();
      st.queue.pop();
      if (ins) ins->station[ev.station].queue_depth->sub(1);
      begin_service(st, ev.station, qs, ev.t_us);
    }

    const auto proc = procedure(jobs[ev.job].event);
    if (static_cast<std::size_t>(ev.step) + 1 < proc.size()) {
      heap.push({ev.t_us + config.hop_delay_us, seq++, EventKind::arrival,
                 ev.job, static_cast<std::uint16_t>(ev.step + 1), 0});
    } else {
      const double latency = ev.t_us - jobs[ev.job].start_us;
      latency_all.add(latency);
      latency_by_event[index_of(jobs[ev.job].event)].add(latency);
      ++procedures;
      if (ins) {
        ins->procedures->inc();
        ins->latency_us->observe(latency);
      }
      free_job(ev.job);
    }
  }

  // Processes every internal event strictly before t_us, preserving the
  // batch loop's arrival-first-on-tie rule.
  void drain_until(double t_us) {
    while (!heap.empty() && heap.top().t_us < t_us) {
      const SimEvent ev = heap.top();
      heap.pop();
      if (ev.kind == EventKind::arrival) {
        handle_arrival(ev.job, ev.step, ev.t_us);
      } else {
        handle_completion(ev);
      }
    }
  }

  void arrive(EventType event, double t_us) {
    if (!has_arrival) {
      has_arrival = true;
      first_arrival_us = t_us;
      last_completion_us = t_us;
    }
    drain_until(t_us);
    handle_arrival(alloc_job(event, t_us), 0, t_us);
  }

  QueueingResult finish() {
    QueueingResult result;
    if (!has_arrival) return result;
    while (!heap.empty()) {
      const SimEvent ev = heap.top();
      heap.pop();
      if (ev.kind == EventKind::arrival) {
        handle_arrival(ev.job, ev.step, ev.t_us);
      } else {
        handle_completion(ev);
      }
    }

    const double makespan_us =
        std::max(1.0, last_completion_us - first_arrival_us);
    result.makespan_s = makespan_us / 1e6;
    result.procedures = procedures;
    for (std::size_t n = 0; n < config.num_stations; ++n) {
      const Station& st = stations[n];
      StationStats& out = result.stations[n];
      out.messages = st.messages;
      out.busy_us = st.busy_us;
      out.utilization =
          st.busy_us / (makespan_us * std::max(1, config.workers[n] == 0
                                                      ? 1
                                                      : config.workers[n]));
      out.mean_wait_us =
          st.messages == 0
              ? 0.0
              : st.wait_sum_us / static_cast<double>(st.messages);
      out.max_wait_us = st.wait_max_us;
      out.max_queue_depth = st.max_queue_depth;
      result.messages += st.messages;
    }
    result.latency_us = latency_all.summarize();
    for (std::size_t e = 0; e < k_num_event_types; ++e) {
      result.latency_by_event[e] = latency_by_event[e].summarize();
    }
    return result;
  }
};

QueueingEngine::QueueingEngine(ProcedureLookup procedure,
                               const QueueingConfig& config)
    : impl_(std::make_unique<Impl>(std::move(procedure), config)) {}

QueueingEngine::~QueueingEngine() = default;

void QueueingEngine::arrive(EventType event, double t_us) {
  impl_->arrive(event, t_us);
}

void QueueingEngine::set_service_time_scale(double scale) {
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    throw std::invalid_argument(
        "QueueingEngine: service time scale must be > 0 and finite");
  }
  impl_->global_service_scale = scale;
}

QueueingResult QueueingEngine::finish() { return impl_->finish(); }

std::size_t QueueingEngine::in_flight() const noexcept {
  return impl_->in_flight;
}

QueueingResult run_queueing(const Trace& trace,
                            const ProcedureLookup& procedure,
                            const QueueingConfig& config) {
  QueueingEngine engine(procedure, config);
  for (const ControlEvent& e : trace.events()) {
    engine.arrive(e.type, static_cast<double>(e.t_ms) * 1000.0);
  }
  return engine.finish();
}

}  // namespace cpg::mcn
