#include "stream/resilient_sink.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <new>
#include <sstream>
#include <system_error>
#include <thread>

#include "fault/failpoint.h"
#include "io/csv.h"

namespace cpg::stream {

namespace {

constexpr std::string_view k_spill_magic = "cpg-spill 1";

// What lifecycle calls deliver.
constexpr std::span<const ControlEvent> k_no_rows;

class SystemRetryClock final : public RetryClock {
 public:
  std::chrono::steady_clock::time_point now() override {
    return std::chrono::steady_clock::now();
  }
  void sleep_for(std::chrono::milliseconds d) override {
    std::this_thread::sleep_for(d);
  }
};

}  // namespace

RetryClock& system_retry_clock() {
  static SystemRetryClock clock;
  return clock;
}

FailureClass classify_failure(const std::exception& e) noexcept {
  if (const auto* f = dynamic_cast<const fault::InjectedFault*>(&e)) {
    return f->retryable() ? FailureClass::retryable : FailureClass::fatal;
  }
  if (const auto* s = dynamic_cast<const SinkError*>(&e)) {
    return s->failure_class();
  }
  // ios_base::failure derives from system_error since C++11; both model
  // transient I/O conditions (EAGAIN, full pipe, NFS hiccup).
  if (dynamic_cast<const std::ios_base::failure*>(&e) != nullptr ||
      dynamic_cast<const std::system_error*>(&e) != nullptr) {
    return FailureClass::retryable;
  }
  // bad_alloc, logic_error, and anything unrecognized: retrying without
  // understanding the condition risks an infinite stall, so fail loudly.
  return FailureClass::fatal;
}

const char* to_string(SinkPolicy p) noexcept {
  switch (p) {
    case SinkPolicy::fail:
      return "fail";
    case SinkPolicy::drop:
      return "drop";
    case SinkPolicy::spill:
      return "spill";
  }
  return "?";
}

ResilientSink::ResilientSink(EventSink& inner, ResilientSinkOptions options,
                             RetryClock* clock)
    : inner_(inner),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &system_retry_clock()),
      jitter_rng_(options_.retry.jitter_seed) {
  if (options_.retry.max_attempts < 1) {
    throw std::invalid_argument("ResilientSink: max_attempts must be >= 1");
  }
  if (options_.retry.jitter < 0.0 || options_.retry.jitter >= 1.0) {
    throw std::invalid_argument("ResilientSink: jitter must be in [0, 1)");
  }
  if (options_.policy == SinkPolicy::spill && options_.spill_path.empty()) {
    throw std::invalid_argument(
        "ResilientSink: policy spill requires a spill_path");
  }
  if (options_.metrics != nullptr) {
    obs::Registry& m = *options_.metrics;
    ins_.retries = &m.counter("cpg_stream_sink_retries_total",
                              "Sink delivery re-attempts after a retryable "
                              "failure");
    ins_.backoff_ms = &m.counter("cpg_stream_sink_backoff_ms_total",
                                 "Total time spent in sink retry backoff");
    ins_.dropped = &m.counter("cpg_stream_sink_dropped_events_total",
                              "Events discarded after retry exhaustion "
                              "(policy drop)");
    ins_.spilled = &m.counter("cpg_stream_sink_spilled_events_total",
                              "Events diverted to the spill file after retry "
                              "exhaustion (policy spill)");
    ins_.exhausted = &m.counter("cpg_stream_sink_exhausted_total",
                                "Deliveries that ran out of retry budget");
    ins_.fatal = &m.counter("cpg_stream_sink_fatal_total",
                            "Sink failures classified fatal (not retried)");
  }
}

ResilientSink::~ResilientSink() = default;

template <typename Rows, typename Attempt>
void ResilientSink::deliver(const Rows& rows, Attempt&& attempt) {
  const RetryPolicy& rp = options_.retry;
  const auto start = clock_->now();
  std::exception_ptr last_error;
  for (int tries = 0;; ++tries) {
    try {
      CPG_FAILPOINT("sink.deliver");
      attempt();
      stats_.delivered_events += rows.size();
      return;
    } catch (const std::exception& e) {
      if (classify_failure(e) == FailureClass::fatal) {
        if (ins_.fatal != nullptr) ins_.fatal->inc();
        throw;
      }
      last_error = std::current_exception();
    }
    if (tries + 1 >= rp.max_attempts) break;

    // Capped exponential backoff with deterministic jitter.
    double delay_ms = static_cast<double>(rp.initial_backoff.count()) *
                      std::pow(rp.backoff_multiplier, tries);
    delay_ms =
        std::min(delay_ms, static_cast<double>(rp.max_backoff.count()));
    if (rp.jitter > 0.0) {
      delay_ms *= jitter_rng_.uniform(1.0 - rp.jitter, 1.0 + rp.jitter);
    }
    const auto delay =
        std::chrono::milliseconds(std::llround(std::max(delay_ms, 0.0)));
    if (clock_->now() + delay - start > rp.deadline) break;

    clock_->sleep_for(delay);
    ++stats_.retries;
    stats_.backoff_ms += static_cast<std::uint64_t>(delay.count());
    if (ins_.retries != nullptr) ins_.retries->inc();
    if (ins_.backoff_ms != nullptr) {
      ins_.backoff_ms->inc(static_cast<std::uint64_t>(delay.count()));
    }
  }
  degrade(rows, std::move(last_error));
}

template <typename Rows>
void ResilientSink::degrade(const Rows& rows, std::exception_ptr last_error) {
  ++stats_.exhausted_deliveries;
  if (ins_.exhausted != nullptr) ins_.exhausted->inc();
  // Only event deliveries can degrade; lifecycle calls (on_start, on_finish,
  // checkpoint operations) have nothing to drop or spill, so exhausting
  // their retries always fails the run. Event deliveries are never empty.
  if (options_.policy == SinkPolicy::fail || rows.empty()) {
    std::rethrow_exception(std::move(last_error));
  }
  if (options_.policy == SinkPolicy::drop) {
    stats_.dropped_events += rows.size();
    if (ins_.dropped != nullptr) ins_.dropped->inc(rows.size());
    return;
  }
  spill(rows);
  stats_.spilled_events += rows.size();
  if (ins_.spilled != nullptr) ins_.spilled->inc(rows.size());
}

template <typename Rows>
void ResilientSink::spill(const Rows& rows) {
  if (spill_os_ == nullptr) {
    spill_os_ = std::make_unique<std::ofstream>(options_.spill_path,
                                                std::ios::app);
    if (!*spill_os_) {
      throw std::runtime_error("ResilientSink: cannot open spill file " +
                               options_.spill_path);
    }
    // A fresh file gets the magic line; appending to an existing spill from
    // an earlier run keeps its header.
    if (spill_os_->tellp() == std::streampos{0}) {
      *spill_os_ << k_spill_magic << '\n';
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    io::append_event_csv(*spill_os_, rows[i]);
  }
  spill_os_->flush();
  if (!*spill_os_) {
    throw std::runtime_error("ResilientSink: write failed for spill file " +
                             options_.spill_path);
  }
}

void ResilientSink::on_start(const StreamHeader& header) {
  deliver(k_no_rows, [&] { inner_.on_start(header); });
}

void ResilientSink::on_event(const ControlEvent& e) {
  deliver(std::span(&e, 1), [&] { inner_.on_event(e); });
}

void ResilientSink::on_events(std::span<const ControlEvent> events) {
  if (events.empty()) return;
  deliver(events, [&] { inner_.on_events(events); });
}

void ResilientSink::on_event_columns(const EventColumnsView& cols) {
  if (cols.empty()) return;
  deliver(cols, [&] { inner_.on_event_columns(cols); });
}

void ResilientSink::on_finish() {
  deliver(k_no_rows, [&] { inner_.on_finish(); });
}

std::string ResilientSink::checkpoint_save() {
  auto* p = dynamic_cast<CheckpointParticipant*>(&inner_);
  if (p == nullptr) return {};
  std::string token;
  deliver(k_no_rows, [&] { token = p->checkpoint_save(); });
  return token;
}

void ResilientSink::checkpoint_resume(const std::string& token,
                                      const StreamHeader& header) {
  auto* p = dynamic_cast<CheckpointParticipant*>(&inner_);
  if (p == nullptr) {
    deliver(k_no_rows, [&] { inner_.on_start(header); });
    return;
  }
  deliver(k_no_rows, [&] { p->checkpoint_resume(token, header); });
}

std::uint64_t recover_spill(const std::string& path, EventSink& sink) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("recover_spill: cannot open " + path);
  }
  std::string line;
  if (!std::getline(is, line) || line != k_spill_magic) {
    throw std::runtime_error("recover_spill: " + path +
                             " is not a spill file (bad magic line)");
  }
  std::uint64_t recovered = 0;
  std::uint64_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream row(line);
    ControlEvent e;
    std::string type_name;
    char c1 = 0, c2 = 0;
    if (!(row >> e.t_ms >> c1 >> e.ue_id >> c2) || c1 != ',' || c2 != ',' ||
        !std::getline(row, type_name)) {
      throw std::runtime_error("recover_spill: malformed row at " + path +
                               ":" + std::to_string(line_no));
    }
    const auto type = parse_event_type(type_name);
    if (!type.has_value()) {
      throw std::runtime_error("recover_spill: unknown event type '" +
                               type_name + "' at " + path + ":" +
                               std::to_string(line_no));
    }
    e.type = *type;
    sink.on_event(e);
    ++recovered;
  }
  return recovered;
}

}  // namespace cpg::stream
