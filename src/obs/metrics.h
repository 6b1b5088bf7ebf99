// Low-overhead runtime metrics: a registry of named, labeled instruments
// (counter / gauge / fixed-bucket histogram) that hot paths update with
// relaxed atomics and observers read via consistent-enough snapshots.
//
// Design constraints, in order:
//   1. An update on a hot path is one relaxed atomic RMW (a histogram
//      observe is two plus a branch-free bucket search). No locks, no
//      allocation, no string handling after registration.
//   2. Instrumented layers hold plain `Counter*`/`Gauge*`/`Histogram*`
//      pointers which may be null (metrics disabled): the disabled cost is
//      one predictable branch. Registration is the slow path and is
//      mutex-guarded; instrument storage is a deque so pointers stay stable
//      for the registry's lifetime.
//   3. Exporters (exporters.h) consume `Registry::snapshot()`, a copied
//      point-in-time view, so exposition formats never touch live atomics.
//
// Naming follows the Prometheus conventions used across the repo's metrics
// namespace: `cpg_stream_*`, `cpg_mcn_*`, `cpg_gen_*`, `cpg_scenario_*`
// (see DESIGN.md), counters suffixed `_total`, time series carrying their
// unit (`_us`, `_events`, `_slices`).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpg::obs {

// Label set attached to one series, e.g. {{"shard", "3"}}. Order given at
// registration is preserved in exports.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

std::string_view to_string(MetricKind k) noexcept;

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Instantaneous level that can move both ways (queue depth, in-flight jobs).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) noexcept { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-bucket histogram: `bounds` are strictly increasing inclusive upper
// bucket edges; an implicit +Inf bucket catches the rest. Buckets are
// stored non-cumulative and cumulated at export time.
class Histogram {
 public:
  // Throws std::invalid_argument unless bounds are strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept {
    std::size_t lo = 0, n = bounds_.size();
    while (n > 0) {  // branchless-ish lower_bound over <= 64 bounds
      const std::size_t half = n / 2;
      if (bounds_[lo + half] < v) {
        lo += half + 1;
        n -= half + 1;
      } else {
        n = half;
      }
    }
    buckets_[lo].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Folds a snapshotted histogram into this one: per-bucket counts, total
  // count and sum all add. The snapshot's bounds must equal this
  // histogram's bounds exactly (throws std::invalid_argument otherwise) —
  // merging across different ladders would silently misbin. Used to
  // aggregate per-rank registry snapshots into one registry.
  void absorb(const struct HistogramSnapshot& snap);

  std::span<const double> bounds() const noexcept { return bounds_; }
  // i in [0, bounds().size()]; the last index is the +Inf bucket.
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// `n` exponential bucket edges starting at `start`, each `factor` apart —
// the usual ladder for latency/wait histograms.
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t n);

// Point-in-time copy of one series / one family, consumed by exporters.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // non-cumulative, bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct SeriesSnapshot {
  Labels labels;
  std::uint64_t counter = 0;  // kind == counter
  std::int64_t gauge = 0;     // kind == gauge
  HistogramSnapshot hist;     // kind == histogram
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::counter;
  std::vector<SeriesSnapshot> series;
};

// Instrument registry. Thread-safe: registration and snapshotting take a
// mutex, updates through returned instrument pointers are lock-free.
// Returned references stay valid for the registry's lifetime.
//
// Label cardinality is capped per family and label-key set
// (set_series_limit, default 1024): once a family holds that many series
// with the same label keys, a registration with a *new* label set of those
// keys folds every label value to "other" and returns that shared overflow
// series, warning once per family on stderr. High-cardinality sources (the
// spatial layer's per-cell counters over an operator-sized grid) thus
// degrade to a bounded export instead of unbounded memory; existing series
// keep resolving exactly. Series with other label keys in the same family
// (a coordinator's own {cell} series beside its ranks' merged {cell, rank}
// ones) have a budget of their own.
class Registry {
 public:
  static constexpr std::size_t k_default_series_limit = 1024;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registering the same (name, labels) again returns the existing
  // instrument; a kind mismatch on an existing name throws. Names and label
  // keys must match [a-zA-Z_][a-zA-Z0-9_]* (throws std::invalid_argument).
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  // A re-registered histogram series must also match `bounds`.
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds, Labels labels = {});

  // Per-family, per-label-key-set series cap for the cardinality guard.
  // Must be >= 1; applies to registrations after the call (existing series
  // are never evicted).
  void set_series_limit(std::size_t limit);

  // Families in registration order, series in registration order within a
  // family — exports are stable run over run.
  std::vector<FamilySnapshot> snapshot() const;

  std::size_t num_series() const;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricKind kind;
    std::deque<Series> series;
    bool overflow_warned = false;
  };

  Family& family(std::string_view name, std::string_view help,
                 MetricKind kind);
  Series* find_series(Family& fam, const Labels& labels);
  // Applies the cardinality cap to a labeled registration that did not match
  // an existing series: at the cap, label values fold to "other" (warning
  // once per family). Returns the labels to register under.
  Labels guard_labels(Family& fam, Labels labels);

  mutable std::mutex mu_;
  std::deque<Family> families_;
  std::size_t series_limit_ = k_default_series_limit;
};

}  // namespace cpg::obs
