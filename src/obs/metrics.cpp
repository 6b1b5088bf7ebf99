#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace cpg::obs {

namespace {

bool valid_name(std::string_view s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(s.front())) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

void check_name(std::string_view name) {
  if (!valid_name(name)) {
    throw std::invalid_argument("obs: invalid metric name '" +
                                std::string(name) + "'");
  }
}

void check_labels(const Labels& labels) {
  for (const auto& [k, v] : labels) {
    if (!valid_name(k)) {
      throw std::invalid_argument("obs: invalid label key '" + k + "'");
    }
    (void)v;  // values are free-form; exporters escape them
  }
}

}  // namespace

std::string_view to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::counter:
      return "counter";
    case MetricKind::gauge:
      return "gauge";
    case MetricKind::histogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "obs: histogram bounds must be non-empty and strictly increasing");
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::absorb(const HistogramSnapshot& snap) {
  if (snap.bounds.size() != bounds_.size() ||
      !std::equal(snap.bounds.begin(), snap.bounds.end(), bounds_.begin()) ||
      snap.buckets.size() != bounds_.size() + 1) {
    throw std::invalid_argument(
        "obs: Histogram::absorb requires identical bucket bounds");
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].fetch_add(snap.buckets[i], std::memory_order_relaxed);
  }
  count_.fetch_add(snap.count, std::memory_order_relaxed);
  sum_.fetch_add(snap.sum, std::memory_order_relaxed);
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t n) {
  if (!(start > 0.0) || !(factor > 1.0) || n == 0) {
    throw std::invalid_argument("obs: exponential_buckets needs start > 0, "
                                "factor > 1, n > 0");
  }
  std::vector<double> bounds(n);
  double b = start;
  for (auto& out : bounds) {
    out = b;
    b *= factor;
  }
  return bounds;
}

Registry::Family& Registry::family(std::string_view name,
                                   std::string_view help, MetricKind kind) {
  for (Family& f : families_) {
    if (f.name == name) {
      if (f.kind != kind) {
        throw std::invalid_argument(
            "obs: metric '" + std::string(name) + "' already registered as " +
            std::string(to_string(f.kind)));
      }
      return f;
    }
  }
  check_name(name);
  families_.push_back(
      Family{std::string(name), std::string(help), kind, {}});
  return families_.back();
}

Registry::Series* Registry::find_series(Family& fam, const Labels& labels) {
  for (Series& s : fam.series) {
    if (s.labels == labels) return &s;
  }
  return nullptr;
}

Labels Registry::guard_labels(Family& fam, Labels labels) {
  if (labels.empty()) return labels;
  // Each label-key set is capped on its own, so a coordinator's per-cell
  // series and its ranks' rank-labeled copies never crowd each other out.
  const auto same_keys = [&](const Series& s) {
    return std::equal(
        s.labels.begin(), s.labels.end(), labels.begin(), labels.end(),
        [](const auto& a, const auto& b) { return a.first == b.first; });
  };
  if (static_cast<std::size_t>(std::count_if(
          fam.series.begin(), fam.series.end(), same_keys)) < series_limit_) {
    return labels;
  }
  if (!fam.overflow_warned) {
    fam.overflow_warned = true;
    std::fprintf(stderr,
                 "cpg: metric family '%s' reached the %zu-series label "
                 "cardinality cap; new label values fold into \"other\"\n",
                 fam.name.c_str(), series_limit_);
  }
  for (auto& [k, v] : labels) {
    (void)k;
    v = "other";
  }
  return labels;
}

void Registry::set_series_limit(std::size_t limit) {
  if (limit == 0) {
    throw std::invalid_argument("obs: series limit must be >= 1");
  }
  std::lock_guard lock(mu_);
  series_limit_ = limit;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  std::lock_guard lock(mu_);
  Family& fam = family(name, help, MetricKind::counter);
  if (Series* s = find_series(fam, labels)) return *s->counter;
  check_labels(labels);
  labels = guard_labels(fam, std::move(labels));
  // The fold may land on the already-registered overflow series.
  if (Series* s = find_series(fam, labels)) return *s->counter;
  fam.series.push_back(Series{std::move(labels), std::make_unique<Counter>(),
                              nullptr, nullptr});
  return *fam.series.back().counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  std::lock_guard lock(mu_);
  Family& fam = family(name, help, MetricKind::gauge);
  if (Series* s = find_series(fam, labels)) return *s->gauge;
  check_labels(labels);
  labels = guard_labels(fam, std::move(labels));
  if (Series* s = find_series(fam, labels)) return *s->gauge;
  fam.series.push_back(Series{std::move(labels), nullptr,
                              std::make_unique<Gauge>(), nullptr});
  return *fam.series.back().gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds, Labels labels) {
  std::lock_guard lock(mu_);
  Family& fam = family(name, help, MetricKind::histogram);
  const auto check_bounds = [&](const Series& s) {
    const auto existing = s.histogram->bounds();
    if (!std::equal(existing.begin(), existing.end(), bounds.begin(),
                    bounds.end())) {
      throw std::invalid_argument("obs: histogram '" + std::string(name) +
                                  "' re-registered with different bounds");
    }
  };
  if (Series* s = find_series(fam, labels)) {
    check_bounds(*s);
    return *s->histogram;
  }
  check_labels(labels);
  labels = guard_labels(fam, std::move(labels));
  if (Series* s = find_series(fam, labels)) {
    check_bounds(*s);
    return *s->histogram;
  }
  fam.series.push_back(Series{std::move(labels), nullptr, nullptr,
                              std::make_unique<Histogram>(std::move(bounds))});
  return *fam.series.back().histogram;
}

std::vector<FamilySnapshot> Registry::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<FamilySnapshot> out;
  out.reserve(families_.size());
  for (const Family& f : families_) {
    FamilySnapshot fs{f.name, f.help, f.kind, {}};
    fs.series.reserve(f.series.size());
    for (const Series& s : f.series) {
      SeriesSnapshot ss;
      ss.labels = s.labels;
      switch (f.kind) {
        case MetricKind::counter:
          ss.counter = s.counter->value();
          break;
        case MetricKind::gauge:
          ss.gauge = s.gauge->value();
          break;
        case MetricKind::histogram: {
          const Histogram& h = *s.histogram;
          const auto bounds = h.bounds();
          ss.hist.bounds.assign(bounds.begin(), bounds.end());
          ss.hist.buckets.resize(bounds.size() + 1);
          for (std::size_t i = 0; i <= bounds.size(); ++i) {
            ss.hist.buckets[i] = h.bucket(i);
          }
          ss.hist.count = h.count();
          ss.hist.sum = h.sum();
          break;
        }
      }
      fs.series.push_back(std::move(ss));
    }
    out.push_back(std::move(fs));
  }
  return out;
}

std::size_t Registry::num_series() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const Family& f : families_) n += f.series.size();
  return n;
}

}  // namespace cpg::obs
