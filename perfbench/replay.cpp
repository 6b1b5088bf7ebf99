// Single-thread layer replay. Calls the runtime's public layer functions in
// the order stream_generate runs them (src/stream/stream_generator.cpp):
// per slice and shard, generator activation and advance, sort_columns and
// the carry split, Spatializer::annotate; then the consumer's gallop_merge
// and delivery. Between merge and delivery it also runs the two codecs a
// slice can cross, the dist wire encode/decode and the cpgt block encode.
// Each call sits in its own span, so layer self times come out directly.
// The merged stream's digest is the reference every measured run is
// checked against.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "bench.h"
#include "dist/wire.h"
#include "generator/ue_generator.h"
#include "spatial/spatializer.h"
#include "stream/binary_sink.h"
#include "stream/csv_sink.h"
#include "stream/event_sink.h"
#include "stream/merge.h"
#include "stream/stream_generator.h"
#include "trace_fmt/cpgt.h"

namespace cpgbench {

using cpg::TimeMs;

namespace {

// ostream target that digests the bytes written to it.
class DigestBuf final : public std::streambuf {
 public:
  ByteDigest digest;

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = traits_type::to_char_type(ch);
      digest.add(&c, 1);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    digest.add(s, static_cast<std::size_t>(n));
    return n;
  }
};

struct ReplayShard {
  std::vector<std::uint64_t> segs;  // plan segment indices, plan order
  std::size_t next_seg = 0;
  std::vector<cpg::gen::UeSliceGenerator> gens;
  cpg::EventColumns carry;
  cpg::EventColumns batch;
  cpg::ColumnSortScratch scratch;
  std::optional<cpg::spatial::Spatializer> spatializer;
};

}  // namespace

ReplayResult replay(const RunSpec& spec) {
  ReplayResult res;
  RunResult setup;
  Prepared p;
  prepare(spec, p, setup, nullptr);
  const cpg::stream::PopulationPlan& plan = *p.plan;

  // Workloads without a spatial layer still time the annotator, over the
  // built-in default grid; their cells are dropped before merge, so the
  // digest and the sink see exactly what the real run delivers.
  const bool real_cells = p.spatial.has_value();
  std::optional<cpg::spatial::SpatialConfig> fallback;
  const cpg::spatial::SpatialConfig& acfg =
      real_cells ? *p.spatial
                 : fallback.emplace(cpg::spatial::load_spatial("grid:48x48x500"));

  std::vector<cpg::gen::UeGenOptions> model_opts(plan.models.size(),
                                                 plan.ue_options);
  for (std::size_t m = 0; m < plan.models.size(); ++m) {
    model_opts[m].compiled = plan.models[m].compiled;
    if (model_opts[m].compiled == nullptr) {
      throw std::runtime_error("replay: plan model not compiled in set-up");
    }
  }

  const std::size_t shards = k_parallel;
  std::vector<ReplayShard> sh(shards);
  for (std::uint64_t g = 0; g < plan.segments.size(); ++g) {
    sh[plan.segments[g].ue % shards].segs.push_back(g);
  }
  for (ReplayShard& s : sh) {
    s.spatializer.emplace(acfg, plan.seed,
                          std::span<const cpg::DeviceType>(plan.device_of),
                          plan.t_begin);
  }

  cpg::trace_fmt::SpatialInfo info{};
  if (real_cells) {
    info.cols = acfg.grid.cols;
    info.rows = acfg.grid.rows;
    info.cell_m = acfg.grid.cell_m;
    info.wrap = acfg.grid.wrap;
    info.ta_block = acfg.grid.ta_block;
    info.fingerprint = acfg.fingerprint();
  }

  // The workload's own sink.
  DigestBuf ev_buf;
  DigestBuf ue_buf;
  std::ostream ev_os(&ev_buf);
  std::ostream ue_os(&ue_buf);
  std::unique_ptr<cpg::stream::EventSink> sink;
  const std::string replay_prefix = spec.out_prefix + "_replay";
  switch (spec.kind) {
    case Kind::steady_cpgt:
      sink = std::make_unique<cpg::stream::BinarySink>(replay_prefix);
      break;
    case Kind::storm_spatial:
      sink = std::make_unique<cpg::stream::CountingSink>();
      break;
    case Kind::ranks3_csv:
      sink = std::make_unique<cpg::stream::CsvSink>(ev_os, &ue_os);
      break;
  }

  const TimeMs slice = cpg::stream::StreamOptions{}.slice_ms;
  const TimeMs t_begin = plan.t_begin;
  const TimeMs t_end = plan.t_end;
  const auto num_slices =
      static_cast<std::uint64_t>((t_end - t_begin + slice - 1) / slice);

  const auto t0 = Clock::now();
  SpanLog log(t0);
  const int root = log.open("replay");
  auto span = [&](std::string_view name, auto&& f) {
    const auto a = Clock::now();
    f();
    log.add(name, a, Clock::now(), root);
  };

  ColumnDigest digest;
  std::vector<cpg::EventColumns> runs(shards);
  cpg::EventColumns merged;
  cpg::EventColumns decoded;
  std::string payload;
  std::string blocks;
  double rss_first_sink = -1;
  double rss_last_sink = 0;

  const cpg::stream::StreamHeader header{plan.device_of, t_begin, t_end,
                                         real_cells ? &info : nullptr};
  span("sink.on_start", [&] { sink->on_start(header); });
  span("bench.digest", [&] {
    digest.registry(plan.device_of.data(), plan.device_of.size());
  });

  for (std::uint64_t k = 0; k < num_slices; ++k) {
    const bool last = k + 1 == num_slices;
    const TimeMs limit =
        last ? t_end : t_begin + static_cast<TimeMs>(k + 1) * slice;
    for (std::size_t s = 0; s < shards; ++s) {
      ReplayShard& rs = sh[s];
      std::size_t first_new = rs.gens.size();
      span("generator.ctor", [&] {
        while (rs.next_seg < rs.segs.size()) {
          const cpg::stream::UeSegment& seg =
              plan.segments[rs.segs[rs.next_seg]];
          if (seg.t_start >= limit) break;
          ++rs.next_seg;
          const cpg::DeviceType d = plan.device_of[seg.ue];
          const cpg::model::ModelSet& models = *plan.models[seg.model].models;
          const cpg::model::DeviceModel& dev = models.device(d);
          if (!dev.has_ues()) continue;
          cpg::Rng rng(plan.seed,
                       static_cast<std::uint64_t>(seg.ue) +
                           (static_cast<std::uint64_t>(seg.rng_salt) << 32));
          const auto modeled_ue = static_cast<std::uint32_t>(
              rng.uniform_index(dev.ue_traj.size()));
          rs.gens.emplace_back(models, d, modeled_ue, seg.t_start, seg.t_end,
                               static_cast<cpg::UeId>(seg.ue), rng,
                               model_opts[seg.model]);
        }
        std::sort(rs.gens.begin() + static_cast<std::ptrdiff_t>(first_new),
                  rs.gens.end(), [](const auto& a, const auto& b) {
                    if (a.device() != b.device()) {
                      return cpg::index_of(a.device()) <
                             cpg::index_of(b.device());
                    }
                    if (a.modeled_ue() != b.modeled_ue()) {
                      return a.modeled_ue() < b.modeled_ue();
                    }
                    return a.ue_id() < b.ue_id();
                  });
        res.ues_started += rs.gens.size() - first_new;
      });
      rs.batch.clear();
      std::swap(rs.batch, rs.carry);
      span("generator.advance", [&] {
        for (std::size_t i = 0; i < first_new; ++i) {
          rs.gens[i].advance(limit, rs.batch);
        }
      });
      span("generator.first_advance", [&] {
        for (std::size_t i = first_new; i < rs.gens.size(); ++i) {
          rs.gens[i].advance(limit, rs.batch);
        }
      });
      span("generator.advance", [&] {
        std::erase_if(rs.gens, [](const auto& g) { return g.done(); });
      });
      span("core.sort", [&] {
        cpg::sort_columns(rs.batch, rs.scratch);
        if (!last) {
          const TimeMs* ts0 = rs.batch.ts.data();
          const auto cut = static_cast<std::size_t>(
              std::lower_bound(ts0, ts0 + rs.batch.size(), limit) - ts0);
          if (cut < rs.batch.size()) {
            rs.carry.append(
                rs.batch.view().subview(cut, rs.batch.size() - cut));
            rs.batch.truncate(cut);
          }
        }
      });
      span("spatial.annotate", [&] {
        rs.spatializer->annotate(rs.batch, nullptr);
        if (!real_cells) rs.batch.cell.clear();
      });
      std::swap(runs[s], rs.batch);
    }

    span("stream.merge", [&] {
      merged.clear();
      cpg::stream::gallop_merge(
          std::span<const cpg::EventColumns>(runs),
          [&](std::size_t r, std::size_t b, std::size_t e) {
            merged.append(runs[r].view().subview(b, e - b));
          });
    });
    const cpg::EventColumnsView view = merged.view();
    span("bench.digest", [&] { digest.add(view); });
    span("dist.encode", [&] {
      payload.clear();
      if (real_cells) {
        cpg::dist::append_events_cells(payload, view);
      } else {
        cpg::dist::append_events(payload, view);
      }
    });
    res.wire_bytes += payload.size();
    span("dist.decode", [&] {
      decoded.clear();
      if (real_cells) {
        cpg::dist::decode_events_cells(payload, decoded);
      } else {
        cpg::dist::decode_events(payload, decoded);
      }
    });
    if (decoded.size() != view.n) {
      throw std::runtime_error("replay: wire round trip lost events");
    }
    span("trace_fmt.encode", [&] {
      blocks.clear();
      constexpr std::size_t step = cpg::trace_fmt::k_default_block_events;
      for (std::size_t i = 0; i < view.n; i += step) {
        const auto sub = view.subview(i, std::min(step, view.n - i));
        cpg::trace_fmt::encode_events_block(blocks, sub);
        if (sub.cell != nullptr) {
          cpg::trace_fmt::encode_cells_block(blocks, {sub.cell, sub.n});
        }
      }
    });
    span("sink", [&] { sink->on_event_columns(view); });
    const double rss = rss_mb();
    if (rss_first_sink < 0) rss_first_sink = rss;
    rss_last_sink = rss;
  }
  span("sink.on_finish", [&] { sink->on_finish(); });
  log.close(root);
  res.wall_s = seconds_since(t0);

  res.events = digest.events;
  res.column_digest = digest.f.h;
  if (spec.kind == Kind::ranks3_csv) {
    Fnv f;
    f.mix(ue_buf.digest.value());
    f.mix(ev_buf.digest.value());
    res.csv_digest = f.h;
  }
  if (spec.kind == Kind::steady_cpgt) {
    std::remove(cpg::stream::BinarySink::path_for(replay_prefix).c_str());
  }
  res.sink_rss_growth_mb = std::max(0.0, rss_last_sink - rss_first_sink);

  // Self times: every layer span is a direct child of the root, so a
  // layer's self time is its total, and the root keeps what no layer
  // covered.
  res.spans = log.spans();
  double covered = 0;
  for (const Span& s : res.spans) {
    if (s.parent != root) continue;
    const double d = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    res.self_s[s.name] += d;
    covered += d;
  }
  res.self_s["replay"] = res.wall_s - covered;
  res.ok = true;
  return res;
}

}  // namespace cpgbench
