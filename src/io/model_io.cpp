#include "io/model_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <span>
#include <stdexcept>
#include <system_error>

#include "io/file_util.h"

namespace cpg::io {

namespace {

using model::FirstEventLaw;
using model::HourClusterModel;
using model::ModelSet;
using model::StateLaw;
using model::TransitionLaw;

constexpr std::string_view k_magic = "cptraffgen-model";
constexpr int k_version = 1;

std::string_view spec_name(const sm::MachineSpec* spec) {
  if (spec == &sm::emm_ecm_spec()) return "emm_ecm";
  if (spec == &sm::lte_two_level_spec()) return "lte_two_level";
  if (spec == &sm::fiveg_sa_spec()) return "fiveg_sa";
  throw std::runtime_error("save_model: unknown machine spec");
}

const sm::MachineSpec* spec_by_name(std::string_view name) {
  if (name == "emm_ecm") return &sm::emm_ecm_spec();
  if (name == "lte_two_level") return &sm::lte_two_level_spec();
  if (name == "fiveg_sa") return &sm::fiveg_sa_spec();
  return nullptr;
}

// Caps applied while loading. A truncated or bit-flipped count field must
// fail with a diagnostic, not drive a multi-gigabyte allocation; the caps
// are far above anything fit_model produces.
constexpr std::size_t k_max_ues_per_device = std::size_t{1} << 24;
constexpr std::size_t k_max_clusters_per_hour = std::size_t{1} << 16;
constexpr std::size_t k_max_edges_per_state = std::size_t{1} << 12;
constexpr std::size_t k_max_quantile_knots = std::size_t{1} << 20;

// The whitespace `>>` skips in the classic locale: ' ', \t \n \v \f \r.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// A token for a one-line diagnostic: clipped, control bytes masked.
std::string quoted(std::string_view tok) {
  constexpr std::size_t k_max = 32;
  std::string out = "'";
  for (const char c : tok.substr(0, k_max)) {
    out += (c >= ' ' && c <= '~') ? c : '?';
  }
  if (tok.size() > k_max) out += "...";
  return out + "'";
}

// A cursor over the model text. Tokens are split on whitespace, and every
// number goes through std::from_chars and must fill its whole token, so a
// damaged numeral ("1.31.5", "0.5x", "+1") fails instead of splitting into
// two values or dropping a suffix. Every failure names the model section
// being read and the byte offset of the offending token (the end of the
// text when it ran out), so a corrupt file fails with an actionable
// diagnostic instead of a generic "bad header".
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  std::string section = "header";

  // The next token; empty once the text is exhausted.
  std::string_view token() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    tok_ = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(tok_, pos_ - tok_);
  }

  template <class T>
  T number(std::string_view what) {
    const std::string_view tok = token();
    if (tok.empty()) fail("truncated " + std::string(what));
    T v{};
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (ec == std::errc::result_out_of_range) {
      fail(std::string(what) + " out of range: " + quoted(tok));
    }
    if (ec != std::errc{} || ptr != end) {
      fail(std::string(what) + " is not a number: " + quoted(tok));
    }
    return v;
  }

  // A record count, bounded by its sanity cap and by what the rest of the
  // text can hold at `min_bytes` per record (separator included), both
  // checked before the caller sizes anything by it.
  std::size_t count(std::string_view what, std::size_t cap,
                    std::size_t min_bytes) {
    const auto n = number<std::size_t>(what);
    if (n > cap) fail(std::string(what) + " exceeds sanity cap");
    if (n > (text_.size() - pos_) / min_bytes) {
      fail(std::string(what) + " " + std::to_string(n) +
           " exceeds what the remaining " +
           std::to_string(text_.size() - pos_) + " bytes can hold");
    }
    return n;
  }

  double finite(std::string_view what) {
    const double v = number<double>(what);
    if (!std::isfinite(v)) fail(std::string(what) + " is not finite");
    return v;
  }

  // Fitted and 5G-transformed models accumulate floating error that can
  // leave a probability an epsilon outside [0, 1]; those are clamped.
  // Anything further out is corruption and fails.
  double probability(std::string_view what) {
    const double v = finite(what);
    constexpr double tol = 1e-6;
    if (v < -tol || v > 1.0 + tol) {
      fail(std::string(what) + " out of [0, 1]: " +
           quoted(text_.substr(tok_, pos_ - tok_)));
    }
    return std::min(1.0, std::max(0.0, v));
  }

  // Byte offset of the token read last.
  std::size_t offset() const noexcept { return tok_; }

  [[noreturn]] void fail(const std::string& what) const {
    fail_at(tok_, what);
  }
  [[noreturn]] void fail_at(std::size_t offset,
                            const std::string& what) const {
    throw std::runtime_error("load_model: " + what + " (section '" +
                             section + "', near byte " +
                             std::to_string(offset) + ")");
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t tok_ = 0;
};

// --- distribution serialization --------------------------------------------

void write_distribution(const stats::Distribution& dist, std::ostream& os,
                        std::size_t knots) {
  if (const auto* exp = dynamic_cast<const stats::Exponential*>(&dist)) {
    os << "exp " << exp->lambda();
    return;
  }
  if (const auto* scaled = dynamic_cast<const stats::Scaled*>(&dist)) {
    // Flatten: scaled distributions serialize as quantile grids of the
    // composed law (keeps the reader trivial and lossless enough).
    os << "empq " << knots;
    for (std::size_t k = 0; k < knots; ++k) {
      const double p =
          (static_cast<double>(k) + 0.5) / static_cast<double>(knots);
      os << ' ' << scaled->quantile(p);
    }
    return;
  }
  if (const auto* emp = dynamic_cast<const stats::Empirical*>(&dist)) {
    const std::size_t n = std::min(knots, emp->size());
    os << "empq " << n;
    for (std::size_t k = 0; k < n; ++k) {
      const double p =
          (static_cast<double>(k) + 0.5) / static_cast<double>(n);
      os << ' ' << emp->quantile(p);
    }
    return;
  }
  // Generic fallback: sample the quantile function.
  os << "empq " << knots;
  for (std::size_t k = 0; k < knots; ++k) {
    const double p =
        (static_cast<double>(k) + 0.5) / static_cast<double>(knots);
    os << ' ' << dist.quantile(p);
  }
}

std::shared_ptr<const stats::Distribution> read_distribution(Cursor& in) {
  const std::string_view kind = in.token();
  if (kind == "exp") {
    const double lambda = in.finite("exp lambda");
    if (!(lambda > 0.0)) in.fail("exp lambda must be > 0");
    return std::make_shared<stats::Exponential>(lambda);
  }
  if (kind == "empq") {
    const std::size_t n = in.count("empq size", k_max_quantile_knots, 2);
    if (n == 0) in.fail("bad empq size");
    std::vector<double> values(n);
    for (double& v : values) v = in.finite("empq value");
    return std::make_shared<stats::Empirical>(std::move(values), false);
  }
  if (kind.empty()) in.fail("missing distribution");
  in.fail("unknown distribution kind " + quoted(kind));
}

// --- law serialization ----------------------------------------------------

void write_state_law(const StateLaw& law, std::ostream& os,
                     std::size_t knots) {
  os << law.out.size() << '\n';
  for (const TransitionLaw& t : law.out) {
    os << "edge " << t.edge << ' ' << t.probability << ' ';
    write_distribution(*t.sojourn, os, knots);
    os << '\n';
  }
}

// `table` is the spec's transition table (top or sub) that the law's edges
// index. The generator follows an edge unchecked, so each must exist and
// leave `from`, the law's own state.
template <class Transition, class State>
StateLaw read_state_law(Cursor& in, std::span<const Transition> table,
                        State from) {
  StateLaw law;
  // An edge record is at least " edge 0 0 exp 1".
  const std::size_t n = in.count("state-law size", k_max_edges_per_state, 15);
  law.out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (in.token() != "edge") in.fail("expected 'edge' record");
    TransitionLaw t;
    t.edge = in.number<int>("edge index");
    const auto e = static_cast<std::size_t>(t.edge);
    if (t.edge < 0 || e >= table.size() || table[e].from != from) {
      in.fail("edge index " + std::to_string(t.edge) +
              " is not a transition out of " + std::string(to_string(from)));
    }
    t.probability = in.probability("edge probability");
    t.sojourn = read_distribution(in);
    law.out.push_back(std::move(t));
  }
  return law;
}

void write_hour_model(const HourClusterModel& m, std::ostream& os,
                      std::size_t knots) {
  for (const StateLaw& law : m.top) write_state_law(law, os, knots);
  for (const StateLaw& law : m.sub) write_state_law(law, os, knots);
  for (const auto& overlay : m.overlay) {
    if (overlay) {
      os << "overlay ";
      write_distribution(*overlay, os, knots);
      os << '\n';
    } else {
      os << "none\n";
    }
  }
  if (m.first_event.has_data()) {
    os << "first " << m.first_event.p_active;
    for (double p : m.first_event.type_prob) os << ' ' << p;
    os << ' ';
    write_distribution(*m.first_event.offset_s, os, knots);
    os << '\n';
  } else {
    os << "first_none\n";
  }
}

HourClusterModel read_hour_model(Cursor& in, const sm::MachineSpec& spec) {
  HourClusterModel m;
  for (TopState s : k_all_top_states) {
    m.top[index_of(s)] = read_state_law(in, spec.top_transitions(), s);
  }
  for (SubState s : k_all_sub_states) {
    m.sub[index_of(s)] = read_state_law(in, spec.sub_transitions(), s);
  }
  for (auto& overlay : m.overlay) {
    const std::string_view tag = in.token();
    if (tag == "overlay") {
      overlay = read_distribution(in);
    } else if (tag.empty()) {
      in.fail("missing overlay record");
    } else if (tag != "none") {
      in.fail("bad overlay tag " + quoted(tag));
    }
  }
  const std::string_view tag = in.token();
  if (tag == "first") {
    FirstEventLaw fe;
    fe.p_active = in.probability("p_active");
    for (double& p : fe.type_prob) {
      p = in.probability("first-event type probability");
    }
    auto dist = read_distribution(in);
    const auto* emp = dynamic_cast<const stats::Empirical*>(dist.get());
    if (emp == nullptr) in.fail("first-event offsets must be empirical");
    fe.offset_s = std::shared_ptr<const stats::Empirical>(
        std::move(dist), emp);
    m.first_event = std::move(fe);
  } else if (tag.empty()) {
    in.fail("missing first-event record");
  } else if (tag != "first_none") {
    in.fail("bad first-event tag " + quoted(tag));
  }
  return m;
}

ModelSet parse_model(std::string_view text) {
  Cursor in(text);
  if (in.token() != k_magic) {
    in.fail("bad magic (not a cptraffgen model file?)");
  }
  const int version = in.number<int>("version");
  if (version != k_version) {
    in.fail("unsupported version " + std::to_string(version));
  }
  ModelSet set;
  if (in.token() != "method") in.fail("missing method record");
  const int method_int = in.number<int>("method id");
  if (method_int < static_cast<int>(model::Method::base) ||
      method_int > static_cast<int>(model::Method::ours)) {
    in.fail("method id out of range: " + std::to_string(method_int));
  }
  set.method = static_cast<model::Method>(method_int);
  if (in.token() != "spec") in.fail("missing spec record");
  const std::string_view spec = in.token();
  if (spec.empty()) in.fail("truncated spec record");
  set.spec = spec_by_name(spec);
  if (set.spec == nullptr) in.fail("unknown machine spec " + quoted(spec));
  if (in.token() != "num_days") in.fail("missing num_days record");
  set.num_days_fitted = in.number<int>("num_days");
  if (set.num_days_fitted < 0) in.fail("negative num_days");

  for (DeviceType d : k_all_device_types) {
    model::DeviceModel& dev = set.devices[index_of(d)];
    const std::string device = "device " + std::string(to_string(d));
    in.section = device;
    if (in.token() != "device" || in.token() != to_string(d)) {
      in.fail("bad device header");
    }
    // A trajectory record is " traj" plus 24 " <id>".
    const std::size_t num_ues =
        in.count("UE count", k_max_ues_per_device, 5 + 2 * 24);
    const std::size_t traj_offset = in.offset();
    dev.ue_traj.resize(num_ues);
    for (auto& traj : dev.ue_traj) {
      if (in.token() != "traj") in.fail("bad trajectory record");
      for (auto& c : traj) {
        c = in.number<std::uint32_t>("trajectory cluster id");
      }
    }
    for (int h = 0; h < 24; ++h) {
      in.section = device + ", hour " + std::to_string(h);
      if (in.token() != "hour" || in.number<int>("hour") != h) {
        in.fail("bad hour header");
      }
      const std::size_t clusters =
          in.count("cluster count", k_max_clusters_per_hour, 2);
      dev.by_hour[h].reserve(clusters);
      for (std::size_t c = 0; c < clusters; ++c) {
        dev.by_hour[h].push_back(read_hour_model(in, *set.spec));
      }
      if (in.token() != "pooled_hour") in.fail("missing pooled_hour");
      dev.pooled_hour[h] = read_hour_model(in, *set.spec);
    }
    in.section = device + ", pooled_all";
    if (in.token() != "pooled_all") in.fail("missing pooled_all");
    dev.pooled_all = read_hour_model(in, *set.spec);

    // Trajectories index the clusters just read: reject dangling cluster
    // ids now rather than crashing generation later.
    for (std::size_t u = 0; u < dev.ue_traj.size(); ++u) {
      for (int h = 0; h < 24; ++h) {
        if (!dev.by_hour[h].empty() &&
            dev.ue_traj[u][static_cast<std::size_t>(h)] >=
                dev.by_hour[h].size()) {
          in.section = device;
          in.fail_at(traj_offset,
                     "trajectory cluster id out of range for UE " +
                         std::to_string(u) + ", hour " + std::to_string(h));
        }
      }
    }
  }
  in.section = "trailer";
  if (in.token() != "end") in.fail("missing 'end' trailer");
  if (!in.token().empty()) in.fail("trailing bytes after the 'end' trailer");
  return set;
}

}  // namespace

void save_model(const ModelSet& set, std::ostream& os,
                const ModelIoOptions& options) {
  os << std::setprecision(17);
  os << k_magic << ' ' << k_version << '\n';
  os << "method " << static_cast<int>(set.method) << '\n';
  os << "spec " << spec_name(set.spec) << '\n';
  os << "num_days " << set.num_days_fitted << '\n';
  for (DeviceType d : k_all_device_types) {
    const model::DeviceModel& dev = set.device(d);
    os << "device " << to_string(d) << ' ' << dev.ue_traj.size() << '\n';
    for (const auto& traj : dev.ue_traj) {
      os << "traj";
      for (auto c : traj) os << ' ' << c;
      os << '\n';
    }
    for (int h = 0; h < 24; ++h) {
      os << "hour " << h << ' ' << dev.by_hour[h].size() << '\n';
      for (const HourClusterModel& m : dev.by_hour[h]) {
        write_hour_model(m, os, options.quantile_knots);
      }
      os << "pooled_hour\n";
      write_hour_model(dev.pooled_hour[h], os, options.quantile_knots);
    }
    os << "pooled_all\n";
    write_hour_model(dev.pooled_all, os, options.quantile_knots);
  }
  os << "end\n";
}

void save_model(const ModelSet& set, const std::string& path,
                const ModelIoOptions& options) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model: cannot open " + path);
  save_model(set, os, options);
}

ModelSet load_model(std::istream& is) {
  std::string text;
  char buf[1 << 16];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    text.append(buf, static_cast<std::size_t>(is.gcount()));
  }
  if (is.bad()) throw std::runtime_error("load_model: stream read failed");
  return parse_model(text);
}

ModelSet load_model(const std::string& path) {
  try {
    const FileBytes file(path);
    return parse_model(file.data());
  } catch (const std::system_error& e) {  // open or read failed
    throw std::runtime_error(std::string("load_model: ") + e.what());
  }
}

}  // namespace cpg::io
