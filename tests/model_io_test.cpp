#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "generator/traffic_generator.h"
#include "io/model_io.h"
#include "model/fit.h"
#include "model/nextg.h"
#include "statemachine/replay.h"
#include "test_util.h"

namespace cpg::io {
namespace {

const model::ModelSet& fitted() {
  static const model::ModelSet set = [] {
    model::FitOptions opts;
    opts.method = model::Method::ours;
    opts.clustering.theta_n = 30;
    return model::fit_model(testutil::small_ground_truth(150, 24.0, 71),
                            opts);
  }();
  return set;
}

model::ModelSet round_trip(const model::ModelSet& set) {
  std::stringstream buffer;
  save_model(set, buffer);
  return load_model(buffer);
}

TEST(ModelIo, PreservesStructure) {
  const auto loaded = round_trip(fitted());
  EXPECT_EQ(loaded.method, fitted().method);
  EXPECT_EQ(loaded.spec, fitted().spec);
  EXPECT_EQ(loaded.num_days_fitted, fitted().num_days_fitted);
  for (DeviceType d : k_all_device_types) {
    const auto& a = fitted().device(d);
    const auto& b = loaded.device(d);
    ASSERT_EQ(a.ue_traj.size(), b.ue_traj.size()) << to_string(d);
    for (std::size_t u = 0; u < a.ue_traj.size(); ++u) {
      EXPECT_EQ(a.ue_traj[u], b.ue_traj[u]);
    }
    for (int h = 0; h < 24; ++h) {
      ASSERT_EQ(a.by_hour[h].size(), b.by_hour[h].size());
    }
  }
}

TEST(ModelIo, PreservesLaws) {
  const auto loaded = round_trip(fitted());
  const auto& a =
      fitted().device(DeviceType::phone).pooled_all.top[index_of(
          TopState::connected)];
  const auto& b = loaded.device(DeviceType::phone)
                      .pooled_all.top[index_of(TopState::connected)];
  ASSERT_EQ(a.out.size(), b.out.size());
  for (std::size_t i = 0; i < a.out.size(); ++i) {
    EXPECT_EQ(a.out[i].edge, b.out[i].edge);
    EXPECT_DOUBLE_EQ(a.out[i].probability, b.out[i].probability);
    // Quantile-grid round trip: tight in the bulk, looser in the heavy
    // tail where 256 knots interpolate across wide gaps.
    for (double p : {0.1, 0.5}) {
      EXPECT_NEAR(b.out[i].sojourn->quantile(p),
                  a.out[i].sojourn->quantile(p),
                  0.10 * std::abs(a.out[i].sojourn->quantile(p)) + 0.05);
    }
    EXPECT_NEAR(b.out[i].sojourn->quantile(0.9),
                a.out[i].sojourn->quantile(0.9),
                0.25 * std::abs(a.out[i].sojourn->quantile(0.9)) + 0.05);
  }
}

TEST(ModelIo, PreservesFirstEventLaw) {
  const auto loaded = round_trip(fitted());
  const auto& a = fitted().device(DeviceType::phone).pooled_all.first_event;
  const auto& b = loaded.device(DeviceType::phone).pooled_all.first_event;
  ASSERT_TRUE(a.has_data());
  ASSERT_TRUE(b.has_data());
  EXPECT_DOUBLE_EQ(a.p_active, b.p_active);
  for (std::size_t e = 0; e < k_num_event_types; ++e) {
    EXPECT_DOUBLE_EQ(a.type_prob[e], b.type_prob[e]);
  }
}

TEST(ModelIo, LoadedModelGeneratesConformingTraffic) {
  const auto loaded = round_trip(fitted());
  gen::GenerationRequest req;
  req.ue_counts = {100, 40, 20};
  req.start_hour = 12;
  req.seed = 5;
  const Trace t = gen::generate_trace(loaded, req);
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(sm::count_violations(sm::lte_two_level_spec(), t), 0u);
}

TEST(ModelIo, LoadedModelStatisticallyEquivalent) {
  const auto loaded = round_trip(fitted());
  gen::GenerationRequest req;
  req.ue_counts = {300, 100, 50};
  req.start_hour = 12;
  req.seed = 5;
  const Trace a = gen::generate_trace(fitted(), req);
  const Trace b = gen::generate_trace(loaded, req);
  // Not bit-identical (quantile grids), but volumes agree closely.
  const double ratio = static_cast<double>(a.num_events()) /
                       static_cast<double>(std::max<std::size_t>(
                           1, b.num_events()));
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(ModelIo, FiveGModelsRoundTrip) {
  const auto sa = model::derive_5g(fitted(), model::sa_defaults());
  const auto loaded = round_trip(sa);
  EXPECT_EQ(loaded.spec, &sm::fiveg_sa_spec());
  gen::GenerationRequest req;
  req.ue_counts = {100, 40, 20};
  req.start_hour = 12;
  req.seed = 6;
  const Trace t = gen::generate_trace(loaded, req);
  for (const ControlEvent& e : t.events()) {
    ASSERT_NE(e.type, EventType::tau);
  }
}

TEST(ModelIo, RejectsGarbage) {
  std::istringstream bad("not-a-model 1\n");
  EXPECT_THROW(load_model(bad), std::runtime_error);
  std::istringstream truncated("cptraffgen-model 1\nmethod 3\n");
  EXPECT_THROW(load_model(truncated), std::runtime_error);
  EXPECT_THROW(load_model(std::string("/nonexistent/path/model")),
               std::runtime_error);
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cpg_model_test.model";
  save_model(fitted(), path);
  const auto loaded = load_model(path);
  EXPECT_EQ(loaded.method, fitted().method);
}

TEST(ModelIo, PathAndStreamLoadsResaveIdentically) {
  // The path overload reads a mapped file, the stream overload a buffer;
  // both must build the same ModelSet.
  const std::string path = ::testing::TempDir() + "/cpg_model_paths.model";
  save_model(fitted(), path);
  std::ifstream is(path);
  std::ostringstream from_path;
  std::ostringstream from_stream;
  save_model(load_model(path), from_path);
  save_model(load_model(is), from_stream);
  EXPECT_GT(from_path.str().size(), 1000u);
  EXPECT_EQ(from_path.str(), from_stream.str());
}

TEST(ModelIo, LoadsNumeralsBitExact) {
  // Pins loaded values independently of the loader: an empq grid of hard
  // literals (subnormals, the normal boundary, halfway and non-representable
  // decimals, DBL_MAX) must load as the same C++ literals, bit for bit.
  model::ModelSet set = fitted();
  auto& law = set.devices[index_of(DeviceType::phone)]
                  .pooled_all.top[index_of(TopState::connected)];
  ASSERT_FALSE(law.out.empty());
  law.out[0].sojourn = std::make_shared<stats::Exponential>(0.125);
  std::ostringstream saved;
  save_model(set, saved);
  std::string text = saved.str();
  const std::string marker = " exp 0.125\n";
  const std::size_t at = text.find(marker);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(at, text.rfind(marker));
  text.replace(at, marker.size(),
               " empq 8 4.9406564584124654e-324 2.2250738585072011e-308 "
               "2.2250738585072014e-308 0.1 0.30000000000000004 "
               "9007199254740993 1e23 1.7976931348623157e308\n");
  std::istringstream is(text);
  const auto loaded = load_model(is);
  const auto* emp = dynamic_cast<const stats::Empirical*>(
      loaded.device(DeviceType::phone)
          .pooled_all.top[index_of(TopState::connected)]
          .out[0]
          .sojourn.get());
  ASSERT_NE(emp, nullptr);
  const double expected[] = {4.9406564584124654e-324,
                             2.2250738585072011e-308,
                             2.2250738585072014e-308,
                             0.1,
                             0.30000000000000004,
                             9007199254740993.0,
                             1e23,
                             1.7976931348623157e308};
  ASSERT_EQ(emp->sorted_sample().size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(emp->sorted_sample()[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "value " << i;
  }
}

TEST(ModelIo, ReadFailureNamesPathAndErrno) {
  // A directory opens but fails its read: the error is that read failure,
  // not a parse of zero bytes.
  const std::string dir = ::testing::TempDir();
  try {
    load_model(dir);
    FAIL() << "a directory loaded";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("load_model: ", 0), 0u) << msg;
    EXPECT_NE(msg.find(dir), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::generic_category().message(EISDIR)),
              std::string::npos)
        << msg;
  }
}

// ---------------------------------------------------------------------------
// Corruption sweep: a damaged model file must never crash, hang, or load
// silently wrong — load_model either succeeds or throws a diagnostic
// std::runtime_error.
// ---------------------------------------------------------------------------

const std::string& serialized() {
  static const std::string bytes = [] {
    std::stringstream buffer;
    save_model(fitted(), buffer);
    return buffer.str();
  }();
  return bytes;
}

// The message load_model throws for `text`, or "" when it loads.
std::string load_error(const std::string& text) {
  std::istringstream is(text);
  try {
    load_model(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void expect_diagnostic(const std::string& msg, const std::string& section,
                       std::size_t byte) {
  EXPECT_EQ(msg.rfind("load_model: ", 0), 0u) << msg;
  EXPECT_NE(msg.find("(section '" + section + "', near byte " +
                     std::to_string(byte) + ")"),
            std::string::npos)
      << msg;
}

// The first empq grid of serialized(), which lies in phone's hour 0.
struct FirstGrid {
  std::size_t value1 = 0;  // offset of its first value
  std::size_t gap = 0;     // offset of the space after that value
};

FirstGrid first_grid(const std::string& text) {
  FirstGrid g;
  const std::size_t at = text.find(" empq ");
  EXPECT_LT(text.find("\nhour 0 "), at);
  EXPECT_LT(at, text.find("\nhour 1 "));
  g.value1 = text.find(' ', at + 6) + 1;
  g.gap = text.find(' ', g.value1);
  EXPECT_LT(g.gap, text.find('\n', g.value1)) << "grid has one value";
  return g;
}

TEST(ModelIoCorruption, TruncationAlwaysThrowsDiagnostic) {
  const std::string& good = serialized();
  ASSERT_GT(good.size(), 1000u);
  // Cut the file at a spread of points, including just past the header and
  // just short of the trailer.
  for (const std::size_t frac : {1u, 5u, 25u, 50u, 75u, 95u, 99u}) {
    const std::size_t cut = good.size() * frac / 100;
    std::istringstream is(good.substr(0, cut));
    try {
      load_model(is);
      FAIL() << "truncation at byte " << cut << " loaded successfully";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("load_model:"), std::string::npos)
          << "cut at " << cut << ": " << e.what();
    }
  }
}

TEST(ModelIoCorruption, DiagnosticNamesSectionAndOffset) {
  const std::string& good = serialized();
  std::istringstream is(good.substr(0, good.size() / 2));
  try {
    load_model(is);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("section"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte"), std::string::npos) << msg;
  }
}

TEST(ModelIoCorruption, MergedNumeralIsRejectedAtItsByte) {
  // A flipped separator merges two values ("1.31 1.54" -> "1.3151.54");
  // the merged token must fail, not load as two different values.
  std::string bad = serialized();
  const FirstGrid g = first_grid(bad);
  bad[g.gap] = '5';
  expect_diagnostic(load_error(bad), "device phone, hour 0", g.value1);
}

TEST(ModelIoCorruption, NumeralWithSuffixIsRejectedAtItsByte) {
  std::string bad = serialized();
  const FirstGrid g = first_grid(bad);
  bad.replace(g.value1, g.gap - g.value1, "0.5x");
  const std::string msg = load_error(bad);
  expect_diagnostic(msg, "device phone, hour 0", g.value1);
  EXPECT_NE(msg.find("'0.5x'"), std::string::npos) << msg;
}

TEST(ModelIoCorruption, BytesAfterTrailerAreRejected) {
  const std::string& good = serialized();
  expect_diagnostic(load_error(good + "end\n"), "trailer", good.size());
}

TEST(ModelIoCorruption, UnknownSpecNamesItAndItsByte) {
  std::string bad = serialized();
  const std::string marker = "\nspec ";
  const std::size_t at = bad.find(marker) + marker.size();
  bad.replace(at, bad.find('\n', at) - at, "lte_three_level");
  const std::string msg = load_error(bad);
  expect_diagnostic(msg, "header", at);
  EXPECT_NE(msg.find("'lte_three_level'"), std::string::npos) << msg;
}

// A read-only streambuf over borrowed bytes that cannot seek, like a
// pipe's: tellg() on it reports -1.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string_view bytes) {
    char* p = const_cast<char*>(bytes.data());  // never written through
    setg(p, p, p + bytes.size());
  }
};

TEST(ModelIoCorruption, TruncatedPipeReportsRealOffset) {
  const std::string& good = serialized();
  const std::string cut = good.substr(0, good.find('\n', good.size() / 2));
  PipeBuf buf(cut);
  std::istream pipe(&buf);
  ASSERT_EQ(pipe.tellg(), std::istream::pos_type(-1));
  std::string msg;
  try {
    load_model(pipe);
    FAIL() << "a truncated model loaded";
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
  // The same offset as through a seekable stream, and a real one.
  EXPECT_EQ(msg, load_error(cut));
  const std::size_t at = msg.find("near byte ");
  ASSERT_NE(at, std::string::npos) << msg;
  // A "-1" would read as 2^64 - 1 and fail here.
  EXPECT_LE(std::stoull(msg.substr(at + 10)), cut.size()) << msg;
}

TEST(ModelIoCorruption, SeededMutationsLoadOrDiagnose) {
  // A seeded mutation sweep over the small fitted model: byte flips,
  // truncations, token deletions and duplications, and digits spliced into
  // whitespace. Every mutant must load or throw a one-line load_model:
  // diagnostic; nothing else (no crash, no other exception type escaping,
  // no unbounded allocation).
  const std::string& good = serialized();
  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // [begin, end)
  std::vector<std::size_t> gaps;  // whitespace bytes
  for (std::size_t i = 0; i < good.size();) {
    if (good[i] == ' ' || good[i] == '\n') {
      gaps.push_back(i++);
      continue;
    }
    const std::size_t begin = i;
    while (i < good.size() && good[i] != ' ' && good[i] != '\n') ++i;
    tokens.emplace_back(begin, i);
  }
  ASSERT_GT(tokens.size(), 1000u);

  std::mt19937_64 rng(0x6d6f64656c);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  constexpr int k_per_kind = 64;
  int loaded = 0;
  int rejected = 0;
  const auto check = [&](std::string_view text, const char* kind) {
    try {
      PipeBuf buf(text);
      std::istream is(&buf);
      load_model(is);
      ++loaded;
      return true;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string_view(e.what()).substr(0, 12), "load_model: ")
          << kind << ": " << e.what();
      EXPECT_EQ(std::string_view(e.what()).find('\n'), std::string::npos)
          << kind << ": " << e.what();
      ++rejected;
      return false;
    }
  };
  std::string bad;
  bad.reserve(2 * good.size());
  for (int i = 0; i < k_per_kind; ++i) {
    bad = good;
    bad[pick(bad.size())] ^= static_cast<char>(1 + pick(255));
    check(bad, "byte flip");

    check(std::string_view(good).substr(0, pick(good.size())), "truncation");

    const auto [begin, end] = tokens[pick(tokens.size())];
    bad = good;
    bad.erase(begin, end - begin);
    check(bad, "token deletion");

    bad = good;
    bad.insert(end, good, begin, end - begin);
    bad.insert(end, 1, ' ');
    check(bad, "token duplication");

    // Merges the two tokens around the gap into one malformed token.
    bad = good;
    bad[gaps[pick(gaps.size())]] = static_cast<char>('0' + pick(10));
    EXPECT_FALSE(check(bad, "digit splice"));
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded, 0);
  SUCCEED() << loaded << " mutants loaded, " << rejected << " rejected";
}

TEST(ModelIoCorruption, HugeCountsHitSanityCaps) {
  // Hand-build files whose UE count claims 2^30 entries (over the cap) and
  // 2^24 - 1 (under the cap, but more than the file's bytes could hold):
  // the loader must reject both by validation, not by attempting the
  // allocation.
  const std::pair<const char*, const char*> cases[] = {
      {"1073741824", "sanity cap"}, {"16777215", "bytes can hold"}};
  for (const auto& [count, reason] : cases) {
    std::string bad = serialized();
    const std::string marker = "device phone ";
    const std::size_t at = bad.find(marker);
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = bad.find('\n', at);
    bad.replace(at, end - at, marker + count);
    std::istringstream is(bad);
    try {
      load_model(is);
      FAIL() << "oversized count " << count << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIoCorruption, EdgeMustLeaveItsLawsState) {
  // The generator follows a law's edge index into the spec's transition
  // table unchecked: an index past the table would read out of bounds, and
  // one out of another state would emit protocol-violating events. The
  // first "edge 1" is CONNECTED --S1_CONN_REL--> IDLE in a top law or
  // SRV_REQ_S --TAU--> TAU_S_CONN in a sub law; edge 3 leaves neither.
  for (const char* index : {"977", "3"}) {
    std::string bad = serialized();
    const std::string marker = "\nedge 1 ";
    const std::size_t at = bad.find(marker);
    ASSERT_LT(bad.find("\nhour 0 "), at);
    ASSERT_LT(at, bad.find("\nhour 1 "));
    bad.replace(at, marker.size(), "\nedge " + std::string(index) + " ");
    const std::string msg = load_error(bad);
    expect_diagnostic(msg, "device phone, hour 0", at + 6);
    EXPECT_NE(msg.find("edge index " + std::string(index) +
                       " is not a transition out of"),
              std::string::npos)
        << msg;
  }
}

TEST(ModelIoCorruption, OutOfRangeProbabilityRejected) {
  // The first-event record is "first <p_active> <type probs...>"; push
  // p_active far outside [0, 1] (beyond the round-trip clamping tolerance).
  std::string bad = serialized();
  const std::string marker = "\nfirst ";
  const std::size_t at = bad.find(marker);
  ASSERT_NE(at, std::string::npos);
  const std::size_t num_begin = at + marker.size();
  const std::size_t num_end = bad.find(' ', num_begin);
  ASSERT_NE(num_end, std::string::npos);
  bad.replace(num_begin, num_end - num_begin, "1.75");
  std::istringstream is(bad);
  EXPECT_THROW(load_model(is), std::runtime_error);
}

}  // namespace
}  // namespace cpg::io
