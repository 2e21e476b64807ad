// Analysis-toolkit tests: exact distinct counters, pair-relation degree
// histograms, power-law fitting, report rendering, campaign statistics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/campaign_stats.hpp"
#include "analysis/distinct.hpp"
#include "analysis/flat_table.hpp"
#include "analysis/hyperloglog.hpp"
#include "analysis/powerlaw.hpp"
#include "analysis/report.hpp"
#include "common/rng.hpp"
#include "core/campaign_runner.hpp"
#include "workload/idstream.hpp"

namespace dtr::analysis {
namespace {

// ---------------------------------------------------------------------------
// BitsetDistinctCounter
// ---------------------------------------------------------------------------

TEST(Bitset, CountsDistinct) {
  BitsetDistinctCounter counter;
  EXPECT_TRUE(counter.observe(5));
  EXPECT_FALSE(counter.observe(5));
  EXPECT_TRUE(counter.observe(6));
  EXPECT_EQ(counter.distinct(), 2u);
  EXPECT_TRUE(counter.seen(5));
  EXPECT_FALSE(counter.seen(7));
}

TEST(Bitset, ExtremeKeys) {
  BitsetDistinctCounter counter;
  EXPECT_TRUE(counter.observe(0));
  EXPECT_TRUE(counter.observe(0xFFFFFFFF));
  EXPECT_EQ(counter.distinct(), 2u);
  EXPECT_TRUE(counter.seen(0));
  EXPECT_TRUE(counter.seen(0xFFFFFFFF));
}

TEST(Bitset, LazyMemory) {
  BitsetDistinctCounter counter;
  EXPECT_EQ(counter.memory_bytes(), 0u);
  counter.observe(1);
  counter.observe(2);  // same page
  std::uint64_t one_page = counter.memory_bytes();
  EXPECT_GT(one_page, 0u);
  counter.observe(0x80000000);
  EXPECT_EQ(counter.memory_bytes(), 2 * one_page);
}

TEST(Bitset, AgreesWithSetOnRandomStream) {
  BitsetDistinctCounter counter;
  std::set<std::uint32_t> reference;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    auto key = static_cast<std::uint32_t>(rng.below(50000));
    EXPECT_EQ(counter.observe(key), reference.insert(key).second);
  }
  EXPECT_EQ(counter.distinct(), reference.size());
}

// ---------------------------------------------------------------------------
// PairSetCounter
// ---------------------------------------------------------------------------

TEST(PairSet, DeduplicatesPairs) {
  PairSetCounter pairs;
  EXPECT_TRUE(pairs.observe(1, 10));
  EXPECT_FALSE(pairs.observe(1, 10));
  EXPECT_TRUE(pairs.observe(1, 11));
  EXPECT_TRUE(pairs.observe(2, 10));
  EXPECT_EQ(pairs.pairs(), 3u);
}

TEST(PairSet, DegreeHistograms) {
  PairSetCounter pairs;
  // file 1 has 3 providers, file 2 has 1.
  pairs.observe(1, 10);
  pairs.observe(1, 11);
  pairs.observe(1, 12);
  pairs.observe(2, 10);

  CountHistogram per_file = pairs.degree_of_a();
  EXPECT_EQ(per_file.count_of(3), 1u);  // one file with 3 providers
  EXPECT_EQ(per_file.count_of(1), 1u);  // one file with 1 provider
  EXPECT_EQ(per_file.total(), 2u);

  CountHistogram per_client = pairs.degree_of_b();
  EXPECT_EQ(per_client.count_of(2), 1u);  // client 10 provides 2 files
  EXPECT_EQ(per_client.count_of(1), 2u);  // clients 11, 12 provide 1 each
}

TEST(PairSet, DegreeSumsMatchPairCount) {
  PairSetCounter pairs;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    pairs.observe(rng.below(500), static_cast<std::uint32_t>(rng.below(300)));
  }
  // Bind the histograms to locals: bins() returns a reference into the
  // histogram, so iterating `degree_of_a().bins()` would dangle.
  CountHistogram by_a = pairs.degree_of_a();
  CountHistogram by_b = pairs.degree_of_b();
  std::uint64_t sum_a = 0;
  for (const auto& [deg, n] : by_a.bins()) sum_a += deg * n;
  std::uint64_t sum_b = 0;
  for (const auto& [deg, n] : by_b.bins()) sum_b += deg * n;
  EXPECT_EQ(sum_a, pairs.pairs());
  EXPECT_EQ(sum_b, pairs.pairs());
}

// The table's capacity follows how many entries it holds, never what
// they are: the largest keys cost what small ones do.
TEST(FlatTable, CapacityFollowsEntryCountNotKeyValues) {
  FlatTable<std::uint64_t, std::uint32_t, FlatIntHash> table;
  EXPECT_EQ(table.capacity(), 0u);
  const std::uint64_t keys[] = {0, ~0ull, 1ull << 63, 1ull << 32, 0xFFFFFFFF,
                                1, 2,     3,          4,          5,
                                6, 7};
  for (std::uint64_t k : keys) {
    EXPECT_TRUE(table.try_emplace(k, static_cast<std::uint32_t>(k)).second);
  }
  EXPECT_EQ(table.size(), 12u);
  EXPECT_EQ(table.capacity(), 16u);  // 12/16 is the 3/4 load bound
  EXPECT_FALSE(table.try_emplace(~0ull, 9).second);
  EXPECT_EQ(*table.try_emplace(~0ull).first, 0xFFFFFFFFu);  // first value kept
  EXPECT_TRUE(table.try_emplace(8, 8).second);
  EXPECT_EQ(table.capacity(), 32u);  // the 13th entry doubles it
  for (std::uint64_t k : keys) {
    EXPECT_EQ(*table.try_emplace(k).first, static_cast<std::uint32_t>(k));
  }
  table.reserve(100);
  EXPECT_EQ(table.capacity(), 256u);  // smallest power of two holding 100
  EXPECT_EQ(table.size(), 13u);
  table.clear();
  EXPECT_EQ(table.capacity(), 0u);
}

// A table rebuilt from its own iteration order, as the restore_state codecs
// rebuild it, holds the same slot layout: it iterates the same, and after
// more inserts (across two doublings) it still iterates the same.  Keys 8,
// 21 and 42 all hash to the last of 16 slots, so their probe cluster wraps
// to the front of the array; a walk from slot 0 would list 21 and 42
// before 8 and the rebuild would put 21 in 8's slot.
TEST(FlatTable, RebuildFromIterationKeepsLayoutWhenAClusterWraps) {
  using Table = FlatTable<std::uint64_t, std::uint32_t, FlatIntHash>;
  const auto entries = [](const Table& t) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    t.for_each([&](std::uint64_t k, std::uint32_t v) { out.emplace_back(k, v); });
    return out;
  };
  Table original;
  for (std::uint64_t k : {8, 21, 42, 13, 5, 2}) {
    original.try_emplace(k, static_cast<std::uint32_t>(k));
  }
  ASSERT_EQ(original.capacity(), 16u);

  const auto saved = entries(original);
  Table restored;
  restored.reserve(saved.size());
  for (const auto& [k, v] : saved) ASSERT_TRUE(restored.try_emplace(k, v).second);
  EXPECT_EQ(restored.capacity(), original.capacity());
  EXPECT_EQ(entries(restored), saved);

  for (std::uint64_t k = 100; k < 140; ++k) {
    original.try_emplace(k, static_cast<std::uint32_t>(k));
    restored.try_emplace(k, static_cast<std::uint32_t>(k));
    ASSERT_EQ(entries(restored), entries(original)) << "after key " << k;
  }
  EXPECT_EQ(original.capacity(), 64u);
}

// The relation table against a std::set: random pairs over a few thousand
// files and clients (so most observations repeat) plus the keys an
// empty-marker scheme would trip over.
TEST(PairSet, AgreesWithSetReference) {
  PairSetCounter pairs;
  std::set<std::pair<std::uint64_t, std::uint32_t>> reference;
  const std::uint64_t hostile_a[] = {0, ~0ull, 1ull << 32, 0xFFFFFFFFull};
  const std::uint32_t hostile_b[] = {0, 0xFFFFFFFF, 1};
  Rng rng(24);
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t a = rng.below(4000);
    std::uint32_t b = static_cast<std::uint32_t>(rng.below(3000));
    if (rng.chance(0.01)) a = hostile_a[rng.below(4)];
    if (rng.chance(0.01)) b = hostile_b[rng.below(3)];
    if (rng.chance(0.01)) a = rng.next();  // high bits set
    ASSERT_EQ(pairs.observe(a, b), reference.insert({a, b}).second)
        << "observation " << i;
  }
  ASSERT_EQ(pairs.pairs(), reference.size());

  std::map<std::uint64_t, std::uint64_t> by_a;
  std::map<std::uint32_t, std::uint64_t> by_b;
  for (const auto& [a, b] : reference) {
    ++by_a[a];
    ++by_b[b];
  }
  CountHistogram want_a;
  for (const auto& [a, degree] : by_a) want_a.add(degree);
  CountHistogram want_b;
  for (const auto& [b, degree] : by_b) want_b.add(degree);
  EXPECT_EQ(pairs.degree_of_a().bins(), want_a.bins());
  EXPECT_EQ(pairs.degree_of_b().bins(), want_b.bins());

  // Save, restore, and check the restored set is the same set.
  ByteWriter out;
  pairs.save_state(out);
  EXPECT_EQ(out.view().size(), 8 + 12 * reference.size());
  PairSetCounter restored;
  ByteReader in(out.view());
  ASSERT_TRUE(restored.restore_state(in));
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(restored.pairs(), reference.size());
  EXPECT_EQ(restored.degree_of_a().bins(), want_a.bins());
  EXPECT_EQ(restored.degree_of_b().bins(), want_b.bins());
  for (const auto& [a, b] : reference) ASSERT_FALSE(restored.observe(a, b));
  EXPECT_TRUE(restored.observe(5000, 5000));
}

TEST(PairSet, RestoreRejectsDuplicatesAndOverlongCounts) {
  ByteWriter dup;
  dup.u64le(2);
  for (int i = 0; i < 2; ++i) {
    dup.u64le(~0ull);
    dup.u32le(0xFFFFFFFF);
  }
  PairSetCounter pairs;
  ByteReader dup_in(dup.view());
  EXPECT_FALSE(pairs.restore_state(dup_in));

  ByteWriter overlong;
  overlong.u64le(3);  // three pairs claimed, two present
  for (std::uint32_t b = 0; b < 2; ++b) {
    overlong.u64le(0);
    overlong.u32le(b);
  }
  ByteReader overlong_in(overlong.view());
  EXPECT_FALSE(pairs.restore_state(overlong_in));
}

// ---------------------------------------------------------------------------
// HyperLogLog
// ---------------------------------------------------------------------------

TEST(Hll, EmptyEstimatesZero) {
  HyperLogLog hll;
  EXPECT_NEAR(hll.estimate(), 0.0, 1e-9);
}

TEST(Hll, SmallCountsAreNearExact) {
  HyperLogLog hll(14);
  for (std::uint32_t i = 0; i < 100; ++i) hll.observe(i);
  EXPECT_NEAR(hll.estimate(), 100.0, 3.0);  // linear-counting regime
}

TEST(Hll, DuplicatesDoNotInflate) {
  HyperLogLog hll(14);
  for (int rep = 0; rep < 50; ++rep) {
    for (std::uint32_t i = 0; i < 500; ++i) hll.observe(i);
  }
  EXPECT_NEAR(hll.estimate(), 500.0, 15.0);
}

class HllAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HllAccuracy, WithinFourSigmaOfExact) {
  const std::uint64_t n = GetParam();
  HyperLogLog hll(14);
  BitsetDistinctCounter exact;
  Rng rng(n ^ 77);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto key = static_cast<std::uint32_t>(rng.next());
    hll.observe(key);
    exact.observe(key);
  }
  double err = std::abs(hll.estimate() - static_cast<double>(exact.distinct())) /
               static_cast<double>(exact.distinct());
  EXPECT_LT(err, 4 * hll.standard_error())
      << "estimate " << hll.estimate() << " vs exact " << exact.distinct();
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllAccuracy,
                         ::testing::Values(10'000, 100'000, 1'000'000));

TEST(Hll, HandlesForgedFileIds) {
  // Forged fileIDs share their first two bytes; the sketch must still see
  // them as distinct (the digest observer re-mixes).
  HyperLogLog hll(14);
  workload::FileIdStreamConfig cfg{50'000, 0.9, /*forged=*/1.0, 3};
  workload::FileIdStream stream(cfg);
  for (std::uint64_t i = 0; i < cfg.distinct_ids; ++i) {
    hll.observe(stream.universe_id(i));
  }
  EXPECT_NEAR(hll.estimate(), 50'000.0, 50'000.0 * 4 * hll.standard_error());
}

TEST(Hll, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), both(12);
  Rng rng(9);
  for (int i = 0; i < 20'000; ++i) {
    auto key = static_cast<std::uint32_t>(rng.next());
    if (i % 2 == 0) {
      a.observe(key);
    } else {
      b.observe(key);
    }
    both.observe(key);
  }
  a.merge(b);
  EXPECT_NEAR(a.estimate(), both.estimate(), both.estimate() * 0.01);
}

TEST(Hll, RejectsBadParameters) {
  EXPECT_THROW(HyperLogLog(3), std::invalid_argument);
  EXPECT_THROW(HyperLogLog(19), std::invalid_argument);
  HyperLogLog a(10), b(12);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Hll, MemoryIsFixedAndTiny) {
  HyperLogLog hll(14);
  for (std::uint32_t i = 0; i < 500'000; ++i) hll.observe(i);
  EXPECT_EQ(hll.memory_bytes(), 16384u);  // vs ~64 MB for the exact bitset
}

// ---------------------------------------------------------------------------
// Power-law fitting
// ---------------------------------------------------------------------------

CountHistogram synthetic_power_law(double alpha, int n, std::uint64_t seed) {
  CountHistogram h;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) h.add(rng.power_law_int(alpha, 10'000'000));
  return h;
}

class PowerLawRecovery : public ::testing::TestWithParam<double> {};

TEST_P(PowerLawRecovery, MleRecoversExponent) {
  const double alpha = GetParam();
  // floor(Pareto) only follows the pure discrete power law asymptotically,
  // so fit in the tail (xmin = 10), like any real-world fit would.
  CountHistogram h = synthetic_power_law(alpha, 200000, 11);
  PowerLawFit fit = fit_power_law(h, 10);
  EXPECT_NEAR(fit.alpha, alpha, 0.15) << describe_fit(fit);
  EXPECT_TRUE(fit.plausible()) << describe_fit(fit);
}

INSTANTIATE_TEST_SUITE_P(Exponents, PowerLawRecovery,
                         ::testing::Values(1.6, 2.0, 2.5, 3.0));

TEST(PowerLaw, RejectsNonPowerLaw) {
  // A tight Gaussian bump is nothing like a power law.
  CountHistogram h;
  Rng rng(13);
  for (int i = 0; i < 50000; ++i) {
    auto v = static_cast<std::uint64_t>(std::max(1.0, rng.normal(500, 20)));
    h.add(v);
  }
  PowerLawFit fit = fit_power_law(h, 1);
  EXPECT_FALSE(fit.plausible()) << describe_fit(fit);
}

TEST(PowerLaw, AutoXminImprovesFitOnTruncatedData) {
  // Power law only above 10: a fixed xmin=1 fit is poor, the scan recovers.
  CountHistogram h;
  Rng rng(17);
  for (int i = 0; i < 30000; ++i) h.add(9 + rng.power_law_int(2.2, 1'000'000));
  PowerLawFit fixed = fit_power_law(h, 1);
  PowerLawFit scanned = fit_power_law_auto(h);
  EXPECT_LT(scanned.ks_distance, fixed.ks_distance);
  EXPECT_GE(scanned.xmin, 5u);
}

TEST(PowerLaw, EmptyHistogram) {
  CountHistogram h;
  PowerLawFit fit = fit_power_law(h, 1);
  EXPECT_EQ(fit.n_tail, 0u);
  EXPECT_FALSE(fit.plausible());
  fit = fit_power_law_auto(h);
  EXPECT_FALSE(fit.plausible());
}

// fit_power_law and fit_power_law_auto as they were before the fit
// loops started at the tail: full scans that skip the values below xmin.
// The fits must be bit-identical to these.
PowerLawFit reference_fit(const CountHistogram& h, std::uint64_t xmin) {
  PowerLawFit fit;
  fit.xmin = std::max<std::uint64_t>(xmin, 1);
  double log_sum = 0.0;
  std::uint64_t n = 0;
  const double shift = static_cast<double>(fit.xmin) - 0.5;
  for (const auto& [value, count] : h.bins()) {
    if (value < fit.xmin) continue;
    log_sum += static_cast<double>(count) *
               std::log(static_cast<double>(value) / shift);
    n += count;
  }
  fit.n_tail = n;
  if (n == 0 || log_sum <= 0.0) return fit;
  fit.alpha = 1.0 + static_cast<double>(n) / log_sum;
  double ks = 0.0;
  std::uint64_t cum = 0;
  for (const auto& [value, count] : h.bins()) {
    if (value < fit.xmin) continue;
    cum += count;
    double empirical = static_cast<double>(cum) / static_cast<double>(n);
    double model =
        1.0 - std::pow(static_cast<double>(value + 1) /
                           static_cast<double>(fit.xmin),
                       1.0 - fit.alpha);
    ks = std::max(ks, std::abs(empirical - model));
  }
  fit.ks_distance = ks;
  return fit;
}

PowerLawFit reference_fit_auto(const CountHistogram& h,
                               std::size_t max_candidates = 50) {
  std::vector<std::uint64_t> candidates;
  for (const auto& [value, count] : h.bins()) {
    if (value >= 1) candidates.push_back(value);
  }
  if (candidates.empty()) return {};
  std::size_t stride =
      std::max<std::size_t>(1, candidates.size() / max_candidates);
  PowerLawFit best;
  bool have_best = false;
  for (std::size_t i = 0; i < candidates.size(); i += stride) {
    PowerLawFit fit = reference_fit(h, candidates[i]);
    if (fit.n_tail < 25 || fit.alpha <= 1.0) continue;
    if (!have_best || fit.ks_distance < best.ks_distance) {
      best = fit;
      have_best = true;
    }
  }
  return have_best ? best : reference_fit(h, 1);
}

void expect_bit_identical(const PowerLawFit& got, const PowerLawFit& want,
                          const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.alpha),
            std::bit_cast<std::uint64_t>(want.alpha))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ks_distance),
            std::bit_cast<std::uint64_t>(want.ks_distance))
      << what;
  EXPECT_EQ(got.xmin, want.xmin) << what;
  EXPECT_EQ(got.n_tail, want.n_tail) << what;
}

void expect_fits_match_reference(const CountHistogram& h,
                                 const std::string& what) {
  expect_bit_identical(fit_power_law_auto(h), reference_fit_auto(h),
                       what + " auto");
  expect_bit_identical(fit_power_law_auto(h, 7), reference_fit_auto(h, 7),
                       what + " auto/7");
  // Every observed value as xmin, plus 0 and values between and past them.
  std::vector<std::uint64_t> xmins = {0, 1, 2, h.max_value() + 1};
  for (const auto& [value, count] : h.bins()) {
    xmins.push_back(value);
    xmins.push_back(value + 1);
  }
  for (std::uint64_t xmin : xmins) {
    expect_bit_identical(fit_power_law(h, xmin), reference_fit(h, xmin),
                         what + " xmin " + std::to_string(xmin));
  }
}

TEST(PowerLaw, BitIdenticalToFullScanOnRandomHistograms) {
  Rng rng(26);
  for (int trial = 0; trial < 40; ++trial) {
    CountHistogram h;
    const int n = 1 + static_cast<int>(rng.below(3000));
    const double alpha = 1.2 + rng.uniform() * 2.0;
    for (int i = 0; i < n; ++i) {
      h.add(trial % 3 == 0 ? rng.below(500) : rng.power_law_int(alpha, 100000),
            1 + rng.below(3));
    }
    expect_fits_match_reference(h, "trial " + std::to_string(trial));
  }
}

TEST(PowerLaw, BitIdenticalToFullScanOnGoldenCampaignFigures) {
  // The campaign CheckpointRecovery.GoldenEndToEndPins pins.
  core::RunnerConfig cfg = core::RunnerConfig::tiny(4242);
  cfg.campaign.duration = 3 * kHour;
  cfg.campaign.population.client_count = 60;
  cfg.campaign.catalog.file_count = 400;
  std::ostringstream xml;
  cfg.xml_out = &xml;
  core::CampaignRunner runner(cfg);
  ASSERT_TRUE(runner.run().pipeline.ok());
  const CampaignStats& stats = runner.stats();
  ASSERT_GT(stats.size_distribution().distinct_values(), 50u);
  expect_fits_match_reference(stats.size_distribution(), "figure 8");
  expect_fits_match_reference(stats.providers_per_file(), "figure 4");
  expect_fits_match_reference(stats.askers_per_file(), "figure 5");
  expect_fits_match_reference(stats.files_per_provider(), "figure 6");
  expect_fits_match_reference(stats.files_per_asker(), "figure 7");
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(Report, DistributionOutputs) {
  CountHistogram h;
  h.add(1, 100);
  h.add(10, 10);
  h.add(100, 1);
  std::ostringstream raw;
  print_distribution(raw, h, "x", "count", /*log_binned=*/false);
  EXPECT_NE(raw.str().find("1\t100"), std::string::npos);
  EXPECT_NE(raw.str().find("100\t1"), std::string::npos);

  std::ostringstream binned;
  print_distribution(binned, h, "x", "count", /*log_binned=*/true);
  EXPECT_FALSE(binned.str().empty());
}

TEST(Report, LogLogPlotDrawsSomething) {
  CountHistogram h = synthetic_power_law(2.0, 5000, 3);
  std::ostringstream out;
  print_loglog_plot(out, h);
  EXPECT_NE(out.str().find('*'), std::string::npos);
  std::ostringstream empty_out;
  print_loglog_plot(empty_out, CountHistogram{});
  EXPECT_NE(empty_out.str().find("empty"), std::string::npos);
}

TEST(Report, TableAlignsRows) {
  std::ostringstream out;
  print_table(out, "Summary", {{"messages", "100"}, {"distinct clients", "7"}});
  EXPECT_NE(out.str().find("== Summary =="), std::string::npos);
  EXPECT_NE(out.str().find("messages"), std::string::npos);
  EXPECT_NE(out.str().find("7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CampaignStats
// ---------------------------------------------------------------------------

anon::AnonEvent publish_event(anon::AnonClientId peer,
                              std::initializer_list<anon::AnonFileId> files,
                              std::uint32_t size_kb = 0) {
  anon::AnonEvent ev;
  ev.time = 1;
  ev.peer = peer;
  ev.is_query = true;
  anon::APublishReq req;
  for (auto f : files) {
    anon::AnonFileEntry e;
    e.file = f;
    e.provider = peer;
    if (size_kb > 0) e.meta.size_kb = size_kb;
    req.files.push_back(e);
  }
  ev.message = std::move(req);
  return ev;
}

anon::AnonEvent ask_event(anon::AnonClientId peer,
                          std::initializer_list<anon::AnonFileId> files) {
  anon::AnonEvent ev;
  ev.time = 2;
  ev.peer = peer;
  ev.is_query = true;
  ev.message = anon::AGetSourcesReq{files};
  return ev;
}

TEST(CampaignStats, ProviderAndAskerRelations) {
  CampaignStats stats;
  stats.consume(publish_event(1, {100, 101}));
  stats.consume(publish_event(2, {100}));
  stats.consume(ask_event(3, {100}));
  stats.consume(ask_event(3, {100, 101}));  // repeat ask deduplicated

  EXPECT_EQ(stats.messages(), 4u);
  EXPECT_EQ(stats.queries(), 4u);
  EXPECT_EQ(stats.provider_relations(), 3u);
  EXPECT_EQ(stats.asker_relations(), 2u);

  CountHistogram providers = stats.providers_per_file();
  EXPECT_EQ(providers.count_of(2), 1u);  // file 100: two providers
  EXPECT_EQ(providers.count_of(1), 1u);  // file 101: one

  CountHistogram files_per_client = stats.files_per_provider();
  EXPECT_EQ(files_per_client.count_of(2), 1u);  // client 1
  EXPECT_EQ(files_per_client.count_of(1), 1u);  // client 2

  CountHistogram askers = stats.askers_per_file();
  EXPECT_EQ(askers.count_of(1), 2u);  // both files asked by one client

  EXPECT_EQ(stats.distinct_clients(), 3u);
  EXPECT_EQ(stats.distinct_files(), 2u);
}

TEST(CampaignStats, FoundSourcesAddsProviders) {
  CampaignStats stats;
  anon::AnonEvent ev;
  ev.time = 3;
  ev.peer = 9;
  ev.is_query = false;
  ev.message = anon::AFoundSourcesRes{55, {{20, 4662}, {21, 4662}}};
  stats.consume(ev);
  EXPECT_EQ(stats.provider_relations(), 2u);
  EXPECT_EQ(stats.distinct_clients(), 3u);  // peer 9 + providers 20, 21
  EXPECT_EQ(stats.queries(), 0u);
  EXPECT_EQ(stats.answers(), 1u);
}

TEST(CampaignStats, SizeDistributionCountsDistinctFilesOnce) {
  CampaignStats stats;
  stats.consume(publish_event(1, {100}, 683594));
  stats.consume(publish_event(2, {100}, 683594));  // same file again
  stats.consume(publish_event(3, {200}, 4200));
  const CountHistogram& sizes = stats.size_distribution();
  EXPECT_EQ(sizes.count_of(683594), 1u);
  EXPECT_EQ(sizes.count_of(4200), 1u);
  EXPECT_EQ(sizes.total(), 2u);
}

TEST(CampaignStats, SearchResultsContributeMetadata) {
  CampaignStats stats;
  anon::AnonEvent ev;
  ev.time = 4;
  ev.peer = 1;
  ev.is_query = false;
  anon::AFileSearchRes res;
  anon::AnonFileEntry e;
  e.file = 300;
  e.provider = 42;
  e.meta.size_kb = 12345;
  res.results.push_back(e);
  ev.message = std::move(res);
  stats.consume(ev);
  EXPECT_EQ(stats.provider_relations(), 1u);
  EXPECT_EQ(stats.size_distribution().count_of(12345), 1u);
}

}  // namespace
}  // namespace dtr::analysis
