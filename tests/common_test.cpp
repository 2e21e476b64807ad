// Unit tests for the common substrate: byte I/O, RNG and samplers,
// histograms and log-binning, string utilities.
#include <gtest/gtest.h>

#include <array>

#include <cmath>
#include <map>
#include <set>

#include "common/binning.hpp"
#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace dtr {
namespace {

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(Bytes, LittleEndianRoundtrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16le(0x1234);
  w.u32le(0xDEADBEEF);
  w.u64le(0x0123456789ABCDEFull);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16le(), 0x1234);
  EXPECT_EQ(r.u32le(), 0xDEADBEEF);
  EXPECT_EQ(r.u64le(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, BigEndianRoundtrip) {
  ByteWriter w;
  w.u16be(0x1234);
  w.u32be(0xCAFEBABE);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16be(), 0x1234);
  EXPECT_EQ(r.u32be(), 0xCAFEBABE);
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, BigEndianWireOrder) {
  ByteWriter w;
  w.u16be(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.view()[0], 0x01);
  EXPECT_EQ(w.view()[1], 0x02);
}

TEST(Bytes, LittleEndianWireOrder) {
  ByteWriter w;
  w.u16le(0x0102);
  EXPECT_EQ(w.view()[0], 0x02);
  EXPECT_EQ(w.view()[1], 0x01);
}

TEST(Bytes, FixedWidthWritesAppendExactLittleEndianBytes) {
  ByteWriter w;
  w.u8(0xAA);
  w.u16le(0x0102);
  w.u32le(0x03040506u);
  w.u64le(0x0708090A0B0C0D0Eull);
  w.u16le(0xFFEE);
  EXPECT_EQ(w.bytes(),
            (Bytes{0xAA, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0E, 0x0D, 0x0C,
                   0x0B, 0x0A, 0x09, 0x08, 0x07, 0xEE, 0xFF}));

  // Many writes grow the buffer past several reallocations; every value
  // still lands at its own offset.
  ByteWriter grown;
  for (std::uint32_t i = 0; i < 256; ++i) {
    grown.u32le(i * 0x01010101u);
    grown.u64le(~std::uint64_t{i});
  }
  ASSERT_EQ(grown.size(), 12u * 256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    const std::uint8_t* p = grown.bytes().data() + 12 * i;
    const auto b = static_cast<std::uint8_t>(i);
    EXPECT_EQ(Bytes(p, p + 4), (Bytes{b, b, b, b})) << i;
    const auto nb = static_cast<std::uint8_t>(~b);
    EXPECT_EQ(Bytes(p + 4, p + 12), (Bytes{nb, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                           0xFF, 0xFF}))
        << i;
  }
}

TEST(Bytes, Str16Roundtrip) {
  ByteWriter w;
  w.str16("hello world");
  ByteReader r(w.view());
  EXPECT_EQ(r.str16(), "hello world");
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, Str16Empty) {
  ByteWriter w;
  w.str16("");
  ByteReader r(w.view());
  EXPECT_EQ(r.str16(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReaderOverrunSetsStickyFailure) {
  ByteWriter w;
  w.u16le(7);
  ByteReader r(w.view());
  EXPECT_EQ(r.u32le(), 0u);  // overrun
  EXPECT_FALSE(r.ok());
  // Sticky: subsequent reads also fail and return zero.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, ReaderStr16Overrun) {
  ByteWriter w;
  w.u16le(100);  // claims 100 bytes, provides none
  ByteReader r(w.view());
  EXPECT_EQ(r.str16(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, PatchU16be) {
  ByteWriter w;
  w.u16be(0);
  w.u8(0xFF);
  w.patch_u16be(0, 0xBEEF);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16be(), 0xBEEF);
}

TEST(Bytes, PatchU32le) {
  ByteWriter w;
  w.u32le(0);
  w.patch_u32le(0, 0x11223344);
  ByteReader r(w.view());
  EXPECT_EQ(r.u32le(), 0x11223344u);
}

TEST(Bytes, HexRoundtrip) {
  Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);  // uppercase accepted
}

TEST(Bytes, HexMalformed) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // bad digit
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexIntoFixedBuffer) {
  std::array<std::uint8_t, 2> out{};
  EXPECT_TRUE(from_hex("aBf0", out));
  EXPECT_EQ(out, (std::array<std::uint8_t, 2>{0xAB, 0xF0}));
  EXPECT_FALSE(from_hex("abf", out));     // too short
  EXPECT_FALSE(from_hex("abf0f0", out));  // too long
  EXPECT_FALSE(from_hex("abfg", out));    // bad digit
}

TEST(Bytes, RawAndSkip) {
  ByteWriter w;
  w.raw(Bytes{1, 2, 3, 4, 5});
  ByteReader r(w.view());
  r.skip(2);
  BytesView rest = r.raw(3);
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 3);
  EXPECT_TRUE(r.at_end());
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.between(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, ParetoTailExponent) {
  Rng rng(31);
  // P(X > 2xm) should be 2^-alpha.
  const double alpha = 1.5;
  int above = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) above += (rng.pareto(1.0, alpha) > 2.0);
  EXPECT_NEAR(static_cast<double>(above) / n, std::pow(2.0, -alpha), 0.02);
}

TEST(Rng, PowerLawIntWithinRange) {
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t v = rng.power_law_int(2.0, 1000);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
  }
}

TEST(Rng, ForkIndependentStreams) {
  Rng base(99);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = base.fork(1);
  EXPECT_EQ(f1.next(), f1_again.next());  // fork is deterministic
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (f1.next() == f2.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------------------
// ZipfSampler / AliasSampler
// ---------------------------------------------------------------------------

TEST(Zipf, InDomain) {
  Rng rng(1);
  ZipfSampler zipf(1.1, 1000);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = zipf(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
  }
}

TEST(Zipf, RankFrequencyDecreases) {
  Rng rng(2);
  ZipfSampler zipf(1.0, 100);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) ++counts[zipf(rng)];
  // Rank 1 much more frequent than rank 50.
  EXPECT_GT(counts[1], counts[50] * 5);
  EXPECT_GT(counts[1], counts[10] * 2);
}

TEST(Zipf, MatchesTheoreticalHead) {
  Rng rng(3);
  const double s = 1.2;
  const std::uint64_t n = 1000;
  ZipfSampler zipf(s, n);
  double norm = 0;
  for (std::uint64_t k = 1; k <= n; ++k) norm += std::pow(double(k), -s);
  const int draws = 300000;
  int ones = 0;
  for (int i = 0; i < draws; ++i) ones += (zipf(rng) == 1);
  double expected = std::pow(1.0, -s) / norm;
  EXPECT_NEAR(static_cast<double>(ones) / draws, expected, expected * 0.08);
}

TEST(Zipf, SingletonDomain) {
  Rng rng(4);
  ZipfSampler zipf(1.5, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 1u);
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(1.0, 0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(0.0, 10), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(-1.0, 10), std::invalid_argument);
}

TEST(Alias, MatchesWeights) {
  Rng rng(5);
  AliasSampler alias({1.0, 2.0, 7.0});
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[alias(rng)];
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.2, 0.015);
  EXPECT_NEAR(counts[2] / double(n), 0.7, 0.015);
}

TEST(Alias, ZeroWeightNeverSampled) {
  Rng rng(6);
  AliasSampler alias({0.0, 1.0});
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(alias(rng), 1u);
}

TEST(Alias, RejectsDegenerateInput) {
  EXPECT_THROW(AliasSampler({}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({1.0, -0.5}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CountHistogram / log binning
// ---------------------------------------------------------------------------

TEST(Histogram, BasicCounting) {
  CountHistogram h;
  h.add(5);
  h.add(5);
  h.add(7, 3);
  EXPECT_EQ(h.count_of(5), 2u);
  EXPECT_EQ(h.count_of(7), 3u);
  EXPECT_EQ(h.count_of(6), 0u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.distinct_values(), 2u);
  EXPECT_EQ(h.min_value(), 5u);
  EXPECT_EQ(h.max_value(), 7u);
}

TEST(Histogram, MeanAndMode) {
  CountHistogram h;
  h.add(1, 9);
  h.add(10, 1);
  EXPECT_DOUBLE_EQ(h.mean(), (9.0 * 1 + 10.0) / 10.0);
  EXPECT_EQ(h.mode(), 1u);
}

TEST(Histogram, EmptyBehaviour) {
  CountHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.mode(), 0u);
  EXPECT_TRUE(log_bin(h).empty());
}

TEST(Histogram, Merge) {
  CountHistogram a, b;
  a.add(1, 2);
  b.add(1, 3);
  b.add(9, 1);
  a.merge(b);
  EXPECT_EQ(a.count_of(1), 5u);
  EXPECT_EQ(a.count_of(9), 1u);
}

TEST(LogBin, PreservesTotalCount) {
  CountHistogram h;
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) h.add(rng.power_law_int(2.0, 100000));
  std::uint64_t binned_total = 0;
  for (const LogBin& bin : log_bin(h, 1.5)) binned_total += bin.count;
  EXPECT_EQ(binned_total, h.total());
}

TEST(LogBin, EdgesAreMultiplicative) {
  CountHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  auto bins = log_bin(h, 2.0);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_LT(bins[i].lo, bins[i].hi);
    if (i > 0) {
      EXPECT_EQ(bins[i].lo, bins[i - 1].hi);
    }
  }
}

TEST(LogBin, ZeroBinKeptSeparately) {
  CountHistogram h;
  h.add(0, 4);
  h.add(1, 2);
  auto bins = log_bin(h, 2.0);
  ASSERT_GE(bins.size(), 2u);
  EXPECT_EQ(bins[0].lo, 0u);
  EXPECT_EQ(bins[0].count, 4u);
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("AbC dEf"), "abc def");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, TokenizeKeywords) {
  auto tokens = tokenize_keywords("Some_Artist - Great Song (live).mp3");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"some", "artist", "great", "song",
                                      "live", "mp3"}));
}

TEST(Strings, TokenizeDropsShortTokens) {
  auto tokens = tokenize_keywords("a bb ccc dddd");
  EXPECT_EQ(tokens, (std::vector<std::string>{"ccc", "dddd"}));
}

TEST(Strings, TokenizeMinLenParameter) {
  auto tokens = tokenize_keywords("a bb ccc", 1);
  EXPECT_EQ(tokens, (std::vector<std::string>{"a", "bb", "ccc"}));
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(equals_ignore_case("Audio", "aUDIO"));
  EXPECT_TRUE(equals_ignore_case("", ""));
  EXPECT_FALSE(equals_ignore_case("audio", "audi"));
  EXPECT_FALSE(equals_ignore_case("a-b", "a_b"));
  // Only ASCII letters fold; other bytes must match exactly.
  EXPECT_FALSE(equals_ignore_case("\xC9t\xE9", "\xE9t\xE9"));
}

TEST(Strings, HasKeyword) {
  const std::string name = "Some_Artist - Great Song (live).MP3";
  EXPECT_TRUE(has_keyword(name, "artist"));
  EXPECT_TRUE(has_keyword(name, "SONG"));
  EXPECT_TRUE(has_keyword(name, "mp3"));
  EXPECT_FALSE(has_keyword(name, "art"));     // a prefix of a token
  EXPECT_FALSE(has_keyword(name, "some_artist"));  // holds a separator
  EXPECT_FALSE(has_keyword("a bb ccc", "bb"));     // shorter than 3
  EXPECT_FALSE(has_keyword(name, ""));
}

TEST(Strings, WithThousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1 000");
  EXPECT_EQ(with_thousands(8867052380ull), "8 867 052 380");
}

TEST(Strings, HumanSize) {
  EXPECT_EQ(human_size(512), "512.0 B");
  EXPECT_EQ(human_size(1536), "1.5 KB");
  EXPECT_EQ(human_size(734003200), "700.0 MB");
}

// ---------------------------------------------------------------------------
// clock
// ---------------------------------------------------------------------------

TEST(Clock, UnitRelations) {
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kWeek, 7ull * 24 * 3600 * kSecond);
  EXPECT_EQ(to_seconds(2 * kSecond + 500 * kMillisecond), 2u);
  EXPECT_DOUBLE_EQ(to_seconds_f(2 * kSecond + 500 * kMillisecond), 2.5);
}

}  // namespace
}  // namespace dtr
