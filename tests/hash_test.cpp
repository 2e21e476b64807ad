// MD4 and MD5 against the RFC 1320 / RFC 1321 test vectors, plus
// incremental-update properties.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "hash/digest.hpp"
#include "hash/md4.hpp"
#include "hash/md5.hpp"

namespace dtr {
namespace {

// --- RFC 1320 appendix A.5 test suite ---------------------------------------

struct Vector {
  const char* input;
  const char* digest;
};

class Md4Vectors : public ::testing::TestWithParam<Vector> {};

TEST_P(Md4Vectors, MatchesRfc1320) {
  const auto& [input, digest] = GetParam();
  EXPECT_EQ(Md4::digest(std::string_view(input)).hex(), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1320, Md4Vectors,
    ::testing::Values(
        Vector{"", "31d6cfe0d16ae931b73c59d7e0c089c0"},
        Vector{"a", "bde52cb31de33e46245e05fbdbd6fb24"},
        Vector{"abc", "a448017aaf21d8525fc10ae87aa6729d"},
        Vector{"message digest", "d9130a8164549fe818874806e1c7014b"},
        Vector{"abcdefghijklmnopqrstuvwxyz",
               "d79e1c308aa5bbcdeea8ed63df412da9"},
        Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345678"
               "9",
               "043f8582f241db351ce627e153e7f0e4"},
        Vector{"1234567890123456789012345678901234567890123456789012345678901"
               "2345678901234567890",
               "e33b4ddc9c38f2199c3e7b164fcc0536"}));

class Md5Vectors : public ::testing::TestWithParam<Vector> {};

TEST_P(Md5Vectors, MatchesRfc1321) {
  const auto& [input, digest] = GetParam();
  EXPECT_EQ(Md5::digest(std::string_view(input)).hex(), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Vectors,
    ::testing::Values(
        Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Vector{"abcdefghijklmnopqrstuvwxyz",
               "c3fcd3d76192e4007dfb496cca67e13b"},
        Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345678"
               "9",
               "d174ab98d277d9f5a5611c2c9f419d9f"},
        Vector{"1234567890123456789012345678901234567890123456789012345678901"
               "2345678901234567890",
               "57edf4a22be3c955ac49da2e2107b67a"}));

// --- incremental update == one-shot, across chunk sizes ---------------------

class ChunkedHashing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedHashing, Md4IncrementalMatchesOneShot) {
  const std::size_t chunk = GetParam();
  Rng rng(1234);
  Bytes data(3000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));

  Md4 h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    std::size_t n = std::min(chunk, data.size() - off);
    h.update(BytesView(data.data() + off, n));
  }
  EXPECT_EQ(h.finish(), Md4::digest(data));
}

TEST_P(ChunkedHashing, Md5IncrementalMatchesOneShot) {
  const std::size_t chunk = GetParam();
  Rng rng(4321);
  Bytes data(3000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));

  Md5 h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    std::size_t n = std::min(chunk, data.size() - off);
    h.update(BytesView(data.data() + off, n));
  }
  EXPECT_EQ(h.finish(), Md5::digest(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedHashing,
                         ::testing::Values(1, 3, 63, 64, 65, 127, 128, 1000));

// --- boundary lengths (padding corner cases) ---------------------------------

class PaddingBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaddingBoundary, Md4StableAcrossReuse) {
  const std::size_t len = GetParam();
  Bytes data(len, 0x5A);
  Digest128 once = Md4::digest(data);
  Md4 h;
  h.update(data);
  EXPECT_EQ(h.finish(), once);
  h.reset();
  h.update(data);
  EXPECT_EQ(h.finish(), once) << "reset() must fully reinitialise";
}

TEST_P(PaddingBoundary, Md5DiffersFromMd4) {
  const std::size_t len = GetParam();
  Bytes data(len, 0x5A);
  if (len == 0) return;  // both defined, but comparing them is the point:
  EXPECT_NE(Md4::digest(data), Md5::digest(data));
}

INSTANTIATE_TEST_SUITE_P(Lengths, PaddingBoundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 128));

// --- Digest128 ---------------------------------------------------------------

TEST(Digest, HexRoundtrip) {
  Digest128 d = Md5::digest(std::string_view("roundtrip"));
  EXPECT_EQ(Digest128::from_hex(d.hex()), d);
}

TEST(Digest, FromHexRejectsBadInput) {
  EXPECT_EQ(Digest128::from_hex("xyz"), Digest128{});
  EXPECT_EQ(Digest128::from_hex("ab"), Digest128{});  // too short
  // A bad last digit must not leave the digits before it behind.
  EXPECT_EQ(Digest128::from_hex("000102030405060708090a0b0c0d0e0g"),
            Digest128{});
}

TEST(Digest, OrderingIsLexicographic) {
  Digest128 a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  EXPECT_LT(a, b);
  b.bytes[0] = 1;
  b.bytes[15] = 1;
  EXPECT_LT(a, b);
}

TEST(Digest, HasherSpreadsValues) {
  DigestHasher hasher;
  std::size_t h1 = hasher(Md4::digest(std::string_view("a")));
  std::size_t h2 = hasher(Md4::digest(std::string_view("b")));
  EXPECT_NE(h1, h2);
}

TEST(Digest, Prefix64IsLittleEndianOfFirstBytes) {
  Digest128 d;
  d.bytes = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(d.prefix64(), 1u);
  d.bytes[7] = 0x80;
  EXPECT_EQ(d.prefix64(), 0x8000000000000001ull);
}

TEST(Digest, ByteAccessorMatchesWireOrder) {
  Digest128 d = Digest128::from_hex("000102030405060708090a0b0c0d0e0f");
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(d.byte(i), i);
  }
}

}  // namespace
}  // namespace dtr
