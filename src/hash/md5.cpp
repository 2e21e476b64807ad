#include "hash/md5.hpp"

#include <cstring>

namespace dtr {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Md5::reset() {
  state_[0] = 0x67452301;
  state_[1] = 0xEFCDAB89;
  state_[2] = 0x98BADCFE;
  state_[3] = 0x10325476;
  length_ = 0;
  buffered_ = 0;
}

// The auxiliary functions and the step of RFC 1321 §3.4, written out for
// all 64 steps so the block is straight-line code.  F and G are the RFC's
// functions in an equivalent form with one operation less.
#define DTR_MD5_F(x, y, z) ((z) ^ ((x) & ((y) ^ (z))))
#define DTR_MD5_G(x, y, z) ((y) ^ ((z) & ((x) ^ (y))))
#define DTR_MD5_H(x, y, z) ((x) ^ (y) ^ (z))
#define DTR_MD5_I(x, y, z) ((y) ^ ((x) | ~(z)))
#define DTR_MD5_STEP(f, a, b, c, d, x, s, t) \
  (a) = (b) + rotl32((a) + f((b), (c), (d)) + (x) + (t), (s))

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t x[16];
  for (int i = 0; i < 16; ++i) x[i] = load_le32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1.
  DTR_MD5_STEP(DTR_MD5_F, a, b, c, d, x[0], 7, 0xd76aa478);
  DTR_MD5_STEP(DTR_MD5_F, d, a, b, c, x[1], 12, 0xe8c7b756);
  DTR_MD5_STEP(DTR_MD5_F, c, d, a, b, x[2], 17, 0x242070db);
  DTR_MD5_STEP(DTR_MD5_F, b, c, d, a, x[3], 22, 0xc1bdceee);
  DTR_MD5_STEP(DTR_MD5_F, a, b, c, d, x[4], 7, 0xf57c0faf);
  DTR_MD5_STEP(DTR_MD5_F, d, a, b, c, x[5], 12, 0x4787c62a);
  DTR_MD5_STEP(DTR_MD5_F, c, d, a, b, x[6], 17, 0xa8304613);
  DTR_MD5_STEP(DTR_MD5_F, b, c, d, a, x[7], 22, 0xfd469501);
  DTR_MD5_STEP(DTR_MD5_F, a, b, c, d, x[8], 7, 0x698098d8);
  DTR_MD5_STEP(DTR_MD5_F, d, a, b, c, x[9], 12, 0x8b44f7af);
  DTR_MD5_STEP(DTR_MD5_F, c, d, a, b, x[10], 17, 0xffff5bb1);
  DTR_MD5_STEP(DTR_MD5_F, b, c, d, a, x[11], 22, 0x895cd7be);
  DTR_MD5_STEP(DTR_MD5_F, a, b, c, d, x[12], 7, 0x6b901122);
  DTR_MD5_STEP(DTR_MD5_F, d, a, b, c, x[13], 12, 0xfd987193);
  DTR_MD5_STEP(DTR_MD5_F, c, d, a, b, x[14], 17, 0xa679438e);
  DTR_MD5_STEP(DTR_MD5_F, b, c, d, a, x[15], 22, 0x49b40821);

  // Round 2.
  DTR_MD5_STEP(DTR_MD5_G, a, b, c, d, x[1], 5, 0xf61e2562);
  DTR_MD5_STEP(DTR_MD5_G, d, a, b, c, x[6], 9, 0xc040b340);
  DTR_MD5_STEP(DTR_MD5_G, c, d, a, b, x[11], 14, 0x265e5a51);
  DTR_MD5_STEP(DTR_MD5_G, b, c, d, a, x[0], 20, 0xe9b6c7aa);
  DTR_MD5_STEP(DTR_MD5_G, a, b, c, d, x[5], 5, 0xd62f105d);
  DTR_MD5_STEP(DTR_MD5_G, d, a, b, c, x[10], 9, 0x02441453);
  DTR_MD5_STEP(DTR_MD5_G, c, d, a, b, x[15], 14, 0xd8a1e681);
  DTR_MD5_STEP(DTR_MD5_G, b, c, d, a, x[4], 20, 0xe7d3fbc8);
  DTR_MD5_STEP(DTR_MD5_G, a, b, c, d, x[9], 5, 0x21e1cde6);
  DTR_MD5_STEP(DTR_MD5_G, d, a, b, c, x[14], 9, 0xc33707d6);
  DTR_MD5_STEP(DTR_MD5_G, c, d, a, b, x[3], 14, 0xf4d50d87);
  DTR_MD5_STEP(DTR_MD5_G, b, c, d, a, x[8], 20, 0x455a14ed);
  DTR_MD5_STEP(DTR_MD5_G, a, b, c, d, x[13], 5, 0xa9e3e905);
  DTR_MD5_STEP(DTR_MD5_G, d, a, b, c, x[2], 9, 0xfcefa3f8);
  DTR_MD5_STEP(DTR_MD5_G, c, d, a, b, x[7], 14, 0x676f02d9);
  DTR_MD5_STEP(DTR_MD5_G, b, c, d, a, x[12], 20, 0x8d2a4c8a);

  // Round 3.
  DTR_MD5_STEP(DTR_MD5_H, a, b, c, d, x[5], 4, 0xfffa3942);
  DTR_MD5_STEP(DTR_MD5_H, d, a, b, c, x[8], 11, 0x8771f681);
  DTR_MD5_STEP(DTR_MD5_H, c, d, a, b, x[11], 16, 0x6d9d6122);
  DTR_MD5_STEP(DTR_MD5_H, b, c, d, a, x[14], 23, 0xfde5380c);
  DTR_MD5_STEP(DTR_MD5_H, a, b, c, d, x[1], 4, 0xa4beea44);
  DTR_MD5_STEP(DTR_MD5_H, d, a, b, c, x[4], 11, 0x4bdecfa9);
  DTR_MD5_STEP(DTR_MD5_H, c, d, a, b, x[7], 16, 0xf6bb4b60);
  DTR_MD5_STEP(DTR_MD5_H, b, c, d, a, x[10], 23, 0xbebfbc70);
  DTR_MD5_STEP(DTR_MD5_H, a, b, c, d, x[13], 4, 0x289b7ec6);
  DTR_MD5_STEP(DTR_MD5_H, d, a, b, c, x[0], 11, 0xeaa127fa);
  DTR_MD5_STEP(DTR_MD5_H, c, d, a, b, x[3], 16, 0xd4ef3085);
  DTR_MD5_STEP(DTR_MD5_H, b, c, d, a, x[6], 23, 0x04881d05);
  DTR_MD5_STEP(DTR_MD5_H, a, b, c, d, x[9], 4, 0xd9d4d039);
  DTR_MD5_STEP(DTR_MD5_H, d, a, b, c, x[12], 11, 0xe6db99e5);
  DTR_MD5_STEP(DTR_MD5_H, c, d, a, b, x[15], 16, 0x1fa27cf8);
  DTR_MD5_STEP(DTR_MD5_H, b, c, d, a, x[2], 23, 0xc4ac5665);

  // Round 4.
  DTR_MD5_STEP(DTR_MD5_I, a, b, c, d, x[0], 6, 0xf4292244);
  DTR_MD5_STEP(DTR_MD5_I, d, a, b, c, x[7], 10, 0x432aff97);
  DTR_MD5_STEP(DTR_MD5_I, c, d, a, b, x[14], 15, 0xab9423a7);
  DTR_MD5_STEP(DTR_MD5_I, b, c, d, a, x[5], 21, 0xfc93a039);
  DTR_MD5_STEP(DTR_MD5_I, a, b, c, d, x[12], 6, 0x655b59c3);
  DTR_MD5_STEP(DTR_MD5_I, d, a, b, c, x[3], 10, 0x8f0ccc92);
  DTR_MD5_STEP(DTR_MD5_I, c, d, a, b, x[10], 15, 0xffeff47d);
  DTR_MD5_STEP(DTR_MD5_I, b, c, d, a, x[1], 21, 0x85845dd1);
  DTR_MD5_STEP(DTR_MD5_I, a, b, c, d, x[8], 6, 0x6fa87e4f);
  DTR_MD5_STEP(DTR_MD5_I, d, a, b, c, x[15], 10, 0xfe2ce6e0);
  DTR_MD5_STEP(DTR_MD5_I, c, d, a, b, x[6], 15, 0xa3014314);
  DTR_MD5_STEP(DTR_MD5_I, b, c, d, a, x[13], 21, 0x4e0811a1);
  DTR_MD5_STEP(DTR_MD5_I, a, b, c, d, x[4], 6, 0xf7537e82);
  DTR_MD5_STEP(DTR_MD5_I, d, a, b, c, x[11], 10, 0xbd3af235);
  DTR_MD5_STEP(DTR_MD5_I, c, d, a, b, x[2], 15, 0x2ad7d2bb);
  DTR_MD5_STEP(DTR_MD5_I, b, c, d, a, x[9], 21, 0xeb86d391);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

#undef DTR_MD5_STEP
#undef DTR_MD5_I
#undef DTR_MD5_H
#undef DTR_MD5_G
#undef DTR_MD5_F

void Md5::update(BytesView data) {
  if (data.empty()) return;  // data() may be null: no memcpy from it
  length_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t take = std::min(data.size(), sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == sizeof(buffer_)) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (data.size() - offset >= 64) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest128 Md5::finish() {
  std::uint64_t bit_length = length_ * 8;
  static constexpr std::uint8_t kPad[64] = {0x80};
  std::size_t pad_len = (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  update(BytesView(kPad, pad_len));
  std::uint8_t len_le[8];
  for (int i = 0; i < 8; ++i)
    len_le[i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  update(BytesView(len_le, 8));

  Digest128 out;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      out.bytes[static_cast<std::size_t>(4 * i + j)] =
          static_cast<std::uint8_t>(state_[i] >> (8 * j));
  return out;
}

Digest128 Md5::digest(BytesView data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

}  // namespace dtr
