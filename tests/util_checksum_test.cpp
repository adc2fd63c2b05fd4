#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace ash::util {
namespace {

// RFC 1071 section 3 worked example: words 0x0001, 0xf203, 0xf4f5, 0xf6f7
// sum to 0xddf2 (with carries); checksum is its complement, 0x220d.
TEST(Checksum, Rfc1071WorkedExample) {
  const std::array<std::uint8_t, 8> data = {0x00, 0x01, 0xf2, 0x03,
                                            0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(fold16(cksum_partial(data)), 0xddf2);
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, EmptyDataSumsToZero) {
  EXPECT_EQ(cksum_partial({}), 0u);
  EXPECT_EQ(internet_checksum({}), 0xffff);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::array<std::uint8_t, 3> data = {0x12, 0x34, 0x56};
  // Words: 0x1234, 0x5600.
  EXPECT_EQ(fold16(cksum_partial(data)), 0x1234 + 0x5600);
}

TEST(Checksum, AllOnesFolds) {
  std::vector<std::uint8_t> data(64, 0xff);
  EXPECT_EQ(fold16(cksum_partial(data)), 0xffff);
  EXPECT_EQ(internet_checksum(data), 0x0000);
}

TEST(Checksum, VerifyWithEmbeddedChecksumField) {
  // Build a pseudo-header-free "packet" and embed its checksum; the sum
  // over the whole thing must then verify.
  std::vector<std::uint8_t> pkt = {0xde, 0xad, 0xbe, 0xef,
                                   0x00, 0x00,  // checksum field
                                   0x12, 0x34};
  const std::uint16_t ck = internet_checksum(pkt);
  pkt[4] = static_cast<std::uint8_t>(ck >> 8);
  pkt[5] = static_cast<std::uint8_t>(ck);
  EXPECT_TRUE(checksum_ok(pkt));
  pkt[7] ^= 0x01;
  EXPECT_FALSE(checksum_ok(pkt));
}

TEST(Checksum, Accumulate32MatchesReference) {
  // cksum32_accumulate is ones'-complement addition: adding 1 to the
  // all-ones accumulator wraps end-around to 1.
  EXPECT_EQ(cksum32_accumulate(0xffffffffu, 1u), 1u);
  EXPECT_EQ(cksum32_accumulate(0, 0), 0u);
  EXPECT_EQ(cksum32_accumulate(0x80000000u, 0x80000000u), 1u);
}

// Property: incremental computation over any split equals one-shot.
class ChecksumSplitProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChecksumSplitProperty, IncrementalEqualsOneShot) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> data(rng.range(2, 512));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  // Splits must be at even offsets (16-bit word alignment), which is the
  // contract stated in the header and satisfied by all protocol users.
  const std::size_t split = (rng.below(data.size()) / 2) * 2;
  const std::uint32_t whole = cksum_partial(data);
  std::uint32_t acc = cksum_partial({data.data(), split});
  acc = cksum_partial({data.data() + split, data.size() - split}, acc);
  EXPECT_EQ(fold16(acc), fold16(whole)) << "split at " << split;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumSplitProperty,
                         ::testing::Range(0, 50));

// Property: 32-bit word-at-a-time accumulation (the p_cksum32 pipe
// algorithm from Fig. 2) folds to the same checksum as the byte-serial
// reference, for 4-byte-multiple messages, on a little-endian machine
// (words must be byte-swapped into big-endian order before accumulating
// to mimic summing big-endian 16-bit words).
class Cksum32WordProperty : public ::testing::TestWithParam<int> {};

TEST_P(Cksum32WordProperty, WordAccumulationMatchesByteSerial) {
  Rng rng(GetParam() + 1000);
  std::vector<std::uint8_t> data(4 * rng.range(1, 256));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());

  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < data.size(); i += 4) {
    const std::uint32_t be_word = static_cast<std::uint32_t>(data[i]) << 24 |
                                  static_cast<std::uint32_t>(data[i + 1]) << 16 |
                                  static_cast<std::uint32_t>(data[i + 2]) << 8 |
                                  static_cast<std::uint32_t>(data[i + 3]);
    acc = cksum32_accumulate(acc, be_word);
  }
  EXPECT_EQ(fold16(acc), fold16(cksum_partial(data)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Cksum32WordProperty, ::testing::Range(0, 50));

TEST(Checksum, WordSumEqualsAccumulateWordByWord) {
  // cksum32_words (one 64-bit sum, reduced once) against the
  // word-at-a-time fold, over every length 0-67 from every offset 0-3,
  // on random bytes and on the reduction's edges: all-zero data (the sum
  // stays 0) and all-ones data (multiples of 2^32 - 1).
  Rng rng(7);
  std::vector<std::uint8_t> random(80);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> zeros(80, 0), ones(80, 0xff);
  for (const auto* data : {&random, &zeros, &ones}) {
    for (const std::uint32_t acc :
         {0u, 1u, 0xfffffffeu, 0xffffffffu, 0x12345678u}) {
      for (std::size_t at = 0; at < 4; ++at) {
        for (std::size_t len = 0; len < 68; ++len) {
          const std::uint8_t* p = data->data() + at;
          std::uint32_t want = acc;
          for (std::size_t off = 0; off < len; off += 4) {
            std::uint32_t w = 0;
            std::memcpy(&w, p + off, std::min<std::size_t>(4, len - off));
            want = cksum32_accumulate(want, w);
          }
          ASSERT_EQ(cksum32_words(p, len, acc), want)
              << "acc " << acc << " at " << at << " len " << len;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ash::util
