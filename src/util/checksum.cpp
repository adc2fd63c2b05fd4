#include "util/checksum.hpp"

#include <cstring>

#include "util/byteorder.hpp"

namespace ash::util {

std::uint32_t cksum_partial(std::span<const std::uint8_t> data,
                            std::uint32_t acc) noexcept {
  // Sum 16-bit big-endian words. Work in a 64-bit accumulator and fold
  // carries at the end; a 64-bit accumulator cannot overflow for any
  // realistic packet size (would need > 2^48 bytes).
  std::uint64_t sum = acc;
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 1 < n; i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < n) {
    sum += static_cast<std::uint32_t>(data[i]) << 8;  // pad odd byte with 0
  }
  while (sum >> 32) sum = (sum & 0xffffffffu) + (sum >> 32);
  return static_cast<std::uint32_t>(sum);
}

std::uint32_t cksum32_words(const std::uint8_t* p, std::size_t len,
                            std::uint32_t acc) noexcept {
  // cksum32_accumulate word by word keeps the sum modulo 2^32 - 1 and
  // reads 0 only while every input so far is 0, so one 64-bit sum reduced
  // at the end is bit-identical (it cannot overflow for fewer than 2^32
  // words).
  std::uint64_t sum = acc;
  std::size_t off = 0;
  for (; off + 4 <= len; off += 4) sum += load_u32(p + off);
  if (off < len) {
    std::uint32_t w = 0;
    std::memcpy(&w, p + off, len - off);
    sum += w;
  }
  const std::uint64_t r = sum % 0xffffffffu;
  return sum == 0 ? 0 : r == 0 ? 0xffffffffu : static_cast<std::uint32_t>(r);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  return static_cast<std::uint16_t>(~fold16(cksum_partial(data)));
}

bool checksum_ok(std::span<const std::uint8_t> data) noexcept {
  return fold16(cksum_partial(data)) == 0xffff;
}

}  // namespace ash::util
