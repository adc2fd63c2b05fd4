// Internet checksum (RFC 1071) — the ones'-complement sum used by IP, UDP,
// and TCP, and by the paper's checksum pipe (Fig. 2).
//
// The 32-bit accumulation form (`cksum32_accumulate`) mirrors the paper's
// `p_cksum32` VCODE primitive: fold a 32-bit word into a 32-bit running
// accumulator with end-around carry; `fold16` reduces to the final 16-bit
// checksum field value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ash::util {

/// Add one 32-bit word into a 32-bit ones'-complement accumulator with
/// end-around carry (the paper's p_cksum32 primitive).
constexpr std::uint32_t cksum32_accumulate(std::uint32_t acc,
                                           std::uint32_t word) noexcept {
  std::uint64_t sum = static_cast<std::uint64_t>(acc) + word;
  // End-around carry: fold bit 32 back into bit 0.
  sum = (sum & 0xffffffffu) + (sum >> 32);
  return static_cast<std::uint32_t>((sum & 0xffffffffu) + (sum >> 32));
}

/// cksum32_accumulate over the little-endian 32-bit words of `len` bytes
/// at `p` (a short tail zero-padded), starting from `acc`: one 64-bit
/// sum, reduced once.
std::uint32_t cksum32_words(const std::uint8_t* p, std::size_t len,
                            std::uint32_t acc) noexcept;

/// Fold a 32-bit ones'-complement accumulator to 16 bits.
constexpr std::uint16_t fold16(std::uint32_t acc) noexcept {
  acc = (acc & 0xffffu) + (acc >> 16);
  acc = (acc & 0xffffu) + (acc >> 16);
  return static_cast<std::uint16_t>(acc);
}

/// Fold an accumulator built by summing *little-endian* 32-bit words
/// (the checksum pipe's word-at-a-time algorithm on the little-endian
/// simulated machine) into the big-endian Internet checksum sum.
/// Ones'-complement addition commutes with byte swapping, so summing
/// byte-swapped words and swapping the folded result is equivalent to
/// summing big-endian 16-bit words directly.
constexpr std::uint16_t fold16_le_word_sum(std::uint32_t acc) noexcept {
  const std::uint16_t folded = fold16(acc);
  return static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
}

/// Ones'-complement sum of a byte range, returned as an unfolded 32-bit
/// accumulator. `acc` allows incremental computation over multiple ranges;
/// ranges after the first must start at an even offset within the
/// conceptual message, which all protocol uses here satisfy.
std::uint32_t cksum_partial(std::span<const std::uint8_t> data,
                            std::uint32_t acc = 0) noexcept;

/// Full Internet checksum of a byte range: the ones' complement of the
/// ones'-complement sum, as stored in IP/UDP/TCP header fields.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

/// Verify data whose checksum field is already in place: the ones'-
/// complement sum over the whole range must be 0xffff (or 0x0000 treated
/// as equivalent after folding a complemented field).
bool checksum_ok(std::span<const std::uint8_t> data) noexcept;

}  // namespace ash::util
