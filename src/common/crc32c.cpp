#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace rhsd {
namespace {

// Reflected CRC-32C, polynomial 0x1EDC6F41 (reversed: 0x82F63B78).
constexpr std::uint32_t kPoly = 0x82F63B78u;

/// One bit of the reflected CRC register update (input bit already
/// folded into bit 0).
constexpr std::uint32_t ShiftBit(std::uint32_t crc) {
  return (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
}

constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) crc = ShiftBit(crc);
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

std::uint32_t Crc32cTable(const std::uint8_t* p, std::size_t n,
                          std::uint32_t crc) {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) || defined(__i386__)

bool HaveSse42() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & (1u << 20)) != 0;  // SSE4.2 → CRC32 instruction
}

#if defined(__x86_64__)

// Three-lane stretches.  The crc32 instruction has a 3-cycle latency but
// a 1-cycle throughput, so one dependent stream leaves two thirds of the
// unit idle.  Splitting a stretch into three lanes A|B|C of kLane bytes
// and running three independent streams fills it; the lanes are then
// joined using the linearity of the (un-inverted) CRC register:
//
//   crc(A|B|C, x) = Z(Z(crc(A, x)) ^ crc(B, 0)) ^ crc(C, 0)
//
// where Z is "advance the register over kLane zero bytes", a GF(2)-linear
// map on 32 bits.  The result is the register value the single stream
// reaches, bit for bit.
constexpr std::size_t kLane = 1360;  // 3 lanes = 4080 B, one fs block
static_assert(kLane % 8 == 0);

/// Z as four byte-indexed tables: Z(x) = T[0][x & 0xFF] ^
/// T[1][(x >> 8) & 0xFF] ^ ...  Z of each of the 32 basis vectors comes
/// from the bitwise register update; table entries combine them by
/// linearity.
constexpr std::array<std::array<std::uint32_t, 256>, 4> MakeShiftTables() {
  std::array<std::uint32_t, 32> basis{};
  for (int b = 0; b < 32; ++b) {
    std::uint32_t crc = 1u << b;
    for (std::size_t i = 0; i < kLane * 8; ++i) crc = ShiftBit(crc);
    basis[b] = crc;
  }
  std::array<std::array<std::uint32_t, 256>, 4> tables{};
  for (int t = 0; t < 4; ++t) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      std::uint32_t z = 0;
      for (int b = 0; b < 8; ++b) {
        if ((v >> b) & 1u) z ^= basis[t * 8 + b];
      }
      tables[t][v] = z;
    }
  }
  return tables;
}

constexpr auto kShift = MakeShiftTables();

std::uint32_t ShiftLane(std::uint32_t crc) {
  return kShift[0][crc & 0xFFu] ^ kShift[1][(crc >> 8) & 0xFFu] ^
         kShift[2][(crc >> 16) & 0xFFu] ^ kShift[3][crc >> 24];
}

#endif  // __x86_64__

// The SSE4.2 CRC32 instruction implements exactly this reflected
// Castagnoli CRC, so the two paths are bit-identical.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cHw(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
#if defined(__x86_64__)
  while (n >= 3 * kLane) {
    std::uint64_t a = crc;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      std::uint64_t wa, wb, wc;
      std::memcpy(&wa, p + i, 8);
      std::memcpy(&wb, p + kLane + i, 8);
      std::memcpy(&wc, p + 2 * kLane + i, 8);
      a = _mm_crc32_u64(a, wa);
      b = _mm_crc32_u64(b, wb);
      c = _mm_crc32_u64(c, wc);
    }
    crc = ShiftLane(ShiftLane(static_cast<std::uint32_t>(a)) ^
                    static_cast<std::uint32_t>(b)) ^
          static_cast<std::uint32_t>(c);
    p += 3 * kLane;
    n -= 3 * kLane;
  }
  // Tail (and short inputs): one stream.
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
#endif
  while (n >= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p);
    ++p;
    --n;
  }
  return crc;
}

#endif  // x86

}  // namespace

std::uint32_t Crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
#if defined(__x86_64__) || defined(__i386__)
  static const bool kHaveHw = HaveSse42();
  if (kHaveHw) {
    return ~Crc32cHw(data.data(), data.size(), crc);
  }
#endif
  return ~Crc32cTable(data.data(), data.size(), crc);
}

}  // namespace rhsd
