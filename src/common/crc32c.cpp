#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace rhsd {
namespace {

// Reflected CRC-32C, polynomial 0x1EDC6F41 (reversed: 0x82F63B78).
constexpr std::uint32_t kPoly = 0x82F63B78u;

/// One bit of the reflected CRC register update (input bit already
/// folded into bit 0).  On the register as a polynomial (bit i holds the
/// coefficient of x^(31-i)) this is "multiply by x, mod P".
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

// The SSE4.2 CRC32 instruction implements exactly this reflected
// Castagnoli CRC, so every hardware path is bit-identical to the table.
/// One dependent crc32 stream: 8 bytes at a time, then 4, then 1.
__attribute__((target("sse4.2"))) inline std::uint32_t Crc32cStream(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  if (n >= 4) {
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

// ---- 512-bit carry-less-multiply fold ----
//
// Read 16 bytes little-endian as a 128-bit polynomial A whose bit k holds
// the coefficient of x^(127-k) (the first message bit is the highest
// term), so the low qword holds A_hi (x^127..x^64) and the high qword
// A_lo (x^63..x^0).  Moving A forward by F bits, onto the 16 bytes that
// lie F bits later, means adding A * x^F = A_hi * x^(F+64) + A_lo * x^F,
// and mod P either power can be replaced by its 32-bit remainder.  A
// carry-less multiply of two bit-reflected 64-bit operands yields their
// product times x (the result is one bit short of 128), so the constants
// are x^(F+63) mod P for the low qword and x^(F-1) mod P for the high
// one, each bit-reflected into the high 32 bits of its qword.  Every
// product then has degree < 96 and XORs straight into the data F bits on.
//
// The kernel keeps four zmm accumulators (256 bytes, four 128-bit lanes
// each) and folds them over F = 2048 bits; then folds the four into one
// (F = 512) and eats further 64-byte blocks the same way; then folds the
// zmm's lanes 0..2 onto lane 3 (F = 384, 256, 128).  The 16 bytes left
// are congruent to the folded message mod P, so two crc32 instructions
// over them from a zero register give the message's CRC register.  The
// initial register enters by XOR into the first 4 message bytes (the
// register and the leading input bytes meet by XOR in every byte step).

/// x^n mod P as a bit-reflected 64-bit operand (remainder in the high
/// 32 bits).  The register 0x80000000 is the polynomial 1.
constexpr std::uint64_t XPowModP(std::size_t n) {
  std::uint32_t reg = 0x80000000u;
  for (std::size_t i = 0; i < n; ++i) reg = ShiftBit(reg);
  return std::uint64_t{reg} << 32;
}

struct FoldConstants {
  std::uint64_t lo;  // multiplies the low qword of a 128-bit lane
  std::uint64_t hi;  // multiplies the high qword
};

constexpr FoldConstants FoldBy(std::size_t bits) {
  return {XPowModP(bits + 63), XPowModP(bits - 1)};
}

constexpr FoldConstants kFold2048 = FoldBy(2048);
constexpr FoldConstants kFold512 = FoldBy(512);
constexpr FoldConstants kFold384 = FoldBy(384);
constexpr FoldConstants kFold256 = FoldBy(256);
constexpr FoldConstants kFold128 = FoldBy(128);

constexpr std::size_t kFoldMin = 256;  // four zmm accumulators

#define RHSD_FOLD512_TARGET \
  __attribute__((target("avx512f,avx512vl,vpclmulqdq,sse4.2")))

/// Every 128-bit lane of `acc` moved forward by the lane constants `k`,
/// XORed into `next`.
RHSD_FOLD512_TARGET inline __m512i Fold(__m512i acc, __m512i k,
                                        __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);  // a ^ b ^ c
}

RHSD_FOLD512_TARGET inline __m512i Broadcast(FoldConstants k) {
  const auto lo = static_cast<long long>(k.lo);
  const auto hi = static_cast<long long>(k.hi);
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

RHSD_FOLD512_TARGET inline __m512i Load(const std::uint8_t* p) {
  return _mm512_loadu_si512(p);
}

#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t Crc32cTable(std::span<const std::uint8_t> data,
                          std::uint32_t reg) {
  for (const std::uint8_t byte : data) {
    reg = kTable[(reg ^ byte) & 0xFFu] ^ (reg >> 8);
  }
  return reg;
}

#if defined(__x86_64__)

bool HaveSse42() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & (1u << 20)) != 0;  // SSE4.2 → CRC32 instruction
}

bool HaveFold512() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse42 = (ecx & (1u << 20)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (!sse42 || !osxsave) return false;
  // XCR0 must show the OS saving SSE, AVX, opmask, ZMM_Hi256 and
  // Hi16_ZMM state (bits 1, 2, 5, 6, 7).
  std::uint32_t xcr0 = 0;
  std::uint32_t xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0 & 0xE6u) != 0xE6u) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool avx512vl = (ebx & (1u << 31)) != 0;
  const bool vpclmulqdq = (ecx & (1u << 10)) != 0;
  return avx512f && avx512vl && vpclmulqdq;
}

__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    std::span<const std::uint8_t> data, std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
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
  return Crc32cStream(p, n, crc);
}

RHSD_FOLD512_TARGET std::uint32_t Crc32cFold512(
    std::span<const std::uint8_t> data, std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n >= kFoldMin) {
    __m512i x0 = _mm512_xor_si512(
        Load(p), _mm512_maskz_set1_epi32(1, static_cast<int>(crc)));
    __m512i x1 = Load(p + 64);
    __m512i x2 = Load(p + 128);
    __m512i x3 = Load(p + 192);
    p += kFoldMin;
    n -= kFoldMin;

    const __m512i k2048 = Broadcast(kFold2048);
    while (n >= kFoldMin) {
      x0 = Fold(x0, k2048, Load(p));
      x1 = Fold(x1, k2048, Load(p + 64));
      x2 = Fold(x2, k2048, Load(p + 128));
      x3 = Fold(x3, k2048, Load(p + 192));
      p += kFoldMin;
      n -= kFoldMin;
    }

    const __m512i k512 = Broadcast(kFold512);
    x0 = Fold(x0, k512, x1);
    x0 = Fold(x0, k512, x2);
    x0 = Fold(x0, k512, x3);
    while (n >= 64) {
      x0 = Fold(x0, k512, Load(p));
      p += 64;
      n -= 64;
    }

    // Lanes 0, 1, 2 onto lane 3 (whose constants are zero, so its
    // products vanish and lane 3 itself is XORed back in).
    const __m512i klanes = _mm512_set_epi64(
        0, 0, static_cast<long long>(kFold128.hi),
        static_cast<long long>(kFold128.lo),
        static_cast<long long>(kFold256.hi),
        static_cast<long long>(kFold256.lo),
        static_cast<long long>(kFold384.hi),
        static_cast<long long>(kFold384.lo));
    const __m512i folded = Fold(x0, klanes, _mm512_maskz_mov_epi64(0xC0, x0));
    // (The zero-masked extracts, with all lanes selected, are plain
    // extracts that do not trip GCC 12's -Wmaybe-uninitialized on the
    // unmasked intrinsics' undefined pass-through operand.)
    const __m256i halves =
        _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xF, folded, 0),
                         _mm512_maskz_extracti64x4_epi64(0xF, folded, 1));
    const __m128i rest = _mm_xor_si128(_mm256_castsi256_si128(halves),
                                       _mm256_extracti128_si256(halves, 1));
    std::uint64_t c = _mm_crc32_u64(
        0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(rest)));
    c = _mm_crc32_u64(
        c, static_cast<std::uint64_t>(_mm_extract_epi64(rest, 1)));
    crc = static_cast<std::uint32_t>(c);
  }
  return Crc32cStream(p, n, crc);
}

#undef RHSD_FOLD512_TARGET

#else  // !__x86_64__

bool HaveSse42() { return false; }
bool HaveFold512() { return false; }

#endif

}  // namespace detail

std::uint32_t Crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>,
                                   std::uint32_t);
  static const Kernel kKernel = [] {
#if defined(__x86_64__)
    if (detail::HaveFold512()) return &detail::Crc32cFold512;
    if (detail::HaveSse42()) return &detail::Crc32cSse42;
#endif
    return &detail::Crc32cTable;
  }();
  return ~kKernel(data, ~seed);
}

}  // namespace rhsd
