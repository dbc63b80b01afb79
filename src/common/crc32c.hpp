// CRC-32C (Castagnoli), the checksum ext4 uses for extent-tree nodes.
//
// The paper's Figure 3 exploit hinges on the asymmetry that ext4 extent
// trees carry CRC-32C but legacy indirect blocks do not; the mini
// filesystem reproduces that, so it needs a faithful CRC-32C.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rhsd {

/// CRC-32C of `data`, chained from `seed` (pass 0 to start).
[[nodiscard]] std::uint32_t Crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0);

namespace detail {

// The kernels Crc32c dispatches to, declared so tests can check each one
// the host supports against a reference.  Each advances the un-inverted
// CRC register `reg` over `data`: Crc32c(d, s) == ~Kernel(d, ~s).

/// Byte-table kernel; runs everywhere.
[[nodiscard]] std::uint32_t Crc32cTable(std::span<const std::uint8_t> data,
                                        std::uint32_t reg);

/// Whether the CPU has the SSE4.2 crc32 instruction.
[[nodiscard]] bool HaveSse42();
/// Whether the CPU and OS support the 512-bit carry-less-multiply fold
/// (AVX512F, AVX512VL, VPCLMULQDQ, SSE4.2, zmm state enabled).
[[nodiscard]] bool HaveFold512();

#if defined(__x86_64__)
/// Three-lane crc32 kernel; requires HaveSse42().
[[nodiscard]] std::uint32_t Crc32cSse42(std::span<const std::uint8_t> data,
                                        std::uint32_t reg);
/// 512-bit carry-less-multiply fold for inputs of 256 bytes or more,
/// single-stream crc32 below that and for the tail; requires
/// HaveFold512().
[[nodiscard]] std::uint32_t Crc32cFold512(
    std::span<const std::uint8_t> data, std::uint32_t reg);
#endif

}  // namespace detail
}  // namespace rhsd
