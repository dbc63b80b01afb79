// Rowhammer disturbance model.
//
// What the paper needed real hardware for, we model functionally:
//  * manufacturing variation — only some rows contain vulnerable cells,
//    drawn deterministically from the device seed ("rowhammerability is
//    determined primarily by variation in the manufacturing process and
//    must be tested online", §4.2);
//  * per-cell charge thresholds — a victim cell fails once the effective
//    aggressor activation count within one refresh window crosses its
//    threshold;
//  * double- vs single-sided weighting — both neighbors hammering is
//    super-additive (H = max + w·min), so double-sided flips at a lower
//    per-side rate, matching §3.1/§4.2 ("single-sided attacks flip fewer
//    bits in practice");
//  * directional failure — a cell discharges toward its failure value
//    and stays there until the row is rewritten (refresh perpetuates the
//    already-lost value; it does not restore it).
//
// Hot-path layout: vulnerability metadata lives in flat per-row arrays
// (a vulnerable-row bitmap and a min-threshold cache) so the activation
// path can reject invulnerable victims with one byte load and reject
// under-threshold exposures with one double compare — the full cell
// list is only materialized for vulnerable rows that get checked, and
// then found through a flat 4 B/row index, not a hash lookup.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "dram/profiles.hpp"

namespace rhsd {

/// A single rowhammer-susceptible DRAM cell.
struct VulnCell {
  std::uint32_t byte_offset = 0;  // within the row
  std::uint8_t bit = 0;           // 0..7
  std::uint8_t failure_value = 0; // value the cell decays toward (0 or 1)
  double threshold = 0.0;         // effective activations to flip
};

class DisturbanceModel {
 public:
  /// `total_rows` bounds the flat per-row caches (global row ids are in
  /// [0, total_rows)).  Small devices get their vulnerability bitmap
  /// precomputed eagerly at construction; very large ones fill it
  /// lazily on first touch — either way the cell draws are identical.
  DisturbanceModel(DramProfile profile, std::uint64_t seed,
                   std::uint32_t row_bytes, std::uint64_t total_rows);

  [[nodiscard]] const DramProfile& profile() const { return profile_; }

  /// Vulnerable cells of a row; generated lazily and cached. Sorted by
  /// ascending threshold. Deterministic in (seed, global_row).
  [[nodiscard]] const std::vector<VulnCell>& cells(std::uint64_t global_row);

  /// True if the row has at least one vulnerable cell.  Flat bitmap
  /// lookup; does not materialize the cell list.
  [[nodiscard]] bool row_is_vulnerable(std::uint64_t global_row) {
    const std::uint8_t f = flags_[global_row];
    if (f & kProbed) return (f & kVulnerable) != 0;
    return probe(global_row);
  }

  /// Lowest cell threshold of a row (+inf for invulnerable rows): the
  /// activation path's early-out bound.  Materializes the cell list on
  /// first use for a vulnerable row, then costs one array load.
  [[nodiscard]] double min_threshold(std::uint64_t global_row) {
    const std::uint8_t f = flags_[global_row];
    if (f & kGenerated) return min_threshold_[global_row];
    static_cast<void>(cells(global_row));
    return min_threshold_[global_row];
  }

  /// Effective hammer exposure from per-window aggressor activation
  /// counts on each side of the victim.
  [[nodiscard]] double effective_hammer(std::uint64_t left_acts,
                                        std::uint64_t right_acts) const;

  /// Lowest per-cell threshold possible under this profile.
  [[nodiscard]] double base_threshold() const {
    return profile_.base_threshold_acts();
  }

  [[nodiscard]] std::uint64_t total_rows() const { return total_rows_; }

 private:
  // flags_ bits.
  static constexpr std::uint8_t kProbed = 1;      // vulnerability known
  static constexpr std::uint8_t kVulnerable = 2;  // has >= 1 weak cell
  static constexpr std::uint8_t kGenerated = 4;   // cell list + min cached

  /// First draw of generate(): decides vulnerability without the cell
  /// draws.  Returns the bit it cached.
  bool probe(std::uint64_t global_row);

  std::vector<VulnCell> generate(std::uint64_t global_row) const;

  DramProfile profile_;
  std::uint64_t seed_;
  std::uint32_t row_bytes_;
  std::uint64_t total_rows_;
  std::vector<std::uint8_t> flags_;
  std::vector<double> min_threshold_;
  /// Full cell lists, vulnerable rows only (typically a small fraction),
  /// in generation order.  A deque never moves its elements on
  /// push_back, so references handed out by cells() stay valid.
  std::deque<std::vector<VulnCell>> cells_;
  /// list_of_[row] indexes cells_; meaningful only once the row's
  /// kGenerated flag is set.
  std::vector<std::uint32_t> list_of_;
  const std::vector<VulnCell> no_cells_;
};

}  // namespace rhsd
