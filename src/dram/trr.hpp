// Target Row Refresh (TRR) tracker.
//
// §5 lists TRR among mitigations; the paper's testbed explicitly lacks it
// ("the emulation environment doesn't support ECC or TRR", §4.1).  We
// model an in-DRAM sampler as a Misra–Gries heavy-hitter table per bank:
// rows whose activation count crosses the threshold get their neighbors
// target-refreshed.  Bounded tracker capacity is what TRRespass [17]
// exploits — many-sided patterns thrash the table — and the mitigation
// bench demonstrates exactly that evasion.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace rhsd {

/// One target-refresh fired during a batched advance(): the 1-based
/// activation index within the replayed pattern, and the aggressor row
/// whose neighbors must be refreshed.
struct TrrEmission {
  std::uint64_t index = 0;
  std::uint32_t row = 0;
};

/// The target refreshes one one-row batch fires (advance_row()):
/// `count` fires, at the 1-based activation indices first, first + every,
/// first + 2 * every, ...  A tracked row's fires are that evenly spaced
/// because between two of them its counter only counts up.
struct TrrRowFires {
  std::uint64_t first = 0;
  std::uint64_t every = 0;
  std::uint64_t count = 0;
};

struct TrrConfig {
  /// Heavy-hitter table entries per bank (real devices track very few —
  /// TRRespass [17] found 1..4 on most parts).
  std::uint32_t trackers_per_bank = 4;
  /// Activations after which a tracked aggressor's neighbors are
  /// target-refreshed.  Must be well below the DRAM's flip threshold for
  /// the mitigation to be effective.
  std::uint64_t activation_threshold = 20'000;
  /// How far (in rows) the targeted refresh reaches around a hot
  /// aggressor.  1 = classic TRR (evaded by Half-Double's distance-2
  /// aggressors); 2 = the hardened variant that also recharges the
  /// rows two away.
  std::uint32_t refresh_distance = 1;
};

class TrrTracker {
 public:
  /// Scalar steps of a two-row or multi-row batched call's transient
  /// taken before cycle detection starts.  A state key costs a table
  /// copy, a sort, a string and a hash insert, far more than the
  /// on_activate() step it guards, so short calls (hammer_pair()'s
  /// per-pair calls, a pattern chunk of a few commands) just step.
  /// Starting later is bit-exact: detection only ever swaps scalar steps
  /// for a replay of the identical recorded emissions, and a cycle
  /// entered earlier is still found one period after detection starts.
  /// One-row batches never get here: advance_row() is closed-form.
  static constexpr std::uint64_t kScalarStepsBeforeDetect = 64;

  TrrTracker(TrrConfig config, std::uint32_t num_banks);

  /// Record an activation of `row` in `bank`.  Returns the aggressor row
  /// whose neighbors must be target-refreshed now, if any.
  [[nodiscard]] std::optional<std::uint32_t> on_activate(std::uint32_t bank,
                                                         std::uint32_t row);

  /// One-row batch: `events` back-to-back activations of `row` in
  /// `bank` (one L2P lookup's hammers_per_io touches, one-location
  /// hammering), in closed form.  An untracked row arriving at a full
  /// table decrements every entry until the smallest nonzero count runs
  /// out, so those min(c_min, events) steps are one pass; then the row is
  /// inserted and every later activation is a pure increment.  Returns
  /// the fires and leaves the table and refreshes_issued() exactly as
  /// `events` scalar on_activate() calls would, including the 0 -> ~0
  /// wrap of a count a fire just restarted.
  [[nodiscard]] TrrRowFires advance_row(std::uint32_t bank, std::uint32_t row,
                                        std::uint64_t events);

  /// Batched replay: `events` activations of the fixed alternating
  /// pattern row_a, row_b, row_a, ... (row_a != row_b) against `bank`'s
  /// table in one call.  Returns the target-refresh emissions in
  /// activation order and leaves the table and refreshes_issued() exactly
  /// as `events` scalar on_activate() calls would have.  Under a fixed
  /// two-row pattern the Misra–Gries dynamics either absorb both rows
  /// (every later activation is a pure counter increment — closed form)
  /// or settle into a short cycle (the TRRespass thrash regime — detected
  /// and fast-forwarded), so the cost is O(transient + emissions), not
  /// O(events).
  [[nodiscard]] std::vector<TrrEmission> advance(
      std::uint32_t bank, std::uint32_t row_a, std::uint32_t row_b,
      std::uint64_t events);

  /// Batched replay of a periodic multi-row command stream: the bank
  /// sees `cmd_rows[0]` activated `repeat` times, then `cmd_rows[1]`
  /// `repeat` times, ..., wrapping around the list, for `events` total
  /// activations.  This is the shape an FTL read pattern produces (each
  /// command hammers one row `hammers_per_io` times).  Returns emissions
  /// with bank-local 1-based activation indices; table state and
  /// refreshes_issued() end exactly as `events` scalar on_activate()
  /// calls would.  Same complexity argument as advance(): the table
  /// either absorbs every pattern row (per-row closed-form fold) or
  /// cycles (detected and fast-forwarded).
  [[nodiscard]] std::vector<TrrEmission> advance_cmds(
      std::uint32_t bank, std::span<const std::uint32_t> cmd_rows,
      std::uint64_t repeat, std::uint64_t events);

  /// Clear all per-window state (call at refresh-window boundaries).
  void reset();

  [[nodiscard]] std::uint64_t refreshes_issued() const {
    return refreshes_issued_;
  }

 private:
  /// One tracked row of a bank's Misra–Gries summary.
  struct Entry {
    std::uint32_t row = 0;
    std::uint64_t count = 0;
  };

  /// Bank `bank`'s tracked entries, in no meaningful order: the summary's
  /// find / insert / decrement-all steps do not depend on it.
  [[nodiscard]] std::span<Entry> table(std::uint32_t bank) {
    return {entries_.data() +
                static_cast<std::size_t>(bank) * config_.trackers_per_bank,
            sizes_[bank]};
  }
  /// The entry tracking `row` in `bank`, or nullptr.
  [[nodiscard]] Entry* find(std::uint32_t bank, std::uint32_t row);

  /// Where a tracked counter's fires land over `n` pure increments.
  struct Fold {
    std::uint64_t first = 0;  // 1-based increment of the first fire
    std::uint64_t fires = 0;  // later ones every threshold increments
  };
  /// Apply `n` increments to a tracked row's `count` (the row stays
  /// tracked throughout), counting the fires into refreshes_issued().
  Fold fold(std::uint64_t& count, std::uint64_t n);

  TrrConfig config_;
  // Misra–Gries summary per bank, flat: bank b owns the trackers_per_bank
  // slots from b * trackers_per_bank, of which the first sizes_[b] hold
  // entries.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> sizes_;
  std::uint64_t refreshes_issued_ = 0;
};

}  // namespace rhsd
