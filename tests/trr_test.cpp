// Tests for the TRR heavy-hitter tracker, including the bounded-capacity
// behaviour many-sided hammering exploits.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dram/trr.hpp"

namespace rhsd {
namespace {

TEST(Trr, FiresAtThreshold) {
  TrrTracker trr(TrrConfig{.trackers_per_bank = 4,
                           .activation_threshold = 100},
                 /*num_banks=*/1);
  for (int i = 0; i < 99; ++i) {
    EXPECT_FALSE(trr.on_activate(0, 7).has_value()) << "at " << i;
  }
  const auto fired = trr.on_activate(0, 7);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, 7u);
  EXPECT_EQ(trr.refreshes_issued(), 1u);
}

TEST(Trr, CountRestartsAfterFiring) {
  TrrTracker trr(TrrConfig{4, 10}, 1);
  for (int i = 0; i < 9; ++i) (void)trr.on_activate(0, 3);
  EXPECT_TRUE(trr.on_activate(0, 3).has_value());
  // Needs another full run to fire again.
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(trr.on_activate(0, 3).has_value());
  }
  EXPECT_TRUE(trr.on_activate(0, 3).has_value());
}

TEST(Trr, BanksAreIndependent) {
  TrrTracker trr(TrrConfig{4, 10}, 2);
  for (int i = 0; i < 9; ++i) {
    (void)trr.on_activate(0, 5);
    (void)trr.on_activate(1, 5);
  }
  EXPECT_TRUE(trr.on_activate(0, 5).has_value());
  EXPECT_TRUE(trr.on_activate(1, 5).has_value());
}

TEST(Trr, TracksDistinctRowsUpToCapacity) {
  TrrTracker trr(TrrConfig{3, 5}, 1);
  // Three rows fit; all should fire eventually.
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t row = 0; row < 3; ++row) {
      const auto fired = trr.on_activate(0, row);
      if (round == 4) {
        EXPECT_TRUE(fired.has_value()) << "row " << row;
      } else {
        EXPECT_FALSE(fired.has_value());
      }
    }
  }
}

TEST(Trr, ManySidedChurnPreventsFiring) {
  // The TRRespass-style evasion: rotating more distinct rows than the
  // tracker has entries keeps every counter near zero.
  TrrTracker trr(TrrConfig{.trackers_per_bank = 4,
                           .activation_threshold = 50},
                 1);
  // 2 aggressors + three rotating-decoy arrivals per pass: inserts and
  // decrement-alls keep the aggressor counters pinned near zero.
  std::uint64_t fired_count = 0;
  for (int round = 0; round < 5000; ++round) {
    if (trr.on_activate(0, 1).has_value()) ++fired_count;
    if (trr.on_activate(0, 3).has_value()) ++fired_count;
    for (int j = 0; j < 3; ++j) {
      if (trr.on_activate(0, 100 + (3 * round + j) % 9).has_value()) {
        ++fired_count;
      }
    }
  }
  EXPECT_EQ(fired_count, 0u);
}

TEST(Trr, PlainDoubleSidedIsCaught) {
  TrrTracker trr(TrrConfig{4, 50}, 1);
  std::uint64_t fired = 0;
  for (int round = 0; round < 5000; ++round) {
    if (trr.on_activate(0, 1).has_value()) ++fired;
    if (trr.on_activate(0, 3).has_value()) ++fired;
  }
  // 10000 activations at threshold 50: on the order of 200 refreshes.
  EXPECT_GT(fired, 100u);
}

TEST(Trr, ResetClearsState) {
  TrrTracker trr(TrrConfig{4, 10}, 1);
  for (int i = 0; i < 9; ++i) (void)trr.on_activate(0, 2);
  trr.reset();
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(trr.on_activate(0, 2).has_value());
  }
  EXPECT_TRUE(trr.on_activate(0, 2).has_value());
}

TEST(Trr, RejectsBadConfig) {
  EXPECT_THROW(TrrTracker(TrrConfig{0, 10}, 1), CheckFailure);
  EXPECT_THROW(TrrTracker(TrrConfig{4, 0}, 1), CheckFailure);
}

TEST(Trr, BatchedAdvanceMatchesScalarOnRandomHistories) {
  // advance() must leave the tracker exactly where `events` scalar
  // on_activate calls would, and emit the same refreshes at the same
  // activation indices — from *any* starting table, including ones the
  // two-row pattern thrashes against.  Randomize the prehistory, the
  // config, the pattern rows, and the batch length.
  Rng rng(0xADBA7C4);
  for (int iter = 0; iter < 300; ++iter) {
    TrrConfig config;
    config.trackers_per_bank = 1 + static_cast<std::uint32_t>(
        rng.next_below(4));
    config.activation_threshold = 3 + rng.next_below(48);
    TrrTracker batched(config, /*num_banks=*/1);
    TrrTracker scalar(config, /*num_banks=*/1);

    // Arbitrary starting table: random traffic over a small row pool.
    const std::uint64_t prehistory = rng.next_below(120);
    for (std::uint64_t i = 0; i < prehistory; ++i) {
      const auto row = static_cast<std::uint32_t>(rng.next_below(8));
      const auto fb = batched.on_activate(0, row);
      const auto fs = scalar.on_activate(0, row);
      ASSERT_EQ(fb, fs);
    }

    const auto row_a = static_cast<std::uint32_t>(rng.next_below(8));
    const auto row_b = rng.next_bool(0.25)
                           ? row_a
                           : static_cast<std::uint32_t>(rng.next_below(8));
    const std::uint64_t events = rng.next_below(600);

    const std::vector<TrrEmission> emissions =
        batched.advance(0, row_a, row_b, events);
    std::size_t next = 0;
    for (std::uint64_t e = 1; e <= events; ++e) {
      const auto fired = scalar.on_activate(0, (e % 2) ? row_a : row_b);
      if (fired.has_value()) {
        ASSERT_LT(next, emissions.size()) << "iter " << iter << " event " << e;
        EXPECT_EQ(emissions[next].index, e) << "iter " << iter;
        EXPECT_EQ(emissions[next].row, *fired) << "iter " << iter;
        ++next;
      }
    }
    EXPECT_EQ(next, emissions.size()) << "iter " << iter;
    EXPECT_EQ(batched.refreshes_issued(), scalar.refreshes_issued())
        << "iter " << iter;

    // Final tracker state must agree: probe both with the same tail.
    for (std::uint64_t i = 0; i < 80; ++i) {
      const auto row = static_cast<std::uint32_t>(rng.next_below(8));
      ASSERT_EQ(batched.on_activate(0, row), scalar.on_activate(0, row))
          << "iter " << iter << " probe " << i;
    }
  }
}

// Cycle detection in advance()/advance_cmds() starts only after
// TrrTracker::kScalarStepsBeforeDetect scalar steps.  Both sides of that
// start must be bit-exact with scalar on_activate(): emissions,
// refreshes_issued(), and the final table (checked with a probe tail).
// Event counts off the cycle period (4K + 1, 10K + 7) leave a sub-period
// tail after a replay.
struct DetectCase {
  const char* name;
  TrrConfig config;
  std::vector<std::uint32_t> prehistory;  // scalar activations first
  std::vector<std::uint32_t> cmd_rows;
  std::uint64_t repeat = 1;
};

void ExpectBatchedMatchesScalar(const DetectCase& c, bool use_advance,
                                std::uint64_t events) {
  SCOPED_TRACE(::testing::Message()
               << c.name << (use_advance ? " advance" : " advance_cmds")
               << " events=" << events);
  TrrTracker batched(c.config, /*num_banks=*/1);
  TrrTracker scalar(c.config, /*num_banks=*/1);
  for (const std::uint32_t row : c.prehistory) {
    ASSERT_EQ(batched.on_activate(0, row), scalar.on_activate(0, row));
  }
  const std::uint64_t m = c.cmd_rows.size();
  const std::vector<TrrEmission> emissions =
      use_advance ? batched.advance(0, c.cmd_rows.front(),
                                    c.cmd_rows.back(), events)
                  : batched.advance_cmds(0, c.cmd_rows, c.repeat, events);
  std::vector<TrrEmission> expected;
  for (std::uint64_t e = 1; e <= events; ++e) {
    const std::uint32_t row = c.cmd_rows[((e - 1) / c.repeat) % m];
    if (const auto fired = scalar.on_activate(0, row)) {
      expected.push_back(TrrEmission{e, *fired});
    }
  }
  ASSERT_EQ(emissions.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(emissions[i].index, expected[i].index) << "emission " << i;
    EXPECT_EQ(emissions[i].row, expected[i].row) << "emission " << i;
  }
  EXPECT_EQ(batched.refreshes_issued(), scalar.refreshes_issued());
  // Probe: a threshold-long burst per row fires at an index that depends
  // on whether that row is tracked and at what count; then random rows.
  std::vector<std::uint32_t> burst_rows = c.cmd_rows;
  burst_rows.insert(burst_rows.end(), {0, 1, 2, 3});
  for (const std::uint32_t row : burst_rows) {
    for (std::uint64_t i = 0; i <= c.config.activation_threshold; ++i) {
      ASSERT_EQ(batched.on_activate(0, row), scalar.on_activate(0, row))
          << "burst row " << row << " step " << i;
    }
  }
  Rng rng(events);
  for (std::uint64_t i = 0; i < 4 * c.config.activation_threshold; ++i) {
    const auto row = static_cast<std::uint32_t>(rng.next_below(4));
    ASSERT_EQ(batched.on_activate(0, row), scalar.on_activate(0, row))
        << "probe " << i;
  }
}

TEST(Trr, BatchedMatchesScalarAcrossTheDetectionStart) {
  constexpr std::uint64_t K = TrrTracker::kScalarStepsBeforeDetect;
  const TrrConfig one_tracker{.trackers_per_bank = 1,
                              .activation_threshold = 5};
  // A one-row transient that outlasts K: row 3 sits at count 150, so the
  // pattern row needs 150 decrements before it is tracked, then fires
  // every 200th own activation.
  const TrrConfig slow{.trackers_per_bank = 1, .activation_threshold = 200};
  const std::vector<std::uint32_t> hot_row3(150, 3);
  const std::vector<DetectCase> cases = {
      // A single tracker thrashed by two alternating rows: never
      // absorbs both, settles into a period-2 cycle.
      {"thrash", one_tracker, {}, {1, 2}},
      {"thrash_after_hot_row", slow, hot_row3, {1, 2}},
      {"one_row", one_tracker, {}, {1}},
      {"one_row_after_hot_row", slow, hot_row3, {1}},
      // Commands of 8 activations: each row fires inside its own burst,
      // then the other row drains it, so the cycle emits and detection
      // replays recorded refreshes (advance_cmds only: advance() has no
      // repeat).
      {"thrash_with_fires", one_tracker, {}, {1, 2}, /*repeat=*/8},
  };
  for (const DetectCase& c : cases) {
    for (const std::uint64_t events :
         {std::uint64_t{1}, std::uint64_t{4}, K - 1, K, K + 1, 4 * K,
          4 * K + 1, 10 * K, 10 * K + 7}) {
      if (c.repeat == 1) {
        ExpectBatchedMatchesScalar(c, /*use_advance=*/true, events);
      }
      ExpectBatchedMatchesScalar(c, /*use_advance=*/false, events);
    }
  }
}

// Reference Misra–Gries summary on std::map, the textbook form of the
// tracker: the flat per-bank slot arrays must fire at the same
// activations from any stream.
class MapMisraGries {
 public:
  MapMisraGries(TrrConfig config, std::uint32_t num_banks)
      : config_(config), tables_(num_banks) {}

  std::optional<std::uint32_t> on_activate(std::uint32_t bank,
                                           std::uint32_t row) {
    auto& table = tables_[bank];
    if (auto it = table.find(row); it != table.end()) {
      if (++it->second >= config_.activation_threshold) {
        it->second = 0;
        ++refreshes_;
        return row;
      }
      return std::nullopt;
    }
    if (table.size() < config_.trackers_per_bank) {
      table.emplace(row, 1);
      return std::nullopt;
    }
    for (auto it = table.begin(); it != table.end();) {
      if (it->second == 0) ++wraps_;  // a just-fired entry wraps to ~0
      if (--it->second == 0) {
        it = table.erase(it);
      } else {
        ++it;
      }
    }
    return std::nullopt;
  }
  void reset() {
    for (auto& table : tables_) table.clear();
  }
  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }
  [[nodiscard]] std::uint64_t wraps() const { return wraps_; }

 private:
  TrrConfig config_;
  std::vector<std::map<std::uint32_t, std::uint64_t>> tables_;
  std::uint64_t refreshes_ = 0;
  std::uint64_t wraps_ = 0;
};

TEST(Trr, FlatTableMatchesMapReferenceOnRandomStreams) {
  constexpr std::uint32_t kBanks = 3;
  std::uint64_t total_wraps = 0;
  std::uint64_t total_fires = 0;
  for (const std::uint32_t trackers : {1u, 2u, 4u, 8u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "trackers=" << trackers << " seed=" << seed);
      Rng rng(seed * 7919 + trackers);
      const TrrConfig config{.trackers_per_bank = trackers,
                             .activation_threshold = 2 + rng.next_below(24)};
      TrrTracker flat(config, kBanks);
      MapMisraGries ref(config, kBanks);
      // A row pool a little wider than the table, so streams both fill
      // it (fires) and thrash it (decrements, including of entries a
      // fire just restarted at 0).
      const std::uint64_t pool = trackers + 3;
      for (std::uint64_t step = 0; step < 20000; ++step) {
        const auto bank = static_cast<std::uint32_t>(rng.next_below(kBanks));
        if (rng.next_below(4000) == 0) {
          flat.reset();
          ref.reset();
        } else if (rng.next_below(50) == 0) {
          // A batched call mid-stream, against its scalar expansion.
          const auto a = static_cast<std::uint32_t>(rng.next_below(pool));
          const auto b = rng.next_bool(0.3)
                             ? a
                             : static_cast<std::uint32_t>(rng.next_below(pool));
          const std::uint64_t events = rng.next_below(40);
          const std::vector<TrrEmission> emitted =
              flat.advance(bank, a, b, events);
          std::size_t next = 0;
          for (std::uint64_t e = 1; e <= events; ++e) {
            if (const auto fired = ref.on_activate(bank, e % 2 ? a : b)) {
              ASSERT_LT(next, emitted.size()) << "step " << step;
              EXPECT_EQ(emitted[next].index, e) << "step " << step;
              EXPECT_EQ(emitted[next].row, *fired) << "step " << step;
              ++next;
            }
          }
          ASSERT_EQ(next, emitted.size()) << "step " << step;
        } else {
          // Skewed rows: low ids are hot enough to reach the threshold.
          const auto row = static_cast<std::uint32_t>(
              rng.next_bool(0.5) ? rng.next_below(2) : rng.next_below(pool));
          ASSERT_EQ(flat.on_activate(bank, row), ref.on_activate(bank, row))
              << "step " << step;
        }
        ASSERT_EQ(flat.refreshes_issued(), ref.refreshes()) << "step " << step;
      }
      total_wraps += ref.wraps();
      total_fires += ref.refreshes();
    }
  }
  // The streams must reach both the fire and the 0 -> ~0 wrap paths.
  EXPECT_GT(total_fires, 0u);
  EXPECT_GT(total_wraps, 0u);
}

}  // namespace
}  // namespace rhsd
