// Tests for the rowhammer disturbance model: determinism, manufacturing
// variation, threshold calibration against Table 1 rates, and the
// double- vs single-sided exposure weighting.
#include <gtest/gtest.h>

#include <vector>

#include "dram/disturbance_model.hpp"

namespace rhsd {
namespace {

DramProfile TestProfile() {
  DramProfile p;
  p.name = "test";
  p.min_rate_kaccess_s = 1000.0;
  p.vulnerable_row_fraction = 0.5;
  p.max_cells_per_row = 3;
  return p;
}

TEST(DisturbanceModel, DeterministicPerSeedAndRow) {
  DisturbanceModel a(TestProfile(), /*seed=*/1, /*row_bytes=*/4096,
                     /*total_rows=*/16384);
  DisturbanceModel b(TestProfile(), /*seed=*/1, /*row_bytes=*/4096,
                     /*total_rows=*/16384);
  for (std::uint64_t row : {0ull, 17ull, 12345ull}) {
    const auto& ca = a.cells(row);
    const auto& cb = b.cells(row);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].byte_offset, cb[i].byte_offset);
      EXPECT_EQ(ca[i].bit, cb[i].bit);
      EXPECT_EQ(ca[i].failure_value, cb[i].failure_value);
      EXPECT_DOUBLE_EQ(ca[i].threshold, cb[i].threshold);
    }
  }
}

TEST(DisturbanceModel, CellsReferenceSurvivesOtherRowsBeingGenerated) {
  constexpr std::uint64_t kRows = 4096;
  DisturbanceModel model(TestProfile(), /*seed=*/5, 4096, kRows);
  std::uint64_t row = 0;
  while (!model.row_is_vulnerable(row)) ++row;
  const std::vector<VulnCell>& ref = model.cells(row);
  ASSERT_FALSE(ref.empty());
  const std::vector<VulnCell> snapshot = ref;
  const VulnCell* const data = ref.data();
  for (std::uint64_t other = 0; other < kRows; ++other) {
    if (other != row) static_cast<void>(model.cells(other));
  }
  EXPECT_EQ(&model.cells(row), &ref);
  ASSERT_EQ(ref.data(), data);
  ASSERT_EQ(ref.size(), snapshot.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].byte_offset, snapshot[i].byte_offset);
    EXPECT_EQ(ref[i].bit, snapshot[i].bit);
    EXPECT_EQ(ref[i].failure_value, snapshot[i].failure_value);
    EXPECT_EQ(ref[i].threshold, snapshot[i].threshold);
  }
}

TEST(DisturbanceModel, DifferentSeedsDiffer) {
  DisturbanceModel a(TestProfile(), 1, 4096, /*total_rows=*/64);
  DisturbanceModel b(TestProfile(), 2, 4096, /*total_rows=*/64);
  int differing = 0;
  for (std::uint64_t row = 0; row < 64; ++row) {
    if (a.cells(row).size() != b.cells(row).size()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(DisturbanceModel, VulnerableFractionApproximatelyHolds) {
  DramProfile p = TestProfile();
  p.vulnerable_row_fraction = 0.25;
  DisturbanceModel m(p, 3, 4096, /*total_rows=*/2000);
  int vulnerable = 0;
  const int n = 2000;
  for (std::uint64_t row = 0; row < n; ++row) {
    vulnerable += m.row_is_vulnerable(row) ? 1 : 0;
  }
  EXPECT_NEAR(vulnerable / static_cast<double>(n), 0.25, 0.05);
}

TEST(DisturbanceModel, ZeroFractionMeansNoVulnerableRows) {
  DramProfile p = TestProfile();
  p.vulnerable_row_fraction = 0.0;
  DisturbanceModel m(p, 3, 4096, /*total_rows=*/500);
  for (std::uint64_t row = 0; row < 500; ++row) {
    EXPECT_FALSE(m.row_is_vulnerable(row));
  }
}

TEST(DisturbanceModel, CellsAreSortedByThresholdAndInRange) {
  DisturbanceModel m(TestProfile(), 5, 4096, /*total_rows=*/200);
  const double base = m.base_threshold();
  for (std::uint64_t row = 0; row < 200; ++row) {
    const auto& cells = m.cells(row);
    double prev = 0;
    for (const VulnCell& c : cells) {
      EXPECT_LT(c.byte_offset, 4096u);
      EXPECT_LT(c.bit, 8);
      EXPECT_LE(c.failure_value, 1);
      EXPECT_GE(c.threshold, base);
      EXPECT_LE(c.threshold,
                base * (1.0 + TestProfile().threshold_spread) + 1);
      EXPECT_GE(c.threshold, prev);
      prev = c.threshold;
    }
  }
}

TEST(DisturbanceModel, ThresholdCalibrationMatchesTable1Formula) {
  // base = (1+w)/2 * R_min * window. For DDR4(new): 313 K/s, w=3, 64ms:
  // 2 * 313e3 * 0.064 = 40064.
  DramProfile p = DramProfile::Ddr4New();
  EXPECT_NEAR(p.base_threshold_acts(), 2.0 * 313e3 * 0.064, 1e-6);
  // The most resilient Table 1 entry (DDR3 2018, 9.4 M/s) needs ~30x
  // the exposure of the most vulnerable (LPDDR4 new, 150 K/s).
  DramProfile hard = Table1Profiles()[5];   // DDR3 9400
  DramProfile easy = Table1Profiles()[13];  // LPDDR4 (new) 150
  EXPECT_NEAR(hard.base_threshold_acts() / easy.base_threshold_acts(),
              9400.0 / 150.0, 1e-9);
}

TEST(DisturbanceModel, DoubleSidedWeighting) {
  DisturbanceModel m(TestProfile(), 7, 4096, /*total_rows=*/64);
  // Single-sided: only the max side counts.
  EXPECT_DOUBLE_EQ(m.effective_hammer(1000, 0), 1000.0);
  EXPECT_DOUBLE_EQ(m.effective_hammer(0, 1000), 1000.0);
  // Balanced double-sided is (1+w)x per-side = 4x with w=3.
  EXPECT_DOUBLE_EQ(m.effective_hammer(1000, 1000), 4000.0);
  // Unbalanced: max + w*min.
  EXPECT_DOUBLE_EQ(m.effective_hammer(1000, 200), 1000.0 + 3 * 200.0);
}

TEST(DisturbanceModel, DoubleSidedBeatsSingleSidedPerAccess) {
  DisturbanceModel m(TestProfile(), 7, 4096, /*total_rows=*/64);
  // Same total access budget of 2000: split double-sided beats
  // single-sided concentration ("single-sided attacks flip fewer bits
  // in practice", §4.2).
  EXPECT_GT(m.effective_hammer(1000, 1000), m.effective_hammer(2000, 0));
}

TEST(Table1Profiles, HasAllFourteenRows) {
  const auto& profiles = Table1Profiles();
  ASSERT_EQ(profiles.size(), 14u);
  EXPECT_EQ(profiles.front().year, 2014);
  EXPECT_EQ(profiles.front().min_rate_kaccess_s, 2200);
  EXPECT_EQ(profiles.back().name, "LPDDR4 (new)");
  EXPECT_EQ(profiles.back().min_rate_kaccess_s, 150);
}

TEST(Profiles, TestbedFlipsAt3MPerSecond) {
  // §4.1: "Our testbed DRAM shows bitflips from direct accesses at a
  // rate of 3M per second."
  EXPECT_EQ(DramProfile::Testbed().min_rate_kaccess_s, 3000.0);
}

TEST(Profiles, InvulnerableNeverGeneratesCells) {
  DisturbanceModel m(DramProfile::Invulnerable(), 11, 4096,
                     /*total_rows=*/300);
  for (std::uint64_t row = 0; row < 300; ++row) {
    EXPECT_FALSE(m.row_is_vulnerable(row));
  }
}

}  // namespace
}  // namespace rhsd
