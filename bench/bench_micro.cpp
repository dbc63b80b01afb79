// Microbenchmarks (google-benchmark): hot paths of the simulator.
//
// These measure *host* performance of the simulation itself — useful
// when scaling experiments up — as opposed to the experiment benches,
// which report *simulated-device* behaviour.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <utility>

#include "bench_report.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "dram/dram_device.hpp"
#include "dram/ecc.hpp"
#include "dram/trr.hpp"
#include "ftl/ftl.hpp"
#include "nvme/queue_pair.hpp"
#include "ssd/ssd_device.hpp"

namespace rhsd {
namespace {

void BM_Crc32c4K(benchmark::State& state) {
  std::vector<std::uint8_t> data(kBlockSize, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBlockSize);
}
BENCHMARK(BM_Crc32c4K);

void BM_SecdedEncode(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t word = rng.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SecdedEncode(word));
    ++word;
  }
}
BENCHMARK(BM_SecdedEncode);

void BM_SecdedDecodeClean(benchmark::State& state) {
  const std::uint64_t word = 0xDEADBEEFCAFEF00Dull;
  const std::uint8_t check = SecdedEncode(word);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SecdedDecode(word, check));
  }
}
BENCHMARK(BM_SecdedDecodeClean);

void BM_Xoshiro(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_DramRead(benchmark::State& state) {
  SimClock clock;
  DramConfig config;
  config.geometry = DramGeometry::Tiny();
  config.profile = DramProfile::Invulnerable();
  DramDevice dram(config, MakeLinearMapper(config.geometry), clock);
  std::uint8_t buf[4];
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dram.read(DramAddr(addr % 2048), buf));
    addr += 4;
  }
}
BENCHMARK(BM_DramRead);

void BM_DramHammerActivation(benchmark::State& state) {
  // The disturbance-check cost per activation with vulnerable rows.
  SimClock clock;
  DramConfig config;
  config.geometry = DramGeometry::Tiny();
  config.profile = DramProfile::Testbed();
  config.profile.vulnerable_row_fraction = 1.0;
  DramDevice dram(config, MakeLinearMapper(config.geometry), clock);
  std::uint8_t byte;
  bool left = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dram.read(DramAddr(left ? 128 : 3 * 128), {&byte, 1}));
    left = !left;
  }
}
BENCHMARK(BM_DramHammerActivation);

/// Device used by the scalar-vs-batched hammer comparison: every row
/// vulnerable (worst case for the early-out logic) but with testbed-level
/// thresholds, i.e. the common regime where aggressors are hammered hard
/// without crossing a threshold on every window.
std::unique_ptr<DramDevice> MakeHammerDevice(SimClock& clock,
                                             bool trr = false) {
  DramConfig config;
  config.geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = 256,
                                 .row_bytes = 1024};
  config.profile = DramProfile::Testbed();
  config.profile.vulnerable_row_fraction = 1.0;
  config.seed = 99;
  if (trr) {
    // Threshold low enough that the tracker fires repeatedly over the
    // bench workload: the batched path must replay real emissions, not
    // coast through an emission-free run.
    config.mitigations.trr = true;
    config.mitigations.trr_config.activation_threshold = 5000;
  }
  return std::make_unique<DramDevice>(config, MakeLinearMapper(config.geometry),
                                      clock);
}

void BM_HammerPairScalar(benchmark::State& state) {
  SimClock clock;
  auto dram = MakeHammerDevice(clock);
  for (auto _ : state) {
    dram->hammer_pair_scalar(9, 11, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_HammerPairScalar);

void BM_HammerPairBatched(benchmark::State& state) {
  SimClock clock;
  auto dram = MakeHammerDevice(clock);
  for (auto _ : state) {
    dram->hammer_pair(9, 11, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_HammerPairBatched);

void BM_XorMapperDecode(benchmark::State& state) {
  const DramGeometry g = DramGeometry::PaperTestbed();
  XorMapper mapper(g, {});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.decode(DramAddr(addr)));
    addr = (addr + 8192) % g.total_bytes();
  }
}
BENCHMARK(BM_XorMapperDecode);

void BM_HashedLayoutLookup(benchmark::State& state) {
  HashedL2pLayout layout(DramAddr(0), 1 << 18, 0xC0FFEE);
  std::uint64_t lpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.entry_addr(lpn));
    lpn = (lpn + 1) % (1 << 18);
  }
}
BENCHMARK(BM_HashedLayoutLookup);

struct FtlFixtureState {
  FtlFixtureState() {
    DramConfig dc;
    dc.geometry = DramGeometry{.channels = 1,
                               .dimms_per_channel = 1,
                               .ranks_per_dimm = 1,
                               .banks_per_rank = 2,
                               .rows_per_bank = 64,
                               .row_bytes = 512};
    dc.profile = DramProfile::Invulnerable();
    dram = std::make_unique<DramDevice>(dc, MakeLinearMapper(dc.geometry),
                                        clock);
    nand = std::make_unique<NandDevice>(NandGeometry::ForCapacity(16 * kMiB));
    FtlConfig fc;
    fc.num_lbas = 4096;
    fc.hammers_per_io = 5;
    ftl = std::make_unique<Ftl>(fc, *nand, *dram);
    std::vector<std::uint8_t> block(kBlockSize, 1);
    for (std::uint64_t lba = 0; lba < 1024; ++lba) {
      (void)ftl->write(Lba(lba), block);
    }
  }
  SimClock clock;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<NandDevice> nand;
  std::unique_ptr<Ftl> ftl;
};

void BM_FtlMappedRead(benchmark::State& state) {
  FtlFixtureState fixture;
  std::vector<std::uint8_t> out(kBlockSize);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.ftl->read(Lba(lba % 1024), out));
    ++lba;
  }
}
BENCHMARK(BM_FtlMappedRead);

void BM_FtlUnmappedRead(benchmark::State& state) {
  // The attack's fast path: trimmed reads skip flash.
  FtlFixtureState fixture;
  std::vector<std::uint8_t> out(kBlockSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.ftl->read(Lba(2048), out));
  }
}
BENCHMARK(BM_FtlUnmappedRead);

void BM_FtlWrite(benchmark::State& state) {
  FtlFixtureState fixture;
  std::vector<std::uint8_t> block(kBlockSize, 2);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.ftl->write(Lba(lba % 1024), block));
    ++lba;
  }
}
BENCHMARK(BM_FtlWrite);

void BM_SsdNvmeReadCommand(benchmark::State& state) {
  SsdConfig config = SsdConfig::DemoSetup(16 * kMiB);
  config.dram_profile = DramProfile::Invulnerable();
  SsdDevice ssd(config);
  std::vector<std::uint8_t> block(kBlockSize, 1);
  (void)ssd.controller().write(1, 0, block);
  std::vector<std::uint8_t> out(kBlockSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssd.controller().read(1, 0, out));
  }
}
BENCHMARK(BM_SsdNvmeReadCommand);

/// Chrono-timed scalar-vs-batched comparison feeding BENCH_hotpath.json:
/// the acceptance metric for the batched fast path.  Uses fresh devices
/// so both sides pay the same cold-cache costs.
void ReportHammerHotPath() {
  constexpr std::uint64_t kBatches = 10000;
  constexpr std::uint64_t kPairs = 64;  // per batch
  constexpr int kRepeats = 5;

  // Best-of-N timing on a fresh device per repetition: the batched side
  // runs at ~1 ns/pair, so single-shot ratios are noisy enough to trip
  // the CI trajectory gate on scheduler jitter alone.  Min time is the
  // standard stable estimator for a fixed workload.  The scalar and
  // batched repetitions alternate, so a slow phase of a shared host
  // lands on both sides of each ratio instead of on all of one side.
  const auto time_once = [&](bool trr, bool batched, DramStats* stats_out) {
    SimClock clock;
    auto dram = MakeHammerDevice(clock, trr);
    const double t0 = bench::HostSeconds();
    for (std::uint64_t i = 0; i < kBatches; ++i) {
      if (batched) {
        dram->hammer_pair(9, 11, kPairs);
      } else {
        dram->hammer_pair_scalar(9, 11, kPairs);
      }
    }
    const double elapsed = bench::HostSeconds() - t0;
    if (stats_out != nullptr) *stats_out = dram->stats();
    return elapsed;
  };
  /// Best scalar and best batched time over interleaved repetitions.
  const auto time_pair = [&](bool trr, DramStats* scalar_stats,
                             DramStats* batched_stats) {
    std::pair<double, double> best{0, 0};
    for (int rep = 0; rep < kRepeats; ++rep) {
      const double scalar = time_once(trr, false, scalar_stats);
      const double batched = time_once(trr, true, batched_stats);
      if (rep == 0 || scalar < best.first) best.first = scalar;
      if (rep == 0 || batched < best.second) best.second = batched;
    }
    return best;
  };

  DramStats batched_stats;
  const auto [scalar_s, batched_s] =
      time_pair(false, nullptr, &batched_stats);
  const std::uint64_t activations = batched_stats.activations;

  // The same comparison with TRR enabled: the batched path replays the
  // tracker analytically instead of falling back to scalar, and that
  // replay must stay comfortably faster than per-event simulation.
  DramStats trr_scalar_stats;
  DramStats trr_batched_stats;
  const auto [trr_scalar_s, trr_batched_s] =
      time_pair(true, &trr_scalar_stats, &trr_batched_stats);
  RHSD_CHECK_MSG(
      trr_batched_stats.trr_refreshes == trr_scalar_stats.trr_refreshes,
      "batched TRR replay diverged from scalar in the bench");
  RHSD_CHECK_MSG(trr_scalar_stats.trr_refreshes > 0,
                 "TRR bench config never fired a target refresh");

  // Wide multi-row patterns: many distinct rows per replayed chunk.
  // The row-commit tables inside hammer_pattern() used to pay an
  // O(P^2) linear scan once patterns grew past a handful of rows; the
  // indexed lookup keeps per-activation cost flat, and this point
  // feeds the trajectory gate so it stays that way.
  double wide_acts_per_s = 0;
  {
    constexpr std::uint64_t kWideRows = 64;
    constexpr std::uint64_t kCmds = 512;
    constexpr std::uint64_t kRepeat = 5;
    constexpr std::uint64_t kChunks = 200;
    std::vector<std::uint64_t> rows;
    rows.reserve(kWideRows);
    for (std::uint64_t r = 0; r < kWideRows; ++r) {
      rows.push_back(r * 4);  // 64 distinct rows in one bank
    }
    const std::vector<std::uint64_t> times(kCmds, 0);
    double best = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      SimClock clock;
      auto dram = MakeHammerDevice(clock);
      const double t0 = bench::HostSeconds();
      for (std::uint64_t i = 0; i < kChunks; ++i) {
        const bool ok = dram->hammer_pattern(rows, kCmds, kRepeat, times, {});
        RHSD_CHECK_MSG(ok, "hazard-free wide pattern aborted");
      }
      const double elapsed = bench::HostSeconds() - t0;
      if (rep == 0 || elapsed < best) best = elapsed;
    }
    wide_acts_per_s = static_cast<double>(kChunks * kCmds * kRepeat) / best;
  }

  double ftl_read_ns = 0;
  {
    // The attack's amplified hot path end to end: unmapped FTL reads
    // with hammers_per_io = 5, each one read(addr, buf, 5) batch.
    FtlFixtureState fixture;
    std::vector<std::uint8_t> out(kBlockSize);
    constexpr std::uint64_t kReads = 20000;
    const double t0 = bench::HostSeconds();
    for (std::uint64_t i = 0; i < kReads; ++i) {
      benchmark::DoNotOptimize(fixture.ftl->read(Lba(2048), out));
    }
    ftl_read_ns = (bench::HostSeconds() - t0) / kReads * 1e9;
  }

  // The extent-tree checksum the fs verifies on every directory walk:
  // CRC-32C over a node's 4092-byte prefix.
  double crc_checks_per_s = 0;
  {
    constexpr std::uint64_t kChecks = 100000;
    std::vector<std::uint8_t> node(4092, 0x5A);
    double best = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const double t0 = bench::HostSeconds();
      for (std::uint64_t i = 0; i < kChecks; ++i) {
        benchmark::DoNotOptimize(
            Crc32c(node, static_cast<std::uint32_t>(i)));
      }
      const double elapsed = bench::HostSeconds() - t0;
      if (rep == 0 || elapsed < best) best = elapsed;
    }
    crc_checks_per_s = static_cast<double>(kChecks) / best;
  }

  // Per-command queue-pair cost on its own: Flush commands (a timing
  // no-op in the device) through submit/process/poll at QD16, so the
  // SQ/CQ rings and the completion Status dominate.
  double qp_flush_cmds_per_s = 0;
  {
    constexpr std::uint32_t kQueueDepth = 16;
    constexpr std::uint64_t kRounds = 20000;
    FtlFixtureState fixture;
    NvmeConfig config;
    config.namespaces = {NvmeNamespaceConfig{Lba(0), 4096}};
    NvmeController controller(config, *fixture.ftl, fixture.clock);
    NvmeQueuePair qp(controller, /*qid=*/1, kQueueDepth);
    double best = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::uint64_t completed = 0;
      const double t0 = bench::HostSeconds();
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        for (std::uint32_t i = 0; i < kQueueDepth; ++i) {
          const Status submitted =
              qp.submit(NvmeCommand::Flush(static_cast<std::uint16_t>(i), 1));
          benchmark::DoNotOptimize(submitted.ok());
        }
        (void)qp.process();
        while (auto completion = qp.poll()) {
          completed += completion->status.ok() ? 1 : 0;
        }
      }
      const double elapsed = bench::HostSeconds() - t0;
      RHSD_CHECK_MSG(completed == kRounds * kQueueDepth,
                     "flush bench lost or failed a command");
      if (rep == 0 || elapsed < best) best = elapsed;
    }
    qp_flush_cmds_per_s = static_cast<double>(kRounds * kQueueDepth) / best;
  }

  // A short one-row TRR replay: a 4-activation advance_row() (the step
  // the one-row hammer kernel calls) on a row the full table does not
  // track, so every activation is a Misra–Gries decrement and the row
  // never gets a slot.  (An L2P lookup replays its 5 touches as one
  // 5-activation batch; the 4-activation shape is kept so the trajectory
  // check compares like with like.)
  double trr_short_advance_per_s = 0;
  {
    constexpr std::uint32_t kTrackers = 4;
    constexpr std::uint64_t kCalls = 100000;
    constexpr std::uint64_t kActsPerCall = 4;
    // Tracked counters stay above the calls' total decrements, so the
    // table is full for the whole run.
    constexpr std::uint64_t kPrefill = kCalls * kActsPerCall + 1;
    const TrrConfig config{.trackers_per_bank = kTrackers,
                           .activation_threshold = 1ull << 40};
    double best = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      TrrTracker trr(config, /*num_banks=*/1);
      for (std::uint32_t row = 0; row < kTrackers; ++row) {
        for (std::uint64_t i = 0; i < kPrefill; ++i) {
          (void)trr.on_activate(0, row);
        }
      }
      const double t0 = bench::HostSeconds();
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        benchmark::DoNotOptimize(trr.advance_row(0, 100, kActsPerCall));
      }
      const double elapsed = bench::HostSeconds() - t0;
      if (rep == 0 || elapsed < best) best = elapsed;
    }
    trr_short_advance_per_s = static_cast<double>(kCalls) / best;
  }

  // One L2P lookup on a TRR+PARA device, the per-command DRAM work of the
  // cloud_8_mixed perfbench workload: unmapped Ftl::reads (no flash) at
  // hammers_per_io = 5 on its DRAM — 2 x 256 rows of 512 B, every row
  // vulnerable, XOR-mapped, TRR at 1000 activations plus PARA 1/512.
  // Three of four reads hit two hot entries in different rows (an
  // attacker's aggressors, which TRR tracks and fires on); the fourth
  // strides across the table (background tenants, which thrash the
  // tracker).  The clock advances 1 us per read so refresh windows roll
  // as they do under the event loop.
  double l2p_lookup_mitigated_per_s = 0;
  {
    constexpr std::uint64_t kLbas = 4096;
    constexpr std::uint64_t kReads = 200000;
    DramConfig dc;
    dc.geometry = DramGeometry{.channels = 1,
                               .dimms_per_channel = 1,
                               .ranks_per_dimm = 1,
                               .banks_per_rank = 2,
                               .rows_per_bank = 256,
                               .row_bytes = 512};
    dc.profile.min_rate_kaccess_s = 10.0;
    dc.profile.vulnerable_row_fraction = 1.0;
    dc.profile.max_cells_per_row = 2;
    dc.profile.threshold_spread = 0.5;
    dc.mitigations.trr = true;
    dc.mitigations.trr_config.activation_threshold = 1000;
    dc.mitigations.para_probability = 1.0 / 512;
    XorMapperConfig xor_config;
    xor_config.interleaved_bank_bits = 1;
    xor_config.row_remap_bits = 4;
    double best = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      SimClock clock;
      DramDevice dram(dc, MakeXorMapper(dc.geometry, xor_config), clock);
      NandDevice nand(NandGeometry::ForCapacity(16 * kMiB));
      FtlConfig fc;
      fc.num_lbas = kLbas;
      fc.hammers_per_io = 5;
      Ftl ftl(fc, nand, dram);
      std::vector<std::uint8_t> out(kBlockSize);
      const double t0 = bench::HostSeconds();
      for (std::uint64_t i = 0; i < kReads; ++i) {
        const std::uint64_t lba = i % 4 == 0 ? (i * 97) % kLbas : 128 * (i % 2);
        benchmark::DoNotOptimize(ftl.read(Lba(lba), out));
        clock.advance_ns(1000);
      }
      const double elapsed = bench::HostSeconds() - t0;
      RHSD_CHECK_MSG(dram.stats().trr_refreshes > 0 &&
                         dram.stats().para_refreshes > 0,
                     "mitigated L2P bench fired no TRR or PARA refresh");
      if (rep == 0 || elapsed < best) best = elapsed;
    }
    l2p_lookup_mitigated_per_s = static_cast<double>(kReads) / best;
  }

  const double scalar_ns = scalar_s / (kBatches * kPairs) * 1e9;
  const double batched_ns = batched_s / (kBatches * kPairs) * 1e9;
  const double trr_scalar_ns = trr_scalar_s / (kBatches * kPairs) * 1e9;
  const double trr_batched_ns = trr_batched_s / (kBatches * kPairs) * 1e9;
  bench::BenchReport report;
  report.set("hammer_scalar_ns_per_pair", scalar_ns);
  report.set("hammer_batched_ns_per_pair", batched_ns);
  report.set("hammer_batched_speedup", scalar_ns / batched_ns);
  report.set("hammer_batched_activations_per_s",
             static_cast<double>(activations) / batched_s);
  report.set("hammer_trr_scalar_ns_per_pair", trr_scalar_ns);
  report.set("hammer_trr_batched_ns_per_pair", trr_batched_ns);
  report.set("hammer_batched_trr_speedup", trr_scalar_ns / trr_batched_ns);
  report.set("hammer_pattern_wide_acts_per_s", wide_acts_per_s);
  report.set("ftl_unmapped_read_ns_per_io", ftl_read_ns);
  report.set("crc_block_checks_per_s", crc_checks_per_s);
  report.set("qp_flush_cmds_per_s", qp_flush_cmds_per_s);
  report.set("trr_short_advance_per_s", trr_short_advance_per_s);
  report.set("l2p_lookup_mitigated_per_s", l2p_lookup_mitigated_per_s);
  report.write();
  std::printf(
      "\nhot path: scalar %.1f ns/pair, batched %.1f ns/pair "
      "(%.1fx), %.0f activations/s; with TRR %.1f -> %.1f ns/pair "
      "(%.1fx); wide pattern %.0f acts/s; %.0f crc block checks/s; "
      "%.0f qp flush cmds/s; %.0f short trr advances/s; "
      "%.0f mitigated l2p lookups/s -> BENCH_hotpath.json\n",
      scalar_ns, batched_ns, scalar_ns / batched_ns,
      static_cast<double>(activations) / batched_s, trr_scalar_ns,
      trr_batched_ns, trr_scalar_ns / trr_batched_ns, wide_acts_per_s,
      crc_checks_per_s, qp_flush_cmds_per_s, trr_short_advance_per_s,
      l2p_lookup_mitigated_per_s);
}

}  // namespace
}  // namespace rhsd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rhsd::ReportHammerHotPath();
  return 0;
}
