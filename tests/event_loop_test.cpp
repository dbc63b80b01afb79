// Golden pins for the NVMe event loop: every scenario folds everything
// observable after a run — completions, final read buffers, the L2P
// table, every layer's statistics, the flip stream, the injected-fault
// log, the journal's raw flash pages, the TRR refresh total and the PARA
// RNG position — into one 64-bit digest and compares it against a value
// pinned from a known-good build.  Any change to a simulated result
// (flips, stats, fault op indices, completion times) shows up as a
// changed digest.  A deliberate behaviour change re-pins by copying the
// printed value.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "ftl/l2p_journal.hpp"
#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"
#include "ssd/ssd_device.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

struct ScriptCmd {
  bool is_write = false;
  std::uint64_t slba = 0;
};
using Script = std::vector<ScriptCmd>;

/// Small SSD carved into `tenants` equal partitions.
SsdConfig PartitionedSsd(std::uint32_t tenants) {
  SsdConfig c = test::SmallSsd();
  const std::uint64_t per = c.num_lbas() / tenants;
  c.partition_blocks.assign(tenants, per);
  return c;
}

/// One deterministic per-stream command list; patterns rotate so the
/// streams stress different access shapes.
std::vector<Script> MakeScripts(std::uint32_t streams,
                                std::uint64_t per_stream,
                                std::uint64_t working_set,
                                double write_fraction, std::uint64_t seed) {
  constexpr AccessPattern kPatterns[] = {
      AccessPattern::kZipfLike, AccessPattern::kRandom,
      AccessPattern::kBursty, AccessPattern::kHotCold};
  std::vector<Script> scripts(streams);
  for (std::uint32_t s = 0; s < streams; ++s) {
    WorkloadConfig wc;
    wc.pattern = kPatterns[s % 4];
    wc.working_set = working_set;
    wc.write_fraction = write_fraction;
    wc.seed = seed * 1000 + s;
    WorkloadGenerator gen(wc);
    scripts[s].reserve(per_stream);
    for (std::uint64_t i = 0; i < per_stream; ++i) {
      const WorkloadOp op = gen.next();
      scripts[s].push_back({op.is_write, op.slba});
    }
  }
  return scripts;
}

/// Order-sensitive FNV-1a over 64-bit words and byte strings.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void add_bytes(const std::vector<std::uint8_t>& bytes) {
    add(bytes.size());
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
};

/// A run's digest plus the counters the fixtures assert engagement on.
struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t retired = 0;
  DramStats dram;
  FtlStats ftl;
  NvmeStats nvme;
  EventLoopStats loop;
  std::uint64_t trr_refreshes = 0;
  std::uint64_t rate_limit_stall_ns = 0;
  std::size_t flips = 0;
  std::size_t injected = 0;
};

std::vector<std::uint8_t> WritePayload(std::uint32_t stream,
                                       std::uint16_t cid) {
  std::vector<std::uint8_t> block(kBlockSize);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(stream * 37 + cid * 11 + i);
  }
  return block;
}

/// Drive `scripts` (one per stream / namespace) through a fresh device
/// with the given event-loop configuration: submit in waves until each
/// ring is full, run the loop to idle, poll, repeat.
Outcome Drive(const SsdConfig& cfg, const std::vector<Script>& scripts,
              EventLoopConfig lc, std::uint32_t depth = 8,
              const NvmeRetryPolicy* retry = nullptr) {
  const auto streams = static_cast<std::uint32_t>(scripts.size());
  SsdDevice ssd(cfg);
  NvmeEventLoop loop(ssd.controller(), lc);
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  Outcome out;
  Digest dig;
  std::vector<std::vector<std::uint8_t>> bufs(
      streams, std::vector<std::uint8_t>(kBlockSize, 0));
  for (std::uint32_t s = 0; s < streams; ++s) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ssd.controller(), static_cast<std::uint16_t>(s + 1), depth));
    if (retry != nullptr) qps[s]->set_retry_policy(*retry);
    loop.attach(*qps[s], /*weight=*/1 + s % 3);
  }
  std::vector<std::size_t> next(streams, 0);
  std::vector<std::uint16_t> cid(streams, 0);
  for (;;) {
    bool pending = false;
    for (std::uint32_t s = 0; s < streams; ++s) {
      while (next[s] < scripts[s].size()) {
        const ScriptCmd& c = scripts[s][next[s]];
        NvmeCommand cmd =
            c.is_write
                ? NvmeCommand::Write(cid[s], s + 1, c.slba,
                                     WritePayload(s, cid[s]))
                : NvmeCommand::Read(cid[s], s + 1, c.slba, bufs[s]);
        if (!qps[s]->submit(std::move(cmd)).ok()) break;
        ++next[s];
        ++cid[s];
      }
      pending = pending || next[s] < scripts[s].size() ||
                qps[s]->sq_inflight() > 0;
    }
    if (!pending) break;
    out.retired += loop.run_until_idle();
    for (std::uint32_t s = 0; s < streams; ++s) {
      while (auto cqe = qps[s]->poll()) {
        dig.add(s);
        dig.add(cqe->cid);
        dig.add(static_cast<std::uint64_t>(cqe->status.code()));
        dig.add(cqe->completed_ns);
      }
    }
  }
  dig.add(out.retired);
  dig.add(ssd.clock().now_ns());
  for (const auto& buf : bufs) dig.add_bytes(buf);
  for (std::uint64_t lba = 0; lba < cfg.num_lbas(); ++lba) {
    dig.add(ssd.ftl().debug_lookup(Lba(lba)));
  }

  out.dram = ssd.dram().stats();
  for (const std::uint64_t v :
       {out.dram.reads, out.dram.writes, out.dram.activations,
        out.dram.row_buffer_hits, out.dram.bitflips, out.dram.ecc_corrected,
        out.dram.ecc_uncorrectable, out.dram.trr_refreshes,
        out.dram.para_refreshes, out.dram.cache_hits, out.dram.cache_misses,
        out.dram.injected_bit_errors}) {
    dig.add(v);
  }
  out.ftl = ssd.ftl().stats();
  const FtlStats& f = out.ftl;
  for (const std::uint64_t v :
       {f.host_reads, f.host_writes, f.host_trims, f.unmapped_reads,
        f.flash_reads, f.flash_programs, f.gc_runs, f.gc_relocations,
        f.gc_erases, f.l2p_dram_reads, f.l2p_dram_writes,
        f.l2p_corruption_errors, f.reference_tag_mismatches,
        f.flash_raw_bit_errors, f.flash_ecc_uncorrectable, f.read_retries,
        f.read_retry_successes, f.retired_blocks, f.journal_records,
        f.journal_snapshots, f.scrub_runs, f.scrub_repairs,
        f.scrub_aborts}) {
    dig.add(v);
  }
  const NandStats nand = ssd.nand().stats();
  for (const std::uint64_t v :
       {nand.reads, nand.programs, nand.erases, nand.program_violations,
        nand.injected_read_faults, nand.injected_program_faults,
        nand.injected_erase_faults, nand.grown_bad_blocks}) {
    dig.add(v);
  }
  out.nvme = ssd.controller().stats();
  const NvmeStats& n = out.nvme;
  for (const std::uint64_t v :
       {n.read_cmds, n.write_cmds, n.trim_cmds, n.flush_cmds, n.errors,
        n.busy_ns, n.transport_timeouts, n.transport_drops}) {
    dig.add(v);
  }
  out.loop = loop.stats();
  for (const std::uint64_t v :
       {out.loop.commands, out.loop.quarantines, out.loop.quarantine_releases,
        out.loop.degraded_rejections, out.loop.device_transitions}) {
    dig.add(v);
  }

  const std::vector<FlipEvent>& flips = ssd.dram().flip_events();
  out.flips = flips.size();
  dig.add(flips.size());
  for (const FlipEvent& fl : flips) {
    dig.add(fl.time_ns);
    dig.add(fl.global_row);
    dig.add(fl.byte_offset);
    dig.add(fl.bit);
    dig.add(fl.new_value);
  }
  // Mitigation machinery state: the device-total TRR refresh count and
  // the PARA RNG stream position (the next draws of a copy).
  out.trr_refreshes = ssd.dram().trr_refreshes_issued();
  dig.add(out.trr_refreshes);
  Rng para = ssd.dram().para_rng_state();
  dig.add(para.next());
  dig.add(para.next());
  if (const RateLimiter* lim = ssd.controller().rate_limiter();
      lim != nullptr) {
    out.rate_limit_stall_ns = lim->total_stall_ns();
  }
  dig.add(out.rate_limit_stall_ns);
  // Injected faults actually fired, in order, with their op indices.
  if (ssd.fault_injector() != nullptr) {
    const std::vector<InjectionRecord>& log = ssd.fault_injector()->log();
    out.injected = log.size();
    for (const InjectionRecord& r : log) {
      dig.add(static_cast<std::uint64_t>(r.cls));
      dig.add(r.op_index);
      dig.add(r.param);
    }
  }
  if (const L2pJournal* j = ssd.ftl().journal(); j != nullptr) {
    dig.add(j->epoch());
    dig.add(j->next_page());
    dig.add(j->pending_records());
    dig.add(j->records_since_snapshot());
    const JournalStats js = j->stats();
    for (const std::uint64_t v : {js.snapshots, js.records, js.record_pages,
                                  js.sync_flushes, js.loads,
                                  js.corrupt_pages}) {
      dig.add(v);
    }
    // Raw dump of the journal's NAND blocks (unwritten pages read as
    // 0xFF).  It ticks NAND read counters, so it runs after every stats
    // capture above.
    const NandGeometry& geom = ssd.nand().geometry();
    std::vector<std::uint8_t> page(geom.page_bytes);
    for (std::uint32_t b = 0; b < j->block_count(); ++b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        page.assign(page.size(), 0);
        (void)ssd.nand().read(j->first_block() + b, p, page);
        dig.add_bytes(page);
      }
    }
  }
  out.digest = dig.h;
  return out;
}

void ExpectPinned(const Outcome& got, std::uint64_t pin) {
  EXPECT_EQ(got.digest, pin) << "digest=0x" << std::hex << got.digest;
}

EventLoopConfig LoopConfig(ArbitrationPolicy policy, std::uint64_t seed) {
  EventLoopConfig lc;
  lc.policy = policy;
  lc.seed = seed;
  return lc;
}

constexpr ArbitrationPolicy kPolicies[] = {ArbitrationPolicy::kRoundRobin,
                                           ArbitrationPolicy::kWeighted};

/// Scripts for the engineered class-flip fixtures: map a whole DRAM
/// row's worth of L2P entries, then hammer a physically adjacent row
/// while re-reading the mapped entries with deep queues, so flips push
/// entries past total_pages (mapped -> unmapped class) while reads of
/// them are queued.
std::vector<Script> ClassFlipScripts(const SsdConfig& cfg,
                                     std::uint32_t streams) {
  const std::uint64_t partition = cfg.num_lbas() / streams;
  const auto owner = [&](std::uint64_t lba) {
    return static_cast<std::uint32_t>(lba / partition);
  };

  // Map every L2P entry to its DRAM row with a probe device (same
  // config + seed => same address mapping as the devices under test).
  std::map<std::uint64_t, std::vector<std::uint64_t>> row_lbas;
  {
    SsdDevice probe(cfg);
    const DramGeometry& geom = probe.dram().mapper().geometry();
    for (std::uint64_t lba = 0; lba < cfg.num_lbas(); ++lba) {
      const DramCoord c = probe.dram().mapper().decode(
          probe.ftl().layout().entry_addr(lba));
      row_lbas[c.global_row(geom)].push_back(lba);
    }
  }

  // Pick the victim row: all entries owned by one stream, with entry
  // rows on as many physically adjacent same-bank rows as possible to
  // hammer from.
  const std::uint32_t rows_per_bank = cfg.dram_geometry.rows_per_bank;
  std::uint64_t victim_row = 0;
  std::vector<std::uint64_t> victims;
  std::vector<std::uint64_t> aggressors;
  for (const auto& [row, lbas] : row_lbas) {
    const std::uint32_t v = owner(lbas.front());
    bool uniform = true;
    for (const std::uint64_t lba : lbas) uniform &= owner(lba) == v;
    if (!uniform) continue;
    std::vector<std::uint64_t> aggr;
    for (const std::int64_t d : {std::int64_t{-1}, std::int64_t{1}}) {
      const std::uint64_t nrow = row + static_cast<std::uint64_t>(d);
      if (d < 0 && row % rows_per_bank == 0) continue;
      if (nrow / rows_per_bank != row / rows_per_bank) continue;
      const auto it = row_lbas.find(nrow);
      if (it != row_lbas.end()) aggr.push_back(it->second.front());
    }
    if (aggr.size() > aggressors.size()) {
      victim_row = row;
      victims = lbas;
      aggressors = aggr;
    }
  }
  EXPECT_FALSE(victims.empty());
  EXPECT_FALSE(aggressors.empty());
  if (victims.empty() || aggressors.empty()) return {};
  const std::uint32_t victim_stream = owner(victims.front());

  // Phase 1 maps every victim entry; streams that only hammer are
  // padded with far-row filler reads so no disturbance accrues near the
  // victim row until all entries are mapped.  Phase 2 interleaves
  // hammer reads with victim re-reads, plus periodic far-row filler
  // writes.
  std::vector<std::uint64_t> filler(streams, UINT64_MAX);
  for (const auto& [row, lbas] : row_lbas) {
    const std::uint64_t dist =
        row > victim_row ? row - victim_row : victim_row - row;
    if (dist <= 2) continue;
    for (const std::uint64_t lba : lbas) {
      if (filler[owner(lba)] == UINT64_MAX) filler[owner(lba)] = lba;
    }
  }
  for (const std::uint64_t f : filler) EXPECT_NE(f, UINT64_MAX);
  std::vector<Script> scripts(streams);
  for (const std::uint64_t v : victims) {
    scripts[victim_stream].push_back({true, v % partition});
  }
  for (std::uint32_t s = 0; s < streams; ++s) {
    if (s == victim_stream) continue;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      scripts[s].push_back({false, filler[s] % partition});
    }
  }
  for (int i = 0; i < 1500; ++i) {
    const std::uint64_t a = aggressors[i % aggressors.size()];
    scripts[owner(a)].push_back({false, a % partition});
    scripts[victim_stream].push_back(
        {false, victims[i % victims.size()] % partition});
    if (i % 5 == 0) {
      scripts[victim_stream].push_back(
          {true, filler[victim_stream] % partition});
    }
  }
  return scripts;
}

// Mixed 20% write traffic over four tenants, across seeds and both
// arbitration policies.
TEST(EventLoopParity, MixedReadWriteMatrixMatchesGolden) {
  constexpr std::uint32_t kStreams = 4;
  constexpr std::uint64_t kPins[] = {0x7620ae0eef047caa, 0x1d960b7dc2166c5d,
                                     0xcbaab9148cc1d64e, 0xdd7c5f51123deadb};
  const SsdConfig cfg = PartitionedSsd(kStreams);
  const std::uint64_t partition = cfg.num_lbas() / kStreams;
  std::size_t pin = 0;
  for (const std::uint64_t seed : {1ull, 7ull}) {
    for (const ArbitrationPolicy policy : kPolicies) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " policy=" << to_string(policy));
      const auto scripts = MakeScripts(kStreams, 250, partition,
                                       /*write_fraction=*/0.2, seed);
      const Outcome got = Drive(cfg, scripts, LoopConfig(policy, seed));
      EXPECT_EQ(got.retired, kStreams * 250u);
      EXPECT_GT(got.nvme.write_cmds, 0u);
      ExpectPinned(got, kPins[pin++]);
    }
  }
}

// Hammer-heavy mix on a weaker part: disturbance flips land in L2P
// entries while a second stream keeps re-reading and rewriting its
// mostly-mapped partition.
TEST(EventLoopParity, DisturbanceFlipsMatchGolden) {
  constexpr std::uint32_t kStreams = 2;
  SsdConfig cfg = PartitionedSsd(kStreams);
  cfg.dram_profile.min_rate_kaccess_s = 2.0;  // threshold: 256 acts
  const std::uint64_t partition = cfg.num_lbas() / kStreams;

  // Stream 0 hammers two fixed (unmapped) LBAs; stream 1 sweeps its
  // whole partition with mostly-mapped traffic.
  std::vector<Script> scripts(kStreams);
  for (int round = 0; round < 1500; ++round) {
    scripts[0].push_back({false, 0});
    scripts[0].push_back({false, 128});
  }
  WorkloadConfig wc;
  wc.pattern = AccessPattern::kZipfLike;
  wc.working_set = partition;
  wc.write_fraction = 0.3;
  wc.seed = 99;
  WorkloadGenerator gen(wc);
  for (int i = 0; i < 1200; ++i) {
    const WorkloadOp op = gen.next();
    scripts[1].push_back({op.is_write, op.slba});
  }

  const Outcome got = Drive(cfg, scripts, EventLoopConfig{});
  // The point of this fixture: disturbance flips actually happened.
  EXPECT_GT(got.flips, 0u);
  ExpectPinned(got, 0x1ddcc169fba782e);
}

// A write-heavy overwrite mix on the small device burns through the
// free-block pool, so garbage collection runs mid-stream.  Program/erase
// order, journal contents and the final L2P are all in the digest.
TEST(EventLoopParity, GcStormMatchesGolden) {
  constexpr std::uint32_t kStreams = 2;
  SsdConfig cfg = PartitionedSsd(kStreams);
  cfg.dram_profile = DramProfile::Invulnerable();
  const std::uint64_t partition = cfg.num_lbas() / kStreams;
  const auto scripts = MakeScripts(kStreams, 2600, partition,
                                   /*write_fraction=*/0.9, /*seed=*/13);
  const Outcome got = Drive(cfg, scripts, EventLoopConfig{});
  // The fixture must actually drive garbage collection.
  EXPECT_GT(got.ftl.gc_runs, 0u);
  ExpectPinned(got, 0x3da6c3de64043db0);
}

// Flips that move L2P entries across the mapped/unmapped class boundary
// while reads of those entries are queued behind deep rings.
TEST(EventLoopParity, EngineeredClassFlipMatchesGolden) {
  constexpr std::uint32_t kStreams = 2;
  SsdConfig cfg = PartitionedSsd(kStreams);
  cfg.dram_profile.min_rate_kaccess_s = 2.0;  // threshold: 256..384 acts
  cfg.dram_profile.max_cells_per_row = 32;    // many candidate cells
  const auto scripts = ClassFlipScripts(cfg, kStreams);
  ASSERT_FALSE(scripts.empty());
  const Outcome got =
      Drive(cfg, scripts, EventLoopConfig{}, /*depth=*/64);
  EXPECT_GT(got.flips, 0u);
  ExpectPinned(got, 0x145135224de604ad);
}

// Injected transport, DRAM and NAND-read faults: each fires at a fixed
// per-class op index (the fault log, with op indices, is in the digest)
// across seeds and arbitration policies.
TEST(EventLoopParity, InjectedFaultsLandAtSequentialOpIndices) {
  constexpr std::uint32_t kStreams = 4;
  constexpr std::uint64_t kPins[] = {0xf0373373999c3ad7, 0x136c4bef8446aedb,
                                     0xee5747b49f507ff2, 0xa7c7daffdcb646a6};
  const SsdConfig base = PartitionedSsd(kStreams);
  const std::uint64_t partition = base.num_lbas() / kStreams;
  std::size_t pin = 0;
  for (const std::uint64_t seed : {11ull, 23ull}) {
    for (const ArbitrationPolicy policy : kPolicies) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " policy=" << to_string(policy));
      SsdConfig cfg = base;
      FaultRates rates;
      rates.nvme_timeout = 0.004;
      rates.nvme_drop = 0.003;
      rates.dram_bit_error = 0.004;
      rates.nand_read = 0.003;
      cfg.fault_plan = FaultPlan::Random(seed * 77 + 5, rates,
                                         /*horizon=*/1100);
      const auto scripts = MakeScripts(kStreams, 250, partition,
                                       /*write_fraction=*/0.2, seed);
      NvmeRetryPolicy retry;
      retry.max_attempts = 2;
      const Outcome got = Drive(cfg, scripts, LoopConfig(policy, seed),
                                /*depth=*/8, &retry);
      // The storm must actually fire.
      EXPECT_GT(got.injected, 0u);
      ExpectPinned(got, kPins[pin++]);
    }
  }
}

// A dense transport storm against a retry-less policy exhausts host
// retries, so tenants enter and leave quarantine during the run; the
// quarantine decisions shape the pick order and so the digest.
TEST(EventLoopParity, QuarantineMatchesGolden) {
  constexpr std::uint32_t kStreams = 4;
  constexpr std::uint64_t kPins[] = {0xc97f82c32044ae97, 0xc4f20e6ea01fbff3,
                                     0x515e42109b2db0f4, 0xc4132bb25cd339c5};
  const SsdConfig base = PartitionedSsd(kStreams);
  const std::uint64_t partition = base.num_lbas() / kStreams;
  std::size_t pin = 0;
  for (const std::uint64_t seed : {5ull, 31ull}) {
    for (const ArbitrationPolicy policy : kPolicies) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " policy=" << to_string(policy));
      SsdConfig cfg = base;
      FaultRates rates;
      rates.nvme_drop = 0.03;
      rates.nvme_timeout = 0.01;
      cfg.fault_plan = FaultPlan::Random(seed * 131 + 7, rates,
                                         /*horizon=*/1100);
      const auto scripts = MakeScripts(kStreams, 250, partition,
                                       /*write_fraction=*/0.2, seed);
      const Outcome got = Drive(cfg, scripts, LoopConfig(policy, seed));
      // max_attempts defaults to 1: every injected drop/timeout is a
      // retry-exhausted command, so quarantine engages for real.
      EXPECT_GT(got.loop.quarantines, 0u);
      ExpectPinned(got, kPins[pin++]);
    }
  }
}

// TRR, the TRRespass single-tracker thrash regime, PARA, TRR+PARA and
// the §5 rate limiter, across seeds and arbitration policies.  The TRR
// refresh total and the PARA RNG position are part of the digest.
TEST(EventLoopParity, MitigatedConfigsMatchGolden) {
  struct Variant {
    const char* name;
    bool trr;
    std::uint32_t trackers;
    double para;
    bool limited;
    std::uint64_t pins[4];  // (seed, policy) in loop order
  };
  const Variant kVariants[] = {
      {"trr", true, 4, 0.0, false,
       {0xfe73102429a7da42, 0x1d4b2eeeb9468967, 0xbcebf7d90d059c87,
        0x998238f15231c76b}},
      {"trr-thrash", true, 1, 0.0, false,
       {0x3dec822129c06cf5, 0x6a6a0be1d018aef9, 0x3f16e585513eeadd,
        0xaaaf065772fb3a2b}},
      {"para", false, 4, 1.0 / 64, false,
       {0x8be8de4921b43aec, 0x6aceaadc8f1b219d, 0x1465f22c7701a92c,
        0x4d5f6edca34261b}},
      {"trr+para", true, 4, 1.0 / 64, false,
       {0xeb8ac70cbb39706d, 0x97200784485d75a8, 0xd8f30b8b21cdd734,
        0x7cdc0d0a3b036003}},
      {"rate-limit", false, 4, 0.0, true,
       {0x4061a407189e92fc, 0xed5ff2aa4a493791, 0xf68dfce7435c2fb6,
        0x77d258f0cceeb1b7}},
  };
  constexpr std::uint32_t kStreams = 2;
  for (const Variant& v : kVariants) {
    SsdConfig cfg = PartitionedSsd(kStreams);
    cfg.dram_profile.min_rate_kaccess_s = 2.0;  // flips at 256..384 acts
    if (v.trr) {
      cfg.dram_mitigations.trr = true;
      cfg.dram_mitigations.trr_config.trackers_per_bank = v.trackers;
      cfg.dram_mitigations.trr_config.activation_threshold = 200;
    }
    cfg.dram_mitigations.para_probability = v.para;
    // Cap far below the effective command rate so stalls actually fire.
    if (v.limited) cfg.rate_limit = RateLimiterConfig{5e3, 2.0};
    const std::uint64_t partition = cfg.num_lbas() / kStreams;
    std::size_t pin = 0;
    for (const std::uint64_t seed : {3ull, 17ull}) {
      // Stream 0 hammers two fixed (unmapped) entry rows hard enough
      // to cross the TRR threshold and feed PARA draws; stream 1 runs
      // a mixed mapped workload.
      std::vector<Script> scripts(kStreams);
      for (int round = 0; round < 500; ++round) {
        scripts[0].push_back({false, 0});
        scripts[0].push_back({false, 128});
      }
      WorkloadConfig wc;
      wc.pattern = AccessPattern::kZipfLike;
      wc.working_set = partition;
      wc.write_fraction = 0.3;
      wc.seed = seed;
      WorkloadGenerator gen(wc);
      for (int i = 0; i < 500; ++i) {
        const WorkloadOp op = gen.next();
        scripts[1].push_back({op.is_write, op.slba});
      }
      for (const ArbitrationPolicy policy : kPolicies) {
        SCOPED_TRACE(::testing::Message()
                     << "variant=" << v.name << " seed=" << seed
                     << " policy=" << to_string(policy));
        const Outcome got = Drive(cfg, scripts, LoopConfig(policy, seed));
        // The fixture must actually engage the mitigation under test.
        if (v.trr) {
          EXPECT_GT(got.trr_refreshes, 0u);
          EXPECT_EQ(got.dram.trr_refreshes, got.trr_refreshes);
        }
        if (v.para > 0.0) {
          EXPECT_GT(got.dram.para_refreshes, 0u);
        }
        if (v.limited) {
          EXPECT_GT(got.rate_limit_stall_ns, 0u);
        }
        ExpectPinned(got, v.pins[pin++]);
      }
    }
  }
}

// The engineered class-flip fixture with TRR (threshold just above the
// flip threshold, so flips still land while the tracker keeps firing)
// and a weak PARA that advances its RNG on every activation.
TEST(EventLoopParity, MitigatedClassFlipMatchesGolden) {
  constexpr std::uint32_t kStreams = 2;
  SsdConfig cfg = PartitionedSsd(kStreams);
  cfg.dram_profile.min_rate_kaccess_s = 2.0;  // threshold: 256..384 acts
  cfg.dram_profile.max_cells_per_row = 32;    // many candidate cells
  cfg.dram_mitigations.trr = true;
  cfg.dram_mitigations.trr_config.activation_threshold = 400;
  cfg.dram_mitigations.para_probability = 1.0 / 4096;
  const auto scripts = ClassFlipScripts(cfg, kStreams);
  ASSERT_FALSE(scripts.empty());
  const Outcome got =
      Drive(cfg, scripts, EventLoopConfig{}, /*depth=*/64);
  EXPECT_GT(got.flips, 0u);
  EXPECT_GT(got.trr_refreshes, 0u);
  ExpectPinned(got, 0x50ed72a2f42a92b2);
}

// SECDED ECC on the L2P DRAM: reads verify (and scrub) entries in place.
TEST(EventLoopParity, EccConfigMatchesGolden) {
  SsdConfig cfg = PartitionedSsd(2);
  cfg.dram_mitigations.ecc = true;
  const auto scripts =
      MakeScripts(2, 50, cfg.num_lbas() / 2, /*write_fraction=*/0.1, 3);
  const Outcome got = Drive(cfg, scripts, EventLoopConfig{});
  EXPECT_EQ(got.retired, 100u);
  ExpectPinned(got, 0x3cf5b7f8817faa6b);
}

}  // namespace
}  // namespace rhsd
