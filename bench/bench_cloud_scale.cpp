// N-tenant cloud scale: attacker flip probability and victim read
// latency vs background load, across tenant counts.
//
// One shared SSD hosts the paper's victim/attacker pair plus N-2
// background tenants.  All of them push traffic through the async NVMe
// event loop (deterministic arbitration into one command stream): the victim
// issues hot/cold reads whose p50/p99 completion latency we measure in
// simulated time, the attacker hammers a fixed set of aggressor L2P
// rows in its own partition, and the background tenants generate
// Zipfian / bursty mixed traffic.  As the tenant count grows, the
// arbiter multiplexes more queues, background IOPS climb and victim
// tail latency stretches — while the attacker keeps flipping its
// target rows, because namespace isolation partitions the flash, not
// the shared DRAM holding the L2P table (§4.1's cloud setting measured
// end to end).
//
// Host-perf trajectory: `cloud_tenant_iops` = simulated commands
// retired per host second across the whole sweep, host set-up included
// (the event loop is the hot path being sized); `cloud_setup_s` = host
// seconds the same sweep spent building hosts, tenants, queue pairs and
// scripts before its first command.  `--quick` runs a reduced sweep for
// CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "cloud/cloud_host.hpp"
#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"

using namespace rhsd;

namespace {

/// 64 MiB SSD (16384 LBAs): victim and attacker keep the paper's
/// 2048-block partitions, the rest is split across background tenants.
SsdConfig ScaleConfig(std::uint32_t tenants) {
  SsdConfig c;
  c.capacity_bytes = 64 * kMiB;
  c.dram_geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = 256,
                                 .row_bytes = 512};
  // Weak part so the attacker's budget per refresh window matters:
  // threshold = 2 * 10e3 * 0.064 = 1280 effective activations.
  c.dram_profile.min_rate_kaccess_s = 10.0;
  c.dram_profile.vulnerable_row_fraction = 1.0;
  c.dram_profile.max_cells_per_row = 2;
  c.dram_profile.threshold_spread = 0.5;
  c.xor_config.interleaved_bank_bits = 1;
  c.xor_config.row_remap_bits = 4;
  c.hammers_per_io = 5;
  c.host_interface = HostInterface::kTestbedVmDirect;
  c.partition_blocks = {2048, 2048};
  std::uint64_t spare = c.num_lbas() - 4096;
  if (tenants > 2) {
    const std::uint64_t per = spare / (tenants - 2);
    c.partition_blocks.insert(c.partition_blocks.end(), tenants - 2, per);
  } else {
    c.partition_blocks[1] += spare;  // attacker absorbs the spare space
  }
  c.seed = 42;
  return c;
}

struct ScaleResult {
  /// Host seconds from the start of RunScale to the first wave.
  double setup_s = 0.0;
  std::uint64_t commands = 0;
  double sim_seconds = 0.0;
  double sim_iops = 0.0;
  double victim_p50_us = 0.0;
  double victim_p99_us = 0.0;
  std::uint64_t flips = 0;
  double flip_probability = 0.0;  // flipped rows / hammered victim rows
  // Mitigation engagement counters (zero when mitigations are off).
  std::uint64_t trr_refreshes = 0;
  std::uint64_t para_refreshes = 0;
  std::uint64_t rate_limit_stall_ns = 0;
};

/// The attacker's aggressor set: 8 slbas, one per 128-entry L2P row
/// chunk, so 8 distinct DRAM rows get hammered (16 victim neighbours).
constexpr std::uint64_t kAggressors = 8;

ScaleResult RunScale(std::uint32_t tenants, bool quick,
                     bool mitigated = false, bool limited = false) {
  const double t0 = bench::HostSeconds();
  SsdConfig cfg = ScaleConfig(tenants);
  if (limited) {
    // §5's IO rate cap, low enough that the token bucket actually
    // stalls commands.
    cfg.rate_limit = RateLimiterConfig{50e3, 16};
  }
  if (mitigated) {
    // Production-like mitigated profile: TRR trips below the flip
    // threshold (1280 effective activations) so the attack is actually
    // blunted, PARA adds its probabilistic refreshes on top.
    cfg.dram_mitigations.trr = true;
    cfg.dram_mitigations.trr_config.activation_threshold = 1000;
    cfg.dram_mitigations.para_probability = 1.0 / 512;
  }
  CloudHost host(cfg);
  for (std::uint32_t t = 2; t < tenants; ++t) {
    auto id = host.add_tenant(
        TenantConfig{.name = "bg-" + std::to_string(t)});
    RHSD_CHECK_MSG(id.ok(), "tenant " << t << ": " << id.status());
  }
  SsdDevice& ssd = host.ssd();
  NvmeController& ctrl = ssd.controller();

  EventLoopConfig lc;
  lc.policy = ArbitrationPolicy::kRoundRobin;
  lc.seed = 7;
  NvmeEventLoop loop(ctrl, lc);

  // The attacker's victim rows: physical same-bank neighbours of the
  // DRAM rows holding the aggressor L2P entries.  Flip probability is
  // measured against this set only — background tenants' own hot
  // traffic also disturbs rows, but that is their problem, not the
  // attacker's success rate.
  const DramGeometry& geom = ssd.dram().mapper().geometry();
  const std::uint64_t attacker_base =
      host.partition_range(CloudHost::kAttackerId).first.value();
  std::set<std::uint64_t> victim_rows;
  for (std::uint64_t a = 0; a < kAggressors; ++a) {
    const DramCoord c = ssd.dram().mapper().decode(
        ssd.ftl().layout().entry_addr(attacker_base + a * 128));
    const std::uint64_t row = c.global_row(geom);
    if (row % geom.rows_per_bank > 0) victim_rows.insert(row - 1);
    if (row % geom.rows_per_bank + 1 < geom.rows_per_bank) {
      victim_rows.insert(row + 1);
    }
  }

  constexpr std::uint32_t kDepth = 16;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
    // Foreground pair gets double the arbitration weight of background.
    loop.attach(*qps[t], t < 2 ? 2 : 1);
  }

  // Scripts.  Victim: read-only hot/cold over its partition.  Attacker:
  // round-robin reads of the aggressor set.  Background: Zipfian /
  // bursty mixes with 10% writes.
  const std::uint64_t victim_ops = quick ? 1500 : 4000;
  const std::uint64_t attacker_ops = quick ? 4000 : 20000;
  const std::uint64_t bg_ops = quick ? 256 : 512;
  std::vector<std::vector<WorkloadOp>> scripts(tenants);
  {
    WorkloadConfig wc;
    wc.pattern = AccessPattern::kHotCold;
    wc.working_set = host.tenant(CloudHost::kVictimId).blocks();
    wc.write_fraction = 0.0;
    wc.seed = 1;
    scripts[0] = WorkloadGenerator(wc).generate(victim_ops);
  }
  for (std::uint64_t i = 0; i < attacker_ops; ++i) {
    scripts[1].push_back({false, (i % kAggressors) * 128});
  }
  for (std::uint32_t t = 2; t < tenants; ++t) {
    WorkloadConfig wc;
    wc.pattern = t % 2 == 0 ? AccessPattern::kZipfLike
                            : AccessPattern::kBursty;
    wc.working_set = host.tenant(t).blocks();
    wc.write_fraction = 0.1;
    wc.seed = 1000 + t;
    scripts[t] = WorkloadGenerator(wc).generate(bg_ops);
  }

  // Drive everything to completion in waves; victim read latency =
  // completion stamp minus the clock when its wave was submitted.
  std::vector<std::vector<std::uint8_t>> bufs(
      tenants, std::vector<std::uint8_t>(kBlockSize));
  std::vector<std::size_t> next(tenants, 0);
  std::vector<std::uint16_t> cid(tenants, 0);
  std::vector<std::uint64_t> victim_submit_ns(kDepth, 0);
  std::vector<std::uint64_t> latencies;
  latencies.reserve(victim_ops);
  ScaleResult res;
  res.setup_s = bench::HostSeconds() - t0;
  for (;;) {
    bool pending = false;
    const std::uint64_t wave_ns = ssd.clock().now_ns();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(
                      cid[t], t + 1, op.slba,
                      std::vector<std::uint8_t>(kBlockSize,
                                                std::uint8_t(cid[t])))
                : NvmeCommand::Read(cid[t], t + 1, op.slba, bufs[t]);
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        if (t == 0) victim_submit_ns[cid[t] % kDepth] = wave_ns;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    res.commands += loop.run_until_idle();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        RHSD_CHECK(cqe->status.ok());
        if (t == 0) {
          latencies.push_back(cqe->completed_ns -
                              victim_submit_ns[cqe->cid % kDepth]);
        }
      }
    }
  }

  std::sort(latencies.begin(), latencies.end());
  RHSD_CHECK(!latencies.empty());
  res.victim_p50_us = latencies[latencies.size() / 2] / 1e3;
  res.victim_p99_us = latencies[latencies.size() * 99 / 100] / 1e3;
  res.trr_refreshes = ssd.dram().stats().trr_refreshes;
  res.para_refreshes = ssd.dram().stats().para_refreshes;
  if (const RateLimiter* lim = ctrl.rate_limiter(); lim != nullptr) {
    res.rate_limit_stall_ns = lim->total_stall_ns();
  }
  res.sim_seconds = ssd.clock().now_ns() * 1e-9;
  res.sim_iops = res.commands / res.sim_seconds;
  std::set<std::uint64_t> flipped_victims;
  for (const FlipEvent& f : ssd.dram().flip_events()) {
    if (victim_rows.count(f.global_row) > 0) {
      flipped_victims.insert(f.global_row);
      ++res.flips;
    }
  }
  res.flip_probability = static_cast<double>(flipped_victims.size()) /
                         static_cast<double>(victim_rows.size());
  return res;
}

// ---- mixed read/write sweep: writes under multi-tenant load ----

struct MixedResult {
  std::uint64_t commands = 0;
  std::uint64_t writes = 0;  // device-level write commands
  double sim_seconds = 0.0;
};

/// Every tenant pushes a heavy mixed workload (40% writes) through the
/// event loop: flash programs, journal appends and garbage collection
/// under multi-tenant load.
MixedResult RunMixed(std::uint32_t tenants, bool quick) {
  SsdConfig cfg = ScaleConfig(tenants);
  // Throughput sweep, not a flip experiment: a flip landing in an L2P
  // entry would turn a background read into an error.
  cfg.dram_profile = DramProfile::Invulnerable();
  CloudHost host(cfg);
  for (std::uint32_t t = 2; t < tenants; ++t) {
    auto id = host.add_tenant(
        TenantConfig{.name = "mix-" + std::to_string(t)});
    RHSD_CHECK_MSG(id.ok(), "tenant " << t << ": " << id.status());
  }
  SsdDevice& ssd = host.ssd();
  NvmeController& ctrl = ssd.controller();

  EventLoopConfig lc;
  lc.policy = ArbitrationPolicy::kRoundRobin;
  lc.seed = 7;
  NvmeEventLoop loop(ctrl, lc);

  constexpr std::uint32_t kDepth = 16;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
    loop.attach(*qps[t], 1);
  }

  const std::uint64_t ops = quick ? 600 : 2000;
  std::vector<std::vector<WorkloadOp>> scripts(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    WorkloadConfig wc;
    constexpr AccessPattern kMixes[] = {
        AccessPattern::kRandom, AccessPattern::kZipfLike,
        AccessPattern::kHotCold, AccessPattern::kBursty};
    wc.pattern = kMixes[t % 4];
    wc.working_set = host.tenant(t).blocks();
    wc.write_fraction = 0.4;
    wc.seed = 9000 + t;
    scripts[t] = WorkloadGenerator(wc).generate(ops);
  }

  MixedResult res;
  std::vector<std::vector<std::uint8_t>> bufs(
      tenants, std::vector<std::uint8_t>(kBlockSize));
  std::vector<std::size_t> next(tenants, 0);
  std::vector<std::uint16_t> cid(tenants, 0);
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(
                      cid[t], t + 1, op.slba,
                      std::vector<std::uint8_t>(kBlockSize,
                                                std::uint8_t(cid[t])))
                : NvmeCommand::Read(cid[t], t + 1, op.slba, bufs[t]);
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    res.commands += loop.run_until_idle();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        RHSD_CHECK(cqe->status.ok());
      }
    }
  }
  res.writes = ctrl.stats().write_cmds;
  res.sim_seconds = ssd.clock().now_ns() * 1e-9;
  return res;
}

// ---- failure domains under a seeded transport/media storm ----

struct FaultDomainResult {
  EventLoopStats loop;
  std::uint64_t injected = 0;
  std::uint64_t commands = 0;
  std::uint64_t errors = 0;
};

/// Eight tenants ride a seeded drop/timeout/NAND storm through the
/// loop; the counters show the fault-domain machinery working:
/// exhausted retries quarantining only the unlucky tenant, and
/// penalties draining again.
FaultDomainResult RunFaultDomains() {
  constexpr std::uint32_t kStormTenants = 8;
  constexpr std::uint32_t kDepth = 8;
  constexpr std::uint64_t kCmds = 1500;
  SsdConfig cfg = SsdConfig::DemoSetup(16 * kMiB);
  cfg.dram_profile = DramProfile::Invulnerable();
  cfg.partition_blocks.assign(kStormTenants,
                              cfg.num_lbas() / kStormTenants);
  FaultRates rates;
  rates.nvme_drop = 0.01;
  rates.nvme_timeout = 0.005;
  rates.nand_read = 0.002;
  cfg.fault_plan =
      FaultPlan::Random(/*seed=*/42, rates, /*horizon=*/20000);
  SsdDevice ssd(cfg);

  EventLoopConfig lc;
  lc.policy = ArbitrationPolicy::kRoundRobin;
  lc.seed = 7;
  NvmeEventLoop loop(ssd.controller(), lc);
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < kStormTenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ssd.controller(), static_cast<std::uint16_t>(t + 1), kDepth));
    loop.attach(*qps[t], 1 + t % 3);
  }
  std::vector<std::vector<WorkloadOp>> scripts(kStormTenants);
  for (std::uint32_t t = 0; t < kStormTenants; ++t) {
    WorkloadConfig wc;
    wc.pattern =
        t % 2 == 0 ? AccessPattern::kZipfLike : AccessPattern::kBursty;
    wc.working_set = cfg.num_lbas() / kStormTenants;
    wc.write_fraction = 0.2;
    wc.seed = 4000 + t;
    scripts[t] = WorkloadGenerator(wc).generate(kCmds);
  }

  FaultDomainResult res;
  std::vector<std::vector<std::uint8_t>> bufs(
      kStormTenants, std::vector<std::uint8_t>(kBlockSize));
  std::vector<std::size_t> next(kStormTenants, 0);
  std::vector<std::uint16_t> cid(kStormTenants, 0);
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < kStormTenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(
                      cid[t], t + 1, op.slba,
                      std::vector<std::uint8_t>(kBlockSize,
                                                std::uint8_t(cid[t])))
                : NvmeCommand::Read(cid[t], t + 1, op.slba, bufs[t]);
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    res.commands += loop.run_until_idle();
    for (std::uint32_t t = 0; t < kStormTenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        if (!cqe->status.ok()) ++res.errors;
      }
    }
  }
  res.loop = loop.stats();
  res.injected = ssd.fault_injector()->log().size();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::vector<std::uint32_t> counts =
      quick ? std::vector<std::uint32_t>{2, 8, 32}
            : std::vector<std::uint32_t>{2, 4, 16, 64, 256, 1024};

  std::printf("== N-tenant cloud host: flips + victim latency vs "
              "background load ==\n");
  std::printf("(async event loop, round-robin arbitration%s)\n\n",
              quick ? ", --quick" : "");
  std::printf("%7s | %8s | %9s | %9s %9s | %5s %9s\n", "tenants", "cmds",
              "sim-kIOPS", "p50-us", "p99-us", "flips", "flip-prob");
  std::printf("%.*s\n", 75,
              "----------------------------------------------------------"
              "--------------------------");

  std::uint64_t total_commands = 0;
  double setup_s = 0.0;
  const double t0 = bench::HostSeconds();
  for (const std::uint32_t tenants : counts) {
    const ScaleResult r = RunScale(tenants, quick);
    total_commands += r.commands;
    setup_s += r.setup_s;
    std::printf("%7u | %8llu | %9.1f | %9.2f %9.2f | %5llu %9.2f\n",
                tenants, static_cast<unsigned long long>(r.commands),
                r.sim_iops / 1e3, r.victim_p50_us, r.victim_p99_us,
                static_cast<unsigned long long>(r.flips),
                r.flip_probability);
  }
  const double elapsed_s = bench::HostSeconds() - t0;

  std::printf(
      "\nshape check: background load grows with the tenant count and "
      "the\nvictim's p99 stretches (noisy neighbours in the completion "
      "stream),\nyet the attacker keeps flipping its target rows — "
      "namespace\nisolation partitions the flash, not the DRAM holding "
      "the L2P table.\n");
  std::printf("\nhost throughput: %.0f simulated cmds/s (%llu cmds in "
              "%.2f s, %.3f s of it host set-up)\n",
              total_commands / elapsed_s,
              static_cast<unsigned long long>(total_commands), elapsed_s,
              setup_s);

  // Mitigated sweep: the same hosts with TRR + PARA enabled.  The
  // device-side refresh counters prove both mitigations really ran.
  std::printf("\n== mitigated hosts (TRR @1000 acts + PARA 1/512) ==\n\n");
  std::printf("%7s | %8s | %9s | %8s %8s | %5s\n", "tenants", "cmds",
              "sim-kIOPS", "trr-ref", "para-ref", "flips");
  std::printf("%.*s\n", 62,
              "----------------------------------------------------------"
              "--------------------------");
  std::uint64_t mit_commands = 0;
  std::uint64_t mit_trr_refreshes = 0;
  std::uint64_t mit_para_refreshes = 0;
  const double tmit0 = bench::HostSeconds();
  for (const std::uint32_t tenants : counts) {
    const ScaleResult r = RunScale(tenants, quick, /*mitigated=*/true);
    mit_commands += r.commands;
    mit_trr_refreshes += r.trr_refreshes;
    mit_para_refreshes += r.para_refreshes;
    std::printf("%7u | %8llu | %9.1f | %8llu %8llu | %5llu\n", tenants,
                static_cast<unsigned long long>(r.commands),
                r.sim_iops / 1e3,
                static_cast<unsigned long long>(r.trr_refreshes),
                static_cast<unsigned long long>(r.para_refreshes),
                static_cast<unsigned long long>(r.flips));
  }
  const double mit_elapsed_s = bench::HostSeconds() - tmit0;
  RHSD_CHECK_MSG(mit_trr_refreshes > 0, "mitigated sweep never engaged TRR");
  RHSD_CHECK_MSG(mit_para_refreshes > 0,
                 "mitigated sweep never engaged PARA");
  std::printf("\nmitigated throughput: %.0f simulated cmds/s (%llu cmds "
              "in %.2f s)\n",
              mit_commands / mit_elapsed_s,
              static_cast<unsigned long long>(mit_commands),
              mit_elapsed_s);

  // One rate-limited point on top: the token bucket must actually stall.
  {
    const std::uint32_t tenants = quick ? 8u : 16u;
    const ScaleResult rl =
        RunScale(tenants, quick, /*mitigated=*/true, /*limited=*/true);
    RHSD_CHECK_MSG(rl.rate_limit_stall_ns > 0,
                   "rate-limited point never stalled");
    std::printf("rate-limited point (%u tenants, 50k IOPS cap): %.3f s "
                "of token-bucket stalls over %llu cmds\n",
                tenants, rl.rate_limit_stall_ns * 1e-9,
                static_cast<unsigned long long>(rl.commands));
  }

  // Mixed read/write sweep: writes under multi-tenant load.
  const std::vector<std::uint32_t> mixed_counts =
      quick ? std::vector<std::uint32_t>{4, 16}
            : std::vector<std::uint32_t>{4, 16, 64};
  std::printf("\n== mixed read/write (40%% writes) ==\n\n");
  std::printf("%7s | %8s %8s\n", "tenants", "cmds", "writes");
  std::printf("%.*s\n", 28,
              "----------------------------------------------------------"
              "--------------------------");
  std::uint64_t mixed_writes = 0;
  const double tm0 = bench::HostSeconds();
  for (const std::uint32_t tenants : mixed_counts) {
    const MixedResult m = RunMixed(tenants, quick);
    mixed_writes += m.writes;
    std::printf("%7u | %8llu %8llu\n", tenants,
                static_cast<unsigned long long>(m.commands),
                static_cast<unsigned long long>(m.writes));
  }
  const double mixed_elapsed_s = bench::HostSeconds() - tm0;
  RHSD_CHECK_MSG(mixed_writes > 0, "mixed sweep never issued a write");
  std::printf("\nwrite throughput: %.0f simulated writes/s of host time "
              "(%llu writes in %.2f s)\n",
              mixed_writes / mixed_elapsed_s,
              static_cast<unsigned long long>(mixed_writes),
              mixed_elapsed_s);

  // Failure domains: the same loop under a seeded fault storm.
  const FaultDomainResult fd = RunFaultDomains();
  std::printf("\n== failure domains: 8 tenants under a seeded "
              "drop/timeout/NAND storm ==\n\n");
  std::printf("  commands retired     %10llu  (%llu completion errors)\n",
              static_cast<unsigned long long>(fd.commands),
              static_cast<unsigned long long>(fd.errors));
  std::printf("  faults injected      %10llu\n",
              static_cast<unsigned long long>(fd.injected));
  std::printf("  quarantines          %10llu  (+%llu penalty releases)\n",
              static_cast<unsigned long long>(fd.loop.quarantines),
              static_cast<unsigned long long>(fd.loop.quarantine_releases));
  std::printf("  degraded rejections  %10llu\n",
              static_cast<unsigned long long>(fd.loop.degraded_rejections));
  std::printf("  device transitions   %10llu\n",
              static_cast<unsigned long long>(fd.loop.device_transitions));

  bench::BenchReport report;
  report.set("cloud_tenant_iops", total_commands / elapsed_s);
  report.set("cloud_setup_s", setup_s);
  report.set("cloud_mitigated_iops", mit_commands / mit_elapsed_s);
  report.set("cloud_write_iops", mixed_writes / mixed_elapsed_s);
  report.set("cloud_fault_quarantines",
             static_cast<double>(fd.loop.quarantines));
  report.set("cloud_fault_injected", static_cast<double>(fd.injected));
  report.write();
  return 0;
}
