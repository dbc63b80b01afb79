// cloud_8_mixed and cloud_1024_reads: a closed loop of N tenants at
// queue depth 16 on one shared 64 MiB SSD (bench_cloud_scale's host).
// Each tenant refills its queue only after the event loop has retired
// the previous wave.  cmds_per_s counts only the host time spent inside
// NvmeEventLoop::run_until_idle; host, tenant and queue-pair
// construction is set-up.
//
// Every tenant runs a script of the same length, so all N tenants stay
// active in every wave until the last one.
//
// Every read of a block this run wrote is checked against the last
// write the tenant submitted before it (per-queue order is FIFO).  A
// mismatch is excused only when a bitflip in the L2P table explains it
// — the modelled attack, not a defect.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <map>
#include <set>

#include "cloud/cloud_host.hpp"
#include "exec/experiment_engine.hpp"
#include "exec/thread_pool.hpp"
#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rhsd;

constexpr std::uint32_t kDepth = 16;
/// The attacker's aggressor set: 8 slbas, one per 128-entry L2P row
/// chunk, so 8 distinct DRAM rows get hammered.
constexpr std::uint64_t kAggressors = 8;

struct CloudSpec {
  const char* name;
  std::uint32_t tenants;
  bool mitigated;      // TRR @1000 activations + PARA 1/512
  bool mixed;          // random/Zipf/hot-cold/bursty at 40% writes
  std::uint64_t ops;   // per tenant
};

/// bench_cloud_scale's ScaleConfig: victim and attacker keep the
/// paper's 2048-block partitions, the rest is split across background
/// tenants; a weak DRAM part (1280 effective activations to flip).
SsdConfig ScaleConfig(const CloudSpec& spec, std::uint64_t seed) {
  SsdConfig c;
  c.capacity_bytes = 64 * kMiB;
  c.dram_geometry = DramGeometry{.channels = 1,
                                 .dimms_per_channel = 1,
                                 .ranks_per_dimm = 1,
                                 .banks_per_rank = 2,
                                 .rows_per_bank = 256,
                                 .row_bytes = 512};
  c.dram_profile.min_rate_kaccess_s = 10.0;
  c.dram_profile.vulnerable_row_fraction = 1.0;
  c.dram_profile.max_cells_per_row = 2;
  c.dram_profile.threshold_spread = 0.5;
  c.xor_config.interleaved_bank_bits = 1;
  c.xor_config.row_remap_bits = 4;
  c.hammers_per_io = 5;
  c.host_interface = HostInterface::kTestbedVmDirect;
  c.partition_blocks = {2048, 2048};
  const std::uint64_t per = (c.num_lbas() - 4096) / (spec.tenants - 2);
  c.partition_blocks.insert(c.partition_blocks.end(), spec.tenants - 2, per);
  if (spec.mitigated) {
    c.dram_mitigations.trr = true;
    c.dram_mitigations.trr_config.activation_threshold = 1000;
    c.dram_mitigations.para_probability = 1.0 / 512;
  }
  c.seed = seed;
  return c;
}

/// Hands the loop its worker pool, if the loop still takes one.
template <typename Config>
void SetPool(Config& config, exec::ThreadPool* pool) {
  if constexpr (requires { config.pool = pool; }) config.pool = pool;
}

struct InFlight {
  bool write = false;
  std::uint64_t slba = 0;
  std::uint64_t tag = 0;  // expected (read) or written (write) content
};

/// A completed write, or a read that returned other data than expected.
struct Access {
  std::uint32_t tenant = 0;
  std::uint64_t slba = 0;
  std::uint64_t done_ns = 0;  // simulated completion time
};

struct Rep {
  double setup_s = 0.0;
  double loop_s = 0.0;
  double trial_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t commands = 0;
  std::uint64_t completions = 0;
  std::uint64_t writes = 0;
  std::uint64_t errors = 0;
  NvmeStats loop_stats;  // controller stats accrued inside the loop
  Digest digest;
  DeviceCounts counts;
};

std::vector<std::uint8_t> TaggedBlock(std::uint64_t tag) {
  std::vector<std::uint8_t> block(kBlockSize);
  for (std::size_t off = 0; off < block.size(); off += sizeof tag) {
    std::memcpy(block.data() + off, &tag, sizeof tag);
  }
  return block;
}

bool HasTag(const std::uint8_t* block, std::uint64_t tag) {
  for (std::size_t off = 0; off < kBlockSize; off += sizeof tag) {
    std::uint64_t word;
    std::memcpy(&word, block + off, sizeof word);
    if (word != tag) return false;
  }
  return true;
}

/// One fresh host driven to completion.  `setup_only` stops after
/// set-up (extra set-up samples).
Rep RunRep(const CloudSpec& spec, std::uint64_t seed, exec::ThreadPool* pool,
           Tracer& tr, Result& result, bool setup_only = false) {
  Rep rep;
  const std::uint32_t n = spec.tenants;
  const double t0 = Now();
  const auto host = Call(tr, "cloud.host_build", [&] {
    return std::make_unique<CloudHost>(
        ScaleConfig(spec, exec::TrialSeed(seed, 0)));
  });
  for (std::uint32_t t = 2; t < n; ++t) {
    const auto id = Call(tr, "cloud.add_tenant", [&] {
      return host->add_tenant(
          TenantConfig{.name = "bg-" + std::to_string(t)});
    });
    if (!id.ok()) result.fail("add_tenant: " + id.status().to_string());
  }
  SsdDevice& ssd = host->ssd();
  NvmeController& ctrl = ssd.controller();
  std::unique_ptr<NvmeEventLoop> loop;
  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  Call(tr, "cloud.attach", [&] {
    EventLoopConfig lc;
    lc.policy = ArbitrationPolicy::kRoundRobin;
    lc.seed = exec::TrialSeed(seed, 2);
    SetPool(lc, pool);
    loop = std::make_unique<NvmeEventLoop>(ctrl, lc);
    for (std::uint32_t t = 0; t < n; ++t) {
      qps.push_back(std::make_unique<NvmeQueuePair>(
          ctrl, static_cast<std::uint16_t>(t + 1), kDepth));
      // The paper's pair gets double the arbitration weight.
      loop->attach(*qps[t], t < 2 ? 2 : 1);
    }
  });
  const auto scripts = Call(tr, "sim.script_gen", [&] {
    std::vector<std::vector<WorkloadOp>> s(n);
    WorkloadConfig victim;
    victim.pattern = AccessPattern::kHotCold;
    victim.working_set = host->tenant(CloudHost::kVictimId).blocks();
    victim.write_fraction = 0.0;
    victim.seed = exec::TrialSeed(seed, 1);
    s[0] = WorkloadGenerator(victim).generate(spec.ops);
    for (std::uint64_t i = 0; i < spec.ops; ++i) {
      s[1].push_back({false, (i % kAggressors) * 128});
    }
    constexpr AccessPattern kMixes[] = {
        AccessPattern::kRandom, AccessPattern::kZipfLike,
        AccessPattern::kHotCold, AccessPattern::kBursty};
    for (std::uint32_t t = 2; t < n; ++t) {
      WorkloadConfig wc;
      wc.pattern = spec.mixed ? kMixes[t % 4]
                   : t % 2 == 0 ? AccessPattern::kZipfLike
                                : AccessPattern::kBursty;
      wc.working_set = host->tenant(t).blocks();
      wc.write_fraction = spec.mixed ? 0.4 : 0.1;
      wc.seed = exec::TrialSeed(seed, 1000 + t);
      s[t] = WorkloadGenerator(wc).generate(spec.ops);
    }
    return s;
  });
  rep.setup_s = Now() - t0;
  if (setup_only) return rep;

  // Benchmark-side buffers: one read slot per queue entry.
  std::vector<std::uint8_t> bufs(static_cast<std::size_t>(n) * kDepth *
                                 kBlockSize);
  std::vector<std::uint32_t> nsid(n);
  std::vector<std::vector<std::uint64_t>> shadow(n);  // slba -> last tag
  for (std::uint32_t t = 0; t < n; ++t) {
    nsid[t] = host->tenant(t).nsid();
    shadow[t].assign(host->tenant(t).blocks(), 0);
  }
  std::vector<std::size_t> next(n, 0);
  std::vector<std::uint16_t> cid(n, 0);
  std::vector<std::uint64_t> written(n, 0);
  std::vector<InFlight> inflight(static_cast<std::size_t>(n) * kDepth);
  std::vector<std::uint64_t> victim_submit_ns(kDepth, 0);
  std::vector<std::uint64_t> latencies;
  std::vector<Access> writes, mismatches;
  // Waves in which the FTL garbage-collected: (start, end) sim ns.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gc_waves;

  const NvmeStats stats0 = ctrl.stats();
  const std::uint64_t sim0 = ssd.clock().now_ns();
  for (;;) {
    bool pending = false;
    const std::uint64_t wave_ns = ssd.clock().now_ns();
    for (std::uint32_t t = 0; t < n; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        const std::size_t slot = t * kDepth + cid[t] % kDepth;
        InFlight f{op.is_write, op.slba, 0};
        Status submitted;
        if (op.is_write) {
          f.tag = static_cast<std::uint64_t>(t + 1) << 32 | ++written[t];
          submitted = qps[t]->submit(
              NvmeCommand::Write(cid[t], nsid[t], op.slba, TaggedBlock(f.tag)));
        } else {
          f.tag = shadow[t][op.slba];
          submitted = qps[t]->submit(NvmeCommand::Read(
              cid[t], nsid[t], op.slba,
              std::span<std::uint8_t>(bufs.data() + slot * kBlockSize,
                                      kBlockSize)));
        }
        if (!submitted.ok()) {
          if (op.is_write) --written[t];
          break;  // queue full: wait for this wave to retire
        }
        if (op.is_write) shadow[t][op.slba] = f.tag;
        inflight[slot] = f;
        if (t == 0) victim_submit_ns[cid[t] % kDepth] = wave_ns;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    const std::uint64_t gc0 = ssd.ftl().stats().gc_runs;
    const double l0 = Now();
    {
      auto s = tr.span("nvme.loop");
      rep.commands += loop->run_until_idle();
    }
    rep.loop_s += Now() - l0;
    if (ssd.ftl().stats().gc_runs != gc0) {
      gc_waves.push_back({wave_ns, ssd.clock().now_ns()});
    }
    for (std::uint32_t t = 0; t < n; ++t) {
      while (auto cqe = qps[t]->poll()) {
        ++rep.completions;
        const std::size_t slot = t * kDepth + cqe->cid % kDepth;
        const InFlight& f = inflight[slot];
        if (!cqe->status.ok()) {
          ++rep.errors;
          continue;
        }
        if (f.write) {
          writes.push_back({t, f.slba, cqe->completed_ns});
        } else if (f.tag != 0 &&
                   !HasTag(bufs.data() + slot * kBlockSize, f.tag)) {
          mismatches.push_back({t, f.slba, cqe->completed_ns});
        }
        if (t == 0) {
          latencies.push_back(cqe->completed_ns -
                              victim_submit_ns[cqe->cid % kDepth]);
        }
      }
    }
  }
  rep.writes = writes.size();
  rep.sim_s = static_cast<double>(ssd.clock().now_ns() - sim0) * 1e-9;
  const NvmeStats& stats1 = ctrl.stats();
  rep.loop_stats.read_cmds = stats1.read_cmds - stats0.read_cmds;
  rep.loop_stats.write_cmds = stats1.write_cmds - stats0.write_cmds;
  rep.loop_stats.errors = stats1.errors - stats0.errors;

  // Checks: every command retired exactly once, reads saw their data.
  std::uint64_t submitted = 0;
  for (const auto& s : scripts) submitted += s.size();
  if (rep.commands != submitted || rep.completions != submitted) {
    result.fail(std::string(spec.name) + ": " + std::to_string(submitted) +
                " commands submitted, loop retired " +
                std::to_string(rep.commands) + ", " +
                std::to_string(rep.completions) + " completions");
  }
  // A flip corrupts data only through a mapping entry used after it
  // flipped.  A read of that LBA returns the wrong page: excused when
  // the read's own entry sits in a row that flipped before it.  A write
  // to that LBA invalidates whatever page the flipped entry names —
  // possibly another LBA's live page, which is lost only when garbage
  // collection erases its block.  So any other stale read is excused
  // only if it completed after a GC wave that ended after the first
  // write through a flipped entry.
  const DramGeometry& geom = ssd.dram().mapper().geometry();
  std::map<std::uint64_t, std::uint64_t> first_flip_ns;  // row -> time
  for (const FlipEvent& f : ssd.dram().flip_events()) {
    const auto [it, fresh] = first_flip_ns.emplace(f.global_row, f.time_ns);
    if (!fresh) it->second = std::min(it->second, f.time_ns);
  }
  const auto entry_row = [&](std::uint64_t lpn) {
    return ssd.dram()
        .mapper()
        .decode(ssd.ftl().layout().entry_addr(lpn))
        .global_row(geom);
  };
  const auto flipped_before = [&](const Access& a) {
    const std::uint64_t lpn =
        host->partition_range(a.tenant).first.value() + a.slba;
    const auto it = first_flip_ns.find(entry_row(lpn));
    return it != first_flip_ns.end() && it->second <= a.done_ns;
  };
  std::uint64_t poisoned_ns = ~0ull;
  for (const Access& w : writes) {
    if (w.done_ns < poisoned_ns && flipped_before(w)) poisoned_ns = w.done_ns;
  }
  const auto lost_by_gc = [&](const Access& a) {
    return std::any_of(gc_waves.begin(), gc_waves.end(), [&](const auto& w) {
      return w.second >= poisoned_ns && w.first <= a.done_ns;
    });
  };
  std::uint64_t own_entry = 0, after_gc = 0;
  for (const Access& m : mismatches) {
    if (flipped_before(m)) {
      ++own_entry;
    } else if (poisoned_ns != ~0ull && lost_by_gc(m)) {
      ++after_gc;
    } else {
      result.fail(std::string(spec.name) + ": tenant " +
                  std::to_string(m.tenant) + " read stale data at slba " +
                  std::to_string(m.slba) +
                  " with no flipped mapping to explain it");
    }
  }
  if (!mismatches.empty() || tr.enabled()) {
    const double run_ns = static_cast<double>(ssd.clock().now_ns() - sim0);
    const std::string first =
        poisoned_ns == ~0ull
            ? "none"
            : std::to_string(static_cast<int>(
                  100.0 * static_cast<double>(poisoned_ns - sim0) / run_ns)) +
                  "%";
    std::printf(
        "%s: %zu stale reads (%llu through their own flipped entry, %llu "
        "after GC); %zu GC waves; first write through a flipped entry at "
        "%s of the run's sim time\n",
        spec.name, mismatches.size(),
        static_cast<unsigned long long>(own_entry),
        static_cast<unsigned long long>(after_gc), gc_waves.size(),
        first.c_str());
  }

  // Simulated results: victim latency, attacker flip probability over
  // the aggressors' neighbour rows, and the device state.
  std::sort(latencies.begin(), latencies.end());
  const std::uint64_t attacker_base =
      host->partition_range(CloudHost::kAttackerId).first.value();
  std::set<std::uint64_t> victim_rows;
  for (std::uint64_t a = 0; a < kAggressors; ++a) {
    const std::uint64_t row = entry_row(attacker_base + a * 128);
    if (row % geom.rows_per_bank > 0) victim_rows.insert(row - 1);
    if (row % geom.rows_per_bank + 1 < geom.rows_per_bank) {
      victim_rows.insert(row + 1);
    }
  }
  std::uint64_t hit_rows = 0;
  for (const std::uint64_t row : victim_rows) {
    hit_rows += first_flip_ns.count(row);
  }
  rep.digest.add(rep.commands);
  rep.digest.add(rep.errors);
  rep.digest.add(static_cast<std::uint64_t>(mismatches.size()));
  rep.digest.add(latencies.empty() ? 0 : latencies[latencies.size() / 2]);
  rep.digest.add(latencies.empty() ? 0
                                   : latencies[latencies.size() * 99 / 100]);
  rep.digest.add(static_cast<double>(hit_rows) /
                 static_cast<double>(victim_rows.size()));
  AddDeviceState(rep.digest, ssd);
  rep.counts.add(ssd);
  rep.trial_s = Now() - t0;
  return rep;
}

void RunCloud(const CloudSpec& spec, const Options& opts, Result& result,
              Tracer& tracer) {
  const auto ops = [&](const Rep& r) { result.ops(r.completions, r.errors); };

  if (opts.trace) {
    // One host three times with no worker pool, as the untraced run
    // drives it: untraced, then traced, after an unmeasured warm-up
    // (first-touch page faults).  Then once more, traced, on a worker
    // pool: the shard path, which must beat the sequential loop.
    const std::uint64_t seed = exec::TrialSeed(opts.seed, 0);
    Tracer off(false);
    RunRep(spec, seed, nullptr, off, result);
    const Rep plain = RunRep(spec, seed, nullptr, off, result);
    const Rep traced = RunRep(spec, seed, nullptr, tracer, result);
    exec::ThreadPool pool(kPoolWorkers);
    Tracer par(true, 1);
    const Rep pooled = RunRep(spec, seed, &pool, par, result);
    ops(plain);
    ops(traced);
    ops(pooled);
    const std::string name = spec.name;
    result.print_digest(name + ".untraced", plain.digest);
    result.print_digest(name + ".traced", traced.digest);
    result.print_digest(name + ".pool", pooled.digest);
    result.expect_same(name + " traced vs untraced", plain.digest,
                       traced.digest);
    result.expect_same(name + " pool vs no pool", traced.digest,
                       pooled.digest);

    result.span_metrics(tracer);
    const auto loop = tracer.totals()["nvme.loop"];
    const auto par_loop = par.totals()["nvme.loop"];
    const double cmds = static_cast<double>(traced.commands);
    result.metric("nvme.loop_calls", static_cast<double>(loop.count),
                  "count");
    result.metric("nvme.ns_per_cmd", loop.self_s / cmds * 1e9, "ns");
    result.metric("nvme.loop_s_pool", par_loop.self_s, "s");
    result.metric("nvme.ns_per_cmd_pool", par_loop.self_s / cmds * 1e9,
                  "ns");
    result.metric("nvme.pool_speedup", loop.self_s / par_loop.self_s,
                  "ratio");
    result.metric("nvme.read_cmds",
                  static_cast<double>(traced.loop_stats.read_cmds), "count");
    result.metric("nvme.write_cmds",
                  static_cast<double>(traced.loop_stats.write_cmds), "count");
    result.metric("nvme.errors",
                  static_cast<double>(traced.loop_stats.errors), "count");
    result.counts(traced.counts);
    result.metric("trace.overhead", traced.trial_s / plain.trial_s - 1.0,
                  "ratio");
    tracer.merge(std::move(par));
    return;
  }

  // Each rep's host seconds are scaled to the reference host by the mean
  // of the reference loops run just before and just after it
  // (HostScale).
  std::vector<double> setup, cmd_rate, write_rate, sim_rate, scale;
  Digest all;
  HostScale();  // first touch of the reference table
  double before = HostScale();
  const double start = Now();
  double host_s = 0.0;
  std::uint64_t reps = 0;
  while (reps == 0 || (!opts.tiny && Now() - start < opts.seconds)) {
    Tracer off(false);
    const Rep r =
        RunRep(spec, exec::TrialSeed(opts.seed, reps), nullptr, off, result);
    const double after = HostScale();
    const double k = 0.5 * (before + after);
    before = after;
    ++reps;
    ops(r);
    all.add(r.digest.value());
    scale.push_back(k);
    host_s += r.trial_s * k;
    setup.push_back(r.setup_s * k);
    const double loop_s = r.loop_s * k;
    cmd_rate.push_back(static_cast<double>(r.commands) / loop_s);
    write_rate.push_back(static_cast<double>(r.writes) / loop_s);
    sim_rate.push_back(r.sim_s / loop_s);
  }
  // Set-up is short next to a loop: take a few extra samples of it.
  constexpr std::size_t kSetupSamples = 7;
  for (std::uint64_t i = reps; setup.size() < kSetupSamples; ++i) {
    Tracer off(false);
    const double setup_s = RunRep(spec, exec::TrialSeed(opts.seed, i),
                                  nullptr, off, result, /*setup_only=*/true)
                               .setup_s;
    setup.push_back(setup_s * HostScale());
  }
  std::printf("%s: host scale median %.3f\n", spec.name, Median(scale));
  result.print_digest(spec.name, all);
  result.metric("cmds_per_s", Median(cmd_rate), "1/s");
  result.metric("write_cmds_per_s", Median(write_rate), "1/s");
  result.metric("sim_s_per_host_s", Median(sim_rate), "s/s");
  result.metric("scenarios_per_s", static_cast<double>(reps) / host_s,
                "1/s");
  result.metric("setup_s", Median(setup), "s");
}

}  // namespace

void RunCloud8Mixed(const Options& opts, Result& result, Tracer& tracer) {
  const CloudSpec spec{.name = "cloud_8_mixed",
                       .tenants = 8,
                       .mitigated = true,
                       .mixed = true,
                       .ops = opts.tiny ? 200u : 6000u};
  RunCloud(spec, opts, result, tracer);
}

void RunCloud1024Reads(const Options& opts, Result& result, Tracer& tracer) {
  const CloudSpec spec{.name = "cloud_1024_reads",
                       .tenants = opts.tiny ? 64u : 1024u,
                       .mitigated = false,
                       .mixed = false,
                       .ops = opts.tiny ? 16u : 512u};
  RunCloud(spec, opts, result, tracer);
}

}  // namespace perfbench
