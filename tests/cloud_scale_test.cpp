// N-tenant cloud scale tests: registry behaviour (auto-assignment,
// collision rejection, a differential check against the lowest-free
// rule, a 1024-namespace fleet), K-tenant isolation under concurrent mixed
// traffic through the event loop, and invariance of every tenant's
// observable data to the arbitration seed and policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_host.hpp"
#include "common/rng.hpp"
#include "nvme/event_loop.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"

namespace rhsd {
namespace {

/// SmallSsd carved into `tenants` equal partitions.
SsdConfig ScaleSsd(std::uint32_t tenants) {
  SsdConfig c = test::SmallSsd();
  c.partition_blocks.assign(tenants, c.num_lbas() / tenants);
  return c;
}

TEST(TenantRegistry, AutoAssignsLowestFreeNamespace) {
  CloudHost host(ScaleSsd(4));
  // Victim and attacker booted on nsids 1 and 2.
  ASSERT_EQ(host.tenant_count(), 2u);
  auto t2 = host.add_tenant(TenantConfig{.name = "t2"});
  ASSERT_TRUE(t2.ok()) << t2.status();
  EXPECT_EQ(host.tenant(*t2).nsid(), 3u);
  auto t3 = host.add_tenant(TenantConfig{.name = "t3"});
  ASSERT_TRUE(t3.ok()) << t3.status();
  EXPECT_EQ(host.tenant(*t3).nsid(), 4u);
  // All namespaces claimed now.
  EXPECT_EQ(host.add_tenant(TenantConfig{.name = "t4"}).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(TenantRegistry, RejectsNamespaceCollisionAndBadNsid) {
  CloudHost host(ScaleSsd(4));
  EXPECT_EQ(
      host.add_tenant(TenantConfig{.name = "alias", .nsid = 2})
          .status()
          .code(),
      StatusCode::kAlreadyExists);
  EXPECT_EQ(
      host.add_tenant(TenantConfig{.name = "ghost", .nsid = 9})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(TenantRegistry, PartitionsAreDisjoint) {
  CloudHost host(ScaleSsd(4));
  (void)host.add_tenant(TenantConfig{.name = "t2"});
  (void)host.add_tenant(TenantConfig{.name = "t3"});
  for (TenantId a = 0; a < host.tenant_count(); ++a) {
    for (TenantId b = a + 1; b < host.tenant_count(); ++b) {
      const auto ra = host.partition_range(a);
      const auto rb = host.partition_range(b);
      EXPECT_TRUE(ra.second.value() <= rb.first.value() ||
                  rb.second.value() <= ra.first.value())
          << "tenants " << a << " and " << b << " overlap";
    }
  }
}

/// `namespaces` partitions of SmallSsd: the victim's filesystem gets
/// 512 blocks, the rest is split equally across the others.
SsdConfig RegistrySsd(std::uint32_t namespaces) {
  SsdConfig c = test::SmallSsd();
  c.partition_blocks.assign(namespaces,
                            (c.num_lbas() - 512) / (namespaces - 1));
  c.partition_blocks[0] = 512;
  return c;
}

TEST(TenantRegistry, MatchesLowestFreeRuleOnRandomClaims) {
  constexpr std::uint32_t kNamespaces = 64;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    CloudHost host(RegistrySsd(kNamespaces));
    // Reference registry: (nsid, name) per tenant in id order, and the
    // rule the registry had before it kept an owner table — scan every
    // candidate nsid against every registered tenant.
    std::vector<std::pair<std::uint32_t, std::string>> ref = {
        {1, "victim-vm"}, {2, "attacker-vm"}};
    const auto owner_of = [&](std::uint32_t nsid) {
      return std::find_if(ref.begin(), ref.end(),
                          [&](const auto& r) { return r.first == nsid; });
    };
    Rng rng(seed);
    bool saw_auto = false, saw_exhausted = false, saw_alias = false,
         saw_bad = false, saw_explicit = false;
    for (int step = 0; step < 300; ++step) {
      TenantConfig config{.name = "t" + std::to_string(step)};
      const std::uint64_t kind = rng.next_below(10);
      if (kind >= 4 && kind < 9) {
        config.nsid = static_cast<std::uint32_t>(rng.next_in(1, kNamespaces));
      } else if (kind == 9) {
        // Out of range: past the last namespace, or far past it.
        config.nsid = rng.next_bool(0.5)
                          ? kNamespaces + 1 +
                                static_cast<std::uint32_t>(rng.next_below(4))
                          : 0xFFFFFFFFu;
      }
      SCOPED_TRACE(::testing::Message()
                   << "step=" << step << " nsid=" << config.nsid);

      std::uint32_t want_nsid = 0;
      StatusCode want_code = StatusCode::kOk;
      std::string want_owner;
      if (config.nsid == TenantConfig::kAutoNsid) {
        for (std::uint32_t nsid = 1; nsid <= kNamespaces; ++nsid) {
          if (owner_of(nsid) == ref.end()) {
            want_nsid = nsid;
            break;
          }
        }
        if (want_nsid == 0) want_code = StatusCode::kResourceExhausted;
      } else if (config.nsid > kNamespaces) {
        want_code = StatusCode::kInvalidArgument;
      } else if (const auto it = owner_of(config.nsid); it != ref.end()) {
        want_code = StatusCode::kAlreadyExists;
        want_owner = it->second;
      } else {
        want_nsid = config.nsid;
      }

      const auto got = host.add_tenant(config);
      ASSERT_EQ(got.status().code(), want_code) << got.status();
      if (want_code == StatusCode::kAlreadyExists) {
        EXPECT_NE(got.status().message().find("already claimed by tenant '" +
                                              want_owner + "'"),
                  std::string::npos)
            << got.status();
        saw_alias = true;
      }
      saw_exhausted |= want_code == StatusCode::kResourceExhausted;
      saw_bad |= want_code == StatusCode::kInvalidArgument;
      if (want_code != StatusCode::kOk) {
        ASSERT_EQ(host.tenant_count(), ref.size());
        continue;
      }
      ASSERT_EQ(*got, ref.size());
      EXPECT_EQ(host.tenant(*got).nsid(), want_nsid);
      EXPECT_EQ(host.tenant(*got).name(), config.name);
      ref.emplace_back(want_nsid, config.name);
      (config.nsid == TenantConfig::kAutoNsid ? saw_auto : saw_explicit) =
          true;
    }
    // The mix reached every branch of the rule.
    EXPECT_TRUE(saw_auto && saw_explicit && saw_alias && saw_bad &&
                saw_exhausted);
    EXPECT_EQ(host.tenant_count(), kNamespaces);
  }
}

TEST(TenantRegistry, ThousandTenantFleetGetsConsecutiveNamespaces) {
  constexpr std::uint32_t kNamespaces = 1024;
  CloudHost host(RegistrySsd(kNamespaces));
  for (std::uint32_t t = 2; t < kNamespaces; ++t) {
    auto id = host.add_tenant(
        TenantConfig{.name = "tenant-" + std::to_string(t)});
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_EQ(*id, t);
  }
  for (TenantId t = 0; t < kNamespaces; ++t) {
    EXPECT_EQ(host.tenant(t).nsid(), t + 1);
  }
  EXPECT_EQ(host.add_tenant(TenantConfig{.name = "extra"}).status().code(),
            StatusCode::kResourceExhausted);
}

/// What one tenant observed at the end of a run: the last data its
/// reads returned, keyed by slba.
using TenantView = std::map<std::uint64_t, std::vector<std::uint8_t>>;

std::vector<std::uint8_t> TenantBlock(std::uint32_t tenant,
                                      std::uint64_t slba) {
  std::vector<std::uint8_t> block(kBlockSize);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(0xA0 + tenant * 31 + slba * 7 + i);
  }
  return block;
}

/// Run K tenants' mixed read/write traffic through the event loop and
/// return each tenant's final view of its partition.
std::vector<TenantView> RunScale(std::uint32_t tenants,
                                 ArbitrationPolicy policy,
                                 std::uint64_t arb_seed) {
  CloudHost host(ScaleSsd(tenants));
  for (std::uint32_t t = 2; t < tenants; ++t) {
    auto id = host.add_tenant(
        TenantConfig{.name = "tenant-" + std::to_string(t)});
    RHSD_CHECK(id.ok());
  }
  NvmeController& ctrl = host.ssd().controller();

  EventLoopConfig lc;
  lc.policy = policy;
  lc.seed = arb_seed;
  NvmeEventLoop loop(ctrl, lc);

  std::vector<std::unique_ptr<NvmeQueuePair>> qps;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    qps.push_back(std::make_unique<NvmeQueuePair>(
        ctrl, static_cast<std::uint16_t>(t + 1), 8));
    loop.attach(*qps[t], 1 + t % 2);
  }

  // Deterministic per-tenant scripts: every tenant writes blocks
  // derived from (tenant, slba), interleaved with reads of what it
  // wrote before.
  const std::uint64_t per = host.tenant(0).blocks();
  std::vector<std::vector<WorkloadOp>> scripts(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    WorkloadConfig wc;
    wc.pattern =
        t % 2 == 0 ? AccessPattern::kHotCold : AccessPattern::kBursty;
    wc.working_set = per;
    wc.write_fraction = 0.5;
    wc.seed = 500 + t;
    WorkloadGenerator gen(wc);
    for (int i = 0; i < 120; ++i) scripts[t].push_back(gen.next());
  }

  std::vector<std::size_t> next(tenants, 0);
  std::vector<std::uint16_t> cid(tenants, 0);
  // One read buffer per in-flight slot so views can be harvested from
  // completions; slot = cid % depth.
  std::vector<std::vector<std::vector<std::uint8_t>>> bufs(tenants);
  std::vector<std::vector<std::uint64_t>> slot_slba(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    bufs[t].assign(8, std::vector<std::uint8_t>(kBlockSize));
    slot_slba[t].assign(8, 0);
  }
  std::vector<TenantView> views(tenants);
  for (;;) {
    bool pending = false;
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (next[t] < scripts[t].size()) {
        const WorkloadOp& op = scripts[t][next[t]];
        const std::uint32_t slot = cid[t] % 8;
        NvmeCommand cmd =
            op.is_write
                ? NvmeCommand::Write(cid[t], t + 1, op.slba,
                                     TenantBlock(t, op.slba))
                : NvmeCommand::Read(cid[t], t + 1, op.slba,
                                    bufs[t][slot]);
        if (!op.is_write) slot_slba[t][slot] = op.slba;
        if (!qps[t]->submit(std::move(cmd)).ok()) break;
        ++next[t];
        ++cid[t];
      }
      pending = pending || next[t] < scripts[t].size() ||
                qps[t]->sq_inflight() > 0;
    }
    if (!pending) break;
    loop.run_until_idle();
    for (std::uint32_t t = 0; t < tenants; ++t) {
      while (auto cqe = qps[t]->poll()) {
        RHSD_CHECK(cqe->status.ok());
        const std::uint32_t slot = cqe->cid % 8;
        // Writes reuse the slot's cid but never touch its buffer; only
        // record views for reads (their slot_slba entry is current).
        if (!bufs[t][slot].empty()) {
          views[t][slot_slba[t][slot]] = bufs[t][slot];
        }
      }
    }
  }
  // Record the authoritative final view: read every block the tenant
  // ever wrote, directly.
  for (std::uint32_t t = 0; t < tenants; ++t) {
    views[t].clear();
    for (const WorkloadOp& op : scripts[t]) {
      if (!op.is_write) continue;
      std::vector<std::uint8_t> out(kBlockSize);
      RHSD_CHECK(ctrl.read(t + 1, op.slba, out).ok());
      views[t][op.slba] = std::move(out);
    }
  }
  return views;
}

TEST(CloudScale, TenantsNeverObserveForeignDataAndRunsAreInvariant) {
  constexpr std::uint32_t kTenants = 8;
  const std::vector<TenantView> ref =
      RunScale(kTenants, ArbitrationPolicy::kRoundRobin, 1);

  // Isolation: every block a tenant wrote reads back as its own
  // marker — never another tenant's (markers differ per tenant).
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    ASSERT_FALSE(ref[t].empty());
    for (const auto& [slba, data] : ref[t]) {
      EXPECT_EQ(data, TenantBlock(t, slba))
          << "tenant " << t << " slba " << slba;
    }
  }

  // Invariance: the same scripts produce the same per-tenant views for
  // any arbitration seed/policy.
  for (const std::uint64_t seed : {1ull, 5ull}) {
    for (const ArbitrationPolicy policy :
         {ArbitrationPolicy::kRoundRobin, ArbitrationPolicy::kWeighted}) {
      const std::vector<TenantView> got = RunScale(kTenants, policy, seed);
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " policy=" << to_string(policy));
      EXPECT_EQ(ref, got);
    }
  }
}

}  // namespace
}  // namespace rhsd
