#include "nvme/event_loop.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace rhsd {

const char* to_string(ArbitrationPolicy policy) {
  switch (policy) {
    case ArbitrationPolicy::kRoundRobin:
      return "round_robin";
    case ArbitrationPolicy::kWeighted:
      return "weighted";
  }
  return "unknown";
}

NvmeEventLoop::NvmeEventLoop(NvmeController& controller,
                             EventLoopConfig config)
    : controller_(controller), config_(config), rng_(config.seed) {}

std::uint32_t NvmeEventLoop::attach(NvmeQueuePair& qp, std::uint32_t weight) {
  RHSD_CHECK_MSG(weight >= 1, "arbitration weight must be >= 1");
  streams_.push_back(Stream{&qp, weight});
  return static_cast<std::uint32_t>(streams_.size() - 1);
}

int NvmeEventLoop::pick_stream() {
  const std::size_t n = streams_.size();
  if (n == 0) return -1;
  // A stream is ready when it has a queued submission, its completion
  // ring has space, and it is not serving a quarantine penalty.
  const auto has_work = [&](std::size_t i) {
    const NvmeQueuePair& qp = *streams_[i].qp;
    return qp.sq_inflight() > 0 && qp.cq_pending() < qp.depth();
  };
  const auto ready = [&](std::size_t i) {
    return streams_[i].penalty == 0 && has_work(i);
  };
  const auto arbitrate = [&]() -> int {
    if (config_.policy == ArbitrationPolicy::kRoundRobin) {
      for (std::size_t k = 1; k <= n; ++k) {
        const std::size_t i = (cursor_ + k) % n;
        if (ready(i)) {
          cursor_ = i;
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    // kWeighted: one seeded draw per successful pick, proportional to
    // the attach weights of the currently ready streams.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ready(i)) total += streams_[i].weight;
    }
    if (total == 0) return -1;
    std::uint64_t r = rng_.next_below(total);
    for (std::size_t i = 0; i < n; ++i) {
      if (!ready(i)) continue;
      if (r < streams_[i].weight) {
        cursor_ = i;
        return static_cast<int>(i);
      }
      r -= streams_[i].weight;
    }
    RHSD_CHECK_MSG(false, "weighted draw out of range");
    return -1;
  };
  int pick = arbitrate();
  if (pick < 0) {
    if (penalized_ == 0) return -1;
    // Forward progress: when every stream with work is quarantined, the
    // loop must not report idle with commands still queued.  Force the
    // smallest remaining penalty open (lowest index on ties — a
    // deterministic choice) and re-arbitrate.
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (streams_[i].penalty == 0 || !has_work(i)) continue;
      if (best == n || streams_[i].penalty < streams_[best].penalty) {
        best = i;
      }
    }
    if (best == n) return -1;
    streams_[best].penalty = 0;
    streams_[best].failures = 0;
    --penalized_;
    ++stats_.quarantine_releases;
    pick = arbitrate();
    RHSD_CHECK_MSG(pick >= 0, "forced release must yield a pick");
  }
  // Serving a pick burns exactly one quarantine tick on every penalized
  // stream — including picks that needed a forced release — so the
  // drain sits on the one path that returns a pick.  It stops as soon
  // as no stream is left penalized.
  for (std::size_t i = 0; i < n && penalized_ > 0; ++i) {
    Stream& st = streams_[i];
    if (st.penalty > 0 && --st.penalty == 0) {
      --penalized_;
      ++stats_.quarantine_releases;
    }
  }
  return pick;
}

void NvmeEventLoop::process_one(std::uint32_t stream) {
  NvmeQueuePair& qp = *streams_[stream].qp;
  Ftl& ftl = controller_.ftl();
  if (ftl.read_only()) {
    const NvmeCommand* head = qp.peek_submission();
    if (head != nullptr && (head->op == NvmeCommand::Op::kWrite ||
                            head->op == NvmeCommand::Op::kTrim)) {
      ++stats_.degraded_rejections;
    }
  }
  const std::uint64_t exhausted_before = qp.queue_stats().retry_exhausted;
  qp.process(1);
  ++stats_.commands;
  observe_device();
  if (config_.quarantine &&
      qp.queue_stats().retry_exhausted != exhausted_before) {
    apply_quarantine(stream);
  }
}

void NvmeEventLoop::apply_quarantine(std::uint32_t stream) {
  Stream& st = streams_[stream];
  ++st.failures;
  const std::uint32_t shift = std::min(st.failures - 1, 31u);
  std::uint64_t penalty =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(
                                  config_.quarantine_base_picks)
                                  << shift,
                              config_.quarantine_cap_picks);
  // Seeded jitter decorrelates tenants that fail in lockstep.  It runs
  // on its own SplitMix64 stream — never rng_ — so quarantine does not
  // perturb the kWeighted draw sequence.
  std::uint64_t mix = config_.seed ^
                      (0x9E3779B97F4A7C15ull * (stream + 1ull)) ^
                      (0xBF58476D1CE4E5B9ull * st.failures);
  penalty += SplitMix64(mix) % (config_.quarantine_base_picks + 1ull);
  // Only a just-picked stream gets here, and a picked stream is never
  // penalized, so this is always a 0 -> penalty transition.
  RHSD_CHECK(st.penalty == 0);
  if (penalty > 0) ++penalized_;
  st.penalty = penalty;
  ++stats_.quarantines;
}

void NvmeEventLoop::observe_device() {
  Ftl& ftl = controller_.ftl();
  const int health = ftl.powered_off()      ? 3
                     : ftl.needs_recovery() ? 2
                     : ftl.read_only()      ? 1
                                            : 0;
  if (last_health_ >= 0 && health != last_health_) {
    ++stats_.device_transitions;
  }
  last_health_ = health;
}

std::uint64_t NvmeEventLoop::run_until_idle() {
  std::uint64_t retired = 0;
  for (;;) {
    const int s = pick_stream();
    if (s < 0) break;
    process_one(static_cast<std::uint32_t>(s));
    ++retired;
  }
  return retired;
}

}  // namespace rhsd
