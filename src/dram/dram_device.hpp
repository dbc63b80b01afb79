// Functional DRAM device with rowhammer disturbance.
//
// Backs real bytes (lazily, per row), counts row activations per refresh
// window, and applies the DisturbanceModel on every activation: when the
// effective exposure of an adjacent victim row crosses a vulnerable
// cell's threshold, the stored bit decays to its failure value.  Flips
// therefore corrupt whatever the row currently holds — in the SSD
// configuration, the FTL's L2P table — organically rather than by fault
// injection.
//
// Two execution paths produce identical results:
//  * the scalar path — activations one at a time, each with its own
//    victim check (hammer_pair_scalar()/hammer_row_scalar(), and a
//    single-touch read()/write());
//  * the batched fast path — hammer_pair()/hammer_row() and a multi-touch
//    read()/write() coalesce a run of activations whose interleaving is
//    known (the FTL's per-I/O hammer amplification, the attack
//    orchestrator's aggressor loops) into one row-state update plus a
//    single closed-form victim check per refresh-window segment.  The
//    fast path is bit-exact with the scalar path: same seed, same
//    FlipEvent sequence, same DramStats.
//
// Optional mitigations (all off by default, matching the paper's
// testbed): SECDED ECC, TRR, a CPU cache in front of the arrays, and a
// refresh-interval override.  TRR and PARA have per-activation state,
// but under the fixed a,b,a,b,... pattern of a hammer batch (or the
// a,a,a,... of a one-row batch) that state evolves deterministically:
// the batched path replays the TRR tracker analytically
// (TrrTracker::advance_row / advance), draws the PARA decisions in
// scalar RNG order, and runs the closed-form victim check on the
// segments between the resulting targeted refreshes — still bit-exact
// with the scalar path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "dram/address_mapper.hpp"
#include "dram/cache_model.hpp"
#include "dram/disturbance_model.hpp"
#include "dram/profiles.hpp"
#include "dram/trr.hpp"
#include "fault/fault_injector.hpp"

namespace rhsd {

struct DramMitigations {
  bool ecc = false;
  bool trr = false;
  TrrConfig trr_config;
  std::optional<CacheConfig> cache;
  /// PARA (probabilistic adjacent row activation): on each activation,
  /// refresh the neighbors with this probability.  0 disables.  Unlike
  /// TRR there is no tracker state to thrash, so many-sided patterns
  /// gain nothing; the cost is a steady refresh overhead on every
  /// access.
  double para_probability = 0.0;
  /// 0 = use profile's refresh interval; otherwise override (ms).
  double refresh_interval_ms_override = 0.0;
};

/// Row-buffer management policy of the memory controller.
enum class RowBufferPolicy {
  /// Precharge after every access: each access is a fresh activation.
  /// Typical for simple embedded controllers (and what makes §3.1's
  /// one-location variant viable).
  kClosedPage,
  /// Keep the row open: back-to-back accesses to the same row hit the
  /// row buffer and do NOT re-activate — one-location hammering stops
  /// working, alternating (double-sided) patterns are unaffected since
  /// they force a conflict on every access.
  kOpenPage,
};

struct DramConfig {
  DramGeometry geometry;
  DramProfile profile;
  std::uint64_t seed = 1;
  RowBufferPolicy row_buffer_policy = RowBufferPolicy::kClosedPage;
  DramMitigations mitigations;
};

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t activations = 0;
  std::uint64_t row_buffer_hits = 0;  // open-page policy only
  std::uint64_t bitflips = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_uncorrectable = 0;
  std::uint64_t trr_refreshes = 0;
  std::uint64_t para_refreshes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t injected_bit_errors = 0;  // fault-injected soft errors
};

/// A byte range of one row in which a batched pattern replay must not
/// produce a disturbance flip (it would feed back into the replayed
/// commands themselves — e.g. an L2P entry the pattern keeps reading).
/// hammer_pattern() aborts without side effects if a flip lands inside.
struct PatternHazard {
  std::uint64_t global_row = 0;
  std::uint32_t byte_lo = 0;  // inclusive
  std::uint32_t byte_hi = 0;  // exclusive
};

/// One disturbance-induced bitflip, for scanning and experiment output.
struct FlipEvent {
  std::uint64_t time_ns = 0;
  std::uint64_t global_row = 0;
  std::uint32_t byte_offset = 0;  // within the row
  std::uint8_t bit = 0;
  std::uint8_t new_value = 0;
};

class DramDevice {
 public:
  /// `clock` must outlive the device. The mapper's geometry must equal
  /// config.geometry.
  DramDevice(DramConfig config, std::unique_ptr<AddressMapper> mapper,
             SimClock& clock);

  DramDevice(const DramDevice&) = delete;
  DramDevice& operator=(const DramDevice&) = delete;

  /// Read bytes, `touches` (>= 1) times back to back: the FTL's per-I/O
  /// hammer amplification re-reads one L2P entry.  Each touch activates
  /// the rows of the span (unless the cache absorbs it).  Returns
  /// Corruption if ECC detects an uncorrectable error; touches after the
  /// failing one do not happen.
  ///
  /// Bit-exact with `touches` single-touch calls, except that several
  /// touches of a span in one row with no cache consult the fault
  /// injector once per call, not once per touch.  That case is one batch:
  /// the first touch's fault tick, ECC verify and copy, then the
  /// touches' activations as one one-row batch (hammer_row_batch() under
  /// closed-page policy).  A row's own activations never
  /// disturb that row, so its ECC check and copy commute with them.  If
  /// that ECC check fails, the call counts one read and one activation,
  /// like the failing single-touch read.  A cache (whose state evolves
  /// per access) or a span crossing a row (one row's activations disturb
  /// the other's bytes) replays touch by touch instead.
  Status read(DramAddr addr, std::span<std::uint8_t> out,
              std::uint64_t touches = 1);

  /// Write bytes `touches` (>= 1) times; every touch activates the rows
  /// of the span.  Bit-exact with `touches` single-touch calls: in one
  /// row with no cache the rewrites of identical bytes are idempotent
  /// and only their activations are replayed, as one batch.
  Status write(DramAddr addr, std::span<const std::uint8_t> data,
               std::uint64_t touches = 1);

  /// Batched fast path: `pairs` alternating activations of the two
  /// aggressors (a, b, a, b, ... — 2*pairs accesses), equivalent to the
  /// scalar loop `for pairs { activate(a); activate(b); }` but with one
  /// victim check per neighbor instead of one per activation.
  void hammer_pair(std::uint64_t row_a, std::uint64_t row_b,
                   std::uint64_t pairs);
  /// Batched fast path: `count` back-to-back accesses of one row
  /// (one-location hammering).
  void hammer_row(std::uint64_t global_row, std::uint64_t count);

  /// Scalar reference implementations of the two batched entry points:
  /// one activation at a time, one victim check per activation.  Used
  /// by the parity tests and the microbenchmarks; always produce the
  /// same FlipEvents and DramStats as the batched versions.
  void hammer_pair_scalar(std::uint64_t row_a, std::uint64_t row_b,
                          std::uint64_t pairs);
  void hammer_row_scalar(std::uint64_t global_row, std::uint64_t count);

  /// Batched replay of an FTL read-pattern chunk: command c (0-based,
  /// c < n_cmds) activates rows[c % rows.size()] `repeat` times, i.e.
  /// the activation stream is rows[0]*repeat, rows[1]*repeat, ...,
  /// wrapping around the pattern — exactly what `n_cmds` scalar
  /// unmapped-L2P reads with per-I/O hammer amplification produce.
  /// `cmd_time_ns[c]` is the simulated time of command c's DRAM work
  /// (used to stamp FlipEvents and to place each command in its refresh
  /// window).  Commands may span refresh-window boundaries: the replay
  /// splits the stream into maximal same-window runs internally, and a
  /// run in a window beyond the clock's current one starts from zeroed
  /// per-window counters, baselines, and a freshly reset TRR tracker —
  /// exactly what the scalar walk's roll_window() would produce.  The
  /// first command must fall in the clock's current refresh window.
  /// Preconditions: closed-page policy, no cache.  Bit-exact with the
  /// scalar loop: same flips in the same order, same DramStats, same
  /// TRR/PARA state.
  ///
  /// Returns false and leaves the device completely untouched if a flip
  /// would land inside one of `hazards` — the caller must then replay
  /// the chunk through the scalar path (the flip feeds back into data
  /// the pattern reads, which only the scalar path models).
  [[nodiscard]] bool hammer_pattern(std::span<const std::uint64_t> rows,
                                    std::uint64_t n_cmds,
                                    std::uint64_t repeat,
                                    std::span<const std::uint64_t> cmd_time_ns,
                                    std::span<const PatternHazard> hazards);

  /// Replay-accounting hooks for the FTL's batched pattern path.  Each
  /// mirrors exactly the bookkeeping the equivalent scalar read() calls
  /// would have performed, without re-running them.
  ///
  /// Bump DramStats::reads by `n` (the scalar path counts one per read()
  /// call; hammer_pattern() replays only the activations).
  void account_pattern_reads(std::uint64_t n) { stats_.reads += n; }
  /// True when a cache is configured and `addr`'s line is resident (so a
  /// read of it is a guaranteed hit that activates nothing).
  [[nodiscard]] bool cache_resident(DramAddr addr) const {
    return cache_.has_value() && cache_->contains(addr);
  }
  /// Batched all-hit cache replay: account `hits` cache hits (each one
  /// also a read), then stamp line `lines[i]` with LRU time
  /// `use_counter_before + rel_stamps[i]` — the stamp its last scalar
  /// access would have left.  Preconditions: cache configured, every
  /// line resident.
  void account_cache_pattern(std::span<const DramAddr> lines,
                             std::span<const std::uint64_t> rel_stamps,
                             std::uint64_t hits);
  /// True when the SECDED state of `[byte_lo, byte_hi)` in `global_row`
  /// is consistent (a scalar read's ECC verify would be a no-op).  Rows
  /// never materialized are clean by construction.  Pure check.
  [[nodiscard]] bool ecc_clean(std::uint64_t global_row,
                               std::uint32_t byte_lo,
                               std::uint32_t byte_hi) const;
  /// Injected-read-fault lookahead/skip, for fault-aligned batching:
  /// read() ticks FaultClass::kDramBitError once per call, so a batched
  /// replay of n fault-free reads must skip n ops to stay aligned.
  /// Returns how many read() ticks away the next injected bit error is
  /// (0 = the very next read), or FaultInjector::kNoFault.
  [[nodiscard]] std::uint64_t injected_read_faults_away() const;
  void skip_injected_read_faults(std::uint64_t n) {
    if (injector_ != nullptr) {
      injector_->skip_ops(FaultClass::kDramBitError, n);
    }
  }

  /// Inspect memory without activations, stats, or ECC (for tests and
  /// experiment harnesses, not part of the modeled device interface).
  void peek(DramAddr addr, std::span<std::uint8_t> out) const;
  /// peek() with the address already decoded: read `out.size()` bytes at
  /// `offset` within `global_row` (must not cross the row end).  Lets
  /// bulk table walks — the FTL's integrity scrub — skip the per-call
  /// address decode.
  void peek_row(std::uint64_t global_row, std::uint32_t offset,
                std::span<std::uint8_t> out) const;
  /// Modify memory without activations; updates ECC check bits.
  void poke(DramAddr addr, std::span<const std::uint8_t> data);

  /// Global row id of the row holding `addr`: the same value as
  /// `mapper().decode(addr).global_row(geometry)`, read from a table the
  /// constructor fills (every mapper keeps a row's bytes in one row, so
  /// the row id depends only on `addr / row_bytes`).
  [[nodiscard]] std::uint64_t global_row_of(DramAddr addr) const {
    const std::uint64_t index = addr.value() / config_.geometry.row_bytes;
    RHSD_CHECK_MSG(index < row_table_.size(), "DRAM address out of range");
    return row_table_[index];
  }

  [[nodiscard]] const DramConfig& config() const { return config_; }
  [[nodiscard]] const AddressMapper& mapper() const { return *mapper_; }
  [[nodiscard]] const SimClock& clock() const { return clock_; }
  [[nodiscard]] const DramStats& stats() const { return stats_; }
  [[nodiscard]] DisturbanceModel& disturbance() { return disturbance_; }

  [[nodiscard]] const std::vector<FlipEvent>& flip_events() const {
    return flip_events_;
  }
  void clear_flip_events() { flip_events_.clear(); }

  /// Monotonic signature of stored-content mutations: host writes,
  /// committed disturbance flips, ECC in-place corrections, injected
  /// soft errors, and debug pokes.  Two equal readings prove the memory
  /// content is unchanged between them — the FTL's integrity scrub uses
  /// this to skip re-verifying a table nothing has touched.
  [[nodiscard]] std::uint64_t content_epoch() const {
    return stats_.writes + stats_.bitflips + stats_.ecc_corrected +
           stats_.injected_bit_errors + pokes_;
  }

  /// Activations of `global_row` in the current refresh window.
  [[nodiscard]] std::uint64_t row_activations(std::uint64_t global_row);

  /// Refresh interval actually in effect (ns).
  [[nodiscard]] std::uint64_t refresh_window_ns() const {
    return window_ns_;
  }

  /// Attach a fault injector (nullptr detaches).  Consulted once per
  /// read(); an injected FaultClass::kDramBitError flips one stored bit
  /// without updating the check bytes — indistinguishable from a
  /// disturbance flip to the ECC machinery.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// TRR refreshes fired so far (0 when TRR is off).
  [[nodiscard]] std::uint64_t trr_refreshes_issued() const {
    return trr_.has_value() ? trr_->refreshes_issued() : 0;
  }
  /// PARA RNG stream position, for replay parity checks.
  [[nodiscard]] const Rng& para_rng_state() const { return para_rng_; }

 private:
  /// Lazily allocated backing store of one row.
  struct RowData {
    std::vector<std::uint8_t> data;
    std::vector<std::uint8_t> ecc;  // one check byte per 8 data bytes
  };

  /// Exposure baselines: neighbor activation counts at the last
  /// targeted refresh of a row (TRR/PARA), valid only within `window`.
  /// The `2` pair covers distance-2 neighbors (Half-Double).  A stale
  /// window (or a row never refreshed) reads as all-zero baselines.
  struct RefreshBases {
    std::uint64_t window = ~0ull;
    std::uint64_t left = 0;
    std::uint64_t right = 0;
    std::uint64_t left2 = 0;
    std::uint64_t right2 = 0;
  };

  /// A bitflip produced inside a batched hammer, waiting for the global
  /// (event, check-slot) sort that restores scalar emission order.
  struct PendingFlip {
    std::uint64_t event = 0;  // 1-based activation index within the batch
    int slot = 0;             // victim check order within one activation
    FlipEvent flip;
  };

  [[nodiscard]] std::uint64_t current_window() const {
    return clock_.now_ns() / window_ns_;
  }

  void roll_window(std::uint64_t global_row);
  RowData& materialize(std::uint64_t global_row);
  /// The row's baselines as seen in refresh window `window`.
  [[nodiscard]] RefreshBases bases_of(std::uint64_t global_row,
                                      std::uint64_t window) const {
    if (refresh_bases_.empty()) return RefreshBases{};
    const RefreshBases& bases = refresh_bases_[global_row];
    return bases.window == window ? bases : RefreshBases{};
  }
  void set_bases(std::uint64_t global_row, const RefreshBases& bases);
  /// One touch of read()/write(): each row of the span in turn is
  /// activated, then read (ECC-verified) or written.
  Status read_touch(DramAddr addr, std::span<std::uint8_t> out);
  Status write_touch(DramAddr addr, std::span<const std::uint8_t> data);
  /// read()'s per-call fault tick: an injected kDramBitError flips one
  /// stored bit inside the span.
  void tick_read_fault(DramAddr addr, std::size_t size);
  /// One PARA decision from the global RNG (one draw per decision for
  /// p in (0,1); p >= 1 decides true without drawing).
  [[nodiscard]] bool para_decide();

  /// Per-window activation count, rolling the window first.
  std::uint64_t acts_now(std::uint64_t global_row);

  void activate(std::uint64_t global_row);
  /// A victim's exposure, the one formula every victim check uses: its
  /// neighbors' per-window counts (left, right and, under Half-Double,
  /// left2, right2) net of its refresh baselines.
  [[nodiscard]] double exposure_of(std::uint64_t left, std::uint64_t right,
                                   std::uint64_t left2, std::uint64_t right2,
                                   const RefreshBases& bases) const;
  void check_victim(std::uint64_t victim_global_row);
  void target_refresh_neighbors(std::uint64_t aggressor_global_row,
                                std::uint32_t distance);

  /// One targeted refresh of a victim row inside a batch: the 1-based
  /// activation index at which it fired, and the re-baselined counts it
  /// left behind.  The victim check treats the batch as segments
  /// between consecutive refreshes, each with its own baselines.
  struct VictimRefresh {
    std::uint64_t event = 0;
    RefreshBases bases;
  };

  /// Batched core: the access sequence a, b, a, b, ... for `events`
  /// accesses (a == b means one-location).  One code path per shape:
  /// open-page policy reduces to its row-buffer hits first; then a
  /// closed-page one-row batch goes to hammer_row_batch(), and every
  /// two-row batch to the two-row replay (mitigated or plain).
  void hammer_events(std::uint64_t a, std::uint64_t b, std::uint64_t events);
  /// One-row kernel: `n` closed-page activations of row `a` (the FTL's
  /// per-L2P-access hammer amplification, one-location hammering).  One
  /// window read for the whole batch, the closed-form TRR step
  /// (TrrTracker::advance_row), PARA drawn inline one decision per
  /// activation, and one segment walk per victim.  Allocates only when a
  /// refresh fires or a cell flips.
  void hammer_row_batch(std::uint64_t a, std::uint64_t n);
  /// Two-row dispatch (a != b): every event is a real activation; routes
  /// to the mitigated replay when TRR/PARA is configured, else the plain
  /// fast path.
  void hammer_events_all_activations(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t events);
  /// Two-row fast path proper: every event is a real activation
  /// (precondition: a != b, no TRR/PARA; closed page, or open page with
  /// a conflict per access).
  void hammer_events_fast(std::uint64_t a, std::uint64_t b,
                          std::uint64_t events);
  /// Two-row mitigated fast path: same preconditions as
  /// hammer_events_fast minus the no-TRR/PARA one.  Replays the tracker
  /// analytically and the PARA stream in scalar draw order, then checks
  /// victims per refresh segment.
  void hammer_events_mitigated(std::uint64_t a, std::uint64_t b,
                               std::uint64_t events);
  /// The distinct rows within disturbance distance of a or b, in the
  /// order the two-row paths check them.  Returns how many.
  int pair_victims(std::uint64_t a, std::uint64_t b,
                   std::uint64_t (&victims)[8]) const;
  /// Closed-form victim check of a two-row batch; `refreshes` holds the
  /// victim's in-batch targeted refreshes in ascending event order
  /// (empty when no mitigation touched it).  Appends any flips (tagged
  /// with their event index) to `pending`.
  void check_victim_batched(std::uint64_t victim, std::uint64_t a,
                            std::uint64_t b, std::uint64_t events,
                            std::uint64_t a0_a, std::uint64_t a0_b,
                            std::span<const VictimRefresh> refreshes,
                            std::vector<PendingFlip>& pending);
  /// The segment walk every batched victim check shares: over events
  /// 1..`events`, the victim has `checks` check events, the k-th
  /// (1-based) at event_of(k); checks_up_to(e) counts those at or
  /// before e; exposure_at(e, bases) is its exposure at check event e
  /// under one segment's baselines.  Segments run between consecutive
  /// `refreshes` (the first one starts from `bases`); in each, a cell
  /// flips at the first check whose exposure reaches its threshold
  /// (binary search), or, when two crossing cells alias one bit, per
  /// event as the scalar path does.  Each flip is applied to the row and
  /// reported as emit(cell, event).
  template <typename EventOf, typename ChecksUpTo, typename ExposureAt,
            typename Emit>
  void walk_victim_segments(std::uint64_t victim, std::uint64_t events,
                            std::uint64_t checks, RefreshBases bases,
                            std::span<const VictimRefresh> refreshes,
                            const EventOf& event_of,
                            const ChecksUpTo& checks_up_to,
                            const ExposureAt& exposure_at, const Emit& emit);
  /// Append a batch's flips in scalar emission order (by event, then by
  /// check slot within one activation) and count them.
  void commit_flips(std::vector<PendingFlip>& pending);

  /// Neighbor within the same bank, or nullopt at bank edges.
  [[nodiscard]] std::optional<std::uint64_t> neighbor(
      std::uint64_t global_row, int delta) const;

  Status verify_and_correct_ecc(RowData* rd, std::uint32_t first_byte,
                                std::uint32_t length, std::uint64_t row);
  void update_ecc(RowData& rd, std::uint32_t first_byte,
                  std::uint32_t length);

  DramConfig config_;
  std::unique_ptr<AddressMapper> mapper_;
  FaultInjector* injector_ = nullptr;
  SimClock& clock_;
  DisturbanceModel disturbance_;
  std::optional<TrrTracker> trr_;
  std::optional<CacheModel> cache_;
  std::uint64_t window_ns_ = 0;
  std::uint64_t trr_window_ = ~0ull;
  Rng para_rng_{0};  // re-seeded from config in the constructor
  /// Rng::bool_threshold(para_probability) when it lies in (0,1); the
  /// hot para_decide() path compares against this instead of re-doing
  /// the float comparison per draw.
  std::uint64_t para_threshold_ = 0;
  /// Open row per flat bank (kOpenPage policy); ~0 = none open.
  std::vector<std::uint64_t> open_rows_;
  DramStats stats_;
  std::vector<FlipEvent> flip_events_;
  std::uint64_t pokes_ = 0;  // content mutations via poke()
  /// global_row_of() table: entry k is the global row of the address
  /// range [k * row_bytes, (k + 1) * row_bytes).
  std::vector<std::uint32_t> row_table_;

  // Flat per-row hot state (indexed by global row id).  The activation
  // path touches only these three arrays plus the disturbance model's
  // flat caches — no hashing.
  std::vector<std::uint64_t> row_window_;  // ~0 = never touched
  std::vector<std::uint64_t> row_acts_;
  std::vector<std::unique_ptr<RowData>> row_data_;
  /// Targeted-refresh baselines per global row, window-stamped like
  /// row_window_.  Only TRR and PARA write them, so the table is
  /// allocated on the first targeted refresh (set_bases()); until then
  /// every row's baselines are zero.
  std::vector<RefreshBases> refresh_bases_;
};

}  // namespace rhsd
