#include "dram/trr.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

namespace rhsd {
namespace {

// Cap on the number of distinct (parity, table) states remembered while
// hunting for a cycle in the transient.  Pathological histories (e.g. a
// wrapped counter draining one decrement at a time) never repeat a
// state; past the cap we stop recording and fall back to plain
// stepping, which is still no slower than the scalar path.
constexpr std::size_t kMaxCycleStates = 4096;

template <typename Entry>
std::string SerializeState(std::span<const Entry> table,
                           std::uint64_t parity) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  entries.reserve(table.size());
  for (const Entry& entry : table) entries.emplace_back(entry.row, entry.count);
  std::sort(entries.begin(), entries.end());
  std::string key;
  key.reserve(8 + entries.size() * 12);
  // Full-width parity: multi-row patterns use the position within a
  // period (up to rows * repeat) here, not just a 0/1 bit.
  for (int s = 0; s < 64; s += 8) {
    key.push_back(static_cast<char>((parity >> s) & 0xff));
  }
  for (const auto& [row, count] : entries) {
    for (int s = 0; s < 32; s += 8) {
      key.push_back(static_cast<char>((row >> s) & 0xff));
    }
    for (int s = 0; s < 64; s += 8) {
      key.push_back(static_cast<char>((count >> s) & 0xff));
    }
  }
  return key;
}

}  // namespace

TrrTracker::TrrTracker(TrrConfig config, std::uint32_t num_banks)
    : config_(config), sizes_(num_banks, 0) {
  RHSD_CHECK(config_.trackers_per_bank > 0);
  RHSD_CHECK(config_.activation_threshold > 0);
  entries_.resize(static_cast<std::size_t>(num_banks) *
                  config_.trackers_per_bank);
}

TrrTracker::Entry* TrrTracker::find(std::uint32_t bank, std::uint32_t row) {
  for (Entry& entry : table(bank)) {
    if (entry.row == row) return &entry;
  }
  return nullptr;
}

std::optional<std::uint32_t> TrrTracker::on_activate(std::uint32_t bank,
                                                     std::uint32_t row) {
  RHSD_CHECK(bank < sizes_.size());
  if (Entry* entry = find(bank, row)) {
    if (++entry->count >= config_.activation_threshold) {
      // Fire a targeted refresh at this aggressor's neighbors and
      // restart its count.
      entry->count = 0;
      ++refreshes_issued_;
      return row;
    }
    return std::nullopt;
  }

  std::uint32_t& size = sizes_[bank];
  Entry* const slots = table(bank).data();
  if (size < config_.trackers_per_bank) {
    slots[size++] = Entry{row, 1};
    return std::nullopt;
  }

  // Misra–Gries decrement step: an untracked row arrives while the table
  // is full — decrement everyone, dropping exhausted entries.  This is
  // the bounded-capacity behaviour that many-sided hammering exploits.
  // A count a fire just restarted at 0 wraps to ~0 here and stays.
  // (Each entry is decremented in a register and stored once: a store
  // of the count read back as a whole entry stalls store forwarding.)
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < size; ++i) {
    const Entry entry{slots[i].row, slots[i].count - 1};
    if (entry.count != 0) slots[kept++] = entry;
  }
  size = kept;
  return std::nullopt;
}

TrrTracker::Fold TrrTracker::fold(std::uint64_t& count, std::uint64_t n) {
  // A counter at c fires on its (threshold - c)-th increment and every
  // threshold-th one after (on_activate's pre-increment compare); one at
  // or past the threshold fires on its first; the ~0 a decrement leaves
  // behind when it wraps a just-fired 0 first wraps to 0, without firing.
  const std::uint64_t threshold = config_.activation_threshold;
  if (n == 0) return Fold{};
  std::uint64_t j1;
  if (count == ~0ull) {
    j1 = 1 + threshold;
  } else if (count >= threshold) {
    j1 = 1;
  } else {
    j1 = threshold - count;
  }
  const std::uint64_t fires = n >= j1 ? 1 + (n - j1) / threshold : 0;
  if (fires == 0) {
    count += n;  // wrapping add matches repeated wrapping ++
  } else {
    count = n - j1 - (fires - 1) * threshold;
  }
  refreshes_issued_ += fires;
  return Fold{j1, fires};
}

TrrRowFires TrrTracker::advance_row(std::uint32_t bank, std::uint32_t row,
                                    std::uint64_t events) {
  RHSD_CHECK(bank < sizes_.size());
  if (events == 0) return TrrRowFires{};
  std::uint64_t e = 1;  // 1-based index of the next activation
  Entry* entry = find(bank, row);
  if (entry == nullptr) {
    std::uint32_t& size = sizes_[bank];
    Entry* const slots = table(bank).data();
    if (size == config_.trackers_per_bank) {
      // Every activation of the untracked row decrements all entries, so
      // the first slot frees after c_min of them, c_min the smallest
      // nonzero count.  A 0 count (a fire just restarted it) wraps to ~0
      // at its first decrement and never runs out within a batch.
      std::uint64_t steps = events;
      for (std::uint32_t i = 0; i < size; ++i) {
        if (slots[i].count != 0) steps = std::min(steps, slots[i].count);
      }
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < size; ++i) {
        const Entry next{slots[i].row, slots[i].count - steps};
        if (next.count != 0) slots[kept++] = next;
      }
      size = kept;
      e += steps;
      if (e > events) return TrrRowFires{};
    }
    // The inserting activation counts 1 and never fires.
    RHSD_CHECK(size < config_.trackers_per_bank);
    slots[size] = Entry{row, 1};
    entry = &slots[size++];
    ++e;
  }
  const Fold f = fold(entry->count, events - e + 1);
  if (f.fires == 0) return TrrRowFires{};
  return TrrRowFires{.first = e + f.first - 1,
                     .every = config_.activation_threshold,
                     .count = f.fires};
}

std::vector<TrrEmission> TrrTracker::advance(std::uint32_t bank,
                                             std::uint32_t row_a,
                                             std::uint32_t row_b,
                                             std::uint64_t events) {
  RHSD_CHECK(bank < sizes_.size());
  RHSD_CHECK_MSG(row_a != row_b, "one-row batches go through advance_row()");
  std::vector<TrrEmission> out;
  const std::uint64_t threshold = config_.activation_threshold;

  const auto steady = [&] {
    return find(bank, row_a) != nullptr && find(bank, row_b) != nullptr;
  };

  // Phase 1: replay the transient one activation at a time until the
  // table absorbs both pattern rows.  The decrement dynamics can also
  // settle into a non-absorbing cycle (e.g. a single tracker thrashed
  // by two rows) — detect a repeated (parity, table) state and
  // fast-forward whole periods by replaying the recorded emissions.
  std::unordered_map<std::string, std::pair<std::uint64_t, std::size_t>>
      seen;  // state key -> (activation index, emissions recorded)
  bool detect = true;
  std::uint64_t e = 1;
  while (e <= events && !steady()) {
    if (detect && e > kScalarStepsBeforeDetect) {
      const std::string key = SerializeState<Entry>(table(bank), e % 2);
      const auto [it, inserted] =
          seen.emplace(key, std::make_pair(e, out.size()));
      if (!inserted) {
        const std::uint64_t period = e - it->second.first;
        const std::size_t pat_begin = it->second.second;
        const std::size_t pat_len = out.size() - pat_begin;
        const std::uint64_t full = (events - e + 1) / period;
        for (std::uint64_t rep = 1; rep <= full; ++rep) {
          for (std::size_t i = 0; i < pat_len; ++i) {
            const TrrEmission& em = out[pat_begin + i];
            out.push_back(TrrEmission{em.index + rep * period, em.row});
          }
        }
        refreshes_issued_ += full * pat_len;
        e += full * period;
        // The sub-period tail replays step by step below.
        detect = false;
        seen.clear();
      } else if (seen.size() > kMaxCycleStates) {
        detect = false;
        seen.clear();
      }
    }
    if (e > events) break;
    const std::uint32_t row = e % 2 != 0 ? row_a : row_b;
    if (auto fired = on_activate(bank, row)) {
      out.push_back(TrrEmission{e, *fired});
    }
    ++e;
  }

  if (e <= events) {
    // Phase 2: both rows tracked, so every remaining activation is a
    // pure increment of that row's counter: row a at the odd events,
    // row b at the even ones.
    const auto fold_row = [&](std::uint32_t row, std::uint64_t first_index) {
      const std::uint64_t n =
          first_index > events ? 0 : (events - first_index) / 2 + 1;
      const Fold f = fold(find(bank, row)->count, n);
      for (std::uint64_t k = 0; k < f.fires; ++k) {
        out.push_back(TrrEmission{
            first_index + (f.first - 1 + k * threshold) * 2, row});
      }
    };
    fold_row(row_a, e % 2 != 0 ? e : e + 1);
    fold_row(row_b, e % 2 == 0 ? e : e + 1);
    // Interleave the two rows' emission streams; phase-1 emissions all
    // precede `e`, so sorting the whole vector is stable with respect to
    // them.
    std::sort(out.begin(), out.end(),
              [](const TrrEmission& x, const TrrEmission& y) {
                return x.index < y.index;
              });
  }
  return out;
}

std::vector<TrrEmission> TrrTracker::advance_cmds(
    std::uint32_t bank, std::span<const std::uint32_t> cmd_rows,
    std::uint64_t repeat, std::uint64_t events) {
  RHSD_CHECK(bank < sizes_.size());
  RHSD_CHECK(!cmd_rows.empty());
  RHSD_CHECK(repeat > 0);
  std::vector<TrrEmission> out;
  const std::uint64_t threshold = config_.activation_threshold;
  const std::uint64_t m = cmd_rows.size();
  const std::uint64_t period = m * repeat;  // activations per pattern period

  std::vector<std::uint32_t> distinct(cmd_rows.begin(), cmd_rows.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const auto steady = [&] {
    for (const std::uint32_t r : distinct) {
      if (find(bank, r) == nullptr) return false;
    }
    return true;
  };
  const auto row_at = [&](std::uint64_t e) {  // e is 1-based
    return cmd_rows[((e - 1) / repeat) % m];
  };

  // Phase 1: scalar transient with cycle detection.  The state key
  // includes the position within the pattern period, so a repeated key
  // implies the cycle length is a multiple of the period and the
  // recorded emissions replay verbatim.
  std::unordered_map<std::string, std::pair<std::uint64_t, std::size_t>>
      seen;  // state key -> (activation index, emissions recorded)
  bool detect = true;
  std::uint64_t e = 1;
  while (e <= events && !steady()) {
    if (detect && e > kScalarStepsBeforeDetect) {
      const std::string key =
          SerializeState<Entry>(table(bank), (e - 1) % period);
      const auto [it, inserted] =
          seen.emplace(key, std::make_pair(e, out.size()));
      if (!inserted) {
        const std::uint64_t cycle = e - it->second.first;
        const std::size_t pat_begin = it->second.second;
        const std::size_t pat_len = out.size() - pat_begin;
        const std::uint64_t full = (events - e + 1) / cycle;
        for (std::uint64_t rep = 1; rep <= full; ++rep) {
          for (std::size_t i = 0; i < pat_len; ++i) {
            const TrrEmission& em = out[pat_begin + i];
            out.push_back(TrrEmission{em.index + rep * cycle, em.row});
          }
        }
        refreshes_issued_ += full * pat_len;
        e += full * cycle;
        detect = false;
        seen.clear();
      } else if (seen.size() > kMaxCycleStates) {
        detect = false;
        seen.clear();
      }
    }
    if (e > events) break;
    if (auto fired = on_activate(bank, row_at(e))) {
      out.push_back(TrrEmission{e, *fired});
    }
    ++e;
  }

  if (e <= events) {
    // Steady: every remaining activation is a pure increment.  First
    // step scalar to a period boundary (at most one period, and each
    // step stays steady), then fold whole periods per distinct row.
    while (e <= events && (e - 1) % period != 0) {
      if (auto fired = on_activate(bank, row_at(e))) {
        out.push_back(TrrEmission{e, *fired});
      }
      ++e;
    }
    if (e <= events) {
      const std::uint64_t e0 = e;  // activation at pattern position 0
      const std::uint64_t remaining = events - e0 + 1;
      const std::uint64_t full = remaining / period;
      const std::uint64_t rem = remaining % period;
      for (const std::uint32_t row : distinct) {
        // Own-activation positions of `row` within one period.
        std::vector<std::uint64_t> pos;
        for (std::uint64_t c = 0; c < m; ++c) {
          if (cmd_rows[c] != row) continue;
          for (std::uint64_t j = 0; j < repeat; ++j) {
            pos.push_back(c * repeat + j);
          }
        }
        const std::uint64_t m_r = pos.size();
        std::uint64_t tail = 0;
        for (const std::uint64_t p : pos) {
          if (p < rem) ++tail;
        }
        const Fold f = fold(find(bank, row)->count, full * m_r + tail);
        for (std::uint64_t k = 0; k < f.fires; ++k) {
          const std::uint64_t j = f.first + k * threshold;  // own, 1-based
          const std::uint64_t q = (j - 1) / m_r;
          const std::uint64_t i = (j - 1) % m_r;
          out.push_back(TrrEmission{e0 + q * period + pos[i], row});
        }
      }
      std::sort(out.begin(), out.end(),
                [](const TrrEmission& x, const TrrEmission& y) {
                  return x.index < y.index;
                });
    }
  }
  return out;
}

void TrrTracker::reset() { std::fill(sizes_.begin(), sizes_.end(), 0u); }

}  // namespace rhsd
