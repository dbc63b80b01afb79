#include "fs/indirect.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace rhsd::fs {
namespace {

constexpr std::uint64_t kL1Span = kPtrsPerBlock;                  // 1024
constexpr std::uint64_t kL2Span = kL1Span * kPtrsPerBlock;        // 2^20
constexpr std::uint64_t kL3Span = kL2Span * kPtrsPerBlock;        // 2^30

/// Index of `file_block`'s pointer within its level-1 table (the block
/// must be indirect-addressed, i.e. >= kDirectBlocks).
std::uint32_t L1IndexOf(std::uint32_t file_block) {
  std::uint64_t fb =
      static_cast<std::uint64_t>(file_block) - kDirectBlocks;
  if (fb < kL1Span) return static_cast<std::uint32_t>(fb);
  fb -= kL1Span;
  if (fb < kL2Span) return static_cast<std::uint32_t>(fb % kL1Span);
  fb -= kL2Span;
  return static_cast<std::uint32_t>(fb % kL1Span);
}

}  // namespace

std::uint64_t IndirectMapper::max_file_blocks() {
  return kDirectBlocks + kL1Span + kL2Span + kL3Span;
}

StatusOr<std::uint32_t> IndirectMapper::load_ptr(std::uint64_t table_block,
                                                 std::uint32_t index) {
  std::array<std::uint8_t, kFsBlockSize> buf;
  RHSD_RETURN_IF_ERROR(dev_.read_block(table_block, buf));
  std::uint32_t value;
  std::memcpy(&value, buf.data() + index * 4, 4);
  return value;
}

Status IndirectMapper::store_ptr(std::uint64_t table_block,
                                 std::uint32_t index, std::uint32_t value) {
  std::array<std::uint8_t, kFsBlockSize> buf;
  RHSD_RETURN_IF_ERROR(dev_.read_block(table_block, buf));
  std::memcpy(buf.data() + index * 4, &value, 4);
  return dev_.write_block(table_block, buf);
}

StatusOr<std::pair<std::uint64_t, std::uint32_t>> IndirectMapper::locate(
    std::uint32_t file_block, bool alloc) {
  // Determine the chain of table levels for this file block.
  std::uint64_t fb = file_block;
  RHSD_CHECK(fb >= kDirectBlocks);
  fb -= kDirectBlocks;

  std::uint32_t root_slot;
  std::uint32_t depth;  // tables between the inode slot and the pointer
  std::uint32_t path[2] = {0, 0};
  std::uint32_t l1_index;
  if (fb < kL1Span) {
    root_slot = kIndirectSlot;
    depth = 0;
    l1_index = static_cast<std::uint32_t>(fb);
  } else if (fb < kL1Span + kL2Span) {
    fb -= kL1Span;
    root_slot = kDoubleSlot;
    depth = 1;
    path[0] = static_cast<std::uint32_t>(fb / kL1Span);
    l1_index = static_cast<std::uint32_t>(fb % kL1Span);
  } else if (fb < kL1Span + kL2Span + kL3Span) {
    fb -= kL1Span + kL2Span;
    root_slot = kTripleSlot;
    depth = 2;
    path[0] = static_cast<std::uint32_t>(fb / kL2Span);
    path[1] = static_cast<std::uint32_t>((fb % kL2Span) / kL1Span);
    l1_index = static_cast<std::uint32_t>(fb % kL1Span);
  } else {
    return OutOfRange("file block beyond triple-indirect reach");
  }

  // Walk/grow from the inode slot down to the level-1 table.
  std::uint32_t table = inode_.block[root_slot];
  if (table == 0) {
    if (!alloc) return std::pair<std::uint64_t, std::uint32_t>{0, 0};
    RHSD_ASSIGN_OR_RETURN(const std::uint64_t fresh, alloc_());
    const std::array<std::uint8_t, kFsBlockSize> zero{};
    RHSD_RETURN_IF_ERROR(dev_.write_block(fresh, zero));
    table = static_cast<std::uint32_t>(fresh);
    inode_.block[root_slot] = table;
  }
  for (std::uint32_t level = 0; level < depth; ++level) {
    RHSD_ASSIGN_OR_RETURN(std::uint32_t next,
                          load_ptr(table, path[level]));
    if (next == 0) {
      if (!alloc) return std::pair<std::uint64_t, std::uint32_t>{0, 0};
      RHSD_ASSIGN_OR_RETURN(const std::uint64_t fresh, alloc_());
      const std::array<std::uint8_t, kFsBlockSize> zero{};
      RHSD_RETURN_IF_ERROR(dev_.write_block(fresh, zero));
      next = static_cast<std::uint32_t>(fresh);
      RHSD_RETURN_IF_ERROR(store_ptr(table, path[level], next));
    }
    table = next;
  }
  return std::pair<std::uint64_t, std::uint32_t>{table, l1_index};
}

StatusOr<std::uint64_t> IndirectMapper::get(std::uint32_t file_block) {
  if (file_block < kDirectBlocks) {
    return static_cast<std::uint64_t>(inode_.block[file_block]);
  }
  RHSD_ASSIGN_OR_RETURN(const auto loc, locate(file_block, /*alloc=*/false));
  if (loc.first == 0) return std::uint64_t{0};
  RHSD_ASSIGN_OR_RETURN(const std::uint32_t ptr,
                        load_ptr(loc.first, loc.second));
  return static_cast<std::uint64_t>(ptr);
}

std::vector<std::uint64_t> IndirectMapper::get_run(std::uint32_t first,
                                                   std::uint32_t count) {
  std::vector<std::uint64_t> phys(count, 0);
  std::uint32_t i = 0;
  for (; i < count && first + i < kDirectBlocks; ++i) {
    phys[i] = inode_.block[first + i];
  }
  std::array<std::uint8_t, kFsBlockSize> table;
  while (i < count) {
    const std::uint32_t fb = first + i;
    if (static_cast<std::uint64_t>(fb) >= max_file_blocks()) {
      for (; i < count; ++i) phys[i] = kUnreadable;
      break;
    }
    // Consecutive file blocks share a level-1 table until its pointer
    // index wraps; resolve and read the table once for the whole run.
    const std::uint32_t l1 = L1IndexOf(fb);
    const auto run = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count - i, kL1Span - l1));
    const auto loc = locate(fb, /*alloc=*/false);
    if (!loc.ok()) {
      for (std::uint32_t j = 0; j < run; ++j) phys[i + j] = kUnreadable;
    } else if (loc->first == 0) {
      // Absent chain: every block under this table is a hole (already 0).
    } else if (!dev_.read_block(loc->first, table).ok()) {
      for (std::uint32_t j = 0; j < run; ++j) phys[i + j] = kUnreadable;
    } else {
      for (std::uint32_t j = 0; j < run; ++j) {
        std::uint32_t ptr;
        std::memcpy(&ptr, table.data() + (l1 + j) * 4, 4);
        phys[i + j] = ptr;
      }
    }
    i += run;
  }
  return phys;
}

StatusOr<std::uint64_t> IndirectMapper::get_or_alloc(
    std::uint32_t file_block) {
  if (file_block < kDirectBlocks) {
    if (inode_.block[file_block] == 0) {
      RHSD_ASSIGN_OR_RETURN(const std::uint64_t fresh, alloc_());
      inode_.block[file_block] = static_cast<std::uint32_t>(fresh);
    }
    return static_cast<std::uint64_t>(inode_.block[file_block]);
  }
  RHSD_ASSIGN_OR_RETURN(const auto loc, locate(file_block, /*alloc=*/true));
  RHSD_ASSIGN_OR_RETURN(std::uint32_t ptr, load_ptr(loc.first, loc.second));
  if (ptr == 0) {
    RHSD_ASSIGN_OR_RETURN(const std::uint64_t fresh, alloc_());
    ptr = static_cast<std::uint32_t>(fresh);
    RHSD_RETURN_IF_ERROR(store_ptr(loc.first, loc.second, ptr));
  }
  return static_cast<std::uint64_t>(ptr);
}

StatusOr<std::uint64_t> IndirectMapper::l1_indirect_block(
    std::uint32_t file_block) {
  if (file_block < kDirectBlocks) return std::uint64_t{0};
  RHSD_ASSIGN_OR_RETURN(const auto loc, locate(file_block, /*alloc=*/false));
  return loc.first;
}

Status IndirectMapper::free_tree(std::uint32_t table_block,
                                 std::uint32_t depth) {
  std::array<std::uint8_t, kFsBlockSize> buf;
  RHSD_RETURN_IF_ERROR(dev_.read_block(table_block, buf));
  for (std::uint32_t i = 0; i < kPtrsPerBlock; ++i) {
    std::uint32_t ptr;
    std::memcpy(&ptr, buf.data() + i * 4, 4);
    if (ptr == 0) continue;
    if (depth > 0) {
      RHSD_RETURN_IF_ERROR(free_tree(ptr, depth - 1));
    }
    free_(ptr);
  }
  return Status::Ok();
}

Status IndirectMapper::free_all() {
  for (std::uint32_t i = 0; i < kDirectBlocks; ++i) {
    if (inode_.block[i] != 0) {
      free_(inode_.block[i]);
      inode_.block[i] = 0;
    }
  }
  const struct {
    std::uint32_t slot;
    std::uint32_t depth;
  } roots[] = {{kIndirectSlot, 0}, {kDoubleSlot, 1}, {kTripleSlot, 2}};
  for (const auto& root : roots) {
    if (inode_.block[root.slot] == 0) continue;
    RHSD_RETURN_IF_ERROR(free_tree(inode_.block[root.slot], root.depth));
    free_(inode_.block[root.slot]);
    inode_.block[root.slot] = 0;
  }
  return Status::Ok();
}

}  // namespace rhsd::fs
