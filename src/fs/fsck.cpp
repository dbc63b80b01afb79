#include "fs/fsck.hpp"

#include <cstring>
#include <unordered_map>
#include <vector>

#include "fs/indirect.hpp"

namespace rhsd::fs {
namespace {

/// Tracks which blocks are referenced and by whom, to catch double use.
class BlockRefs {
 public:
  explicit BlockRefs(std::uint64_t total) : owner_(total, 0) {}

  /// Returns false (and records nothing) if out of range.
  bool claim(std::uint64_t block, std::uint32_t ino,
             std::vector<std::string>& errors) {
    if (block >= owner_.size()) {
      errors.push_back("inode " + std::to_string(ino) +
                       " references out-of-range block " +
                       std::to_string(block));
      return false;
    }
    if (owner_[block] != 0) {
      errors.push_back("block " + std::to_string(block) +
                       " multiply claimed by inodes " +
                       std::to_string(owner_[block]) + " and " +
                       std::to_string(ino));
      return false;
    }
    owner_[block] = ino;
    return true;
  }

  [[nodiscard]] bool claimed(std::uint64_t block) const {
    return block < owner_.size() && owner_[block] != 0;
  }

 private:
  std::vector<std::uint32_t> owner_;
};

void CheckIndirectTree(FileSystem& fs, std::uint32_t ino,
                       std::uint32_t table_block, std::uint32_t depth,
                       BlockRefs& refs, FsckReport& report) {
  if (!refs.claim(table_block, ino, report.errors)) return;
  ++report.mapped_blocks;
  std::vector<std::uint8_t> buf(kFsBlockSize);
  if (!fs.device().read_block(table_block, buf).ok()) {
    report.errors.push_back("inode " + std::to_string(ino) +
                            ": unreadable indirect block " +
                            std::to_string(table_block));
    return;
  }
  for (std::uint32_t i = 0; i < kPtrsPerBlock; ++i) {
    std::uint32_t ptr;
    std::memcpy(&ptr, buf.data() + i * 4, 4);
    if (ptr == 0) continue;
    if (depth > 0) {
      CheckIndirectTree(fs, ino, ptr, depth - 1, refs, report);
    } else {
      if (refs.claim(ptr, ino, report.errors)) ++report.mapped_blocks;
      if (ptr < fs.super().data_start || ptr >= fs.super().total_blocks) {
        report.errors.push_back("inode " + std::to_string(ino) +
                                ": indirect pointer outside data zone (" +
                                std::to_string(ptr) + ")");
      }
    }
  }
}

}  // namespace

FsckReport Fsck::Check(FileSystem& fs) {
  FsckReport report;
  const SuperblockDisk& super = fs.super();
  BlockRefs refs(super.total_blocks);

  // Metadata zone is implicitly owned by the filesystem.
  for (std::uint64_t b = 0; b < super.data_start; ++b) {
    refs.claim(b, /*ino=*/1, report.errors);  // ino 1 = reserved
    if (!fs.block_in_use(b)) {
      report.errors.push_back("metadata block " + std::to_string(b) +
                              " not marked in block bitmap");
    }
  }

  std::unordered_map<std::uint32_t, std::uint32_t> link_counts;
  std::vector<Extent> extents;

  for (std::uint32_t ino = 2; ino <= super.inode_count; ++ino) {
    if (!fs.inode_in_use(ino)) continue;
    ++report.inodes_checked;
    auto inode_or = fs.load_inode(ino);
    if (!inode_or.ok()) {
      report.errors.push_back("inode " + std::to_string(ino) +
                              ": unreadable");
      continue;
    }
    InodeDisk inode = std::move(inode_or).value();
    if (!IsDir(inode) && !IsReg(inode)) {
      report.errors.push_back("inode " + std::to_string(ino) +
                              ": unknown type (mode " +
                              std::to_string(inode.mode) + ")");
      continue;
    }
    if (IsDir(inode)) {
      ++report.directories;
    } else {
      ++report.files;
    }

    if (UsesExtents(inode)) {
      const ExtentCsumCtx ctx{super.uuid, ino, inode.generation};
      const Status loaded =
          ExtentTree::Load(fs.device(), inode, ctx, extents);
      if (!loaded.ok()) {
        report.errors.push_back("inode " + std::to_string(ino) + ": " +
                                loaded.to_string());
        continue;
      }
      std::uint32_t prev_end = 0;
      bool first = true;
      for (const Extent& e : extents) {
        if (!first && e.logical < prev_end) {
          report.errors.push_back("inode " + std::to_string(ino) +
                                  ": overlapping extents");
        }
        first = false;
        prev_end = e.logical + e.len;
        for (std::uint32_t i = 0; i < e.len; ++i) {
          if (refs.claim(e.physical + i, ino, report.errors)) {
            ++report.mapped_blocks;
          }
          if (e.physical + i < super.data_start) {
            report.errors.push_back("inode " + std::to_string(ino) +
                                    ": extent inside metadata zone");
          }
        }
      }
      // Claim depth-1 tree node blocks.
      ExtentHeader h;
      std::memcpy(&h, inode.block, sizeof(h));
      if (h.magic == kExtentMagic && h.depth >= 1) {
        const auto* root = reinterpret_cast<const std::uint8_t*>(
            inode.block);
        for (std::uint16_t i = 0;
             i < std::min(h.entries, kRootMaxEntries); ++i) {
          ExtentIndex idx;
          std::memcpy(&idx, root + sizeof(h) + i * sizeof(idx),
                      sizeof(idx));
          const std::uint64_t child =
              (static_cast<std::uint64_t>(idx.leaf_hi) << 32) |
              idx.leaf_lo;
          if (refs.claim(child, ino, report.errors)) {
            ++report.mapped_blocks;
          }
        }
      }
    } else {
      // Legacy mapping: walk without checksums (there are none — that
      // is the vulnerability) but sanity-check the pointer ranges.
      for (std::uint32_t i = 0; i < kDirectBlocks; ++i) {
        if (inode.block[i] == 0) continue;
        if (refs.claim(inode.block[i], ino, report.errors)) {
          ++report.mapped_blocks;
        }
      }
      const struct {
        std::uint32_t slot;
        std::uint32_t depth;
      } roots[] = {{kIndirectSlot, 0}, {kDoubleSlot, 1}, {kTripleSlot, 2}};
      for (const auto& r : roots) {
        if (inode.block[r.slot] == 0) continue;
        CheckIndirectTree(fs, ino, inode.block[r.slot], r.depth, refs,
                          report);
      }
    }

    // Every mapped block must be marked allocated.
    // (Covered per-claim above for range; bitmap check here.)
    if (IsDir(inode)) {
      auto entries = fs.dir_list(ino, inode);
      if (!entries.ok()) {
        report.errors.push_back("inode " + std::to_string(ino) +
                                ": unreadable directory");
      } else {
        for (const DirEntry& e : *entries) {
          if (e.ino < 1 || e.ino > super.inode_count) {
            report.errors.push_back("dirent '" + e.name +
                                    "' points at bad inode " +
                                    std::to_string(e.ino));
            continue;
          }
          if (!fs.inode_in_use(e.ino)) {
            report.errors.push_back("dirent '" + e.name +
                                    "' points at free inode " +
                                    std::to_string(e.ino));
          }
          if (e.name != "." && e.name != "..") ++link_counts[e.ino];
        }
      }
    }
  }

  // Orphans: inodes in use but never referenced by a directory.
  for (std::uint32_t ino = 3; ino <= super.inode_count; ++ino) {
    if (fs.inode_in_use(ino) && link_counts.find(ino) == link_counts.end()) {
      report.errors.push_back("inode " + std::to_string(ino) +
                              " allocated but unreachable");
    }
  }

  // Blocks marked used in the bitmap must be claimed by someone.
  for (std::uint64_t b = super.data_start; b < super.total_blocks; ++b) {
    if (fs.block_in_use(b) && !refs.claimed(b)) {
      report.errors.push_back("block " + std::to_string(b) +
                              " marked used but unreferenced");
    }
    if (!fs.block_in_use(b) && refs.claimed(b)) {
      report.errors.push_back("block " + std::to_string(b) +
                              " referenced but marked free");
    }
  }
  return report;
}

}  // namespace rhsd::fs
