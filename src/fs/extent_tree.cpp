#include "fs/extent_tree.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/crc32c.hpp"

namespace rhsd::fs {
namespace {

constexpr std::uint32_t kRootBytes = kInodeBlockSlots * 4;  // 60
/// Deepest tree Load() accepts (ext4's EXT4_MAX_EXTENT_DEPTH).
constexpr std::uint16_t kMaxDepth = 5;

void ReadHeader(const std::uint8_t* p, ExtentHeader& h) {
  std::memcpy(&h, p, sizeof(h));
}
void WriteHeader(std::uint8_t* p, const ExtentHeader& h) {
  std::memcpy(p, &h, sizeof(h));
}

Extent FromLeaf(const ExtentLeaf& leaf) {
  return Extent{leaf.logical, leaf.len,
                (static_cast<std::uint64_t>(leaf.start_hi) << 32) |
                    leaf.start_lo};
}

ExtentLeaf ToLeaf(const Extent& e) {
  ExtentLeaf leaf;
  leaf.logical = e.logical;
  leaf.len = e.len;
  leaf.start_hi = static_cast<std::uint16_t>(e.physical >> 32);
  leaf.start_lo = static_cast<std::uint32_t>(e.physical);
  return leaf;
}

}  // namespace

void ExtentTree::InitRoot(InodeDisk& inode) {
  std::memset(inode.block, 0, sizeof(inode.block));
  ExtentHeader h{};
  h.magic = kExtentMagic;
  h.entries = 0;
  h.max_entries = kRootMaxEntries;
  h.depth = 0;
  h.generation = inode.generation;
  WriteHeader(reinterpret_cast<std::uint8_t*>(inode.block), h);
}

std::uint32_t ExtentTree::NodeChecksum(
    const ExtentCsumCtx& ctx, std::span<const std::uint8_t> node_prefix) {
  std::uint8_t seed_bytes[16];
  std::memcpy(seed_bytes, &ctx.uuid, 8);
  std::memcpy(seed_bytes + 8, &ctx.ino, 4);
  std::memcpy(seed_bytes + 12, &ctx.generation, 4);
  const std::uint32_t seed = Crc32c(seed_bytes);
  return Crc32c(node_prefix, seed);
}

Status ExtentTree::LoadNode(BlockDevice& dev, const ExtentCsumCtx& ctx,
                            std::uint64_t block, std::uint16_t depth,
                            std::vector<Extent>& out) {
  std::array<std::uint8_t, kFsBlockSize> buf;
  RHSD_RETURN_IF_ERROR(dev.read_block(block, buf));

  ExtentHeader h;
  ReadHeader(buf.data(), h);
  if (h.magic != kExtentMagic) {
    return Corruption("extent node " + std::to_string(block) +
                      ": bad magic");
  }
  if (h.entries > h.max_entries || h.max_entries > kNodeMaxEntries) {
    return Corruption("extent node " + std::to_string(block) +
                      ": bad entry counts");
  }
  // Verify the trailing checksum over everything before the tail.
  ExtentTail tail;
  std::memcpy(&tail, buf.data() + kFsBlockSize - sizeof(tail),
              sizeof(tail));
  const std::uint32_t expect = NodeChecksum(
      ctx, std::span(buf.data(), kFsBlockSize - sizeof(tail)));
  if (tail.checksum != expect) {
    return Corruption("extent node " + std::to_string(block) +
                      ": checksum mismatch");
  }
  // Each level sits exactly one below its parent (ext4_ext_check): a
  // checksum-valid node cannot point back up the tree or at itself.
  if (h.depth != depth) {
    return Corruption("extent node " + std::to_string(block) + ": depth " +
                      std::to_string(h.depth) + ", expected " +
                      std::to_string(depth));
  }

  const std::uint8_t* entries = buf.data() + sizeof(ExtentHeader);
  if (h.depth == 0) {
    for (std::uint16_t i = 0; i < h.entries; ++i) {
      ExtentLeaf leaf;
      std::memcpy(&leaf, entries + i * sizeof(leaf), sizeof(leaf));
      out.push_back(FromLeaf(leaf));
    }
    return Status::Ok();
  }
  for (std::uint16_t i = 0; i < h.entries; ++i) {
    ExtentIndex idx;
    std::memcpy(&idx, entries + i * sizeof(idx), sizeof(idx));
    const std::uint64_t child =
        (static_cast<std::uint64_t>(idx.leaf_hi) << 32) | idx.leaf_lo;
    RHSD_RETURN_IF_ERROR(LoadNode(
        dev, ctx, child, static_cast<std::uint16_t>(depth - 1), out));
  }
  return Status::Ok();
}

StatusOr<std::vector<Extent>> ExtentTree::Load(BlockDevice& dev,
                                               const InodeDisk& inode,
                                               const ExtentCsumCtx& ctx) {
  const auto* root = reinterpret_cast<const std::uint8_t*>(inode.block);
  ExtentHeader h;
  ReadHeader(root, h);
  if (h.magic != kExtentMagic) {
    return Corruption("inode " + std::to_string(ctx.ino) +
                      ": bad extent root magic");
  }
  if (h.entries > h.max_entries || h.max_entries > kRootMaxEntries) {
    return Corruption("inode " + std::to_string(ctx.ino) +
                      ": bad extent root entry counts");
  }
  if (h.depth > kMaxDepth) {
    return Corruption("inode " + std::to_string(ctx.ino) +
                      ": extent tree too deep");
  }
  std::vector<Extent> extents;
  const std::uint8_t* entries = root + sizeof(ExtentHeader);
  if (h.depth == 0) {
    for (std::uint16_t i = 0; i < h.entries; ++i) {
      ExtentLeaf leaf;
      std::memcpy(&leaf, entries + i * sizeof(leaf), sizeof(leaf));
      extents.push_back(FromLeaf(leaf));
    }
  } else {
    for (std::uint16_t i = 0; i < h.entries; ++i) {
      ExtentIndex idx;
      std::memcpy(&idx, entries + i * sizeof(idx), sizeof(idx));
      const std::uint64_t child =
          (static_cast<std::uint64_t>(idx.leaf_hi) << 32) | idx.leaf_lo;
      RHSD_RETURN_IF_ERROR(LoadNode(
          dev, ctx, child, static_cast<std::uint16_t>(h.depth - 1), extents));
    }
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.logical < b.logical;
            });
  return extents;
}

Status ExtentTree::FreeNodes(BlockDevice& dev, const InodeDisk& inode,
                             const BlockFreeFn& free) {
  // Only depth-1 trees own node blocks (Store never builds deeper).
  const auto* root = reinterpret_cast<const std::uint8_t*>(inode.block);
  ExtentHeader h;
  ReadHeader(root, h);
  if (h.magic != kExtentMagic || h.depth == 0) return Status::Ok();
  const std::uint8_t* entries = root + sizeof(ExtentHeader);
  for (std::uint16_t i = 0; i < std::min(h.entries, kRootMaxEntries); ++i) {
    ExtentIndex idx;
    std::memcpy(&idx, entries + i * sizeof(idx), sizeof(idx));
    const std::uint64_t child =
        (static_cast<std::uint64_t>(idx.leaf_hi) << 32) | idx.leaf_lo;
    if (h.depth > 1) {
      // Defensive: free grandchildren too if a deeper tree is found.
      std::array<std::uint8_t, kFsBlockSize> buf;
      RHSD_RETURN_IF_ERROR(dev.read_block(child, buf));
      ExtentHeader ch;
      ReadHeader(buf.data(), ch);
      if (ch.magic == kExtentMagic && ch.depth > 0) {
        const std::uint8_t* centries = buf.data() + sizeof(ExtentHeader);
        for (std::uint16_t j = 0;
             j < std::min(ch.entries, kNodeMaxEntries); ++j) {
          ExtentIndex cidx;
          std::memcpy(&cidx, centries + j * sizeof(cidx), sizeof(cidx));
          free((static_cast<std::uint64_t>(cidx.leaf_hi) << 32) |
               cidx.leaf_lo);
        }
      }
    }
    free(child);
  }
  return Status::Ok();
}

Status ExtentTree::Clear(BlockDevice& dev, InodeDisk& inode,
                         const BlockFreeFn& free) {
  RHSD_RETURN_IF_ERROR(FreeNodes(dev, inode, free));
  InitRoot(inode);
  return Status::Ok();
}

Status ExtentTree::Store(BlockDevice& dev, InodeDisk& inode,
                         const ExtentCsumCtx& ctx,
                         std::span<const Extent> extents,
                         const BlockAllocFn& alloc,
                         const BlockFreeFn& free) {
  RHSD_RETURN_IF_ERROR(FreeNodes(dev, inode, free));

  std::memset(inode.block, 0, sizeof(inode.block));
  auto* root = reinterpret_cast<std::uint8_t*>(inode.block);

  if (extents.size() <= kRootMaxEntries) {
    ExtentHeader h{};
    h.magic = kExtentMagic;
    h.entries = static_cast<std::uint16_t>(extents.size());
    h.max_entries = kRootMaxEntries;
    h.depth = 0;
    h.generation = inode.generation;
    WriteHeader(root, h);
    std::uint8_t* out = root + sizeof(ExtentHeader);
    for (const Extent& e : extents) {
      const ExtentLeaf leaf = ToLeaf(e);
      std::memcpy(out, &leaf, sizeof(leaf));
      out += sizeof(leaf);
    }
    return Status::Ok();
  }

  // Depth-1 tree: split extents across checksummed leaf blocks.
  const std::size_t per_leaf = kNodeMaxEntries;
  const std::size_t num_leaves = (extents.size() + per_leaf - 1) / per_leaf;
  if (num_leaves > kRootMaxEntries) {
    return ResourceExhausted("file too fragmented for the extent tree");
  }

  ExtentHeader rh{};
  rh.magic = kExtentMagic;
  rh.entries = static_cast<std::uint16_t>(num_leaves);
  rh.max_entries = kRootMaxEntries;
  rh.depth = 1;
  rh.generation = inode.generation;
  WriteHeader(root, rh);
  std::uint8_t* out = root + sizeof(ExtentHeader);

  std::size_t pos = 0;
  for (std::size_t l = 0; l < num_leaves; ++l) {
    const std::size_t count = std::min(per_leaf, extents.size() - pos);
    RHSD_ASSIGN_OR_RETURN(const std::uint64_t node_block, alloc());

    std::array<std::uint8_t, kFsBlockSize> buf{};
    ExtentHeader lh{};
    lh.magic = kExtentMagic;
    lh.entries = static_cast<std::uint16_t>(count);
    lh.max_entries = kNodeMaxEntries;
    lh.depth = 0;
    lh.generation = inode.generation;
    WriteHeader(buf.data(), lh);
    std::uint8_t* lout = buf.data() + sizeof(ExtentHeader);
    for (std::size_t i = 0; i < count; ++i) {
      const ExtentLeaf leaf = ToLeaf(extents[pos + i]);
      std::memcpy(lout, &leaf, sizeof(leaf));
      lout += sizeof(leaf);
    }
    ExtentTail tail;
    tail.checksum = NodeChecksum(
        ctx, std::span(buf.data(), kFsBlockSize - sizeof(tail)));
    std::memcpy(buf.data() + kFsBlockSize - sizeof(tail), &tail,
                sizeof(tail));
    RHSD_RETURN_IF_ERROR(dev.write_block(node_block, buf));

    ExtentIndex idx{};
    idx.logical = extents[pos].logical;
    idx.leaf_lo = static_cast<std::uint32_t>(node_block);
    idx.leaf_hi = static_cast<std::uint16_t>(node_block >> 32);
    std::memcpy(out, &idx, sizeof(idx));
    out += sizeof(idx);
    pos += count;
  }
  return Status::Ok();
}

std::uint64_t ExtentTree::Lookup(std::span<const Extent> extents,
                                 std::uint32_t logical) {
  // Extents are sorted by logical start; binary-search the candidate.
  auto it = std::upper_bound(
      extents.begin(), extents.end(), logical,
      [](std::uint32_t v, const Extent& e) { return v < e.logical; });
  if (it == extents.begin()) return 0;
  --it;
  if (logical < it->logical + it->len) {
    return it->physical + (logical - it->logical);
  }
  return 0;
}

void ExtentTree::InsertBlock(std::vector<Extent>& extents,
                             std::uint32_t logical, std::uint64_t physical) {
  auto it = std::upper_bound(
      extents.begin(), extents.end(), logical,
      [](std::uint32_t v, const Extent& e) { return v < e.logical; });
  // Try to extend the preceding extent.
  if (it != extents.begin()) {
    Extent& prev = *(it - 1);
    RHSD_CHECK_MSG(logical >= prev.logical + prev.len,
                   "InsertBlock over an existing mapping");
    if (prev.logical + prev.len == logical &&
        prev.physical + prev.len == physical && prev.len < 0x7FFF) {
      ++prev.len;
      return;
    }
  }
  // Try to prepend to the following extent.
  if (it != extents.end() && it->logical == logical + 1 &&
      it->physical == physical + 1 && it->len < 0x7FFF) {
    --it->logical;
    --it->physical;
    ++it->len;
    return;
  }
  extents.insert(it, Extent{logical, 1, physical});
}

}  // namespace rhsd::fs
