// Extent-tree file mapping (the checksummed, modern ext4 path).
//
// "By default, ext4 inodes index file blocks using an extent tree. To
// prevent metadata corruptions, the extent tree is protected by CRC-32C
// checksum." (§4.2)  Load() verifies every on-disk node's checksum and
// fails with Corruption on mismatch — which is why the Figure 3 exploit
// has to go through the legacy indirect path instead.
//
// Shape follows ext4: the root node lives inside the inode's i_block
// area (up to 4 entries); deeper nodes are whole blocks ending in an
// ExtentTail checksum keyed by (fs uuid, inode number, generation).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "fs/block_device.hpp"
#include "fs/layout.hpp"

namespace rhsd::fs {

struct Extent {
  std::uint32_t logical = 0;
  std::uint16_t len = 0;
  std::uint64_t physical = 0;

  friend bool operator==(const Extent&, const Extent&) = default;
};

/// Checksum context, mirroring ext4's metadata_csum seed.
struct ExtentCsumCtx {
  std::uint64_t uuid = 0;
  std::uint32_t ino = 0;
  std::uint32_t generation = 0;
};

using BlockAllocFn = std::function<StatusOr<std::uint64_t>()>;
using BlockFreeFn = std::function<void(std::uint64_t)>;

class ExtentTree {
 public:
  /// Initialize an empty depth-0 root inside the inode.
  static void InitRoot(InodeDisk& inode);

  /// Walk the tree and replace `out` with its (sorted) extent list;
  /// `out` is the caller's, so a reused vector costs no allocation per
  /// call.  Verifies node magic, checksums and depths (each node one
  /// below its parent, at most 5 levels), so a corrupt tree cannot
  /// recurse without bound.  On error `out` holds no usable list.
  static Status Load(BlockDevice& dev, const InodeDisk& inode,
                     const ExtentCsumCtx& ctx, std::vector<Extent>& out);

  /// Rewrite the tree to hold exactly `extents`.  Frees the old node
  /// blocks and allocates new ones as needed (depth 0 or 1).
  static Status Store(BlockDevice& dev, InodeDisk& inode,
                      const ExtentCsumCtx& ctx,
                      std::span<const Extent> extents,
                      const BlockAllocFn& alloc, const BlockFreeFn& free);

  /// Free the tree's node blocks (not the data blocks) and reset the
  /// root to empty.
  static Status Clear(BlockDevice& dev, InodeDisk& inode,
                      const BlockFreeFn& free);

  /// Physical block backing `logical`, or 0 for a hole.
  [[nodiscard]] static std::uint64_t Lookup(std::span<const Extent> extents,
                                            std::uint32_t logical);

  /// Insert a single-block mapping, merging with neighbors when the run
  /// is contiguous.  `extents` stays sorted by logical.
  static void InsertBlock(std::vector<Extent>& extents,
                          std::uint32_t logical, std::uint64_t physical);

  /// Node checksum as stored in ExtentTail.
  [[nodiscard]] static std::uint32_t NodeChecksum(
      const ExtentCsumCtx& ctx, std::span<const std::uint8_t> node_prefix);

 private:
  /// Load the node at `block`, which its parent places at `depth`;
  /// a node whose header says otherwise is Corruption.
  static Status LoadNode(BlockDevice& dev, const ExtentCsumCtx& ctx,
                         std::uint64_t block, std::uint16_t depth,
                         std::vector<Extent>& out);
  static Status FreeNodes(BlockDevice& dev, const InodeDisk& inode,
                          const BlockFreeFn& free);
};

}  // namespace rhsd::fs
