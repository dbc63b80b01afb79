// Tests for the mini-ext4 filesystem: format/mount, namespace
// operations, data path with holes, both mapping schemes, permissions,
// checksum behaviour (extent trees verified, indirect blocks NOT — the
// §4.2 asymmetry), and fsck.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "fs/block_device.hpp"
#include "fs/extent_tree.hpp"
#include "fs/filesystem.hpp"
#include "fs/fsck.hpp"

namespace rhsd::fs {
namespace {

constexpr Credentials kRoot{0};
constexpr Credentials kAlice{1000};
constexpr Credentials kBob{1001};

struct FsRig {
  explicit FsRig(std::uint64_t blocks = 512, FormatOptions options = {})
      : dev(blocks) {
    auto formatted = FileSystem::Format(dev, options);
    RHSD_CHECK_MSG(formatted.ok(), "format failed: " << formatted.status());
    fs = std::move(formatted).value();
  }

  MemBlockDevice dev;
  std::unique_ptr<FileSystem> fs;
};

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string ReadAll(FileSystem& fs, const Credentials& cred,
                    std::uint32_t ino, std::size_t max = 1 << 16) {
  std::vector<std::uint8_t> buf(max);
  auto n = fs.read(cred, ino, 0, buf);
  RHSD_CHECK_MSG(n.ok(), n.status());
  return std::string(buf.begin(), buf.begin() + *n);
}

TEST(Format, ProducesMountableFilesystem) {
  MemBlockDevice dev(512);
  auto fs = FileSystem::Format(dev);
  ASSERT_TRUE(fs.ok()) << fs.status();
  // Remount from the same device.
  auto again = FileSystem::Mount(dev);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->super().total_blocks, 512u);
}

TEST(Format, TooSmallDeviceRejected) {
  MemBlockDevice dev(4);
  EXPECT_FALSE(FileSystem::Format(dev).ok());
}

TEST(Mount, RejectsGarbage) {
  MemBlockDevice dev(512);
  EXPECT_EQ(FileSystem::Mount(dev).status().code(),
            StatusCode::kCorruption);
}

TEST(Mount, RejectsCorruptSuperblockChecksum) {
  MemBlockDevice dev(512);
  ASSERT_TRUE(FileSystem::Format(dev).ok());
  std::vector<std::uint8_t> sb(kFsBlockSize);
  ASSERT_TRUE(dev.read_block(0, sb).ok());
  sb[40] ^= 0x01;  // flip a bit in the superblock body
  ASSERT_TRUE(dev.write_block(0, sb).ok());
  EXPECT_EQ(FileSystem::Mount(dev).status().code(),
            StatusCode::kCorruption);
}

TEST(Fs, CreateWriteRead) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/hello.txt", 0644);
  ASSERT_TRUE(ino.ok()) << ino.status();
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 0, Bytes("hello world")).ok());
  EXPECT_EQ(ReadAll(*rig.fs, kRoot, *ino), "hello world");
}

TEST(Fs, CreateDuplicateRejected) {
  FsRig rig;
  ASSERT_TRUE(rig.fs->create(kRoot, "/x", 0644).ok());
  EXPECT_EQ(rig.fs->create(kRoot, "/x", 0644).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(Fs, LookupAndStat) {
  FsRig rig;
  auto ino = rig.fs->create(kAlice, "/data", 0640);
  ASSERT_TRUE(ino.ok());
  auto found = rig.fs->lookup(kAlice, "/data");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ino);
  auto info = rig.fs->stat(*ino);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->uid, kAlice.uid);
  EXPECT_EQ(info->mode & 07777, 0640);
  EXPECT_EQ(info->size, 0u);
  EXPECT_TRUE(info->flags & kInodeFlagExtents);
}

TEST(Fs, LookupMissingIsNotFound) {
  FsRig rig;
  EXPECT_EQ(rig.fs->lookup(kRoot, "/nope").status().code(),
            StatusCode::kNotFound);
}

TEST(Fs, DirectoriesNestAndList) {
  FsRig rig;
  ASSERT_TRUE(rig.fs->mkdir(kRoot, "/a", 0755).ok());
  ASSERT_TRUE(rig.fs->mkdir(kRoot, "/a/b", 0755).ok());
  ASSERT_TRUE(rig.fs->create(kRoot, "/a/b/file", 0644).ok());
  auto entries = rig.fs->readdir(kRoot, "/a/b");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (const auto& e : *entries) names.insert(e.name);
  EXPECT_TRUE(names.count("."));
  EXPECT_TRUE(names.count(".."));
  EXPECT_TRUE(names.count("file"));
  EXPECT_EQ(names.size(), 3u);
}

TEST(Fs, UnlinkRemovesAndFreesSpace) {
  FsRig rig;
  const std::uint64_t free0 = rig.fs->free_blocks();
  auto ino = rig.fs->create(kRoot, "/big", 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::uint8_t> data(8 * kFsBlockSize, 0x5A);
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 0, data).ok());
  EXPECT_LT(rig.fs->free_blocks(), free0);
  ASSERT_TRUE(rig.fs->unlink(kRoot, "/big").ok());
  EXPECT_EQ(rig.fs->lookup(kRoot, "/big").status().code(),
            StatusCode::kNotFound);
  // All data blocks returned (the root dir block stays).
  EXPECT_GE(rig.fs->free_blocks(), free0 - 1);
}

TEST(Fs, UnlinkNonEmptyDirectoryRejected) {
  FsRig rig;
  ASSERT_TRUE(rig.fs->mkdir(kRoot, "/d", 0755).ok());
  ASSERT_TRUE(rig.fs->create(kRoot, "/d/f", 0644).ok());
  EXPECT_EQ(rig.fs->unlink(kRoot, "/d").code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(rig.fs->unlink(kRoot, "/d/f").ok());
  EXPECT_TRUE(rig.fs->unlink(kRoot, "/d").ok());
}

TEST(Fs, OverwriteInPlaceAndAppend) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 0, Bytes("aaaaaa")).ok());
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 2, Bytes("BB")).ok());
  EXPECT_EQ(ReadAll(*rig.fs, kRoot, *ino), "aaBBaa");
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 6, Bytes("cc")).ok());
  EXPECT_EQ(ReadAll(*rig.fs, kRoot, *ino), "aaBBaacc");
}

TEST(Fs, CrossBlockWritesAndReads) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/f", 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::uint8_t> data(3 * kFsBlockSize + 123);
  Rng rng(4);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 1000, data).ok());
  std::vector<std::uint8_t> out(data.size());
  auto n = rig.fs->read(kRoot, *ino, 1000, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
}

TEST(Fs, HolesReadAsZeros) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/sparse", 0644);
  ASSERT_TRUE(ino.ok());
  const std::uint64_t far = 20 * kFsBlockSize;
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, far, Bytes("end")).ok());
  auto info = rig.fs->stat(*ino);
  EXPECT_EQ(info->size, far + 3);
  // The hole blocks are not allocated.
  auto mapped = rig.fs->bmap(*ino, 3);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(*mapped, 0u);
  // And read back as zeros.
  std::vector<std::uint8_t> out(16, 0xFF);
  auto n = rig.fs->read(kRoot, *ino, 4096, out);
  ASSERT_TRUE(n.ok());
  for (auto b : out) EXPECT_EQ(b, 0);
}

TEST(Fs, TruncateToZeroFreesBlocks) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/t", 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<std::uint8_t> data(4 * kFsBlockSize, 1);
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 0, data).ok());
  const std::uint64_t free_before = rig.fs->free_blocks();
  ASSERT_TRUE(rig.fs->truncate(kRoot, *ino, 0).ok());
  EXPECT_GT(rig.fs->free_blocks(), free_before);
  EXPECT_EQ(rig.fs->stat(*ino)->size, 0u);
}

TEST(Fs, SparseTruncateGrowth) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/g", 0644);
  ASSERT_TRUE(ino.ok());
  const std::uint64_t free_before = rig.fs->free_blocks();
  ASSERT_TRUE(rig.fs->truncate(kRoot, *ino, 1 * kMiB).ok());
  EXPECT_EQ(rig.fs->stat(*ino)->size, 1 * kMiB);
  EXPECT_EQ(rig.fs->free_blocks(), free_before);  // no allocation
}

// ---- Permissions ----

TEST(Perm, OwnerAndOtherBits) {
  FsRig rig;
  auto ino = rig.fs->create(kAlice, "/alice.txt", 0600);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(rig.fs->write(kAlice, *ino, 0, Bytes("private")).ok());
  // Bob can't read or write.
  std::vector<std::uint8_t> buf(16);
  EXPECT_EQ(rig.fs->read(kBob, *ino, 0, buf).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(rig.fs->write(kBob, *ino, 0, Bytes("x")).code(),
            StatusCode::kPermissionDenied);
  // Root can.
  EXPECT_TRUE(rig.fs->read(kRoot, *ino, 0, buf).ok());
}

TEST(Perm, WorldReadableFile) {
  FsRig rig;
  auto ino = rig.fs->create(kAlice, "/pub", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(rig.fs->write(kAlice, *ino, 0, Bytes("shared")).ok());
  EXPECT_EQ(ReadAll(*rig.fs, kBob, *ino), "shared");
  EXPECT_EQ(rig.fs->write(kBob, *ino, 0, Bytes("nope")).code(),
            StatusCode::kPermissionDenied);
}

TEST(Perm, SecretFileScenario) {
  // The cloud case study's setup: a root-owned 0600 secret is opaque to
  // the unprivileged attacker process through the API.
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/root-id-rsa", 0600);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(
      rig.fs->write(kRoot, *ino, 0, Bytes("BEGIN PRIVATE KEY")).ok());
  std::vector<std::uint8_t> buf(64);
  EXPECT_EQ(rig.fs->read(kAlice, *ino, 0, buf).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(Perm, ChmodChown) {
  FsRig rig;
  auto ino = rig.fs->create(kAlice, "/f", 0600);
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(rig.fs->chown(kAlice, *ino, kBob.uid).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(rig.fs->chmod(kBob, *ino, 0777).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(rig.fs->chmod(kAlice, *ino, 0644).ok());
  ASSERT_TRUE(rig.fs->chown(kRoot, *ino, kBob.uid).ok());
  EXPECT_EQ(rig.fs->stat(*ino)->uid, kBob.uid);
}

TEST(Perm, DirectoryWriteNeededForCreateUnlink) {
  FsRig rig;
  ASSERT_TRUE(rig.fs->mkdir(kRoot, "/rootdir", 0755).ok());
  EXPECT_EQ(
      rig.fs->create(kAlice, "/rootdir/f", 0644).status().code(),
      StatusCode::kPermissionDenied);
  ASSERT_TRUE(rig.fs->create(kRoot, "/rootdir/f", 0644).ok());
  EXPECT_EQ(rig.fs->unlink(kAlice, "/rootdir/f").code(),
            StatusCode::kPermissionDenied);
}

// ---- Indirect vs extent mapping ----

TEST(Mapping, IndirectFileWithTwelveBlockHole) {
  // The paper's sprayed-file shape (§4.2): hole of 12 blocks, one data
  // block reached through a single indirect block.
  FsRig rig;
  auto ino = rig.fs->create(kAlice, "/spray0", 0644,
                            /*use_extents=*/false);
  ASSERT_TRUE(ino.ok());
  std::vector<std::uint8_t> payload(kFsBlockSize, 0xCD);
  ASSERT_TRUE(
      rig.fs->write(kAlice, *ino, 12ull * kFsBlockSize, payload).ok());
  // Direct blocks are all holes.
  for (std::uint32_t fb = 0; fb < 12; ++fb) {
    EXPECT_EQ(*rig.fs->bmap(*ino, fb), 0u) << fb;
  }
  // Block 12 is mapped through a real indirect block.
  auto ib = rig.fs->indirect_block_of(*ino, 12);
  ASSERT_TRUE(ib.ok());
  EXPECT_NE(*ib, 0u);
  auto data_block = rig.fs->bmap(*ino, 12);
  ASSERT_TRUE(data_block.ok());
  EXPECT_NE(*data_block, 0u);
  // Exactly indirect + data allocated for the content.
  std::vector<std::uint8_t> out(kFsBlockSize);
  auto n = rig.fs->read(kAlice, *ino, 12ull * kFsBlockSize, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, payload);
}

TEST(Mapping, ExtentFileHasNoIndirectBlocks) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/e", 0644, /*use_extents=*/true);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(rig.fs->write(kRoot, *ino, 0, Bytes("x")).ok());
  EXPECT_EQ(rig.fs->indirect_block_of(*ino, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Mapping, DoubleIndirectReach) {
  FsRig rig(4096);
  auto ino = rig.fs->create(kRoot, "/deep", 0644, /*use_extents=*/false);
  ASSERT_TRUE(ino.ok());
  // File block 12 + 1024 + 3 needs the double-indirect path.
  const std::uint64_t fb = 12 + 1024 + 3;
  ASSERT_TRUE(
      rig.fs->write(kRoot, *ino, fb * kFsBlockSize, Bytes("deep")).ok());
  std::vector<std::uint8_t> out(4);
  auto n = rig.fs->read(kRoot, *ino, fb * kFsBlockSize, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(out.begin(), out.end()), "deep");
  // Unlink walks and frees the whole chain.
  const std::uint64_t free_before = rig.fs->free_blocks();
  ASSERT_TRUE(rig.fs->unlink(kRoot, "/deep").ok());
  EXPECT_GT(rig.fs->free_blocks(), free_before);
}

TEST(Mapping, LargeExtentFileSpillsToTreeBlocks) {
  FsRig rig(4096);
  auto ino = rig.fs->create(kRoot, "/wide", 0644);
  ASSERT_TRUE(ino.ok());
  // Force > 4 extents by writing alternating far-apart blocks.
  for (std::uint32_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(rig.fs
                    ->write(kRoot, *ino, (i * 7ull) * kFsBlockSize,
                            Bytes("z"))
                    .ok())
        << i;
  }
  // All blocks readable afterwards.
  for (std::uint32_t i = 0; i < 24; ++i) {
    std::vector<std::uint8_t> out(1);
    auto n = rig.fs->read(kRoot, *ino, (i * 7ull) * kFsBlockSize, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out[0], 'z');
  }
}

// ---- Checksum asymmetry (the vulnerability) ----

TEST(Integrity, ExtentTreeCorruptionIsDetected) {
  FsRig rig(4096);
  auto ino = rig.fs->create(kRoot, "/protected", 0644);
  ASSERT_TRUE(ino.ok());
  for (std::uint32_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(rig.fs
                    ->write(kRoot, *ino, (i * 7ull) * kFsBlockSize,
                            Bytes("z"))
                    .ok());
  }
  // Find the spilled extent node: scan the data zone for the magic.
  const auto& super = rig.fs->super();
  bool corrupted_a_node = false;
  std::vector<std::uint8_t> block(kFsBlockSize);
  for (std::uint64_t b = super.data_start;
       b < super.total_blocks && !corrupted_a_node; ++b) {
    if (!rig.fs->block_in_use(b)) continue;  // skip stale freed nodes
    ASSERT_TRUE(rig.dev.read_block(b, block).ok());
    ExtentHeader h;
    std::memcpy(&h, block.data(), sizeof(h));
    if (h.magic == kExtentMagic && h.max_entries == kNodeMaxEntries) {
      block[sizeof(ExtentHeader) + 4] ^= 0x80;  // flip a mapping bit
      ASSERT_TRUE(rig.dev.write_block(b, block).ok());
      corrupted_a_node = true;
    }
  }
  ASSERT_TRUE(corrupted_a_node) << "no on-disk extent node found";
  std::vector<std::uint8_t> out(1);
  EXPECT_EQ(rig.fs->read(kRoot, *ino, 0, out).status().code(),
            StatusCode::kCorruption);
}

// A checksum-valid index node pointing at itself must not recurse until
// the stack runs out: Load() requires each node to sit exactly one level
// below its parent.
TEST(Integrity, SelfReferencingExtentNodeIsCorruption) {
  MemBlockDevice dev(8);
  const ExtentCsumCtx ctx{.uuid = 0x5EED, .ino = 12, .generation = 3};
  constexpr std::uint64_t kNode = 5;
  ExtentIndex self{};
  self.leaf_lo = static_cast<std::uint32_t>(kNode);

  // Block 5: a depth-1 index node whose one entry is block 5.
  std::vector<std::uint8_t> node(kFsBlockSize, 0);
  const ExtentHeader nh{.magic = kExtentMagic,
                        .entries = 1,
                        .max_entries = kNodeMaxEntries,
                        .depth = 1,
                        .generation = ctx.generation};
  std::memcpy(node.data(), &nh, sizeof(nh));
  std::memcpy(node.data() + sizeof(nh), &self, sizeof(self));
  ExtentTail tail{};
  tail.checksum = ExtentTree::NodeChecksum(
      ctx, std::span(node.data(), kFsBlockSize - sizeof(tail)));
  std::memcpy(node.data() + kFsBlockSize - sizeof(tail), &tail,
              sizeof(tail));
  ASSERT_TRUE(dev.write_block(kNode, node).ok());

  // Root depth 1 meets the loop at once; depth 2 one level down; depth 6
  // is deeper than any tree Load() accepts.
  for (const std::uint16_t root_depth : {1, 2, 6}) {
    InodeDisk inode{};
    inode.generation = ctx.generation;
    const ExtentHeader rh{.magic = kExtentMagic,
                          .entries = 1,
                          .max_entries = kRootMaxEntries,
                          .depth = root_depth,
                          .generation = ctx.generation};
    auto* root = reinterpret_cast<std::uint8_t*>(inode.block);
    std::memcpy(root, &rh, sizeof(rh));
    std::memcpy(root + sizeof(rh), &self, sizeof(self));
    std::vector<Extent> extents;
    EXPECT_EQ(ExtentTree::Load(dev, inode, ctx, extents).code(),
              StatusCode::kCorruption)
        << "root depth " << root_depth;
  }
}

TEST(Integrity, IndirectBlockCorruptionIsSilent) {
  // "Critically, indirect blocks are not verified against any checksum."
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/victim", 0644, /*use_extents=*/false);
  ASSERT_TRUE(ino.ok());
  std::vector<std::uint8_t> payload(kFsBlockSize, 0xAA);
  ASSERT_TRUE(
      rig.fs->write(kRoot, *ino, 12ull * kFsBlockSize, payload).ok());
  // Plant a decoy block with known content, then corrupt the indirect
  // pointer to aim at it.
  auto decoy_ino = rig.fs->create(kRoot, "/decoy", 0600);
  ASSERT_TRUE(decoy_ino.ok());
  std::vector<std::uint8_t> secret(kFsBlockSize, 0x77);
  ASSERT_TRUE(rig.fs->write(kRoot, *decoy_ino, 0, secret).ok());
  const std::uint64_t decoy_block = *rig.fs->bmap(*decoy_ino, 0);

  const std::uint64_t ib = *rig.fs->indirect_block_of(*ino, 12);
  std::vector<std::uint8_t> raw(kFsBlockSize);
  ASSERT_TRUE(rig.dev.read_block(ib, raw).ok());
  const auto ptr = static_cast<std::uint32_t>(decoy_block);
  std::memcpy(raw.data(), &ptr, 4);
  ASSERT_TRUE(rig.dev.write_block(ib, raw).ok());

  // The read sails through with the decoy's content — no error.
  std::vector<std::uint8_t> out(kFsBlockSize);
  auto n = rig.fs->read(kRoot, *ino, 12ull * kFsBlockSize, out);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(out, secret);
}

TEST(Policy, ForbidIndirectBlocksCreation) {
  FormatOptions options;
  options.forbid_indirect = true;
  FsRig rig(512, options);
  EXPECT_EQ(rig.fs->create(kAlice, "/f", 0644, /*use_extents=*/false)
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(rig.fs->create(kAlice, "/f", 0644).ok());
}

// ---- fsck ----

TEST(FsckTest, CleanAfterWorkload) {
  FsRig rig(1024);
  ASSERT_TRUE(rig.fs->mkdir(kRoot, "/dir", 0755).ok());
  for (int i = 0; i < 10; ++i) {
    auto ino = rig.fs->create(kRoot, "/dir/f" + std::to_string(i), 0644,
                              /*use_extents=*/(i % 2 == 0));
    ASSERT_TRUE(ino.ok());
    std::vector<std::uint8_t> data((i + 1) * 1000, 0x3C);
    ASSERT_TRUE(rig.fs->write(kRoot, *ino, i * 4096, data).ok());
  }
  ASSERT_TRUE(rig.fs->unlink(kRoot, "/dir/f3").ok());
  const FsckReport report = Fsck::Check(*rig.fs);
  EXPECT_TRUE(report.clean()) << report.errors.front();
  EXPECT_EQ(report.files, 9u);
  EXPECT_EQ(report.directories, 2u);  // root + /dir
}

TEST(FsckTest, DetectsExtentChecksumDamage) {
  FsRig rig(4096);
  auto ino = rig.fs->create(kRoot, "/w", 0644);
  ASSERT_TRUE(ino.ok());
  for (std::uint32_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(rig.fs
                    ->write(kRoot, *ino, (i * 7ull) * kFsBlockSize,
                            Bytes("z"))
                    .ok());
  }
  const auto& super = rig.fs->super();
  std::vector<std::uint8_t> block(kFsBlockSize);
  for (std::uint64_t b = super.data_start; b < super.total_blocks; ++b) {
    if (!rig.fs->block_in_use(b)) continue;  // skip stale freed nodes
    ASSERT_TRUE(rig.dev.read_block(b, block).ok());
    ExtentHeader h;
    std::memcpy(&h, block.data(), sizeof(h));
    if (h.magic == kExtentMagic && h.max_entries == kNodeMaxEntries) {
      block[20] ^= 0x01;
      ASSERT_TRUE(rig.dev.write_block(b, block).ok());
      break;
    }
  }
  const FsckReport report = Fsck::Check(*rig.fs);
  EXPECT_FALSE(report.clean());
}

TEST(FsckTest, DetectsDanglingDirent) {
  FsRig rig;
  auto ino = rig.fs->create(kRoot, "/gone", 0644);
  ASSERT_TRUE(ino.ok());
  // Corrupt: free the inode bitmap bit behind the filesystem's back by
  // rewriting the dirent to a bogus inode.
  std::vector<std::uint8_t> block(kFsBlockSize);
  const auto& super = rig.fs->super();
  bool patched = false;
  for (std::uint64_t b = super.data_start;
       b < super.total_blocks && !patched; ++b) {
    ASSERT_TRUE(rig.dev.read_block(b, block).ok());
    for (std::uint32_t i = 0; i < kDirentsPerBlock; ++i) {
      DirentDisk d;
      std::memcpy(&d, block.data() + i * kDirentSize, kDirentSize);
      if (d.ino != 0 && std::string(d.name, d.name_len) == "gone") {
        d.ino = super.inode_count;  // almost surely a free inode
        std::memcpy(block.data() + i * kDirentSize, &d, kDirentSize);
        ASSERT_TRUE(rig.dev.write_block(b, block).ok());
        patched = true;
        break;
      }
    }
  }
  ASSERT_TRUE(patched);
  const FsckReport report = Fsck::Check(*rig.fs);
  EXPECT_FALSE(report.clean());
}

TEST(Fs, PathValidation) {
  FsRig rig;
  EXPECT_EQ(rig.fs->create(kRoot, "relative", 0644).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.fs->create(kRoot, "/", 0644).status().code(),
            StatusCode::kInvalidArgument);
  const std::string long_name(100, 'x');
  EXPECT_FALSE(rig.fs->create(kRoot, "/" + long_name, 0644).ok());
}

TEST(Fs, ManyFilesInOneDirectory) {
  FsRig rig(2048);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(
        rig.fs->create(kRoot, "/f" + std::to_string(i), 0644).ok())
        << i;
  }
  auto entries = rig.fs->readdir(kRoot, "/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 152u);  // 150 files + . + ..
  // Spot-check resolution still works past the first dir block.
  EXPECT_TRUE(rig.fs->lookup(kRoot, "/f149").ok());
}

// The directory name compare runs in 8-byte words plus a byte tail.
// Names of every length 1..56 that differ from a stored name in exactly
// one byte, at each position, cross every word boundary; "ghost" slots
// keep a name_len and name but have ino 0, so they are free and never
// match, even when they hold a live name and sit before its slot.
// lookup, unlink and create outcomes are checked against a memcmp
// reference over the live names.
TEST(Dir, NameCompareMatchesMemcmpReference) {
  FsRig rig(4096);
  ASSERT_TRUE(rig.fs->mkdir(kRoot, "/d", 0755).ok());
  const std::uint32_t dir_ino = *rig.fs->lookup(kRoot, "/d");

  std::vector<std::pair<std::string, std::uint32_t>> live;
  const auto live_ino = [&](const std::string& name) -> std::uint32_t {
    for (const auto& [n, ino] : live) {
      if (n.size() == name.size() &&
          std::memcmp(n.data(), name.data(), n.size()) == 0) {
        return ino;
      }
    }
    return 0;
  };
  const auto forget = [&](const std::string& name) {
    std::erase_if(live, [&](const auto& e) { return e.first == name; });
  };
  const auto expect_lookup = [&](const std::string& name) {
    auto got = rig.fs->lookup(kRoot, "/d/" + name);
    if (const std::uint32_t want = live_ino(name); want != 0) {
      ASSERT_TRUE(got.ok()) << name << ": " << got.status();
      EXPECT_EQ(*got, want) << name;
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << name;
    }
  };
  const auto expect_unlink = [&](const std::string& name) {
    const Status got = rig.fs->unlink(kRoot, "/d/" + name);
    if (live_ino(name) != 0) {
      EXPECT_TRUE(got.ok()) << name << ": " << got;
      forget(name);
    } else {
      EXPECT_EQ(got.code(), StatusCode::kNotFound) << name;
    }
  };
  const auto expect_create = [&](const std::string& name) {
    auto got = rig.fs->create(kRoot, "/d/" + name, 0644);
    if (live_ino(name) != 0) {
      EXPECT_EQ(got.status().code(), StatusCode::kAlreadyExists) << name;
    } else {
      ASSERT_TRUE(got.ok()) << name << ": " << got.status();
      live.emplace_back(name, *got);
    }
  };

  const auto stored = [](std::size_t len) {
    std::string s(len, ' ');
    for (std::size_t i = 0; i < len; ++i) {
      s[i] = static_cast<char>('a' + (len * 7 + i) % 26);
    }
    return s;
  };
  const auto ghost = [](std::size_t len) { return std::string(len, 'G'); };

  // Ghost files first, so their slots come before the stored names'.
  for (std::size_t len = 1; len <= kMaxNameLen; ++len) {
    expect_create(ghost(len));
  }
  for (std::size_t len = 1; len <= kMaxNameLen; ++len) {
    expect_create(stored(len));
  }
  ASSERT_EQ(live.size(), 2 * kMaxNameLen);

  // Free the ghost slots by hand, keeping name_len and name: odd lengths
  // take the live stored name of the same length.
  int ghosts = 0;
  const auto dir_size = rig.fs->stat(dir_ino)->size;
  for (std::uint32_t b = 0; b * kFsBlockSize < dir_size; ++b) {
    const std::uint64_t phys = *rig.fs->bmap(dir_ino, b);
    std::vector<std::uint8_t> block(kFsBlockSize);
    ASSERT_TRUE(rig.dev.read_block(phys, block).ok());
    for (std::uint32_t i = 0; i < kDirentsPerBlock; ++i) {
      DirentDisk d;
      std::memcpy(&d, block.data() + i * kDirentSize, kDirentSize);
      const std::string name(d.name, d.name_len);
      if (d.ino == 0 || name != ghost(d.name_len)) continue;
      d.ino = 0;
      if (d.name_len % 2 == 1) {
        std::memcpy(d.name, stored(d.name_len).data(), d.name_len);
      }
      std::memcpy(block.data() + i * kDirentSize, &d, kDirentSize);
      ++ghosts;
    }
    ASSERT_TRUE(rig.dev.write_block(phys, block).ok());
  }
  ASSERT_EQ(ghosts, static_cast<int>(kMaxNameLen));
  for (std::size_t len = 1; len <= kMaxNameLen; ++len) forget(ghost(len));

  // Read-only pass with every ghost slot still in place.
  for (std::size_t len = 1; len <= kMaxNameLen; ++len) {
    expect_lookup(stored(len));
    expect_lookup(ghost(len));
    for (std::size_t pos = 0; pos < len; ++pos) {
      std::string near = stored(len);
      near[pos] = near[pos] == 'z' ? 'a' : static_cast<char>(near[pos] + 1);
      expect_lookup(near);
      expect_unlink(near);
    }
  }
  // Then create, find and remove each near miss next to its stored name
  // (creates reuse the ghost slots first).
  for (std::size_t len = 1; len <= kMaxNameLen; ++len) {
    expect_create(stored(len));
    for (std::size_t pos = 0; pos < len; ++pos) {
      std::string near = stored(len);
      near[pos] ^= 0x20;  // upper case: one byte off
      expect_create(near);
      expect_lookup(near);
      expect_lookup(stored(len));
      expect_unlink(near);
      expect_lookup(near);
    }
    expect_unlink(stored(len));
    expect_lookup(stored(len));
  }
}

// alloc_inode skips full 64-inode bitmap words; it must still hand out
// the lowest free inode, inside the first word and past it.
TEST(Fs, AllocInodeReturnsLowestFree) {
  FsRig rig(2048);
  std::vector<std::uint32_t> inos;
  for (int i = 0; i < 140; ++i) {
    auto ino = rig.fs->create(kRoot, "/f" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.ok()) << i;
    inos.push_back(*ino);
  }
  for (std::size_t i = 1; i < inos.size(); ++i) {
    ASSERT_EQ(inos[i], inos[i - 1] + 1);
  }
  // Free one inode past the first two words, then one in the first.
  ASSERT_TRUE(rig.fs->unlink(kRoot, "/f135").ok());
  ASSERT_TRUE(rig.fs->unlink(kRoot, "/f3").ok());
  EXPECT_EQ(*rig.fs->create(kRoot, "/a", 0644), inos[3]);
  EXPECT_EQ(*rig.fs->create(kRoot, "/b", 0644), inos[135]);
  EXPECT_EQ(*rig.fs->create(kRoot, "/c", 0644), inos.back() + 1);
}

TEST(Fs, OutOfInodes) {
  FormatOptions options;
  options.inode_count = 64;
  FsRig rig(512, options);
  Status last = Status::Ok();
  for (int i = 0; i < 100; ++i) {
    auto r = rig.fs->create(kRoot, "/f" + std::to_string(i), 0644);
    if (!r.ok()) {
      last = r.status();
      break;
    }
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(Fs, RemountSeesExistingData) {
  MemBlockDevice dev(1024);
  {
    auto fs = FileSystem::Format(dev);
    ASSERT_TRUE(fs.ok());
    auto ino = (*fs)->create(kRoot, "/persist", 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*fs)->write(kRoot, *ino, 0, Bytes("durable")).ok());
  }
  auto fs = FileSystem::Mount(dev);
  ASSERT_TRUE(fs.ok());
  auto ino = (*fs)->lookup(kRoot, "/persist");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(ReadAll(**fs, kRoot, *ino), "durable");
  // Free-space accounting was rebuilt from the bitmaps.
  const FsckReport report = Fsck::Check(**fs);
  EXPECT_TRUE(report.clean()) << report.errors.front();
}

}  // namespace
}  // namespace rhsd::fs
