// Directory entry management and path resolution for FileSystem.
//
// Directories are regular extent-mapped files holding fixed 64-byte
// dirent slots (a documented simplification over ext4's variable-length
// records; semantics — lookup, insert, remove, readdir — match).
#include <array>
#include <cstddef>
#include <cstring>

#include "fs/filesystem.hpp"

namespace rhsd::fs {
namespace {

DirentDisk MakeDirent(std::string_view name, std::uint32_t ino,
                      std::uint8_t type) {
  DirentDisk d{};
  d.ino = ino;
  d.name_len = static_cast<std::uint8_t>(name.size());
  d.type = type;
  std::memcpy(d.name, name.data(), name.size());
  return d;
}

std::uint32_t SlotIno(const std::uint8_t* slot) {
  std::uint32_t ino = 0;
  std::memcpy(&ino, slot + offsetof(DirentDisk, ino), sizeof(ino));
  return ino;
}

/// Whether the on-disk dirent at `slot` is live and names `name`.  All
/// of a spray's file names have one length, so the name compare runs on
/// nearly every live slot a lookup passes: it is done inline, in 8-byte
/// words plus a byte tail, instead of as one memcmp call per slot.
bool NameMatches(const std::uint8_t* slot, std::string_view name) {
  if (SlotIno(slot) == 0 ||
      slot[offsetof(DirentDisk, name_len)] != name.size()) {
    return false;
  }
  const std::uint8_t* stored = slot + offsetof(DirentDisk, name);
  const char* want = name.data();
  std::size_t n = name.size();
  for (; n >= 8; stored += 8, want += 8, n -= 8) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, stored, 8);
    std::memcpy(&b, want, 8);
    if (a != b) return false;
  }
  for (; n > 0; ++stored, ++want, --n) {
    if (*stored != static_cast<std::uint8_t>(*want)) return false;
  }
  return true;
}

}  // namespace

StatusOr<std::uint32_t> FileSystem::dir_lookup(std::uint32_t dir_ino,
                                               const InodeDisk& dir,
                                               std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return InvalidArgument("bad file name");
  }
  const std::uint64_t nblocks =
      (dir.size + kFsBlockSize - 1) / kFsBlockSize;
  std::array<std::uint8_t, kFsBlockSize> buf;
  InodeDisk scratch = dir;  // map_block may not mutate when alloc=false
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    RHSD_ASSIGN_OR_RETURN(
        const std::uint64_t phys,
        map_block(dir_ino, scratch, static_cast<std::uint32_t>(b),
                  /*alloc=*/false, nullptr));
    if (phys == 0) continue;
    RHSD_RETURN_IF_ERROR(dev_.read_block(phys, buf));
    for (std::uint32_t i = 0; i < kDirentsPerBlock; ++i) {
      const std::uint8_t* slot = buf.data() + i * kDirentSize;
      if (NameMatches(slot, name)) return SlotIno(slot);
    }
  }
  return NotFound(std::string(name));
}

Status FileSystem::dir_add(std::uint32_t dir_ino, InodeDisk& dir,
                           std::string_view name, std::uint32_t ino,
                           std::uint8_t type) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return InvalidArgument("bad file name");
  }
  const DirentDisk entry = MakeDirent(name, ino, type);
  const std::uint64_t nblocks =
      (dir.size + kFsBlockSize - 1) / kFsBlockSize;
  std::array<std::uint8_t, kFsBlockSize> buf;

  // Reuse a free slot in an existing block.
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    RHSD_ASSIGN_OR_RETURN(
        const std::uint64_t phys,
        map_block(dir_ino, dir, static_cast<std::uint32_t>(b),
                  /*alloc=*/false, nullptr));
    if (phys == 0) continue;
    RHSD_RETURN_IF_ERROR(dev_.read_block(phys, buf));
    for (std::uint32_t i = 0; i < kDirentsPerBlock; ++i) {
      std::uint8_t* slot = buf.data() + i * kDirentSize;
      if (SlotIno(slot) == 0) {
        std::memcpy(slot, &entry, kDirentSize);
        return dev_.write_block(phys, buf);
      }
    }
  }

  // Append a fresh directory block.
  bool dirty = false;
  RHSD_ASSIGN_OR_RETURN(
      const std::uint64_t phys,
      map_block(dir_ino, dir, static_cast<std::uint32_t>(nblocks),
                /*alloc=*/true, &dirty));
  std::memset(buf.data(), 0, buf.size());
  std::memcpy(buf.data(), &entry, kDirentSize);
  RHSD_RETURN_IF_ERROR(dev_.write_block(phys, buf));
  dir.size = (nblocks + 1) * kFsBlockSize;
  return Status::Ok();
}

Status FileSystem::dir_remove(std::uint32_t dir_ino, InodeDisk& dir,
                              std::string_view name) {
  const std::uint64_t nblocks =
      (dir.size + kFsBlockSize - 1) / kFsBlockSize;
  std::array<std::uint8_t, kFsBlockSize> buf;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    RHSD_ASSIGN_OR_RETURN(
        const std::uint64_t phys,
        map_block(dir_ino, dir, static_cast<std::uint32_t>(b),
                  /*alloc=*/false, nullptr));
    if (phys == 0) continue;
    RHSD_RETURN_IF_ERROR(dev_.read_block(phys, buf));
    for (std::uint32_t i = 0; i < kDirentsPerBlock; ++i) {
      std::uint8_t* slot = buf.data() + i * kDirentSize;
      if (NameMatches(slot, name)) {
        std::memset(slot, 0, kDirentSize);
        return dev_.write_block(phys, buf);
      }
    }
  }
  return NotFound(std::string(name));
}

StatusOr<std::vector<DirEntry>> FileSystem::dir_list(std::uint32_t dir_ino,
                                                     const InodeDisk& dir) {
  std::vector<DirEntry> entries;
  const std::uint64_t nblocks =
      (dir.size + kFsBlockSize - 1) / kFsBlockSize;
  std::array<std::uint8_t, kFsBlockSize> buf;
  InodeDisk scratch = dir;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    RHSD_ASSIGN_OR_RETURN(
        const std::uint64_t phys,
        map_block(dir_ino, scratch, static_cast<std::uint32_t>(b),
                  /*alloc=*/false, nullptr));
    if (phys == 0) continue;
    RHSD_RETURN_IF_ERROR(dev_.read_block(phys, buf));
    for (std::uint32_t i = 0; i < kDirentsPerBlock; ++i) {
      DirentDisk d;
      std::memcpy(&d, buf.data() + i * kDirentSize, kDirentSize);
      if (d.ino == 0) continue;
      entries.push_back(DirEntry{
          d.ino, d.type,
          std::string(d.name, std::min<std::size_t>(d.name_len,
                                                    kMaxNameLen))});
    }
  }
  return entries;
}

StatusOr<std::pair<std::uint32_t, std::string>> FileSystem::resolve_parent(
    const Credentials& cred, std::string_view path) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("paths must be absolute");
  }
  // Split into components.
  std::vector<std::string> parts;
  std::size_t pos = 1;
  while (pos < path.size()) {
    const std::size_t next = path.find('/', pos);
    const std::size_t end = next == std::string_view::npos ? path.size()
                                                           : next;
    if (end > pos) parts.emplace_back(path.substr(pos, end - pos));
    pos = end + 1;
  }
  if (parts.empty()) return InvalidArgument("path has no final component");

  std::uint32_t dir_ino = super_.root_ino;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    RHSD_ASSIGN_OR_RETURN(InodeDisk dir, load_inode(dir_ino));
    if (!IsDir(dir)) return InvalidArgument(parts[i] + ": not a directory");
    if (!CanTraverse(cred, dir)) {
      return PermissionDenied("cannot traverse " + parts[i]);
    }
    RHSD_ASSIGN_OR_RETURN(dir_ino, dir_lookup(dir_ino, dir, parts[i]));
  }
  RHSD_ASSIGN_OR_RETURN(InodeDisk dir, load_inode(dir_ino));
  if (!IsDir(dir)) return InvalidArgument("parent is not a directory");
  if (!CanTraverse(cred, dir)) {
    return PermissionDenied("cannot traverse parent directory");
  }
  return std::pair<std::uint32_t, std::string>{dir_ino, parts.back()};
}

StatusOr<std::uint32_t> FileSystem::resolve(const Credentials& cred,
                                            std::string_view path) {
  if (path == "/") return super_.root_ino;
  RHSD_ASSIGN_OR_RETURN(const auto parent, resolve_parent(cred, path));
  RHSD_ASSIGN_OR_RETURN(const InodeDisk dir, load_inode(parent.first));
  return dir_lookup(parent.first, dir, parent.second);
}

}  // namespace rhsd::fs
