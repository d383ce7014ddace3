// Zero-filled memory straight from the kernel, for large tables that a run
// touches sparsely (SHMEM symmetric heaps, the CC-SAS arena and per-PE
// write stamps).
//
// calloc gives the same zero pages only while glibc serves the block with
// mmap.  Freeing such a block raises glibc's dynamic mmap threshold to its
// size, so once one simulation has ended, a later one in the same process
// (the --wall sweep, the CI perf gate, campaign pools) gets its blocks from
// the heap instead — and calloc must memset every byte of them.
#pragma once

#include <cstddef>

namespace o2k::common {

/// `bytes` of zero-filled read-write memory from an anonymous private
/// mapping, followed by one PROT_NONE guard page (an overrun faults instead
/// of reading a neighbour).  Pages commit on first touch, so untouched
/// memory costs neither time nor RSS.  Unmapped on destruction.
class ZeroedRegion {
 public:
  explicit ZeroedRegion(std::size_t bytes);
  ~ZeroedRegion();
  ZeroedRegion(ZeroedRegion&& other) noexcept;
  ZeroedRegion(const ZeroedRegion&) = delete;
  ZeroedRegion& operator=(const ZeroedRegion&) = delete;
  ZeroedRegion& operator=(ZeroedRegion&&) = delete;

  [[nodiscard]] std::byte* data() const { return base_; }

 private:
  std::byte* base_ = nullptr;
  std::size_t map_bytes_ = 0;  ///< whole mapping, guard page included
};

}  // namespace o2k::common
