#include "common/region.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <stdexcept>
#include <utility>

namespace o2k::common {

ZeroedRegion::ZeroedRegion(std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t usable = (bytes + page - 1) / page * page;
  map_bytes_ = usable + page;
  void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  base_ = static_cast<std::byte*>(p);
  if (::mprotect(base_ + usable, page, PROT_NONE) != 0) {
    ::munmap(base_, map_bytes_);
    throw std::runtime_error("o2k: mprotect(guard) failed");
  }
}

ZeroedRegion::ZeroedRegion(ZeroedRegion&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)), map_bytes_(other.map_bytes_) {}

ZeroedRegion::~ZeroedRegion() {
  if (base_ != nullptr) ::munmap(base_, map_bytes_);
}

}  // namespace o2k::common
