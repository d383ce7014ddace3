// Raw byte copies for payloads that may be empty.
#pragma once

#include <cstddef>
#include <cstring>

namespace o2k {

/// std::memcpy that accepts an empty range.  An empty std::vector or
/// std::span may hand out a null data(), and memcpy requires valid pointers
/// even for zero bytes.
inline void copy_bytes(void* dst, const void* src, std::size_t bytes) {
  if (bytes != 0) std::memcpy(dst, src, bytes);
}

}  // namespace o2k
