// Cache-line/SIMD aligned heap buffers. The Xeon Phi's 512-bit VPU wants
// 64-byte alignment; we align every matrix/vector buffer to 64 bytes so the
// vectorized kernels can use aligned loads and never straddle cache lines.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

namespace deepphi::util {

inline constexpr std::size_t kAlignment = 64;

/// Buffers of at least this many bytes get an anonymous mapping of their
/// own, returned to the system when freed. Through malloc, glibc places them
/// in the heap once its adaptive mmap threshold has risen past their size
/// (it does at the first large free), and a process that keeps re-creating
/// such buffers — a trainer run after run, each ending in a ragged batch —
/// fragments the heap and grows its resident set with every run. Under
/// AddressSanitizer every buffer stays in malloc, so it keeps its redzones.
inline constexpr std::size_t kMapBytes = std::size_t{1} << 20;

/// Mappings of at least this many bytes (a chunk buffer of the Fig. 5 ring,
/// a whole in-memory dataset) ask for transparent huge pages: under the
/// `madvise` THP mode a fresh buffer then faults in 2 MB at a time instead
/// of 4 KB, which is most of the cost of writing it the first time.
inline constexpr std::size_t kHugePageBytes = std::size_t{8} << 20;

/// Allocates `n` objects of type T with 64-byte alignment. Throws
/// std::bad_alloc on failure. `n == 0` returns a non-null 64-byte allocation
/// so that empty containers still have distinct, alignable storage.
template <typename T>
T* aligned_new(std::size_t n) {
  const std::size_t bytes = (n == 0 ? 1 : n) * sizeof(T);
  // std::aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (bytes + kAlignment - 1) / kAlignment * kAlignment;
  void* p = std::aligned_alloc(kAlignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<T*>(p);
}

struct AlignedDeleter {
  std::size_t mapped_bytes = 0;  // length of the mapping; 0 for malloc'd
  void operator()(void* p) const noexcept {
    if (mapped_bytes != 0) {
      munmap(p, mapped_bytes);
    } else {
      std::free(p);
    }
  }
};

/// Owning pointer to an aligned buffer of T. T must be trivially
/// destructible; the deleter only frees storage.
template <typename T>
using AlignedBuffer = std::unique_ptr<T[], AlignedDeleter>;

template <typename T>
AlignedBuffer<T> make_aligned(std::size_t n) {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedBuffer only supports trivially destructible types");
#if !defined(__SANITIZE_ADDRESS__)
  const std::size_t bytes = n * sizeof(T);
  if (bytes >= kMapBytes) {
    // Page-aligned, hence kAlignment-aligned.
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
    if (bytes >= kHugePageBytes) madvise(p, bytes, MADV_HUGEPAGE);  // advisory
#endif
    return AlignedBuffer<T>(static_cast<T*>(p), AlignedDeleter{bytes});
  }
#endif
  return AlignedBuffer<T>(aligned_new<T>(n));
}

/// True when `p` is aligned to `kAlignment`.
inline bool is_aligned(const void* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % kAlignment == 0;
}

}  // namespace deepphi::util
