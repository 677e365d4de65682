#include "la/pack_arena.hpp"

#include <atomic>

#include "util/aligned.hpp"

namespace deepphi::la {

namespace {

std::atomic<std::uint64_t> g_allocations{0};

struct Arena {
  util::AlignedBuffer<float> buf;
  std::size_t capacity = 0;
};

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace

float* pack_arena(std::size_t elems) {
  Arena& arena = thread_arena();
  if (arena.capacity < elems) {
    arena.buf = util::make_aligned<float>(elems);
    arena.capacity = elems;
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return arena.buf.get();
}

std::uint64_t pack_arena_allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace deepphi::la
