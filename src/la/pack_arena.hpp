// Persistent per-thread packing workspace for the blocked GEMM.
//
// Every gemm_blocked call needs two scratch panels (packed A and packed B)
// per worker thread. Allocating them inside the parallel region on every
// call — the seed behavior — puts a malloc/free pair on the hot path of
// every layer of every training step. The arena replaces that with one
// thread-local, 64-byte-aligned buffer per OS thread that is grown on
// demand and then reused for the life of the thread, so a training run
// performs zero heap allocations inside GEMM after the first step (a
// property pinned by tests via pack_arena_allocations()).
//
// Ownership rules:
//  * The returned pointer is owned by the calling thread's arena; callers
//    must not free it and must not hold it past the current kernel (a later
//    pack_arena() call on the same thread may reallocate and invalidate it).
//  * Different threads always receive different buffers, so the blocked GEMM
//    can hand each OpenMP worker its own packing space with no sharing.
//  * Contents are unspecified on return; kernels fully overwrite what they
//    read (pack_a / pack_b zero-pad their panels).
#pragma once

#include <cstddef>
#include <cstdint>

namespace deepphi::la {

/// Returns a 64-byte-aligned buffer of at least `elems` floats owned by the
/// calling thread. Grows (reallocates) only when `elems` exceeds the current
/// capacity; otherwise reuses the existing allocation.
float* pack_arena(std::size_t elems);

/// Process-wide count of arena allocations (first use + every growth, summed
/// over all threads). Stable across repeated same-shape GEMM calls — the
/// zero-allocation-at-steady-state tests pin this.
std::uint64_t pack_arena_allocations();

}  // namespace deepphi::la
