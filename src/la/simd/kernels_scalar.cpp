// Scalar dispatch tier: the generic kernel bodies instantiated over
// ScalarOps. Compiled with the library's baseline flags (no -m options), so
// it runs anywhere; it is also the numerical reference the vector tiers must
// match bitwise (see dispatch.hpp).

#include "la/simd/kernels_body.inl"

namespace deepphi::la::simd {

// GEMM register tile: 4×16. The scalar tier is the numerical reference, not
// a fast path, so its tile is not sized to a register file.
const KernelTable* scalar_table() {
  static const KernelTable table =
      make_table<ScalarOps, 4, 16>(Tier::kScalar, &dot8_ref);
  return &table;
}

}  // namespace deepphi::la::simd
