#include "core/denoising.hpp"

#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::core {

void mask_corrupt(const la::Matrix& clean, la::Matrix& corrupted,
                  float mask_prob, const util::Rng& base) {
  DEEPPHI_CHECK_MSG(mask_prob >= 0.0f && mask_prob < 1.0f,
                    "mask_prob must be in [0, 1), got " << mask_prob);
  if (corrupted.rows() != clean.rows() || corrupted.cols() != clean.cols())
    corrupted = la::Matrix::uninitialized(clean.rows(), clean.cols());
  phi::record(phi::loop_contribution(clean.size(), 12.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const la::Index rows = clean.rows();
  const la::Index cols = clean.cols();
#pragma omp parallel for if (clean.size() >= (1 << 14)) schedule(static)
  for (la::Index r = 0; r < rows; ++r) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(r));
    const float* src = clean.row(r);
    float* dst = corrupted.row(r);
    for (la::Index c = 0; c < cols; ++c)
      dst[c] = rng.uniform_float() < mask_prob ? 0.0f : src[c];
  }
}

double sae_denoising_gradient(const SparseAutoencoder& model,
                              const la::Matrix& clean,
                              la::Matrix& corrupted_buf,
                              SparseAutoencoder::Workspace& ws,
                              AeGradients& grads, float mask_prob,
                              const util::Rng& rng, bool fused) {
  mask_corrupt(clean, corrupted_buf, mask_prob, rng);
  return model.gradient(corrupted_buf, clean, ws, grads, fused);
}

}  // namespace deepphi::core
