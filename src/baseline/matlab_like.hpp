// The Fig. 10 comparator: "a Matlab code ... on the same single Xeon CPU
// [platform]; Matlab has its own optimization of matrix operations".
//
// What distinguishes a Matlab implementation is not the math (identical) but
// the execution profile: matrix products go to an optimized multithreaded
// BLAS, while every other vectorized expression pays interpreter dispatch
// and materializes full temporaries. We model that as:
//
//  * work     — the unfused matrix-form step (each elementwise op its own
//               kernel) plus one extra temporary-copy pass per elementwise
//               op (Matlab's out-of-place semantics);
//  * machine  — phi::matlab_host(): BLAS-grade gemm efficiency, low loop
//               efficiency, software_overhead ≈ 3 and dispatch_us per kernel.
//
// matlab_sae_batch_stats builds the work bundle; benches evaluate it on the
// matlab_host MachineSpec. This stays analytic: it models a Matlab program
// that this repository does not contain, so there is no code to run dry.
#pragma once

#include "la/matrix.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::baseline {

/// KernelStats of one Matlab-style SAE gradient + SGD update of a
/// visible×hidden network on `batch` examples: the unfused matrix-form
/// sequence with an extra temporary-copy pass per elementwise kernel.
phi::KernelStats matlab_sae_batch_stats(la::Index batch, la::Index visible,
                                        la::Index hidden);

/// One pass over `examples` in batches of `batch` (the last one short).
/// Chunking is irrelevant on the host — data is local — so there is no
/// transfer traffic.
phi::KernelStats matlab_sae_train_stats(la::Index examples, la::Index batch,
                                        la::Index visible, la::Index hidden);

}  // namespace deepphi::baseline
