// Shared plumbing for the per-figure/table reproduction benches.
//
// Every simulated bench follows the same recipe:
//   1. get the workload's KernelStats by running the real training code
//      dry (core::dry_train, phi::DryRun): every kernel records its work
//      and skips computing, so paper-scale runs cost milliseconds here;
//   2. evaluate them on the calibrated MachineSpecs: a one-card phi::Cluster
//      attached to the dry run keeps the Phi's Fig. 5 timeline (each chunk's
//      h2d pipelined with training through phi::ChunkRing), and elapsed_s()
//      is its time; host machines evaluate the run's stats in CostModel;
//   3. print the same rows/series the paper reports, each table labelled
//      with its clock, plus optional CSV / JSON.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/levels.hpp"
#include "core/trainer.hpp"
#include "phi/cluster.hpp"
#include "phi/cost_model.hpp"
#include "phi/device.hpp"
#include "serve/inference_server.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace deepphi::bench {

/// Runs a bench's entry point the way the tools run theirs: any exception,
/// a usage error included, prints "<bench>: <what>" to stderr and exits 1
/// instead of aborting. <bench> is the file name of argv[0].
int guarded_main(int argc, char** argv, int (*bench_main)(int, char**));

/// Prints the standard bench banner (what is reproduced, from where) and
/// records `title` as the bench name for --json output.
void banner(const std::string& title, const std::string& description);

/// Which clock a table's numbers come from (perfbench's vocabulary):
///   simulated     — the calibrated machine models (the Phi is discontinued
///                   hardware); identical on every run, tier and thread count;
///   measured      — wall time on this host; varies run to run;
///   deterministic — untimed results of real runs (costs, accuracies),
///                   identical for a given seed on every run.
/// Tables that are not `measured` are pinned as goldens by the bench_json_*
/// ctests.
enum class Clock { kSimulated, kMeasured, kDeterministic };

const char* clock_name(Clock clock);

/// Simulated seconds of a run's work on a host machine (no transfers).
double host_run_seconds(const phi::KernelStats& total_stats,
                        const phi::MachineSpec& spec, int threads);

/// Work of one SAE training step (gradient + update) at `level` on a batch of
/// `batch` examples: a dry run of one chunk holding one batch.
phi::KernelStats sae_step_stats(la::Index visible, la::Index hidden,
                                la::Index batch, core::OptLevel level);

/// Work of one fused gradient evaluation of `model` on `rows` examples, with
/// no update — the per-slot work of a data-parallel step — run dry.
phi::KernelStats gradient_stats(const core::SparseAutoencoder& model,
                                la::Index rows);
phi::KernelStats gradient_stats(const core::Rbm& model, la::Index rows);

/// Prints the table under a line naming its clock and, when --csv=<path> was
/// passed, writes it there too. When --json=<path> was passed, appends the
/// table (with its "clock") to the run's JSON document (schema
/// "deepphi.bench.v1") and rewrites the file, so benches that emit several
/// tables accumulate them all.
void emit(const util::Options& options, const util::Table& table,
          Clock clock);

/// Sets the "precision" field of --json output (default "fp32") — benches
/// whose primary workload runs quantized call set_precision("int8") so
/// snapshots are self-describing next to simd_tier.
void set_precision(const std::string& precision);

/// Declares the flags every bench shares (--csv, --json). Call before
/// validate().
void declare_common_flags(util::Options& options);

/// Peak fp32 GF/s of `threads` threads on this host at the vector width of
/// the active SIMD tier (the width the GEMM micro-kernels run at): 12
/// independent FMA chains per thread, best of 5. The denominator of every
/// measured table's pct_peak column.
double fma_peak_gflops(int threads);

/// `rows` x `dim` uniform [0, 1) request payloads drawn from
/// util::Rng(seed, stream). Each serving bench passes its own stream, so its
/// inputs stay the same run to run.
la::Matrix random_rows(la::Index rows, la::Index dim, std::uint64_t seed,
                       std::uint64_t stream);

/// Closed-loop client: keeps a window of 512 requests for `model`
/// outstanding on `server` for `seconds`, cycling through the rows of
/// `inputs`, then waits for the rest. Requests pile up in the queue while a
/// batch computes, which is what gives the batcher something to coalesce.
/// Returns the completed requests per second of wall time from the first
/// submit to the last reply.
double closed_loop(serve::InferenceServer& server, const std::string& model,
                   const la::Matrix& inputs, double seconds);

/// Open-loop client: submits the next row of `inputs` to `model` at each
/// offset in `arrivals` (seconds from the call), whether or not earlier
/// requests finished, then waits for every reply.
void open_loop(serve::InferenceServer& server, const std::string& model,
               const la::Matrix& inputs, const std::vector<double>& arrivals);

/// Best-of-N wall-clock timing for the real (non-simulated) kernel benches:
/// one untimed warm-up call (also sizes the packing arenas), then the
/// minimum of `reps` timed calls.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace deepphi::bench
