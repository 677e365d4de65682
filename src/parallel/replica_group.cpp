#include "parallel/replica_group.hpp"

#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace deepphi::par {

namespace {

int ambient_omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_omp_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

}  // namespace

ReplicaGroup::ReplicaGroup(ReplicaGroupConfig config) : config_(config) {
  DEEPPHI_CHECK_MSG(config_.replicas >= 1,
                    "ReplicaGroup needs replicas >= 1, got " << config_.replicas);
  DEEPPHI_CHECK_MSG(config_.threads_per_replica >= 0,
                    "threads_per_replica must be >= 0, got "
                        << config_.threads_per_replica);
  threads_per_replica_ =
      config_.threads_per_replica > 0
          ? config_.threads_per_replica
          : std::max(1, ambient_omp_threads() / config_.replicas);
  if (config_.replicas > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<unsigned>(config_.replicas));
    static obs::Gauge& replicas_gauge = obs::gauge("dp.replicas");
    replicas_gauge.set(static_cast<double>(config_.replicas));
  }
}

ReplicaGroup::~ReplicaGroup() = default;

const char* ReplicaGroup::replica_label(int r) {
  static const char* kLabels[] = {
      "dp.replica[0]",  "dp.replica[1]",  "dp.replica[2]",  "dp.replica[3]",
      "dp.replica[4]",  "dp.replica[5]",  "dp.replica[6]",  "dp.replica[7]",
      "dp.replica[8]",  "dp.replica[9]",  "dp.replica[10]", "dp.replica[11]",
      "dp.replica[12]", "dp.replica[13]", "dp.replica[14]", "dp.replica[15]"};
  constexpr int kCount = static_cast<int>(sizeof(kLabels) / sizeof(kLabels[0]));
  if (r >= 0 && r < kCount) return kLabels[r];
  return "dp.replica[16+]";
}

void ReplicaGroup::run(const std::function<void(int)>& fn) {
  DEEPPHI_CHECK(fn != nullptr);
  if (config_.replicas == 1) {
    // Inline: no pool hop, no ICV change — the caller's own OpenMP team.
    DEEPPHI_PROFILE_SCOPE(replica_label(0));
    fn(0);
    return;
  }
  static obs::Counter& tasks = obs::counter("dp.replica_tasks");
  std::vector<std::future<void>> done;
  done.reserve(static_cast<std::size_t>(config_.replicas));
  for (int r = 0; r < config_.replicas; ++r) {
    done.push_back(pool_->submit([this, &fn, r] {
      // The ICV is per (worker) thread; setting it here scopes the replica's
      // kernels to its core-subset budget without touching other replicas.
      set_omp_threads(threads_per_replica_);
      DEEPPHI_PROFILE_SCOPE(replica_label(r));
      fn(r);
    }));
    tasks.add();
  }
  // Drain every future before rethrowing so no replica is still touching
  // shared state (gradient slots, workspaces) when the caller unwinds.
  std::exception_ptr first_error;
  for (auto& f : done) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace deepphi::par
