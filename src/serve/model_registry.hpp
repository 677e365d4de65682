// Versioned model registry — the control plane of the multi-model serving
// tier.
//
// One process serves many Encoders: each registered name owns a
// `shared_ptr<const core::Encoder>` that publish() swaps RCU-style under a
// version bump. Readers (the per-model batcher threads) take a cheap
// ModelVersion snapshot per coalesced batch, so an in-flight batch always
// finishes on the exact version it was collected under while new batches
// pick up the published model immediately — zero-downtime hot swap with no
// reader-side locking beyond one shared_ptr copy. The old version is freed
// when the last in-flight batch drops its snapshot.
//
// The registry also carries the serving metadata the data plane and the
// stats endpoint want without re-opening checkpoints: format magic, numeric
// precision, checkpoint size, dims, and the per-model latency budget the
// adaptive batcher spends (see serve/adaptive_batcher.hpp).
//
// Thread-safety: every method is safe from any thread (one mutex; the
// per-batch read path is a map lookup + shared_ptr copy, never a model
// load). Checkpoint loading happens OUTSIDE the registry — callers pass a
// model_io::LoadedModel — so a slow disk never blocks serving.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "core/model_io.hpp"

namespace deepphi::serve {

/// One immutable (model, version) pair — what a batch computes on. Copies
/// share ownership of the Encoder, so a snapshot outlives any concurrent
/// publish().
struct ModelVersion {
  std::shared_ptr<const core::Encoder> model;
  std::uint64_t version = 0;
};

/// Registry metadata for one model name (current version).
struct ModelInfo {
  std::string name;
  std::uint64_t version = 0;
  std::string magic;      ///< checkpoint magic, or "mem" for in-memory models
  std::string precision;  ///< "fp32" or "int8"
  std::uint64_t file_bytes = 0;
  la::Index input_dim = 0;
  la::Index output_dim = 0;
  std::string description;
  /// End-to-end latency budget (SLO) the adaptive batcher spends; 0 = none.
  double budget_s = 0;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers a freshly loaded checkpoint under `name` at version 1.
  /// Names must be non-empty and use only [A-Za-z0-9_-] so the per-model
  /// metric names they mint stay parseable. The precision comes from the
  /// Encoder's type (encoder_precision). Throws util::Error on a duplicate
  /// or invalid name. Returns the version (1).
  std::uint64_t add(const std::string& name, model_io::LoadedModel loaded,
                    double budget_s = 0);

  /// Same, for a model the caller already owns elsewhere (tests, benches,
  /// in-memory models): magic "mem".
  /// `model` must be thread-safe for encode().
  std::uint64_t add_shared(const std::string& name,
                           std::shared_ptr<const core::Encoder> model,
                           double budget_s = 0);

  /// Swaps `name` to the new model and bumps the version. The new model must
  /// keep the input dimension (queued requests were validated against it);
  /// the output dimension may change — responses carry the serving version.
  /// Throws util::Error for unknown names or an input_dim mismatch. Returns
  /// the new version.
  std::uint64_t publish(const std::string& name, model_io::LoadedModel loaded);

  /// publish() for an externally owned model (tests, in-memory swaps).
  std::uint64_t publish_shared(const std::string& name,
                               std::shared_ptr<const core::Encoder> model);

  /// The current (model, version) for `name` — one mutex hop and one
  /// shared_ptr copy. Throws util::Error for unknown names.
  ModelVersion current(const std::string& name) const;

  /// Current metadata for `name`; throws for unknown names.
  ModelInfo info(const std::string& name) const;

  /// Metadata for every registered model, sorted by name.
  std::vector<ModelInfo> list() const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  struct Entry {
    ModelVersion current;
    ModelInfo info;
  };

  std::uint64_t add_model(const std::string& name,
                          std::shared_ptr<const core::Encoder> model,
                          double budget_s, std::string magic,
                          std::uint64_t file_bytes);
  std::uint64_t publish_model(const std::string& name,
                              std::shared_ptr<const core::Encoder> model,
                              std::string magic, std::uint64_t file_bytes);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// "int8" when `model` is a QuantizedEncoder, else "fp32".
const char* encoder_precision(const core::Encoder& model);

}  // namespace deepphi::serve
