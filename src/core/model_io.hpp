// Model checkpointing: binary serialization of the building blocks and the
// stacked models. Format mirrors data/binary_io: a magic + version header,
// the config, then raw parameter payloads — fully self-describing, so a
// loaded model needs no side information.
//
//   "DPAE"/1 — SparseAutoencoder      "DPRB"/1 — Rbm
//   "DPSA"/1 — StackedAutoencoder     "DPDB"/1 — Dbn
//   "DPQE"/1 — QuantizedEncoder (groupwise int8; header, then per layer the
//              dims, float bias, groupwise scales, and zero-padded codes —
//              group sums are derived and rebuilt on load)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/encoder.hpp"
#include "core/layer_stack.hpp"
#include "core/quantized_encoder.hpp"
#include "core/rbm.hpp"
#include "core/sparse_autoencoder.hpp"

namespace deepphi::core {

void save_model(const SparseAutoencoder& model, const std::string& path);
SparseAutoencoder load_sae(const std::string& path);

void save_model(const Rbm& model, const std::string& path);
Rbm load_rbm(const std::string& path);

void save_model(const StackedAutoencoder& model, const std::string& path);
StackedAutoencoder load_stacked_sae(const std::string& path);

void save_model(const Dbn& model, const std::string& path);
Dbn load_dbn(const std::string& path);

void save_model(const QuantizedEncoder& model, const std::string& path);
std::unique_ptr<QuantizedEncoder> load_quantized(const std::string& path);

}  // namespace deepphi::core

namespace deepphi::model_io {

/// A loaded checkpoint plus the metadata the serve-tier registry wants to
/// expose without re-opening the file: what format it was and how big the
/// checkpoint was on disk.
struct LoadedModel {
  std::unique_ptr<core::Encoder> model;
  std::string magic;  ///< 4-byte checkpoint magic, e.g. "DPSA"
  std::uint64_t file_bytes = 0;
};

/// Loads ANY checkpoint as its inference interface: opens the file once,
/// reads the magic and dispatches to the matching body reader, so callers
/// (serving, eval) need no per-type flags or switches. Every size a header
/// declares is checked against the bytes left in the file before anything
/// is allocated. Throws util::Error for unknown magics, unsupported
/// versions, implausible or oversized headers, and truncated payloads. The
/// typed core::load_* functions read the same bodies for callers that need
/// the concrete training type.
LoadedModel load_any(const std::string& path);

}  // namespace deepphi::model_io
