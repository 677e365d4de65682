#include "serve/model_registry.hpp"

#include <utility>

#include "core/packed_encoder.hpp"
#include "core/quantized_encoder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace deepphi::serve {

namespace {

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void publish_version_gauge(const std::string& name, std::uint64_t version) {
  obs::gauge("serve.model." + name + ".version")
      .set(static_cast<double>(version));
}

}  // namespace

const char* encoder_precision(const core::Encoder& model) {
  return dynamic_cast<const core::QuantizedEncoder*>(&model) != nullptr
             ? "int8"
             : "fp32";
}

std::uint64_t ModelRegistry::add(const std::string& name,
                                 model_io::LoadedModel loaded,
                                 double budget_s) {
  return add_model(name, std::move(loaded.model), budget_s,
                   std::move(loaded.magic), loaded.file_bytes);
}

std::uint64_t ModelRegistry::add_shared(
    const std::string& name, std::shared_ptr<const core::Encoder> model,
    double budget_s) {
  return add_model(name, std::move(model), budget_s, "mem", 0);
}

std::uint64_t ModelRegistry::publish(const std::string& name,
                                     model_io::LoadedModel loaded) {
  return publish_model(name, std::move(loaded.model), std::move(loaded.magic),
                       loaded.file_bytes);
}

std::uint64_t ModelRegistry::publish_shared(
    const std::string& name, std::shared_ptr<const core::Encoder> model) {
  return publish_model(name, std::move(model), "mem", 0);
}

std::uint64_t ModelRegistry::add_model(
    const std::string& name, std::shared_ptr<const core::Encoder> model,
    double budget_s, std::string magic, std::uint64_t file_bytes) {
  DEEPPHI_CHECK_MSG(model != nullptr,
                    "registry add '" << name << "': null model");
  model = core::PackedEncoder::twin_or_self(std::move(model));
  std::lock_guard<std::mutex> lock(mutex_);
  DEEPPHI_CHECK_MSG(valid_name(name),
                    "invalid model name '"
                        << name << "' (use [A-Za-z0-9_-], max 128 chars)");
  DEEPPHI_CHECK_MSG(entries_.count(name) == 0,
                    "model '" << name << "' is already registered");
  DEEPPHI_CHECK_MSG(budget_s >= 0, "model '" << name
                                             << "': budget must be >= 0, got "
                                             << budget_s);
  Entry e;
  e.info.name = name;
  e.info.version = 1;
  e.info.magic = std::move(magic);
  e.info.precision = encoder_precision(*model);
  e.info.file_bytes = file_bytes;
  e.info.input_dim = model->input_dim();
  e.info.output_dim = model->output_dim();
  e.info.description = model->describe();
  e.info.budget_s = budget_s;
  e.current.model = std::move(model);
  e.current.version = 1;
  entries_.emplace(name, std::move(e));
  publish_version_gauge(name, 1);
  return 1;
}

std::uint64_t ModelRegistry::publish_model(
    const std::string& name, std::shared_ptr<const core::Encoder> model,
    std::string magic, std::uint64_t file_bytes) {
  DEEPPHI_CHECK_MSG(model != nullptr,
                    "registry publish '" << name << "': null model");
  model = core::PackedEncoder::twin_or_self(std::move(model));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  DEEPPHI_CHECK_MSG(it != entries_.end(),
                    "cannot publish to unknown model '" << name << "'");
  Entry& e = it->second;
  DEEPPHI_CHECK_MSG(
      model->input_dim() == e.info.input_dim,
      "publish to '" << name << "': input dim " << model->input_dim()
                     << " != serving input dim " << e.info.input_dim
                     << " (queued requests were validated against it)");
  e.info.version += 1;
  e.info.magic = std::move(magic);
  e.info.precision = encoder_precision(*model);
  e.info.file_bytes = file_bytes;
  e.info.output_dim = model->output_dim();
  e.info.description = model->describe();
  // The swap: new batches snapshot the new pointer; in-flight batches hold
  // their own shared_ptr copies and finish on the version they collected
  // under. The old Encoder is destroyed when the last such copy drops.
  e.current.model = std::move(model);
  e.current.version = e.info.version;
  publish_version_gauge(name, e.info.version);
  return e.info.version;
}

ModelVersion ModelRegistry::current(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  DEEPPHI_CHECK_MSG(it != entries_.end(), "unknown model '" << name << "'");
  return it->second.current;
}

ModelInfo ModelRegistry::info(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  DEEPPHI_CHECK_MSG(it != entries_.end(), "unknown model '" << name << "'");
  return it->second.info;
}

std::vector<ModelInfo> ModelRegistry::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) out.push_back(e.info);
  return out;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) out.push_back(name);
  return out;
}

}  // namespace deepphi::serve
