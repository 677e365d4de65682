#include "core/model_io.hpp"

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace deepphi::core {

namespace {

constexpr std::uint32_t kVersion = 1;

void write_magic(std::ofstream& out, const char magic[4]) {
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
}

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

void write_floats(std::ofstream& out, const float* p, la::Index n) {
  out.write(reinterpret_cast<const char*>(p),
            static_cast<std::streamsize>(sizeof(float) * n));
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  DEEPPHI_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  return out;
}

// Checkpoints come from outside the program (/admin/swap, --model flags), so
// every dimension a header declares is bounded, and its payload must fit in
// the bytes left in the file before anything is allocated for it.
constexpr std::int64_t kMaxDim = std::int64_t{1} << 24;

/// One checkpoint open for reading, with its size known up front.
class Reader {
 public:
  /// Opens `path`; given an `expected` magic, also reads and checks the
  /// magic + version header.
  explicit Reader(const std::string& path, const char* expected = nullptr)
      : in_(path, std::ios::binary | std::ios::ate), path_(path) {
    DEEPPHI_CHECK_MSG(in_.good(), "cannot open '" << path << "'");
    size_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);
    if (expected == nullptr) return;
    DEEPPHI_CHECK_MSG(size_ >= 4 && magic() == expected,
                      "'" << path << "' is not a " << expected
                          << " checkpoint");
    check_version();
  }

  const std::string& path() const { return path_; }
  std::uint64_t size() const { return size_; }

  std::string magic() {
    char got[4];
    in_.read(got, 4);
    DEEPPHI_CHECK_MSG(in_.good(),
                      "'" << path_ << "' too short for a checkpoint");
    return std::string(got, 4);
  }

  void check_version() {
    const auto version = pod<std::uint32_t>();
    DEEPPHI_CHECK_MSG(version == kVersion,
                      "'" << path_ << "' has unsupported version " << version);
  }

  template <typename T>
  T pod() {
    T v{};
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    DEEPPHI_CHECK_MSG(in_.good(), "'" << path_ << "' truncated");
    return v;
  }

  /// A dimension field: positive and below kMaxDim.
  la::Index dim(const char* what) {
    const auto v = pod<std::int64_t>();
    DEEPPHI_CHECK_MSG(v >= 1 && v < kMaxDim, "'" << path_ << "' has implausible "
                                                  << what << " " << v);
    return static_cast<la::Index>(v);
  }

  /// Throws unless `bytes` are left in the file: called with the payload a
  /// header declares, before allocating for it.
  void expect_payload(std::uint64_t bytes, const std::string& what) {
    const std::uint64_t left = size_ - static_cast<std::uint64_t>(in_.tellg());
    DEEPPHI_CHECK_MSG(bytes <= left, "'" << path_ << "' " << what
                                         << " declares " << bytes
                                         << " payload bytes, but only " << left
                                         << " are left in the file");
  }

  /// `n` elements of payload into `p`.
  template <typename T>
  void read(T* p, la::Index n) {
    in_.read(reinterpret_cast<char*>(p),
             static_cast<std::streamsize>(sizeof(T) * n));
    DEEPPHI_CHECK_MSG(in_.good() || n == 0,
                      "'" << path_ << "' truncated in payload");
  }

 private:
  std::ifstream in_;
  std::string path_;
  std::uint64_t size_ = 0;
};

std::uint64_t float_bytes(std::int64_t n) {
  return sizeof(float) * static_cast<std::uint64_t>(n);
}

void write_sae_body(std::ofstream& out, const SparseAutoencoder& model) {
  const SaeConfig& cfg = model.config();
  write_pod(out, static_cast<std::int64_t>(cfg.visible));
  write_pod(out, static_cast<std::int64_t>(cfg.hidden));
  write_pod(out, cfg.lambda);
  write_pod(out, cfg.rho);
  write_pod(out, cfg.beta);
  write_pod(out, static_cast<std::int32_t>(cfg.tied_weights ? 1 : 0));
  write_floats(out, model.w1().data(), model.w1().size());
  write_floats(out, model.b1().data(), model.b1().size());
  write_floats(out, model.w2().data(), model.w2().size());
  write_floats(out, model.b2().data(), model.b2().size());
}

SparseAutoencoder read_sae_body(Reader& in) {
  SaeConfig cfg;
  cfg.visible = in.dim("visible size");
  cfg.hidden = in.dim("hidden size");
  cfg.lambda = in.pod<float>();
  cfg.rho = in.pod<float>();
  cfg.beta = in.pod<float>();
  cfg.tied_weights = in.pod<std::int32_t>() != 0;
  // w1, b1, w2, b2.
  in.expect_payload(float_bytes(2 * cfg.hidden * cfg.visible + cfg.hidden +
                                cfg.visible),
                    "SAE layer");
  SparseAutoencoder model(cfg, /*seed=*/0);
  in.read(model.w1().data(), model.w1().size());
  in.read(model.b1().data(), model.b1().size());
  in.read(model.w2().data(), model.w2().size());
  in.read(model.b2().data(), model.b2().size());
  return model;
}

void write_rbm_body(std::ofstream& out, const Rbm& model) {
  const RbmConfig& cfg = model.config();
  write_pod(out, static_cast<std::int64_t>(cfg.visible));
  write_pod(out, static_cast<std::int64_t>(cfg.hidden));
  write_pod(out, static_cast<std::int32_t>(cfg.cd_k));
  write_pod(out, static_cast<std::int32_t>(cfg.sample_visible ? 1 : 0));
  write_pod(out, static_cast<std::int32_t>(cfg.visible_type));
  write_pod(out, cfg.init_sigma);
  write_floats(out, model.w().data(), model.w().size());
  write_floats(out, model.b().data(), model.b().size());
  write_floats(out, model.c().data(), model.c().size());
}

Rbm read_rbm_body(Reader& in) {
  RbmConfig cfg;
  cfg.visible = in.dim("visible size");
  cfg.hidden = in.dim("hidden size");
  cfg.cd_k = static_cast<int>(in.pod<std::int32_t>());
  cfg.sample_visible = in.pod<std::int32_t>() != 0;
  const auto visible_type = in.pod<std::int32_t>();
  DEEPPHI_CHECK_MSG(
      visible_type >= 0 &&
          visible_type <= static_cast<std::int32_t>(VisibleType::kGaussian),
      "'" << in.path() << "' has unknown visible_type " << visible_type);
  cfg.visible_type = static_cast<VisibleType>(visible_type);
  cfg.init_sigma = in.pod<float>();
  // w, b, c.
  in.expect_payload(
      float_bytes(cfg.hidden * cfg.visible + cfg.visible + cfg.hidden),
      "RBM layer");
  Rbm model(cfg, /*seed=*/0);
  in.read(model.w().data(), model.w().size());
  in.read(model.b().data(), model.b().size());
  in.read(model.c().data(), model.c().size());
  return model;
}

/// The layer count of a DPSA / DPDB / DPQE file.
std::int64_t read_layer_count(Reader& in) {
  const auto layers = in.pod<std::int64_t>();
  DEEPPHI_CHECK_MSG(layers >= 1 && layers < 1024,
                    "'" << in.path() << "' has implausible layer count "
                        << layers);
  return layers;
}

/// The layers of a DPSA / DPDB body, each checked against the bytes left
/// before it is allocated, chained into one `Model`.
template <typename Model, typename Layer>
Model read_layers(Reader& in, Layer (*read_body)(Reader&)) {
  const std::int64_t layers = read_layer_count(in);
  std::vector<Layer> loaded;
  std::vector<la::Index> sizes;
  for (std::int64_t k = 0; k < layers; ++k) {
    loaded.push_back(read_body(in));
    if (k == 0) sizes.push_back(loaded.back().visible());
    DEEPPHI_CHECK_MSG(loaded.back().visible() == sizes.back(),
                      "'" << in.path() << "' layer " << k << " does not chain");
    sizes.push_back(loaded.back().hidden());
  }
  Model model(sizes, loaded.front().config(), /*seed=*/0);
  for (std::size_t k = 0; k < model.layers(); ++k)
    model.layer(k) = std::move(loaded[k]);
  return model;
}

std::unique_ptr<QuantizedEncoder> read_quantized(Reader& in) {
  const std::int64_t layers = read_layer_count(in);
  const auto group = static_cast<la::Index>(in.pod<std::int64_t>());
  DEEPPHI_CHECK_MSG(group > 0 && group % la::quant::kGroupAlign == 0 &&
                        group <= la::quant::kMaxGroup,
                    "'" << in.path() << "' has invalid quantization group "
                        << group);
  std::vector<QuantizedEncoder::Layer> loaded;
  loaded.reserve(static_cast<std::size_t>(layers));
  for (std::int64_t k = 0; k < layers; ++k) {
    const la::Index units = in.dim("unit count");
    const la::Index inputs = in.dim("input size");
    DEEPPHI_CHECK_MSG(loaded.empty() || inputs == loaded.back().w.rows(),
                      "'" << in.path() << "' layer " << k << " does not chain");
    // Float bias, float scales per group, zero-padded int8 codes.
    const la::Index groups = (inputs + group - 1) / group;
    in.expect_payload(float_bytes(units + units * groups) +
                          static_cast<std::uint64_t>(units * groups * group),
                      "quantized layer " + std::to_string(k));
    QuantizedEncoder::Layer l;
    l.bias = la::Vector::uninitialized(units);
    in.read(l.bias.data(), units);
    std::vector<float> scales(static_cast<std::size_t>(units * groups));
    std::vector<std::int8_t> codes(
        static_cast<std::size_t>(units * groups * group));
    in.read(scales.data(), units * groups);
    in.read(codes.data(), units * groups * group);
    // Validates the codes and padding, derives the group sums and packs.
    l.w = la::quant::QuantizedWeights::from_planes(units, inputs, group,
                                                   scales.data(), codes.data());
    loaded.push_back(std::move(l));
  }
  return std::make_unique<QuantizedEncoder>(std::move(loaded));
}

}  // namespace

void save_model(const SparseAutoencoder& model, const std::string& path) {
  std::ofstream out = open_out(path);
  write_magic(out, "DPAE");
  write_sae_body(out, model);
  DEEPPHI_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

SparseAutoencoder load_sae(const std::string& path) {
  Reader in(path, "DPAE");
  return read_sae_body(in);
}

void save_model(const Rbm& model, const std::string& path) {
  std::ofstream out = open_out(path);
  write_magic(out, "DPRB");
  write_rbm_body(out, model);
  DEEPPHI_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

Rbm load_rbm(const std::string& path) {
  Reader in(path, "DPRB");
  return read_rbm_body(in);
}

void save_model(const StackedAutoencoder& model, const std::string& path) {
  std::ofstream out = open_out(path);
  write_magic(out, "DPSA");
  write_pod(out, static_cast<std::int64_t>(model.layers()));
  for (std::size_t k = 0; k < model.layers(); ++k)
    write_sae_body(out, model.layer(k));
  DEEPPHI_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

StackedAutoencoder load_stacked_sae(const std::string& path) {
  Reader in(path, "DPSA");
  return read_layers<StackedAutoencoder>(in, read_sae_body);
}

void save_model(const Dbn& model, const std::string& path) {
  std::ofstream out = open_out(path);
  write_magic(out, "DPDB");
  write_pod(out, static_cast<std::int64_t>(model.layers()));
  for (std::size_t k = 0; k < model.layers(); ++k)
    write_rbm_body(out, model.layer(k));
  DEEPPHI_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

void save_model(const QuantizedEncoder& model, const std::string& path) {
  std::ofstream out = open_out(path);
  write_magic(out, "DPQE");
  write_pod(out, static_cast<std::int64_t>(model.layers()));
  write_pod(out, static_cast<std::int64_t>(model.group()));
  for (std::size_t k = 0; k < model.layers(); ++k) {
    const QuantizedEncoder::Layer& l = model.layer(k);
    write_pod(out, static_cast<std::int64_t>(l.w.rows()));
    write_pod(out, static_cast<std::int64_t>(l.w.cols()));
    write_floats(out, l.bias.data(), l.bias.size());
    write_floats(out, l.w.scales(0), l.w.rows() * l.w.groups());
    // Codes include the zero padding to the group boundary, so the payload
    // is one contiguous plane and the loader needs no per-row reassembly.
    out.write(reinterpret_cast<const char*>(l.w.codes(0)),
              static_cast<std::streamsize>(l.w.rows() * l.w.padded_cols()));
  }
  DEEPPHI_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

std::unique_ptr<QuantizedEncoder> load_quantized(const std::string& path) {
  Reader in(path, "DPQE");
  return read_quantized(in);
}

Dbn load_dbn(const std::string& path) {
  Reader in(path, "DPDB");
  return read_layers<Dbn>(in, read_rbm_body);
}

}  // namespace deepphi::core

namespace deepphi::model_io {

namespace {

template <typename Model>
std::unique_ptr<core::Encoder> boxed(Model model) {
  return std::make_unique<Model>(std::move(model));
}

}  // namespace

LoadedModel load_any(const std::string& path) {
  using core::Reader;
  Reader in(path);
  LoadedModel loaded;
  loaded.magic = in.magic();
  const std::string& m = loaded.magic;
  // The body reader is picked before the version is read, so a file of
  // another kind is reported by its magic.
  std::unique_ptr<core::Encoder> (*read_body)(Reader&);
  if (m == "DPAE") {
    read_body = [](Reader& r) { return boxed(core::read_sae_body(r)); };
  } else if (m == "DPRB") {
    read_body = [](Reader& r) { return boxed(core::read_rbm_body(r)); };
  } else if (m == "DPSA") {
    read_body = [](Reader& r) {
      return boxed(core::read_layers<core::StackedAutoencoder>(
          r, core::read_sae_body));
    };
  } else if (m == "DPDB") {
    read_body = [](Reader& r) {
      return boxed(core::read_layers<core::Dbn>(r, core::read_rbm_body));
    };
  } else if (m == "DPQE") {
    read_body = [](Reader& r) -> std::unique_ptr<core::Encoder> {
      return core::read_quantized(r);
    };
  } else {
    throw util::Error("'" + path + "' has unknown checkpoint magic '" + m +
                      "' (known: DPAE, DPRB, DPSA, DPDB, DPQE)");
  }
  in.check_version();
  loaded.model = read_body(in);
  loaded.file_bytes = in.size();
  return loaded;
}

}  // namespace deepphi::model_io
