// Int8 quantized serving vs fp32 — the low-precision inference tier of
// ROADMAP item "quantized inference path".
//
// The related Xeon Phi studies (Viebke & Pllana; CHAOS) find these wide
// encoder GEMMs bandwidth-bound, which is exactly where int8 pays: weights
// shrink 4x and the VNNI-class dot kernel retires 4 multiply-accumulates
// per lane per instruction. This bench measures the real serving path
// (RequestQueue -> batcher -> ThreadPool -> Encoder::encode) on Fig. 7-class
// single-layer shapes, fp32 vs the same model quantized with
// core::QuantizedEncoder, at the paper-favored coalesce size of 64 — plus
// the accuracy side of the trade: mean/max |int8 - fp32| encode delta on a
// probe batch, reported in the same table (and JSON document) as the
// throughput.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <vector>

#include "bench_common.hpp"
#include "core/quantized_encoder.hpp"
#include "core/sparse_autoencoder.hpp"
#include "la/simd/dispatch.hpp"
#include "serve/inference_server.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace {

using namespace deepphi;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

la::Matrix random_rows(la::Index rows, la::Index dim, std::uint64_t seed) {
  util::Rng rng(seed, /*stream=*/0x8BA7);
  la::Matrix m(rows, dim);
  for (la::Index i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_float();
  return m;
}

/// Closed-loop saturation (same shape as bench_serving): keep a fixed window
/// outstanding for `seconds`, count completions.
double served_rps(const core::Encoder& model, la::Index max_batch,
                  double seconds, const la::Matrix& inputs) {
  serve::ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_delay_s = 1e-3;
  cfg.queue_capacity = 4096;
  serve::InferenceServer server(model, cfg);

  std::deque<std::future<serve::Reply>> window;
  const std::size_t window_size = 512;
  const double start = now_s();
  la::Index next = 0;
  while (now_s() - start < seconds) {
    while (window.size() >= window_size) {
      window.front().get();
      window.pop_front();
    }
    window.push_back(server.submit(inputs.row(next), inputs.cols()));
    next = (next + 1) % inputs.rows();
  }
  for (auto& f : window) f.get();
  const double wall = now_s() - start;
  server.shutdown();
  return static_cast<double>(server.stats().completed) / wall;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("seconds", "measurement window per configuration", "0.5");
  options.declare("shapes",
                  "visible x hidden layer shapes to sweep (Fig. 7-class)",
                  "576x1024,1024x4096,2048x8192");
  options.declare("max-batch", "serving coalesce size", "64");
  options.declare("group", "quantization group (codes per scale)", "64");
  options.declare("probe", "probe batch rows for the accuracy delta", "256");
  options.validate();

  bench::banner(
      "Int8 quantized serving vs fp32",
      "Served rows/s of InferenceServer at the paper-favored batch size, "
      "fp32 encoder vs the same weights groupwise-quantized to int8 "
      "(VNNI-class quant_dot kernels), with the encode-accuracy delta.");
  bench::set_precision("int8");

  const double seconds = options.get_double("seconds");
  const auto max_batch = static_cast<la::Index>(options.get_int("max-batch"));
  const auto group = static_cast<la::Index>(options.get_int("group"));
  const auto probe = static_cast<la::Index>(options.get_int("probe"));

  std::printf("tier: %s, closed-loop window 512, max_batch %lld, %.2fs per "
              "point\n\n",
              la::simd::tier_name(la::simd::active_tier()),
              static_cast<long long>(max_batch), seconds);

  util::Table table({"shape", "fp32_rps", "int8_rps", "speedup",
                     "mean_abs_err", "max_abs_err"});
  for (const std::string& spec : util::split(options.get_string("shapes"), ',')) {
    const std::vector<std::string> dims = util::split(spec, 'x');
    DEEPPHI_CHECK_MSG(dims.size() == 2,
                      "--shapes entries must be VISIBLExHIDDEN, got " << spec);
    core::SaeConfig cfg;
    cfg.visible = static_cast<la::Index>(util::parse_double(dims[0]));
    cfg.hidden = static_cast<la::Index>(util::parse_double(dims[1]));
    const core::SparseAutoencoder fp32(cfg, /*seed=*/7);
    const std::unique_ptr<core::QuantizedEncoder> int8 =
        core::QuantizedEncoder::from(fp32, group);

    // Accuracy first (cheap): probe-batch encode delta.
    const la::Matrix x = random_rows(probe, cfg.visible, 7);
    la::Matrix y_fp32, y_int8;
    fp32.encode(x, y_fp32);
    int8->encode(x, y_int8);
    double mean_abs = 0, max_abs = 0;
    for (la::Index i = 0; i < y_fp32.size(); ++i) {
      const double d = std::fabs(static_cast<double>(y_fp32.data()[i]) -
                                 static_cast<double>(y_int8.data()[i]));
      mean_abs += d;
      max_abs = std::max(max_abs, d);
    }
    mean_abs /= static_cast<double>(y_fp32.size());

    const la::Matrix inputs = random_rows(1024, cfg.visible, 7);
    const double fp32_rps = served_rps(fp32, max_batch, seconds, inputs);
    const double int8_rps = served_rps(*int8, max_batch, seconds, inputs);
    table.add_row({spec, util::Table::cell(fp32_rps),
                   util::Table::cell(int8_rps),
                   util::Table::cell(int8_rps / fp32_rps),
                   util::Table::cell(mean_abs), util::Table::cell(max_abs)});
    std::printf("  %s: fp32 %.0f rows/s, int8 %.0f rows/s (%.2fx), "
                "mean |d| %.2g\n",
                spec.c_str(), fp32_rps, int8_rps, int8_rps / fp32_rps,
                mean_abs);
  }
  std::printf("\n");
  bench::emit(options, table, bench::Clock::kMeasured);
  return 0;
}
