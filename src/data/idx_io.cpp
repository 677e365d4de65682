#include "data/idx_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "data/io_util.hpp"
#include "la/simd/dispatch.hpp"
#include "util/error.hpp"

namespace deepphi::data {

namespace {

std::uint32_t read_be32(std::ifstream& in, const std::string& path) {
  unsigned char b[4];
  detail::read_exact(in, b, 4, path, "IDX header");
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) | b[3];
}

void write_be32(std::ofstream& out, std::uint32_t v) {
  const unsigned char b[4] = {static_cast<unsigned char>(v >> 24),
                              static_cast<unsigned char>(v >> 16),
                              static_cast<unsigned char>(v >> 8),
                              static_cast<unsigned char>(v)};
  out.write(reinterpret_cast<const char*>(b), 4);
}

}  // namespace

Dataset load_idx_images(const std::string& path, Index* rows_out,
                        Index* cols_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw IoError("cannot open '" + path + "'");
  const std::uint32_t magic = read_be32(in, path);
  DEEPPHI_CHECK_MSG(magic == 0x00000803,
                    "'" << path << "' is not an IDX3 u8 image file (magic 0x"
                        << std::hex << magic << ")");
  const std::uint32_t n = read_be32(in, path);
  const std::uint32_t rows = read_be32(in, path);
  const std::uint32_t cols = read_be32(in, path);
  DEEPPHI_CHECK_MSG(rows > 0 && cols > 0 && rows < 65536 && cols < 65536,
                    "'" << path << "' has implausible geometry " << rows << "x"
                        << cols);
  Dataset set(static_cast<Index>(n), static_cast<Index>(rows * cols));
  std::vector<unsigned char> row_buf(rows * cols);
  for (std::uint32_t i = 0; i < n; ++i) {
    detail::read_exact(in, row_buf.data(), row_buf.size(), path,
                       "IDX image " + std::to_string(i) + " of " +
                           std::to_string(n));
    // float(b) / 255, the rule u8 shards decode with too.
    la::simd::active().decode_u8(row_buf.data(),
                                 set.example(static_cast<Index>(i)),
                                 static_cast<Index>(row_buf.size()));
  }
  if (rows_out) *rows_out = static_cast<Index>(rows);
  if (cols_out) *cols_out = static_cast<Index>(cols);
  return set;
}

std::vector<int> load_idx_labels(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw IoError("cannot open '" + path + "'");
  const std::uint32_t magic = read_be32(in, path);
  DEEPPHI_CHECK_MSG(magic == 0x00000801,
                    "'" << path << "' is not an IDX1 u8 label file");
  const std::uint32_t n = read_be32(in, path);
  std::vector<unsigned char> buf(n);
  if (n > 0) detail::read_exact(in, buf.data(), n, path, "IDX labels");
  return std::vector<int>(buf.begin(), buf.end());
}

void save_idx_images(const Dataset& images, Index side, const std::string& path) {
  DEEPPHI_CHECK_MSG(side * side == images.dim(),
                    "side² (" << side * side << ") != dim (" << images.dim()
                              << ")");
  std::ofstream out(path, std::ios::binary);
  DEEPPHI_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_be32(out, 0x00000803);
  write_be32(out, static_cast<std::uint32_t>(images.size()));
  write_be32(out, static_cast<std::uint32_t>(side));
  write_be32(out, static_cast<std::uint32_t>(side));
  std::vector<unsigned char> row_buf(static_cast<std::size_t>(images.dim()));
  for (Index i = 0; i < images.size(); ++i) {
    const float* src = images.example(i);
    for (Index j = 0; j < images.dim(); ++j) {
      const float v = std::clamp(src[j], 0.0f, 1.0f);
      row_buf[static_cast<std::size_t>(j)] =
          static_cast<unsigned char>(std::lround(v * 255.0f));
    }
    out.write(reinterpret_cast<const char*>(row_buf.data()),
              static_cast<std::streamsize>(row_buf.size()));
  }
  DEEPPHI_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

void save_idx_labels(const std::vector<int>& labels, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  DEEPPHI_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_be32(out, 0x00000801);
  write_be32(out, static_cast<std::uint32_t>(labels.size()));
  for (int label : labels) {
    DEEPPHI_CHECK_MSG(label >= 0 && label <= 255, "label " << label
                                                           << " out of u8 range");
    const unsigned char b = static_cast<unsigned char>(label);
    out.write(reinterpret_cast<const char*>(&b), 1);
  }
  DEEPPHI_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

}  // namespace deepphi::data
