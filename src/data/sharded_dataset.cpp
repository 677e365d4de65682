#include "data/sharded_dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/io_util.hpp"
#include "la/simd/dispatch.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DEEPPHI_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace deepphi::data {

namespace fs = std::filesystem;

const char* dtype_name(ShardDtype dtype) {
  switch (dtype) {
    case ShardDtype::kF32: return "f32";
    case ShardDtype::kU8: return "u8";
  }
  return "?";
}

ShardDtype parse_dtype(const std::string& name) {
  if (name == "f32") return ShardDtype::kF32;
  if (name == "u8") return ShardDtype::kU8;
  throw IoError("unknown shard dtype '" + name + "' (f32|u8)");
}

std::size_t dtype_size(ShardDtype dtype) {
  return dtype == ShardDtype::kF32 ? 4 : 1;
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t state) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::uint64_t Manifest::total_bytes() const {
  std::uint64_t total = 0;
  for (const ShardEntry& s : shards) total += s.bytes;
  return total;
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::uint64_t parse_hex64(const std::string& s, const std::string& path) {
  if (s.empty() || s.size() > 16)
    throw IoError("'" + path + "' has malformed checksum '" + s + "'");
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else throw IoError("'" + path + "' has malformed checksum '" + s + "'");
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

Index json_index(const util::JsonValue& v, const char* key,
                 const std::string& path) {
  if (!v.has(key) || !v.at(key).is_number())
    throw IoError("'" + path + "' manifest missing numeric field '" +
                  std::string(key) + "'");
  const double d = v.at(key).as_number();
  if (d < 0 || d != std::floor(d))
    throw IoError("'" + path + "' manifest field '" + std::string(key) +
                  "' must be a non-negative integer, got " +
                  std::to_string(d));
  return static_cast<Index>(d);
}

}  // namespace

Manifest read_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  util::JsonValue doc;
  try {
    doc = util::parse_json(buf.str());
  } catch (const util::Error& e) {
    throw IoError("'" + path + "' is not valid JSON: " + e.what());
  }
  if (!doc.is_object() || !doc.has("schema") || !doc.at("schema").is_string() ||
      doc.at("schema").as_string() != kManifestSchema)
    throw IoError("'" + path + "' is not a " + std::string(kManifestSchema) +
                  " manifest");
  Manifest m;
  m.rows = json_index(doc, "rows", path);
  m.dim = json_index(doc, "dim", path);
  if (m.dim < 1)
    throw IoError("'" + path + "' manifest has dim " + std::to_string(m.dim) +
                  " (must be >= 1)");
  if (!doc.has("dtype") || !doc.at("dtype").is_string())
    throw IoError("'" + path + "' manifest missing string field 'dtype'");
  m.dtype = parse_dtype(doc.at("dtype").as_string());
  if (!doc.has("shards") || !doc.at("shards").is_array())
    throw IoError("'" + path + "' manifest missing array field 'shards'");
  const std::size_t esize = dtype_size(m.dtype);
  Index covered = 0;
  for (const util::JsonValue& sv : doc.at("shards").as_array()) {
    if (!sv.is_object() || !sv.has("path") || !sv.at("path").is_string())
      throw IoError("'" + path + "' manifest shard entry missing 'path'");
    ShardEntry e;
    e.path = sv.at("path").as_string();
    e.rows = json_index(sv, "rows", path);
    e.offset = sv.has("offset")
                   ? static_cast<std::uint64_t>(json_index(sv, "offset", path))
                   : 0;
    e.bytes = static_cast<std::uint64_t>(json_index(sv, "bytes", path));
    if (!sv.has("checksum") || !sv.at("checksum").is_string())
      throw IoError("'" + path + "' manifest shard '" + e.path +
                    "' missing 'checksum'");
    e.checksum = parse_hex64(sv.at("checksum").as_string(), path);
    const std::uint64_t need = static_cast<std::uint64_t>(e.rows) *
                               static_cast<std::uint64_t>(m.dim) * esize;
    if (e.bytes != need)
      throw IoError("'" + path + "' manifest shard '" + e.path +
                    "' byte count mismatch: manifest says " +
                    std::to_string(e.bytes) + " bytes, " +
                    std::to_string(e.rows) + " rows x " +
                    std::to_string(m.dim) + " " + dtype_name(m.dtype) +
                    " need " + std::to_string(need));
    covered += e.rows;
    m.shards.push_back(std::move(e));
  }
  if (covered != m.rows)
    throw IoError("'" + path + "' manifest rows " + std::to_string(m.rows) +
                  " != sum of shard rows " + std::to_string(covered));
  return m;
}

void write_manifest(const Manifest& manifest, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good())
    throw IoError("cannot open '" + path + "' for writing");
  util::JsonWriter w(out);
  w.begin_object();
  w.member("schema", kManifestSchema);
  w.member("rows", static_cast<std::int64_t>(manifest.rows));
  w.member("dim", static_cast<std::int64_t>(manifest.dim));
  w.member("dtype", dtype_name(manifest.dtype));
  w.key("shards");
  w.begin_array();
  for (const ShardEntry& e : manifest.shards) {
    w.begin_object();
    w.member("path", e.path);
    w.member("rows", static_cast<std::int64_t>(e.rows));
    w.member("offset", e.offset);
    w.member("bytes", e.bytes);
    w.member("checksum", hex64(e.checksum));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  if (!out.good()) throw IoError("write to '" + path + "' failed");
}

// --- mmap backing ---------------------------------------------------------

class ShardedDataset::MappedFile {
 public:
  /// Maps `path` read-only; throws IoError when the file cannot be opened
  /// or holds fewer than `need_bytes` bytes.
  MappedFile(const std::string& path, std::uint64_t need_bytes) : path_(path) {
#if DEEPPHI_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw IoError("cannot open shard '" + path + "'");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw IoError("cannot stat shard '" + path + "'");
    }
    len_ = static_cast<std::size_t>(st.st_size);
    if (len_ < need_bytes) {
      ::close(fd);
      detail::throw_truncated(path, "shard payload",
                              static_cast<std::size_t>(need_bytes), len_);
    }
    if (len_ > 0) {
      addr_ = ::mmap(nullptr, len_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (addr_ == MAP_FAILED) {
        ::close(fd);
        addr_ = nullptr;
        throw IoError("mmap of shard '" + path + "' failed");
      }
    }
    ::close(fd);
#else
    // Portable fallback: buffer the whole file (loses the out-of-core
    // property but keeps the format readable everywhere).
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.good()) throw IoError("cannot open shard '" + path + "'");
    len_ = static_cast<std::size_t>(in.tellg());
    if (len_ < need_bytes)
      detail::throw_truncated(path, "shard payload",
                              static_cast<std::size_t>(need_bytes), len_);
    fallback_.resize(len_);
    in.seekg(0);
    if (len_ > 0)
      detail::read_exact(in, fallback_.data(), len_, path, "shard payload");
#endif
  }

  ~MappedFile() {
#if DEEPPHI_HAVE_MMAP
    if (addr_ != nullptr) ::munmap(addr_, len_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const {
#if DEEPPHI_HAVE_MMAP
    return static_cast<const unsigned char*>(addr_);
#else
    return fallback_.data();
#endif
  }

  std::size_t size() const { return len_; }

  /// Kernel readahead hint for [offset, offset+len) of the mapping.
  void advise_willneed(std::size_t offset, std::size_t len) const {
#if DEEPPHI_HAVE_MMAP
    if (addr_ == nullptr || len == 0 || offset >= len_) return;
    len = std::min(len, len_ - offset);
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t aligned = offset & ~(page - 1);
    ::madvise(static_cast<char*>(addr_) + aligned, len + (offset - aligned),
              MADV_WILLNEED);
#else
    (void)offset;
    (void)len;
#endif
  }

 private:
  std::string path_;
#if DEEPPHI_HAVE_MMAP
  void* addr_ = nullptr;
#else
  std::vector<unsigned char> fallback_;
#endif
  std::size_t len_ = 0;
};

// --- ShardedDataset -------------------------------------------------------

ShardedDataset ShardedDataset::open(const std::string& manifest_path,
                                    OpenOptions options) {
  ShardedDataset set;
  set.manifest_ = read_manifest(manifest_path);
  set.manifest_path_ = manifest_path;
  const fs::path dir = fs::path(manifest_path).parent_path();
  set.row_begin_.reserve(set.manifest_.shards.size() + 1);
  set.row_begin_.push_back(0);
  for (const ShardEntry& e : set.manifest_.shards) {
    const std::string full = (dir / e.path).string();
    auto map = std::make_shared<MappedFile>(full, e.offset + e.bytes);
    const unsigned char* payload = e.bytes > 0 ? map->data() + e.offset
                                               : nullptr;
    if (options.verify_checksums && e.bytes > 0) {
      const std::uint64_t got =
          fnv1a64(payload, static_cast<std::size_t>(e.bytes));
      if (got != e.checksum)
        throw IoError("shard '" + full + "' corrupt: payload checksum " +
                      hex64(got) + " != manifest " + hex64(e.checksum));
    }
    set.maps_.push_back(std::move(map));
    set.payload_.push_back(payload);
    set.row_begin_.push_back(set.row_begin_.back() + e.rows);
  }
  return set;
}

std::size_t ShardedDataset::shard_of(Index row) const {
  // row_begin_ is sorted; find the shard whose [begin, end) holds `row`.
  const auto it =
      std::upper_bound(row_begin_.begin(), row_begin_.end(), row);
  return static_cast<std::size_t>(it - row_begin_.begin()) - 1;
}

void ShardedDataset::decode_span(std::size_t s, Index local, Index count,
                                 float* dst) const {
  const Index d = dim();
  const std::size_t esize = dtype_size(manifest_.dtype);
  const unsigned char* src =
      payload_[s] + static_cast<std::size_t>(local) *
                        static_cast<std::size_t>(d) * esize;
  if (manifest_.dtype == ShardDtype::kF32) {
    std::memcpy(dst, src,
                sizeof(float) * static_cast<std::size_t>(count * d));
  } else {
    // Same decode rule as the IDX loader, so u8 shards of an IDX corpus
    // train bitwise-identically to the in-memory load.
    la::simd::active().decode_u8(src, dst, count * d);
  }
}

void ShardedDataset::copy_rows(Index begin, Index count,
                               la::Matrix& out) const {
  DEEPPHI_CHECK_MSG(begin >= 0 && count >= 0 && begin + count <= rows(),
                    "batch [" << begin << ", " << begin + count << ") out of "
                              << rows() << " examples");
  DEEPPHI_CHECK_MSG(out.rows() == count && out.cols() == dim(),
                    "batch target must be " << count << "x" << dim()
                                            << ", got " << out.rows() << "x"
                                            << out.cols());
  Index row = begin;
  Index written = 0;
  while (written < count) {
    const std::size_t s = shard_of(row);
    const Index span = std::min(count - written, row_begin_[s + 1] - row);
    decode_span(s, row - row_begin_[s], span, out.row(written));
    row += span;
    written += span;
  }
}

void ShardedDataset::copy_rows(const std::vector<Index>& indices,
                               la::Matrix& out) const {
  DEEPPHI_CHECK_MSG(out.rows() == static_cast<Index>(indices.size()) &&
                        out.cols() == dim(),
                    "gather target must be " << indices.size() << "x" << dim()
                                             << ", got " << out.rows() << "x"
                                             << out.cols());
  // Every index is checked in one pass before any row is decoded.
  const Index n = rows();
  const auto bad = std::find_if(indices.begin(), indices.end(),
                                [n](Index i) { return i < 0 || i >= n; });
  DEEPPHI_CHECK_MSG(bad == indices.end(),
                    "example index " << *bad << " out of " << n);
  // The window shuffle hands us runs that stay inside one window, which
  // nearly always lands in a single shard — memoize the last hit so the
  // steady state skips the binary search, and hoist the f32 row copy out
  // of decode_span (the per-row dispatch showed up in bench_data_pipeline).
  const Index d = dim();
  const std::size_t esize = dtype_size(manifest_.dtype);
  const std::size_t row_bytes = static_cast<std::size_t>(d) * esize;
  const auto decode_u8 = la::simd::active().decode_u8;
  std::size_t s = 0;
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const Index i = indices[r];
    if (i < row_begin_[s] || i >= row_begin_[s + 1]) s = shard_of(i);
    const unsigned char* src =
        payload_[s] + static_cast<std::size_t>(i - row_begin_[s]) * row_bytes;
    float* dst = out.row(static_cast<Index>(r));
    if (manifest_.dtype == ShardDtype::kF32) {
      std::memcpy(dst, src, sizeof(float) * static_cast<std::size_t>(d));
    } else {
      decode_u8(src, dst, d);
    }
  }
}

void ShardedDataset::prefetch(Index begin, Index count) const {
  if (count <= 0) return;
  begin = std::max<Index>(begin, 0);
  count = std::min(count, rows() - begin);
  if (count <= 0) return;
  const std::size_t row_bytes =
      static_cast<std::size_t>(dim()) * dtype_size(manifest_.dtype);
  Index row = begin;
  Index left = count;
  while (left > 0) {
    const std::size_t s = shard_of(row);
    const Index span = std::min(left, row_begin_[s + 1] - row);
    const std::size_t local = static_cast<std::size_t>(row - row_begin_[s]);
    maps_[s]->advise_willneed(
        static_cast<std::size_t>(manifest_.shards[s].offset) +
            local * row_bytes,
        static_cast<std::size_t>(span) * row_bytes);
    row += span;
    left -= span;
  }
}

SourceInfo ShardedDataset::info() const {
  SourceInfo info;
  info.kind = "sharded";
  info.format = dtype_name(manifest_.dtype);
  info.bytes = manifest_.total_bytes();
  return info;
}

// --- Writer ---------------------------------------------------------------

std::string write_sharded(const StreamingSource& source, const std::string& dir,
                          ShardWriteOptions options) {
  DEEPPHI_CHECK_MSG(options.rows_per_shard >= 1,
                    "rows_per_shard must be >= 1, got "
                        << options.rows_per_shard);
  DEEPPHI_CHECK_MSG(source.dim() >= 1,
                    "cannot shard a source of dim " << source.dim());
  fs::create_directories(dir);
  const Index n = source.rows();
  const Index d = source.dim();
  const std::size_t esize = dtype_size(options.dtype);
  // Bounded staging: decode at most this many rows at a time, so sharding a
  // 100 GB source needs megabytes, not the source.
  const Index stage_rows = std::min<Index>(options.rows_per_shard, 4096);
  la::Matrix stage;
  std::vector<unsigned char> encoded;

  Manifest manifest;
  manifest.rows = n;
  manifest.dim = d;
  manifest.dtype = options.dtype;
  int shard_index = 0;
  for (Index begin = 0; begin < n; begin += options.rows_per_shard) {
    const Index shard_rows = std::min(options.rows_per_shard, n - begin);
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%04d.bin", shard_index++);
    const std::string full = (fs::path(dir) / name).string();
    std::ofstream out(full, std::ios::binary | std::ios::trunc);
    if (!out.good()) throw IoError("cannot open '" + full + "' for writing");
    std::uint64_t checksum = kFnvOffsetBasis;
    for (Index off = 0; off < shard_rows; off += stage_rows) {
      const Index count = std::min(stage_rows, shard_rows - off);
      if (stage.rows() != count || stage.cols() != d)
        stage = la::Matrix::uninitialized(count, d);
      source.copy_rows(begin + off, count, stage);
      const std::size_t bytes =
          static_cast<std::size_t>(count * d) * esize;
      encoded.resize(bytes);
      if (options.dtype == ShardDtype::kF32) {
        std::memcpy(encoded.data(), stage.data(), bytes);
      } else {
        const float* src = stage.data();
        // Mirror save_idx_images' quantization exactly.
        for (std::size_t i = 0; i < bytes; ++i) {
          const float v = std::clamp(src[i], 0.0f, 1.0f);
          encoded[i] = static_cast<unsigned char>(std::lround(v * 255.0f));
        }
      }
      checksum = fnv1a64(encoded.data(), bytes, checksum);
      out.write(reinterpret_cast<const char*>(encoded.data()),
                static_cast<std::streamsize>(bytes));
    }
    if (!out.good()) throw IoError("write to '" + full + "' failed");
    ShardEntry entry;
    entry.path = name;
    entry.rows = shard_rows;
    entry.offset = 0;
    entry.bytes = static_cast<std::uint64_t>(shard_rows) *
                  static_cast<std::uint64_t>(d) * esize;
    entry.checksum = checksum;
    manifest.shards.push_back(std::move(entry));
  }
  const std::string manifest_path = (fs::path(dir) / "manifest.json").string();
  write_manifest(manifest, manifest_path);
  return manifest_path;
}

}  // namespace deepphi::data
