// Dense row-major single-precision matrix and vector types.
//
// Storage is 64-byte aligned (Phi VPU cache-line width); stride equals the
// column count (no row padding) so a matrix is also a flat array of
// rows*cols floats — the data pipeline and offload engine rely on that.
// These are deliberately plain owning containers: all math lives in the
// free-function kernels (blas1/blas2/gemm/elementwise/reduce) so each kernel
// can report its KernelStats contribution. Objects created under a
// phi::DryRun scope carry a shape but no storage (data() is null).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

#include "util/aligned.hpp"
#include "util/error.hpp"

namespace deepphi::la {

using Index = std::int64_t;

class Matrix {
 public:
  /// Empty 0×0 matrix.
  Matrix() = default;

  /// rows×cols matrix, zero-initialized.
  Matrix(Index rows, Index cols);

  /// rows×cols matrix with uninitialized contents (hot-path temporaries).
  static Matrix uninitialized(Index rows, Index cols);

  /// rows×cols matrix where every element is `value`.
  static Matrix constant(Index rows, Index cols, float value);

  /// Build from a nested initializer list (tests / small fixtures).
  static Matrix from_rows(std::initializer_list<std::initializer_list<float>> rows);

  Matrix(const Matrix& o);
  Matrix& operator=(const Matrix& o);
  Matrix(Matrix&& o) noexcept;
  Matrix& operator=(Matrix&& o) noexcept;
  ~Matrix() = default;

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float* row(Index r) { return data_.get() + r * cols_; }
  const float* row(Index r) const { return data_.get() + r * cols_; }

  /// Unchecked element access (hot paths).
  float& operator()(Index r, Index c) { return data_.get()[r * cols_ + c]; }
  float operator()(Index r, Index c) const { return data_.get()[r * cols_ + c]; }

  /// Bounds-checked element access; throws util::Error.
  float& at(Index r, Index c);
  float at(Index r, Index c) const;

  /// Sets every element to `value`.
  void fill(float value);

  /// Sets every element to zero.
  void zero() { fill(0.0f); }

  /// Copies contents from `o`; shapes must match.
  void copy_from(const Matrix& o);

  /// Reshapes in place; the element count must be preserved.
  void reshape(Index rows, Index cols);

  /// True when shapes match and all elements are within `atol + rtol*|b|`.
  bool approx_equal(const Matrix& o, float rtol = 1e-5f, float atol = 1e-6f) const;

  /// "3x4 matrix" plus contents for small matrices — debugging aid.
  std::string to_string(Index max_rows = 8, Index max_cols = 8) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  util::AlignedBuffer<float> data_;
};

class Vector {
 public:
  Vector() = default;
  explicit Vector(Index n);
  static Vector uninitialized(Index n);
  static Vector constant(Index n, float value);
  static Vector from(std::initializer_list<float> values);

  Vector(const Vector& o);
  Vector& operator=(const Vector& o);
  Vector(Vector&& o) noexcept;
  Vector& operator=(Vector&& o) noexcept;
  ~Vector() = default;

  Index size() const { return n_; }
  bool empty() const { return n_ == 0; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float& operator[](Index i) { return data_.get()[i]; }
  float operator[](Index i) const { return data_.get()[i]; }

  float& at(Index i);
  float at(Index i) const;

  void fill(float value);
  void zero() { fill(0.0f); }
  void copy_from(const Vector& o);

  bool approx_equal(const Vector& o, float rtol = 1e-5f, float atol = 1e-6f) const;

  std::string to_string(Index max_elems = 16) const;

 private:
  Index n_ = 0;
  util::AlignedBuffer<float> data_;
};

}  // namespace deepphi::la
