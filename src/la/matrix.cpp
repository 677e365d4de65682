#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {
bool elem_close(float a, float b, float rtol, float atol) {
  return std::fabs(a - b) <= atol + rtol * std::fabs(b);
}

// Storage for n floats — none under phi::DryRun, where a Matrix or Vector
// is a shape only. Every member below that touches elements skips a missing
// buffer, so shape-only objects construct, copy and fill safely.
util::AlignedBuffer<float> storage(Index n) {
  if (phi::dry_run()) return {};
  return util::make_aligned<float>(static_cast<std::size_t>(n));
}

void copy_floats(float* dst, const float* src, Index n) {
  if (dst && src && n > 0) std::memcpy(dst, src, sizeof(float) * n);
}
}  // namespace

Matrix::Matrix(Index rows, Index cols) : rows_(rows), cols_(cols) {
  DEEPPHI_CHECK_MSG(rows >= 0 && cols >= 0, "negative shape " << rows << "x" << cols);
  data_ = storage(rows * cols);
  fill(0.0f);
}

Matrix Matrix::uninitialized(Index rows, Index cols) {
  Matrix m;
  DEEPPHI_CHECK_MSG(rows >= 0 && cols >= 0, "negative shape " << rows << "x" << cols);
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = storage(rows * cols);
  return m;
}

Matrix Matrix::constant(Index rows, Index cols, float value) {
  Matrix m = uninitialized(rows, cols);
  m.fill(value);
  return m;
}

Matrix Matrix::from_rows(std::initializer_list<std::initializer_list<float>> rows) {
  const Index r = static_cast<Index>(rows.size());
  const Index c = r == 0 ? 0 : static_cast<Index>(rows.begin()->size());
  Matrix m = uninitialized(r, c);
  Index i = 0;
  for (const auto& row : rows) {
    DEEPPHI_CHECK_MSG(static_cast<Index>(row.size()) == c,
                      "ragged initializer: row " << i << " has " << row.size()
                                                 << " cols, expected " << c);
    std::copy(row.begin(), row.end(), m.row(i));
    ++i;
  }
  return m;
}

Matrix::Matrix(const Matrix& o) : rows_(o.rows_), cols_(o.cols_) {
  data_ = storage(size());
  copy_floats(data_.get(), o.data_.get(), size());
}

Matrix& Matrix::operator=(const Matrix& o) {
  if (this == &o) return *this;
  if (size() != o.size() || !data_) data_ = storage(o.size());
  rows_ = o.rows_;
  cols_ = o.cols_;
  copy_floats(data_.get(), o.data_.get(), size());
  return *this;
}

Matrix::Matrix(Matrix&& o) noexcept
    : rows_(o.rows_), cols_(o.cols_), data_(std::move(o.data_)) {
  o.rows_ = o.cols_ = 0;
}

Matrix& Matrix::operator=(Matrix&& o) noexcept {
  rows_ = o.rows_;
  cols_ = o.cols_;
  data_ = std::move(o.data_);
  o.rows_ = o.cols_ = 0;
  return *this;
}

float& Matrix::at(Index r, Index c) {
  DEEPPHI_CHECK_MSG(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                    "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return (*this)(r, c);
}

float Matrix::at(Index r, Index c) const {
  DEEPPHI_CHECK_MSG(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                    "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return (*this)(r, c);
}

void Matrix::fill(float value) {
  if (data_) std::fill_n(data_.get(), static_cast<std::size_t>(size()), value);
}

void Matrix::copy_from(const Matrix& o) {
  DEEPPHI_CHECK_MSG(rows_ == o.rows_ && cols_ == o.cols_,
                    "copy_from shape mismatch: " << rows_ << "x" << cols_ << " vs "
                                                 << o.rows_ << "x" << o.cols_);
  copy_floats(data_.get(), o.data_.get(), size());
}

void Matrix::reshape(Index rows, Index cols) {
  DEEPPHI_CHECK_MSG(rows * cols == size(),
                    "reshape " << rows_ << "x" << cols_ << " -> " << rows << "x"
                               << cols << " changes element count");
  rows_ = rows;
  cols_ = cols;
}

bool Matrix::approx_equal(const Matrix& o, float rtol, float atol) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) return false;
  for (Index i = 0; i < size(); ++i)
    if (!elem_close(data_.get()[i], o.data_.get()[i], rtol, atol)) return false;
  return true;
}

std::string Matrix::to_string(Index max_rows, Index max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " matrix";
  if (rows_ <= max_rows && cols_ <= max_cols) {
    os << "\n";
    for (Index r = 0; r < rows_; ++r) {
      os << "  [";
      for (Index c = 0; c < cols_; ++c) {
        if (c) os << ", ";
        os << (*this)(r, c);
      }
      os << "]\n";
    }
  }
  return os.str();
}

Vector::Vector(Index n) : n_(n) {
  DEEPPHI_CHECK_MSG(n >= 0, "negative size " << n);
  data_ = storage(n);
  fill(0.0f);
}

Vector Vector::uninitialized(Index n) {
  Vector v;
  DEEPPHI_CHECK_MSG(n >= 0, "negative size " << n);
  v.n_ = n;
  v.data_ = storage(n);
  return v;
}

Vector Vector::constant(Index n, float value) {
  Vector v = uninitialized(n);
  v.fill(value);
  return v;
}

Vector Vector::from(std::initializer_list<float> values) {
  Vector v = uninitialized(static_cast<Index>(values.size()));
  std::copy(values.begin(), values.end(), v.data());
  return v;
}

Vector::Vector(const Vector& o) : n_(o.n_) {
  data_ = storage(n_);
  copy_floats(data_.get(), o.data_.get(), n_);
}

Vector& Vector::operator=(const Vector& o) {
  if (this == &o) return *this;
  if (n_ != o.n_ || !data_) data_ = storage(o.n_);
  n_ = o.n_;
  copy_floats(data_.get(), o.data_.get(), n_);
  return *this;
}

Vector::Vector(Vector&& o) noexcept : n_(o.n_), data_(std::move(o.data_)) { o.n_ = 0; }

Vector& Vector::operator=(Vector&& o) noexcept {
  n_ = o.n_;
  data_ = std::move(o.data_);
  o.n_ = 0;
  return *this;
}

float& Vector::at(Index i) {
  DEEPPHI_CHECK_MSG(i >= 0 && i < n_, "index " << i << " out of size " << n_);
  return (*this)[i];
}

float Vector::at(Index i) const {
  DEEPPHI_CHECK_MSG(i >= 0 && i < n_, "index " << i << " out of size " << n_);
  return (*this)[i];
}

void Vector::fill(float value) {
  if (data_) std::fill_n(data_.get(), static_cast<std::size_t>(n_), value);
}

void Vector::copy_from(const Vector& o) {
  DEEPPHI_CHECK_MSG(n_ == o.n_, "copy_from size mismatch: " << n_ << " vs " << o.n_);
  copy_floats(data_.get(), o.data_.get(), n_);
}

bool Vector::approx_equal(const Vector& o, float rtol, float atol) const {
  if (n_ != o.n_) return false;
  for (Index i = 0; i < n_; ++i)
    if (!elem_close(data_.get()[i], o.data_.get()[i], rtol, atol)) return false;
  return true;
}

std::string Vector::to_string(Index max_elems) const {
  std::ostringstream os;
  os << n_ << "-vector";
  if (n_ <= max_elems) {
    os << " [";
    for (Index i = 0; i < n_; ++i) {
      if (i) os << ", ";
      os << (*this)[i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace deepphi::la
