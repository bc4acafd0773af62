#include "erasure/matrix.hpp"

#include <stdexcept>

#include "erasure/gf256.hpp"

namespace p2panon::erasure {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Matrix: dimensions must be positive");
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::vandermonde(std::size_t rows, std::size_t cols) {
  if (rows > 255) {
    throw std::invalid_argument("Matrix::vandermonde: at most 255 rows");
  }
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = GF256::pow(static_cast<std::uint8_t>(r + 1),
                              static_cast<unsigned>(c));
    }
  }
  return m;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::uint8_t a = at(r, k);
      if (a == 0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out.at(r, c) =
            GF256::add(out.at(r, c), GF256::mul(a, rhs.at(k, c)));
      }
    }
  }
  return out;
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& row_indices) const {
  Matrix out(row_indices.size(), cols_);
  for (std::size_t r = 0; r < row_indices.size(); ++r) {
    if (row_indices[r] >= rows_) {
      throw std::out_of_range("Matrix::select_rows: row out of range");
    }
    for (std::size_t c = 0; c < cols_; ++c) {
      out.at(r, c) = at(row_indices[r], c);
    }
  }
  return out;
}

Matrix Matrix::augment(const Matrix& rhs) const {
  if (rows_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::augment: row count mismatch");
  }
  Matrix out(rows_, cols_ + rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.at(r, c) = at(r, c);
    for (std::size_t c = 0; c < rhs.cols_; ++c) {
      out.at(r, cols_ + c) = rhs.at(r, c);
    }
  }
  return out;
}

Matrix Matrix::columns(std::size_t col_begin, std::size_t col_end) const {
  if (col_begin >= col_end || col_end > cols_) {
    throw std::out_of_range("Matrix::columns: bad range");
  }
  Matrix out(rows_, col_end - col_begin);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = col_begin; c < col_end; ++c) {
      out.at(r, c - col_begin) = at(r, c);
    }
  }
  return out;
}

bool Matrix::gaussian_elimination() {
  const std::size_t pivots = std::min(rows_, cols_);
  for (std::size_t p = 0; p < pivots; ++p) {
    // Find a pivot row.
    std::size_t pivot_row = p;
    while (pivot_row < rows_ && at(pivot_row, p) == 0) ++pivot_row;
    if (pivot_row == rows_) return false;
    if (pivot_row != p) {
      for (std::size_t c = 0; c < cols_; ++c) {
        std::swap(at(p, c), at(pivot_row, c));
      }
    }
    // Normalize the pivot row.
    const std::uint8_t inv = GF256::inv(at(p, p));
    if (inv != 1) {
      MutableByteView prow(data_.data() + p * cols_, cols_);
      GF256::mul_row(inv, prow, prow);
    }
    // Eliminate the pivot column everywhere else.
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == p) continue;
      const std::uint8_t factor = at(r, p);
      if (factor == 0) continue;
      GF256::mul_add_row(factor, row(p),
                         MutableByteView(data_.data() + r * cols_, cols_));
    }
  }
  return true;
}

Matrix Matrix::inverted() const {
  if (rows_ != cols_) {
    throw std::invalid_argument("Matrix::inverted: not square");
  }
  Matrix work = augment(identity(rows_));
  if (!work.gaussian_elimination()) {
    throw std::domain_error("Matrix::inverted: singular matrix");
  }
  return work.columns(cols_, 2 * cols_);
}

}  // namespace p2panon::erasure
