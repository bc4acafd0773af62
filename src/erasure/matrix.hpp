// Dense matrices over GF(2^8) with Gaussian elimination.
//
// Used to build the systematic Reed–Solomon encoding matrix (Vandermonde
// rows normalized so the top k x k block is the identity) and to invert the
// decode submatrix picked by whichever segments survived.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace p2panon::erasure {

class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols);

  static Matrix identity(std::size_t n);

  /// Vandermonde matrix V[r][c] = (r+1)^c over GF(256) (rows <= 255 for
  /// distinct evaluation points; using r+1 keeps row 0 nonzero).
  static Matrix vandermonde(std::size_t rows, std::size_t cols);

  std::uint8_t at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  std::uint8_t& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  ByteView row(std::size_t r) const {
    return ByteView(data_.data() + r * cols_, cols_);
  }

  Matrix multiply(const Matrix& rhs) const;

  /// Returns a new matrix made of the given rows of this one.
  Matrix select_rows(const std::vector<std::size_t>& row_indices) const;

  /// Returns the horizontal concatenation [this | rhs].
  Matrix augment(const Matrix& rhs) const;

  /// Returns the submatrix of columns [col_begin, col_end).
  Matrix columns(std::size_t col_begin, std::size_t col_end) const;

  /// In-place Gauss–Jordan to reduced row-echelon form. Returns false if
  /// the matrix is singular (pivot not found).
  bool gaussian_elimination();

  /// Inverse of a square matrix; throws std::domain_error if singular.
  Matrix inverted() const;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_;
  std::size_t cols_;
  Bytes data_;
};

}  // namespace p2panon::erasure
