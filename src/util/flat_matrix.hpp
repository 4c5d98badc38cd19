#pragma once

// Row-major dense matrix on a single contiguous allocation.  Used for the
// site-to-site travel-cost matrix T (§II of the paper), which is read in the
// innermost evaluation loop; contiguity keeps it cache-friendly.

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace tsmo {

template <typename T>
class FlatMatrix {
 public:
  FlatMatrix() = default;

  FlatMatrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Row r as one contiguous span of cols() entries.
  std::span<const T> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  const std::vector<T>& data() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace tsmo
