// Flat gradient vectors and the polycentric slice algebra (Sec. 3.2).
//
// A Gradient is the wire representation of one worker's model update: the
// concatenation of all parameter gradients. The polycentric architecture
// splits it into M contiguous slices, one per server: Split(G_i) =
// (g_i^1, ..., g_i^M); servers aggregate per slice and workers Recombine.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fifl::fl {

class Gradient {
 public:
  Gradient() = default;
  explicit Gradient(std::size_t size) : values_(size, 0.0f) {}
  explicit Gradient(std::vector<float> values) : values_(std::move(values)) {}

  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  float* data() noexcept { return values_.data(); }
  const float* data() const noexcept { return values_.data(); }
  std::span<float> flat() noexcept { return values_; }
  std::span<const float> flat() const noexcept { return values_; }
  float& operator[](std::size_t i) noexcept { return values_[i]; }
  float operator[](std::size_t i) const noexcept { return values_[i]; }

  void zero() noexcept;
  void scale(float alpha) noexcept;
  /// this += alpha * other (sizes must match; throws otherwise).
  void axpy(float alpha, const Gradient& other);

  /// Replace the contents with a copy of `values`, reusing capacity —
  /// the no-allocation path for per-round upload densification.
  void assign(std::span<const float> values);
  /// Resize to `size` and zero, reusing capacity.
  void assign_zero(std::size_t size);

  double squared_norm() const noexcept;
  double norm() const noexcept;
  bool finite() const noexcept;

 private:
  std::vector<float> values_;
};

/// Boundaries of the M contiguous slices of a length-`size` gradient.
/// Slice j covers [offset(j), offset(j+1)); sizes differ by at most one.
class SlicePlan {
 public:
  SlicePlan() = default;
  SlicePlan(std::size_t gradient_size, std::size_t servers);

  std::size_t servers() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t gradient_size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  std::size_t offset(std::size_t j) const { return offsets_.at(j); }
  std::size_t slice_size(std::size_t j) const {
    return offsets_.at(j + 1) - offsets_.at(j);
  }

  /// View of slice j of `g` (must have gradient_size() elements).
  std::span<const float> slice(const Gradient& g, std::size_t j) const;
  std::span<float> slice(Gradient& g, std::size_t j) const;

 private:
  std::vector<std::size_t> offsets_;
};

/// Recombine(g̃^1..g̃^M): concatenates slices back into a full gradient.
Gradient recombine(const SlicePlan& plan,
                   const std::vector<std::vector<float>>& slices);
Gradient recombine(const SlicePlan& plan,
                   std::span<const std::span<const float>> slices);

/// Allocation-free recombine: `out` is resized in place (capacity reused).
void recombine_into(const SlicePlan& plan,
                    std::span<const std::span<const float>> slices,
                    Gradient& out);

}  // namespace fifl::fl
