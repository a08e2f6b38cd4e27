#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

namespace nexit::core {

/// Opaque preference class (paper §4): an integer in [-P, P]. Class 0 is by
/// definition the flow's *default* alternative (what would happen without
/// negotiation); positive classes are better than the default from the ISP's
/// own point of view, negative are worse. The mapping from internal metrics
/// to classes is private to each ISP, which is the information-hiding point
/// of the design.
using PrefClass = int;

/// Upper bound on P. Combined classes (own + remote) and the disclosed gains
/// summed over a negotiation stay far inside `int`, and a proposal key
/// (combined, own or remote class, is-default) packs exactly into one int64
/// clear of the position index's closed-position sentinel (core/side.hpp).
inline constexpr int kMaxPrefRange = 1 << 20;

struct PreferenceConfig {
  /// P: classes live in [-range, range]. The paper uses 10 and reports that
  /// larger ranges do not noticeably help (reproduced by
  /// `nexit_run --scenario=abl_pref_range`).
  int range = 10;
  /// Disclose only the ordering of alternatives (classes compressed to
  /// {-1, 0, +1} relative to default) — the paper's suggestion for ISPs that
  /// want to leak even less information.
  bool ordinal = false;
  /// The |delta| percentile that maps to the extreme class +-P. Scaling by
  /// the bulk of the distribution (not the max) keeps one outlier alternative
  /// from compressing every other flow into class 0; deltas beyond the scale
  /// simply clamp to +-P.
  double scale_percentile = 90.0;
};

/// A dense rows x cols block stored row-major in one allocation: row r is
/// the span [r * cols, (r + 1) * cols). Every per-(position, candidate)
/// table of a negotiation is one of these, so building, copying and freeing
/// a table costs one heap block however many positions it has.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, const T& fill = T{})
      : rows_(rows), cols_(cols), values_(rows * cols, fill) {}
  /// Row by row; every row must have the same length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows)
      : rows_(rows.size()), cols_(rows.size() == 0 ? 0 : rows.begin()->size()) {
    values_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      if (row.size() != cols_)
        throw std::invalid_argument("Matrix: rows of different lengths");
      values_.insert(values_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  // subspan() carries the library's bounds assertion, so an out-of-range
  // row is caught wherever the container assertions are compiled in.
  [[nodiscard]] std::span<T> operator[](std::size_t r) {
    return std::span<T>(values_).subspan(r * cols_, cols_);
  }
  [[nodiscard]] std::span<const T> operator[](std::size_t r) const {
    return std::span<const T>(values_).subspan(r * cols_, cols_);
  }
  /// The whole block, row after row.
  [[nodiscard]] std::span<T> values() { return values_; }
  [[nodiscard]] std::span<const T> values() const { return values_; }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> values_;
};

/// One ISP's full preference list: row `pos` holds the classes of the
/// negotiation problem's negotiable position `pos` (flow
/// `problem.negotiable_flow(pos)`), one per candidate interconnection.
using PreferenceList = Matrix<PrefClass>;

/// Linear quantisation of metric deltas into preference classes, the whole
/// list in one pass. `deltas[pos][c]` is how much better (positive) or
/// worse (negative) candidate c is than the default, in the ISP's internal
/// metric units. `scale` is the metric value that maps to the extreme class
/// (usually quantization_scale(deltas), so the bulk of the swings spreads
/// over [-P, P]); classes round half away from zero, as std::lround does.
/// Throws std::invalid_argument unless 1 <= range <= kMaxPrefRange and
/// `scale` is not infinite, and std::logic_error on a NaN delta.
PreferenceList quantize_deltas(const Matrix<double>& deltas,
                               const PreferenceConfig& config, double scale);

/// Quantisation scale for a whole advertised list: the configured percentile
/// of the nonzero |delta| distribution (0 when every delta is zero).
double quantization_scale(const Matrix<double>& deltas,
                          const PreferenceConfig& config);

}  // namespace nexit::core
