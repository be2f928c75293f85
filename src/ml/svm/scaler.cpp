#include "ml/svm/scaler.hpp"

#include <cmath>
#include <stdexcept>

namespace mobirescue::ml {

void FeatureScaler::Fit(std::span<const std::vector<double>> rows) {
  if (rows.empty()) throw std::invalid_argument("FeatureScaler: no rows");
  const std::size_t dim = rows.front().size();
  mean_.assign(dim, 0.0);
  std_.assign(dim, 0.0);
  for (const auto& row : rows) {
    if (row.size() != dim) {
      throw std::invalid_argument("FeatureScaler: ragged rows");
    }
    for (std::size_t j = 0; j < dim; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(rows.size());
  for (const auto& row : rows) {
    for (std::size_t j = 0; j < dim; ++j) {
      const double d = row[j] - mean_[j];
      std_[j] += d * d;
    }
  }
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(rows.size()));
    if (s < 1e-12) s = 1.0;  // constant feature: centre only
  }
}

void FeatureScaler::TransformInto(std::span<const double> in,
                                  std::span<double> out) const {
  if (in.size() != mean_.size() || out.size() != in.size()) {
    throw std::invalid_argument("FeatureScaler: dimension mismatch");
  }
  for (std::size_t j = 0; j < in.size(); ++j) {
    out[j] = (in[j] - mean_[j]) / std_[j];
  }
}

std::vector<double> FeatureScaler::Transform(std::span<const double> row) const {
  std::vector<double> out(row.size());
  TransformInto(row, out);
  return out;
}

std::vector<std::vector<double>> FeatureScaler::TransformAll(
    std::span<const std::vector<double>> rows) const {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(Transform(row));
  return out;
}

}  // namespace mobirescue::ml
