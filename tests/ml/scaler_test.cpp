#include "ml/svm/scaler.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace mobirescue::ml {
namespace {

TEST(ScalerTest, TransformsToZeroMeanUnitVariance) {
  FeatureScaler scaler;
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({static_cast<double>(i), 100.0 + 3.0 * i});
  }
  scaler.Fit(rows);
  const auto scaled = scaler.TransformAll(rows);

  std::vector<double> col0, col1;
  for (const auto& r : scaled) {
    col0.push_back(r[0]);
    col1.push_back(r[1]);
  }
  EXPECT_NEAR(util::Mean(col0), 0.0, 1e-10);
  EXPECT_NEAR(util::StdDev(col0), 1.0, 1e-10);
  EXPECT_NEAR(util::Mean(col1), 0.0, 1e-10);
  EXPECT_NEAR(util::StdDev(col1), 1.0, 1e-10);
}

TEST(ScalerTest, ConstantFeaturePassesThroughCentred) {
  FeatureScaler scaler;
  std::vector<std::vector<double>> rows = {{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}};
  scaler.Fit(rows);
  for (const auto& r : scaler.TransformAll(rows)) {
    EXPECT_DOUBLE_EQ(r[0], 0.0);
  }
}

TEST(ScalerTest, RejectsBadInput) {
  FeatureScaler scaler;
  EXPECT_THROW(scaler.Fit({}), std::invalid_argument);
  std::vector<std::vector<double>> ragged = {{1.0, 2.0}, {1.0}};
  EXPECT_THROW(scaler.Fit(ragged), std::invalid_argument);
  std::vector<std::vector<double>> rows = {{1.0, 2.0}, {3.0, 4.0}};
  scaler.Fit(rows);
  EXPECT_THROW(scaler.Transform(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(ScalerTest, TransformIntoWritesZScoresAndChecksSizes) {
  FeatureScaler scaler;
  std::vector<std::vector<double>> rows = {{1.0, 20.0}, {3.0, 50.0},
                                           {8.0, 35.0}};
  double out[2];
  EXPECT_THROW(scaler.TransformInto(rows[0], out), std::invalid_argument);
  scaler.Fit(rows);
  for (const auto& row : rows) {
    scaler.TransformInto(row, out);
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(out[j], (row[j] - scaler.mean()[j]) / scaler.stddev()[j]);
    }
  }
  double short_out[1];
  EXPECT_THROW(scaler.TransformInto(rows[0], short_out),
               std::invalid_argument);
}

TEST(ScalerTest, FittedFlagAndAccessors) {
  FeatureScaler scaler;
  EXPECT_FALSE(scaler.fitted());
  std::vector<std::vector<double>> rows = {{1.0}, {3.0}};
  scaler.Fit(rows);
  EXPECT_TRUE(scaler.fitted());
  EXPECT_DOUBLE_EQ(scaler.mean()[0], 2.0);
  EXPECT_DOUBLE_EQ(scaler.stddev()[0], 1.0);
}

}  // namespace
}  // namespace mobirescue::ml
