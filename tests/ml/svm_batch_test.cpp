// Parity tests for the SVM fast paths: batched DecisionValues must be
// bit-identical to per-row DecisionValue for every kernel type, the linear
// kernel's primal w.x + b must match the dual sum over support vectors to
// rounding, and SMO with the error cache must train models equivalent in
// quality to the scalar recompute-everything reference.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "ml/serialize.hpp"
#include "ml/svm/svm.hpp"
#include "util/rng.hpp"

namespace mobirescue::ml {
namespace {

SvmDataset TwoBlobs(std::size_t n, util::Rng& rng) {
  SvmDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double cx = positive ? 1.5 : -1.5;
    data.Add({cx + rng.Normal(0, 0.8), rng.Normal(0, 0.8)}, positive ? 1 : -1);
  }
  return data;
}

class SvmBatchKernelTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(SvmBatchKernelTest, DecisionValuesMatchPerRowBitwise) {
  util::Rng rng(41);
  const SvmDataset data = TwoBlobs(90, rng);
  SvmConfig config;
  config.kernel.type = GetParam();
  config.kernel.gamma = 0.7;
  const SvmModel model = TrainSvm(data, config);
  ASSERT_GT(model.num_support_vectors(), 0u);

  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({rng.Uniform(-3, 3), rng.Uniform(-3, 3)});
  }
  const std::vector<double> batched = model.DecisionValues(rows);
  ASSERT_EQ(batched.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(batched[i], model.DecisionValue(rows[i]))
        << KernelName(GetParam()) << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SvmBatchKernelTest,
                         ::testing::Values(KernelType::kLinear,
                                           KernelType::kRbf,
                                           KernelType::kPolynomial),
                         [](const auto& info) { return KernelName(info.param); });

/// A linear model with random support vectors, coefficients and bias.
SvmModel RandomLinearModel(std::size_t num_sv, std::size_t dim,
                           util::Rng& rng) {
  std::vector<std::vector<double>> sv(num_sv, std::vector<double>(dim));
  std::vector<double> coeff(num_sv);
  for (std::size_t i = 0; i < num_sv; ++i) {
    for (double& v : sv[i]) v = rng.Uniform(-3.0, 3.0);
    coeff[i] = rng.Uniform(-2.0, 2.0);
  }
  KernelConfig kernel;
  kernel.type = KernelType::kLinear;
  return SvmModel(kernel, std::move(sv), std::move(coeff),
                  rng.Uniform(-1.0, 1.0));
}

TEST(SvmBatchTest, LinearPrimalMatchesDualSum) {
  util::Rng rng(46);
  for (const std::size_t num_sv : {1u, 7u, 288u, 1000u}) {
    for (const std::size_t dim : {1u, 3u, 8u}) {
      const SvmModel model = RandomLinearModel(num_sv, dim, rng);
      for (int q = 0; q < 50; ++q) {
        std::vector<double> x(dim);
        for (double& v : x) v = rng.Uniform(-4.0, 4.0);
        // The dual sum, term by term, and the magnitude its rounding
        // error scales with.
        double dual = model.bias();
        double scale = std::abs(model.bias());
        for (std::size_t i = 0; i < model.num_support_vectors(); ++i) {
          const std::vector<double>& sv = model.support_vector(i);
          double dot = 0.0;
          for (std::size_t j = 0; j < dim; ++j) dot += sv[j] * x[j];
          dual += model.coefficient(i) * dot;
          scale += std::abs(model.coefficient(i) * dot);
        }
        EXPECT_LE(std::abs(model.DecisionValue(x) - dual), 1e-12 * scale)
            << "nsv " << num_sv << " dim " << dim << " query " << q;
      }
    }
  }
}

TEST(SvmBatchTest, LinearPrimalRejectsDimensionMismatch) {
  util::Rng rng(47);
  const SvmModel model = RandomLinearModel(5, 3, rng);
  EXPECT_THROW(model.DecisionValue(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(model.DecisionValues({{1.0, 2.0}}), std::invalid_argument);
}

TEST(SvmBatchTest, RestoredModelDecidesBitwiseEqual) {
  // The primal weights are folded in the constructor, so a model restored
  // from its serialized support vectors refolds them to the same bits.
  util::Rng rng(48);
  for (const KernelType type :
       {KernelType::kLinear, KernelType::kRbf, KernelType::kPolynomial}) {
    const SvmDataset data = TwoBlobs(90, rng);
    SvmConfig config;
    config.kernel.type = type;
    const SvmModel model = TrainSvm(data, config);
    std::stringstream buffer;
    SaveSvm(model, buffer);
    const SvmModel restored = LoadSvm(buffer);
    for (int q = 0; q < 40; ++q) {
      const std::vector<double> x = {rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
      ASSERT_EQ(restored.DecisionValue(x), model.DecisionValue(x))
          << KernelName(type) << " query " << q;
    }
  }
}

TEST(SvmBatchTest, DecisionValuesHandlesEmptyAndSingleRow) {
  util::Rng rng(42);
  const SvmDataset data = TwoBlobs(40, rng);
  const SvmModel model = TrainSvm(data, SvmConfig{});
  EXPECT_TRUE(model.DecisionValues({}).empty());
  const std::vector<std::vector<double>> one = {{0.4, -0.2}};
  const std::vector<double> values = model.DecisionValues(one);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], model.DecisionValue(one[0]));
}

TEST(SvmBatchTest, DecisionValuesRejectsRaggedRows) {
  util::Rng rng(43);
  const SvmDataset data = TwoBlobs(30, rng);
  const SvmModel model = TrainSvm(data, SvmConfig{});
  const std::vector<std::vector<double>> ragged = {{0.1, 0.2}, {0.3}};
  EXPECT_THROW(model.DecisionValues(ragged), std::invalid_argument);
}

TEST(SvmBatchTest, ErrorCacheTrainsEquivalentQualityModel) {
  // The cached and scalar SMO paths take different (FP-drift-divergent)
  // optimisation trajectories, so weights differ — but both must separate
  // the same data equally well.
  util::Rng rng(44);
  const SvmDataset data = TwoBlobs(160, rng);
  SvmConfig cached;
  SvmConfig scalar;
  scalar.use_error_cache = false;
  const SvmModel with_cache = TrainSvm(data, cached);
  const SvmModel without_cache = TrainSvm(data, scalar);

  int correct_cached = 0, correct_scalar = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (with_cache.Predict(data.x[i]) == data.y[i]) ++correct_cached;
    if (without_cache.Predict(data.x[i]) == data.y[i]) ++correct_scalar;
  }
  EXPECT_GE(correct_cached, static_cast<int>(data.size() * 9 / 10));
  EXPECT_GE(correct_scalar, static_cast<int>(data.size() * 9 / 10));
}

TEST(SvmBatchTest, ErrorCachePathIsDeterministic) {
  util::Rng rng(45);
  const SvmDataset data = TwoBlobs(80, rng);
  const SvmModel a = TrainSvm(data, SvmConfig{});
  const SvmModel b = TrainSvm(data, SvmConfig{});
  ASSERT_EQ(a.num_support_vectors(), b.num_support_vectors());
  EXPECT_EQ(a.bias(), b.bias());
  for (std::size_t i = 0; i < a.num_support_vectors(); ++i) {
    EXPECT_EQ(a.coefficient(i), b.coefficient(i)) << "sv " << i;
  }
}

}  // namespace
}  // namespace mobirescue::ml
