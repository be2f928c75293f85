#include "predict/svm_predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "ml/svm/kernel.hpp"
#include "sim/population_tracker.hpp"

namespace mobirescue::predict {
namespace {

/// One shared small world: building it (trace generation) is the expensive
/// part, so do it once for the whole suite.
class SvmPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::WorldConfig config;
    config.city.grid_width = 12;
    config.city.grid_height = 12;
    config.city.num_hospitals = 5;
    config.trace.population.num_people = 400;
    world_ = new core::World(core::BuildWorld(config));
    predictor_ = core::TrainSvmPredictor(*world_).release();
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete world_;
  }

  static core::World* world_;
  static SvmRequestPredictor* predictor_;
};

core::World* SvmPredictorTest::world_ = nullptr;
SvmRequestPredictor* SvmPredictorTest::predictor_ = nullptr;

/// The per-person reference PredictDistribution must equal: classify each
/// record with PredictPerson and count it on the scalar NearestSegment.
Distribution PerPersonReference(const SvmRequestPredictor& predictor,
                                const std::vector<mobility::GpsRecord>& snapshot,
                                util::SimTime t, double time_offset,
                                const roadnet::SpatialIndex& index) {
  Distribution dist;
  for (const mobility::GpsRecord& r : snapshot) {
    if (!predictor.PredictPerson(r.pos, t + time_offset)) continue;
    const roadnet::SegmentId seg = index.NearestSegment(r.pos);
    if (seg == roadnet::kInvalidSegment) continue;
    ++dist[seg];
  }
  return dist;
}

TEST_F(SvmPredictorTest, HeldOutAccuracyIsHigh) {
  // Flooding labels are strongly determined by (P, W, A); the SVM should
  // comfortably beat coin flipping on the 20% hold-out.
  EXPECT_GT(predictor_->validation().Accuracy(), 0.8);
  EXPECT_GT(predictor_->validation().Precision(), 0.7);
  EXPECT_GT(predictor_->training_rows(), 100u);
}

TEST_F(SvmPredictorTest, LinearWeightsFollowTheDocumentedSigns) {
  // SvmPredictorConfig picks the linear kernel so that the decision
  // extrapolates as "more rain => more danger, higher ground => less".
  // The primal weights in the scaler's space carry the same signs as in raw
  // units (the scaler divides by a positive std).
  const ml::SvmModel& model = predictor_->model();
  ASSERT_EQ(model.kernel().type, ml::KernelType::kLinear);
  ASSERT_GT(model.num_support_vectors(), 0u);
  std::vector<double> w(model.support_vector(0).size(), 0.0);
  for (std::size_t i = 0; i < model.num_support_vectors(); ++i) {
    for (std::size_t d = 0; d < w.size(); ++d) {
      w[d] += model.coefficient(i) * model.support_vector(i)[d];
    }
  }
  ASSERT_EQ(w.size(), 3u);  // h = (P, W, A)
  EXPECT_GT(w[0], 0.0) << "precipitation weight";
  EXPECT_LT(w[2], 0.0) << "altitude weight";
}

TEST_F(SvmPredictorTest, FloodedPositionPredictedPositive) {
  // At the eval storm's end, the wet low-lying south-east screams "rescue".
  // (Pre-storm inputs are out of the training distribution — the system
  // only ever queries the SVM during an active disaster.)
  const auto& spec = world_->eval.spec;
  const util::GeoPoint wet = world_->city->box.At(0.85, 0.15);
  EXPECT_TRUE(predictor_->PredictPerson(wet, spec.storm.storm_end_s));
}

TEST_F(SvmPredictorTest, HighGroundPredictedNegativeEvenInStorm) {
  const auto& spec = world_->eval.spec;
  const util::GeoPoint high = world_->city->box.At(0.05, 0.95);
  EXPECT_FALSE(predictor_->PredictPerson(high, spec.storm.storm_peak_s));
}

TEST_F(SvmPredictorTest, DistributionCountsPeopleOnSegments) {
  const auto& spec = world_->eval.spec;
  // Synthetic snapshot: 5 people at a flooded spot, 3 on high ground.
  std::vector<mobility::GpsRecord> snapshot;
  const util::GeoPoint wet = world_->city->box.At(0.85, 0.15);
  const util::GeoPoint dry = world_->city->box.At(0.05, 0.95);
  for (int i = 0; i < 5; ++i) {
    snapshot.push_back({i, 0.0, wet, 0.0, 0.0});
  }
  for (int i = 5; i < 8; ++i) {
    snapshot.push_back({i, 0.0, dry, 0.0, 0.0});
  }
  const Distribution dist = predictor_->PredictDistribution(
      snapshot, 0.0, spec.storm.storm_end_s, *world_->index);
  int total = 0;
  for (const auto& [seg, count] : dist) total += count;
  EXPECT_EQ(total, 5);  // only the flooded five
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->second, 5);
}

TEST_F(SvmPredictorTest, EmptySnapshotEmptyDistribution) {
  EXPECT_TRUE(predictor_
                  ->PredictDistribution({}, 0.0,
                                        world_->eval.spec.storm.storm_end_s,
                                        *world_->index)
                  .empty());
}

TEST_F(SvmPredictorTest, DistributionMatchesPerPersonReferenceAllDay) {
  // Every 30 minutes of the evaluation day, classified with the evaluation
  // storm's factors. Alongside, count the people whose decision the dual
  // sum over support vectors (how the linear model was evaluated before
  // the primal fold) would have flipped.
  const weather::FactorSampler& factors = *world_->eval.factors;
  const SvmRequestPredictor predictor(factors, predictor_->model(),
                                      predictor_->scaler(),
                                      predictor_->threshold());
  const ml::SvmModel& model = predictor.model();
  const int day = world_->eval.spec.eval_day;
  const double offset = day * util::kSecondsPerDay;
  sim::PopulationTracker tracker(
      sim::DaySlice(world_->eval.trace.records, day));
  std::size_t people = 0, positives = 0, flips = 0;
  for (double t = 0.0; t < util::kSecondsPerDay; t += 1800.0) {
    const std::vector<mobility::GpsRecord>& snapshot = tracker.Snapshot(t);
    const Distribution got =
        predictor.PredictDistribution(snapshot, t, offset, *world_->index);
    const Distribution want =
        PerPersonReference(predictor, snapshot, t, offset, *world_->index);
    EXPECT_EQ(got, want) << "t=" << t;
    // Counted in the per-person loop's insertion order, so the two maps
    // also iterate alike (consumers walk the map in that order).
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "t=" << t;
    for (const mobility::GpsRecord& r : snapshot) {
      const std::vector<double> row = predictor.scaler().Transform(
          factors.At(r.pos, t + offset).AsArray());
      double dual = model.bias();
      for (std::size_t i = 0; i < model.num_support_vectors(); ++i) {
        dual += model.coefficient(i) *
                ml::EvalKernel(model.kernel(), model.support_vector(i), row);
      }
      const bool primal = predictor.PredictPerson(r.pos, t + offset);
      positives += primal ? 1 : 0;
      flips += (dual >= predictor.threshold()) != primal ? 1 : 0;
    }
    people += snapshot.size();
  }
  std::printf("[ flips    ] %zu of %zu classifications (%zu positive)\n",
              flips, people, positives);
  RecordProperty("threshold_flips", static_cast<int>(flips));
  EXPECT_GT(positives, 0u);
  EXPECT_LT(positives, people);
}

TEST_F(SvmPredictorTest, DistributionMatchesReferenceOutsideCityBox) {
  // Positions past every edge of the box clamp into its border cells.
  const auto& box = world_->city->box;
  std::vector<mobility::GpsRecord> snapshot;
  int id = 0;
  for (const double x : {-0.6, -0.05, 0.5, 1.05, 1.6}) {
    for (const double y : {-0.6, -0.05, 0.5, 1.05, 1.6}) {
      snapshot.push_back({id++, 0.0, box.At(x, y), 0.0, 0.0});
    }
  }
  const double t = world_->eval.spec.storm.storm_end_s;
  EXPECT_EQ(predictor_->PredictDistribution(snapshot, 0.0, t, *world_->index),
            PerPersonReference(*predictor_, snapshot, 0.0, t, *world_->index));
}

TEST_F(SvmPredictorTest, UnfittedScalerThrows) {
  const SvmRequestPredictor unfitted(*world_->eval.factors,
                                     predictor_->model(), ml::FeatureScaler{},
                                     predictor_->threshold());
  const util::GeoPoint p = world_->city->box.At(0.5, 0.5);
  const std::vector<mobility::GpsRecord> snapshot = {{0, 0.0, p, 0.0, 0.0}};
  EXPECT_THROW(unfitted.PredictPerson(p, 0.0), std::invalid_argument);
  EXPECT_THROW(unfitted.PredictDistribution(snapshot, 0.0, 0.0,
                                            *world_->index),
               std::invalid_argument);
  // An empty snapshot classifies nobody, so there is nothing to reject.
  EXPECT_TRUE(unfitted.PredictDistribution({}, 0.0, 0.0, *world_->index)
                  .empty());
}

}  // namespace
}  // namespace mobirescue::predict
