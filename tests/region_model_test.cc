#include "ml/region_model.h"

#include <gtest/gtest.h>

#include <limits>

namespace weber {
namespace ml {
namespace {

TEST(RegionModelTest, EqualWidthDeciles) {
  RegionModel m = RegionModel::EqualWidth(10);
  EXPECT_EQ(m.num_regions(), 10);
  EXPECT_EQ(m.RegionOf(0.0), 0);
  EXPECT_EQ(m.RegionOf(0.05), 0);
  EXPECT_EQ(m.RegionOf(0.1), 1);  // boundaries belong to the upper region
  EXPECT_EQ(m.RegionOf(0.95), 9);
  EXPECT_EQ(m.RegionOf(1.0), 9);
  EXPECT_NEAR(m.center(0), 0.05, 1e-12);
  EXPECT_NEAR(m.center(9), 0.95, 1e-12);
}

TEST(RegionModelTest, ValuesOutsideUnitIntervalAreClamped) {
  RegionModel m = RegionModel::EqualWidth(4);
  EXPECT_EQ(m.RegionOf(-0.5), 0);
  EXPECT_EQ(m.RegionOf(1.5), 3);
}

TEST(RegionModelTest, SingleRegionCoversEverything) {
  RegionModel m = RegionModel::EqualWidth(1);
  EXPECT_EQ(m.num_regions(), 1);
  EXPECT_EQ(m.RegionOf(0.0), 0);
  EXPECT_EQ(m.RegionOf(1.0), 0);
}

TEST(RegionModelTest, KMeansRegionsUseMidpointBoundaries) {
  Rng rng(1);
  // Two tight clumps at 0.2 and 0.8 -> boundary at 0.5.
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(0.2);
    values.push_back(0.8);
  }
  auto m = RegionModel::KMeansRegions(values, 2, &rng);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->num_regions(), 2);
  ASSERT_EQ(m->boundaries().size(), 1u);
  EXPECT_NEAR(m->boundaries()[0], 0.5, 1e-6);
  EXPECT_EQ(m->RegionOf(0.49), 0);
  EXPECT_EQ(m->RegionOf(0.51), 1);
}

TEST(RegionModelTest, KMeansRegionsRejectEmptyInput) {
  Rng rng(2);
  EXPECT_FALSE(RegionModel::KMeansRegions({}, 3, &rng).ok());
}

TEST(RegionAccuracyModelTest, FitRejectsEmptyTraining) {
  auto m = RegionAccuracyModel::Fit(RegionModel::EqualWidth(10), {});
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegionAccuracyModelTest, FitRejectsNonFiniteTraining) {
  std::vector<LabeledSimilarity> training(40, {0.5, true});
  training[23].value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(RegionAccuracyModel::FitEqualWidth(training, 10).status().code(),
            StatusCode::kInvalidArgument);
  Rng rng(3);
  EXPECT_EQ(RegionAccuracyModel::FitKMeans(training, 4, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegionAccuracyModelTest, PerRegionLinkRates) {
  // Region [0, 0.5): 1 of 4 are links; region [0.5, 1]: 3 of 4.
  std::vector<LabeledSimilarity> training = {
      {0.1, false}, {0.2, false}, {0.3, true},  {0.4, false},
      {0.6, true},  {0.7, true},  {0.8, false}, {0.9, true},
  };
  auto m = RegionAccuracyModel::Fit(RegionModel::EqualWidth(2), training);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->region_accuracies()[0], 0.25, 1e-12);
  EXPECT_NEAR(m->region_accuracies()[1], 0.75, 1e-12);
  EXPECT_EQ(m->region_sample_counts()[0], 4);
  EXPECT_EQ(m->region_sample_counts()[1], 4);
  EXPECT_NEAR(m->prior_link_rate(), 0.5, 1e-12);
}

TEST(RegionAccuracyModelTest, DecisionRuleFollowsMajority) {
  std::vector<LabeledSimilarity> training = {
      {0.1, false}, {0.2, false}, {0.8, true}, {0.9, true},
  };
  auto m = RegionAccuracyModel::Fit(RegionModel::EqualWidth(2), training);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->Decide(0.3));
  EXPECT_TRUE(m->Decide(0.7));
  EXPECT_DOUBLE_EQ(m->LinkProbability(0.3), 0.0);
  EXPECT_DOUBLE_EQ(m->LinkProbability(0.7), 1.0);
}

TEST(RegionAccuracyModelTest, EmptyRegionsFallBackToPrior) {
  // All training mass in [0, 0.1); the other nine deciles are empty and
  // must report the prior link rate (0.5 here).
  std::vector<LabeledSimilarity> training = {{0.05, true}, {0.06, false}};
  auto m = RegionAccuracyModel::FitEqualWidth(training, 10);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->LinkProbability(0.95), 0.5, 1e-12);
  EXPECT_NEAR(m->LinkProbability(0.05), 0.5, 1e-12);  // the filled one: 1/2
}

TEST(RegionAccuracyModelTest, DecisionAccuracyIsMajorityRate) {
  std::vector<LabeledSimilarity> training = {
      {0.1, false}, {0.1, false}, {0.15, false}, {0.12, true},
  };
  auto m = RegionAccuracyModel::FitEqualWidth(training, 5);
  ASSERT_TRUE(m.ok());
  // Region 0 link rate 0.25 -> decision "no link" with accuracy 0.75.
  EXPECT_FALSE(m->Decide(0.1));
  EXPECT_NEAR(m->DecisionAccuracy(0.1), 0.75, 1e-12);
}

TEST(RegionAccuracyModelTest, NonMonotoneProfileIsRepresentable) {
  // The Figure-1 structure a threshold cannot express: link-rich middle,
  // link-poor top.
  std::vector<LabeledSimilarity> training;
  for (int i = 0; i < 20; ++i) {
    training.push_back({0.15, false});
    training.push_back({0.55, true});
    training.push_back({0.85, false});
  }
  auto m = RegionAccuracyModel::FitEqualWidth(training, 10);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->Decide(0.15));
  EXPECT_TRUE(m->Decide(0.55));
  EXPECT_FALSE(m->Decide(0.85));
}

TEST(RegionAccuracyModelTest, KMeansFitConvenience) {
  Rng rng(3);
  std::vector<LabeledSimilarity> training;
  for (int i = 0; i < 30; ++i) {
    training.push_back({0.2, false});
    training.push_back({0.8, true});
  }
  auto m = RegionAccuracyModel::FitKMeans(training, 4, &rng);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->Decide(0.2));
  EXPECT_TRUE(m->Decide(0.8));
}

TEST(RegionSchemeTest, Names) {
  EXPECT_EQ(RegionSchemeToString(RegionScheme::kEqualWidth), "equal-width");
  EXPECT_EQ(RegionSchemeToString(RegionScheme::kKMeans), "k-means");
}

}  // namespace
}  // namespace ml
}  // namespace weber
