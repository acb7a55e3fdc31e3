#include "ml/threshold.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"

namespace weber {
namespace ml {
namespace {

TEST(ThresholdAccuracyTest, CountsCorrectDecisions) {
  std::vector<LabeledSimilarity> sample = {
      {0.2, false}, {0.4, false}, {0.6, true}, {0.8, true}};
  EXPECT_DOUBLE_EQ(ThresholdAccuracy(sample, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(ThresholdAccuracy(sample, 0.0), 0.5);   // all linked
  EXPECT_DOUBLE_EQ(ThresholdAccuracy(sample, 0.9), 0.5);   // none linked
  EXPECT_DOUBLE_EQ(ThresholdAccuracy({}, 0.5), 0.0);
}

TEST(FitOptimalThresholdTest, RejectsEmpty) {
  EXPECT_FALSE(FitOptimalThreshold({}).ok());
}

TEST(FitOptimalThresholdTest, RejectsNonFiniteValues) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    // Long enough for std::sort's introsort path.
    std::vector<LabeledSimilarity> training(40, {0.5, true});
    training[23].value = bad;
    EXPECT_EQ(FitOptimalThreshold(training).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(FitOptimalThresholdTest, PerfectlySeparableData) {
  std::vector<LabeledSimilarity> training = {
      {0.1, false}, {0.3, false}, {0.7, true}, {0.9, true}};
  auto fit = FitOptimalThreshold(training);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->train_accuracy, 1.0);
  EXPECT_GT(fit->threshold, 0.3);
  EXPECT_LE(fit->threshold, 0.7);
}

TEST(FitOptimalThresholdTest, AllPositiveFavorsZeroThreshold) {
  std::vector<LabeledSimilarity> training = {{0.1, true}, {0.9, true}};
  auto fit = FitOptimalThreshold(training);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->train_accuracy, 1.0);
  EXPECT_LE(fit->threshold, 0.1);
}

TEST(FitOptimalThresholdTest, AllNegativeFavorsHighThreshold) {
  std::vector<LabeledSimilarity> training = {{0.1, false}, {0.9, false}};
  auto fit = FitOptimalThreshold(training);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->train_accuracy, 1.0);
  EXPECT_GT(fit->threshold, 0.9);
}

TEST(FitOptimalThresholdTest, NoisyDataPicksBestCut) {
  // Below 0.5: 3 negatives, 1 positive. Above: 3 positives, 1 negative.
  // Cut at 0.5 gets 6/8; no cut does better.
  std::vector<LabeledSimilarity> training = {
      {0.1, false}, {0.2, true},  {0.3, false}, {0.4, false},
      {0.6, true},  {0.7, false}, {0.8, true},  {0.9, true},
  };
  auto fit = FitOptimalThreshold(training);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->train_accuracy, 6.0 / 8.0, 1e-12);
  EXPECT_GT(fit->threshold, 0.4);
  EXPECT_LE(fit->threshold, 0.6);
}

TEST(FitOptimalThresholdTest, DuplicateValuesHandled) {
  std::vector<LabeledSimilarity> training = {
      {0.5, false}, {0.5, false}, {0.5, true}, {0.9, true}};
  auto fit = FitOptimalThreshold(training);
  ASSERT_TRUE(fit.ok());
  // Best cut: above 0.5 (3/4 correct: two negatives right, 0.9 right,
  // 0.5-positive wrong).
  EXPECT_NEAR(fit->train_accuracy, 0.75, 1e-12);
  EXPECT_GT(fit->threshold, 0.5);
}

TEST(FitOptimalThresholdTest, ReportedAccuracyIsAchievedAndOptimal) {
  // Property: the returned threshold realizes the returned accuracy, and no
  // brute-force candidate beats it.
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<LabeledSimilarity> training;
    int n = rng.UniformInt(2, 40);
    for (int i = 0; i < n; ++i) {
      double v = rng.UniformDouble();
      training.push_back({v, rng.Bernoulli(v)});  // noisy monotone labels
    }
    auto fit = FitOptimalThreshold(training);
    ASSERT_TRUE(fit.ok());
    EXPECT_NEAR(ThresholdAccuracy(training, fit->threshold),
                fit->train_accuracy, 1e-12);
    // Brute force over a fine grid plus all sample values.
    double best = 0.0;
    for (int g = 0; g <= 1000; ++g) {
      best = std::max(best, ThresholdAccuracy(training, g / 1000.0));
    }
    for (const auto& s : training) {
      best = std::max(best, ThresholdAccuracy(training, s.value));
      best = std::max(best, ThresholdAccuracy(training, s.value + 1e-9));
    }
    EXPECT_GE(fit->train_accuracy + 1e-12, best);
  }
}

}  // namespace
}  // namespace ml
}  // namespace weber
