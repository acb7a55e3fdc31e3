#include "ml/isotonic.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "core/decision.h"

namespace weber {
namespace ml {
namespace {

TEST(IsotonicTest, RejectsEmpty) {
  EXPECT_FALSE(IsotonicModel::Fit({}).ok());
}

TEST(IsotonicTest, RejectsNonFiniteValues) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<LabeledSimilarity> training(40, {0.5, true});
    training[23].value = bad;
    EXPECT_EQ(IsotonicModel::Fit(training).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(IsotonicTest, PerfectlySeparableDataGivesTwoLevels) {
  std::vector<LabeledSimilarity> training = {
      {0.1, false}, {0.2, false}, {0.3, false},
      {0.7, true},  {0.8, true},  {0.9, true},
  };
  auto model = IsotonicModel::Fit(training);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->LinkProbability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model->LinkProbability(0.25), 0.0);
  EXPECT_DOUBLE_EQ(model->LinkProbability(0.75), 1.0);
  EXPECT_DOUBLE_EQ(model->LinkProbability(1.0), 1.0);
}

TEST(IsotonicTest, OutputIsNonDecreasing) {
  Rng rng(1);
  std::vector<LabeledSimilarity> training;
  for (int i = 0; i < 300; ++i) {
    double v = rng.UniformDouble();
    training.push_back({v, rng.Bernoulli(v)});
  }
  auto model = IsotonicModel::Fit(training);
  ASSERT_TRUE(model.ok());
  double prev = -1.0;
  for (double v = 0.0; v <= 1.0; v += 0.01) {
    double p = model->LinkProbability(v);
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_GT(model->LinkProbability(0.95), model->LinkProbability(0.05));
}

TEST(IsotonicTest, ViolatorsArePooled) {
  // Labels decrease with value in the middle: PAV must pool into one
  // block with the average rate.
  std::vector<LabeledSimilarity> training = {
      {0.1, false}, {0.4, true}, {0.5, false}, {0.6, true},
      {0.7, false}, {0.9, true},
  };
  auto model = IsotonicModel::Fit(training);
  ASSERT_TRUE(model.ok());
  // Check monotone and that pooled middle sits strictly between 0 and 1.
  double mid = model->LinkProbability(0.55);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
  EXPECT_LE(model->LinkProbability(0.2), mid);
  EXPECT_GE(model->LinkProbability(0.95), mid);
}

TEST(IsotonicTest, ConstantLabelsGiveOneSegment) {
  std::vector<LabeledSimilarity> training = {
      {0.2, true}, {0.5, true}, {0.8, true}};
  auto model = IsotonicModel::Fit(training);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_segments(), 1);
  EXPECT_DOUBLE_EQ(model->LinkProbability(0.5), 1.0);
}

TEST(IsotonicTest, MatchesKnownPavExample) {
  // Classic PAV example: y = 1,0,1 at x = 1,2,3.
  // Block means: [1], then 0 violates -> pool {1,0} = 0.5; 1 is fine.
  std::vector<LabeledSimilarity> training = {
      {1.0, true}, {2.0, false}, {3.0, true}};
  auto model = IsotonicModel::Fit(training);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->num_segments(), 2);
  EXPECT_DOUBLE_EQ(model->levels()[0], 0.5);
  EXPECT_DOUBLE_EQ(model->levels()[1], 1.0);
}

TEST(IsotonicCriterionTest, FitsAndDecides) {
  core::IsotonicCriterion criterion;
  Rng rng(2);
  std::vector<LabeledSimilarity> training;
  for (int i = 0; i < 40; ++i) {
    training.push_back({0.1 + 0.005 * i, false});
    training.push_back({0.6 + 0.005 * i, true});
  }
  ASSERT_TRUE(criterion.Fit(training, &rng).ok());
  EXPECT_EQ(criterion.name(), "isotonic");
  EXPECT_DOUBLE_EQ(criterion.train_accuracy(), 1.0);
  EXPECT_FALSE(criterion.Decide(0.2));
  EXPECT_TRUE(criterion.Decide(0.8));
  EXPECT_LT(criterion.LinkProbability(0.2), 0.5);
}

TEST(IsotonicCriterionTest, CannotExpressMidBand) {
  // The Figure-1 structure: monotone models must misclassify a band.
  core::IsotonicCriterion criterion;
  Rng rng(3);
  std::vector<LabeledSimilarity> training;
  for (int i = 0; i < 20; ++i) {
    training.push_back({0.15, false});
    training.push_back({0.55, true});
    training.push_back({0.85, false});
  }
  ASSERT_TRUE(criterion.Fit(training, &rng).ok());
  EXPECT_LT(criterion.train_accuracy(), 1.0);
  // A free region model nails the same data (see decision_test.cc).
}

}  // namespace
}  // namespace ml
}  // namespace weber
