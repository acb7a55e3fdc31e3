#include "ml/kmeans1d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

namespace weber {
namespace ml {
namespace {

// The straightforward O(n·k²) implementation the library's KMeans1D must
// reproduce bit for bit: full k-means++ rescans, a std::set distinct count
// and a NearestCenter lookup per value per Lloyd step.
std::vector<double> ReferenceSeed(const std::vector<double>& values, int k,
                                  Rng* rng) {
  std::vector<double> centers;
  centers.reserve(k);
  centers.push_back(values[rng->UniformUint64(values.size())]);
  std::vector<double> d2(values.size());
  while (static_cast<int>(centers.size()) < k) {
    double total = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (double c : centers) {
        best = std::min(best, (values[i] - c) * (values[i] - c));
      }
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) break;
    int pick = rng->Categorical(d2);
    if (pick < 0) break;
    centers.push_back(values[pick]);
  }
  return centers;
}

KMeans1DResult ReferenceKMeans1D(const std::vector<double>& values, int k,
                                 Rng* rng,
                                 const KMeans1DOptions& options = {}) {
  std::set<double> distinct(values.begin(), values.end());
  k = std::min<int>(k, static_cast<int>(distinct.size()));
  KMeans1DResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < std::max(1, options.restarts); ++restart) {
    std::vector<double> centers = ReferenceSeed(values, k, rng);
    std::sort(centers.begin(), centers.end());
    centers.erase(std::unique(centers.begin(), centers.end()), centers.end());
    int iter = 0;
    for (; iter < options.max_iterations; ++iter) {
      std::vector<double> sum(centers.size(), 0.0);
      std::vector<int> count(centers.size(), 0);
      for (double v : values) {
        int c = NearestCenter(centers, v);
        sum[c] += v;
        count[c] += 1;
      }
      double max_shift = 0.0;
      std::vector<double> updated;
      for (size_t c = 0; c < centers.size(); ++c) {
        if (count[c] == 0) continue;
        double nc = sum[c] / count[c];
        max_shift = std::max(max_shift, std::fabs(nc - centers[c]));
        updated.push_back(nc);
      }
      std::sort(updated.begin(), updated.end());
      updated.erase(std::unique(updated.begin(), updated.end()), updated.end());
      centers = std::move(updated);
      if (max_shift <= options.tolerance) break;
    }
    double inertia = 0.0;
    for (double v : values) {
      double c = centers[NearestCenter(centers, v)];
      inertia += (v - c) * (v - c);
    }
    if (inertia < best.inertia) {
      best.centers = centers;
      best.inertia = inertia;
      best.iterations = iter;
    }
  }
  return best;
}

enum class Shape { kUniform, kTwentieths, kMostlyZero, kThreeValues, kCubic };

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kUniform: return "Uniform";
    case Shape::kTwentieths: return "Twentieths";
    case Shape::kMostlyZero: return "MostlyZero";
    case Shape::kThreeValues: return "ThreeValues";
    case Shape::kCubic: return "Cubic";
  }
  return "Unknown";
}

void PrintTo(Shape shape, std::ostream* os) { *os << ShapeName(shape); }

std::vector<double> MakeValues(Shape shape, int n, Rng* rng) {
  static const double kThree[] = {0.1, 0.5, 0.9};
  std::vector<double> values(n);
  for (double& v : values) {
    const double u = rng->UniformDouble();
    switch (shape) {
      case Shape::kUniform: v = u; break;
      case Shape::kTwentieths: v = std::round(u * 20.0) / 20.0; break;
      case Shape::kMostlyZero:
        // Half the zeros are -0.0: both signs must leave the sums alone.
        v = u < 0.35 ? -0.0 : u < 0.7 ? 0.0 : rng->UniformDouble();
        break;
      case Shape::kThreeValues: v = kThree[rng->UniformUint64(3)]; break;
      case Shape::kCubic: {
        const double w = 2.0 * u - 1.0;  // signed, dense near 0
        v = w * w * w;
        break;
      }
    }
  }
  return values;
}

void ExpectBitIdentical(const KMeans1DResult& got,
                        const KMeans1DResult& want) {
  ASSERT_EQ(got.centers.size(), want.centers.size());
  EXPECT_EQ(std::memcmp(got.centers.data(), want.centers.data(),
                        want.centers.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0)
      << got.inertia << " vs " << want.inertia;
  EXPECT_EQ(got.iterations, want.iterations);
}

class KMeans1DOracleTest : public ::testing::TestWithParam<Shape> {};

TEST_P(KMeans1DOracleTest, MatchesReferenceBitwise) {
  for (int n : {1, 2, 500, 5333, 9000}) {
    for (int k = 1; k <= 10; ++k) {
      Rng data_rng(1000 * n + k);
      const std::vector<double> values = MakeValues(GetParam(), n, &data_rng);
      Rng fast_rng(n * 31 + k);
      Rng ref_rng(n * 31 + k);
      auto fast = KMeans1D(values, k, &fast_rng);
      ASSERT_TRUE(fast.ok()) << fast.status();
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      ExpectBitIdentical(*fast, ReferenceKMeans1D(values, k, &ref_rng));
      // Identical draws: both generators continue with the same value.
      EXPECT_EQ(fast_rng.NextUint64(), ref_rng.NextUint64());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, KMeans1DOracleTest,
                         ::testing::Values(Shape::kUniform, Shape::kTwentieths,
                                           Shape::kMostlyZero,
                                           Shape::kThreeValues, Shape::kCubic),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return ShapeName(info.param);
                         });

TEST(NearestCenterTest, NonDecreasingOverSortedValues) {
  Rng rng(0x51);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = 1 + static_cast<int>(rng.UniformUint64(10));
    std::vector<double> centers;
    for (int c = 0; c < k; ++c) {
      // Coarse grid values so that exact midpoints (ties) occur.
      centers.push_back(std::round(rng.UniformDouble() * 16.0) / 16.0);
    }
    std::sort(centers.begin(), centers.end());
    centers.erase(std::unique(centers.begin(), centers.end()), centers.end());
    std::vector<double> values =
        MakeValues(trial % 2 ? Shape::kTwentieths : Shape::kUniform, 300,
                   &rng);
    for (double c : centers) values.push_back(c);
    for (size_t i = 0; i + 1 < centers.size(); ++i) {
      values.push_back((centers[i] + centers[i + 1]) / 2.0);
    }
    std::sort(values.begin(), values.end());
    for (size_t j = 1; j < values.size(); ++j) {
      ASSERT_LE(NearestCenter(centers, values[j - 1]),
                NearestCenter(centers, values[j]))
          << "trial " << trial << " at " << values[j - 1] << ", " << values[j];
    }
  }
}

TEST(NearestCenterTest, PicksClosest) {
  std::vector<double> centers = {0.1, 0.5, 0.9};
  EXPECT_EQ(NearestCenter(centers, 0.0), 0);
  EXPECT_EQ(NearestCenter(centers, 0.12), 0);
  EXPECT_EQ(NearestCenter(centers, 0.31), 1);
  EXPECT_EQ(NearestCenter(centers, 0.71), 2);
  EXPECT_EQ(NearestCenter(centers, 1.0), 2);
}

TEST(NearestCenterTest, TiesBreakLow) {
  std::vector<double> centers = {0.2, 0.4};
  EXPECT_EQ(NearestCenter(centers, 0.3), 0);
}

TEST(NearestCenterTest, SingleCenter) {
  EXPECT_EQ(NearestCenter({0.5}, -3.0), 0);
  EXPECT_EQ(NearestCenter({0.5}, 3.0), 0);
}

TEST(KMeans1DTest, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_FALSE(KMeans1D({}, 2, &rng).ok());
  EXPECT_FALSE(KMeans1D({1.0}, 0, &rng).ok());
}

TEST(KMeans1DTest, RejectsNonFiniteValues) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<double> values(40, 0.25);
    values[17] = bad;
    Rng rng(1);
    auto result = KMeans1D(values, 3, &rng);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KMeans1DTest, InertiaTiesKeepTheEarliestRestart) {
  // Two clusters of three points each, repeated: every restart reaches
  // centers {0.125, 0.875} and inertia 0.25, but in 0, 1 or 2 Lloyd steps
  // depending on where k-means++ seeded. With seed 8 the first restart
  // converges in 0 steps and the last in 1.
  std::vector<double> values;
  for (int r = 0; r < 4; ++r) {
    for (double v : {0.0, 0.125, 0.25, 0.75, 0.875, 1.0}) values.push_back(v);
  }
  // Each restart draws only from the shared Rng, so four one-restart fits
  // on one generator replay the four restarts of a default fit.
  Rng replay_rng(8);
  KMeans1DOptions one;
  one.restarts = 1;
  std::vector<KMeans1DResult> restarts;
  for (int r = 0; r < 4; ++r) {
    auto fit = KMeans1D(values, 2, &replay_rng, one);
    ASSERT_TRUE(fit.ok()) << fit.status();
    restarts.push_back(*fit);
  }
  ASSERT_EQ(restarts.front().inertia, restarts.back().inertia);
  ASSERT_NE(restarts.front().iterations, restarts.back().iterations);

  Rng rng(8);
  auto result = KMeans1D(values, 2, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->iterations, restarts.front().iterations);
  EXPECT_EQ(result->inertia, restarts.front().inertia);
}

TEST(KMeans1DTest, RecoversWellSeparatedClusters) {
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(0.1 + rng.UniformDouble(-0.02, 0.02));
    values.push_back(0.5 + rng.UniformDouble(-0.02, 0.02));
    values.push_back(0.9 + rng.UniformDouble(-0.02, 0.02));
  }
  auto result = KMeans1D(values, 3, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->centers.size(), 3u);
  EXPECT_NEAR(result->centers[0], 0.1, 0.03);
  EXPECT_NEAR(result->centers[1], 0.5, 0.03);
  EXPECT_NEAR(result->centers[2], 0.9, 0.03);
}

TEST(KMeans1DTest, CentersAreAscending) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.UniformDouble());
  auto result = KMeans1D(values, 8, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::is_sorted(result->centers.begin(), result->centers.end()));
}

TEST(KMeans1DTest, KCappedAtDistinctValues) {
  Rng rng(4);
  std::vector<double> values = {0.2, 0.2, 0.2, 0.8, 0.8};
  auto result = KMeans1D(values, 10, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.size(), 2u);
  EXPECT_NEAR(result->centers[0], 0.2, 1e-9);
  EXPECT_NEAR(result->centers[1], 0.8, 1e-9);
  EXPECT_NEAR(result->inertia, 0.0, 1e-12);

  // A k far above the data size allocates nothing per requested cluster.
  Rng big_rng(4);
  auto capped = KMeans1D(values, std::numeric_limits<int>::max(), &big_rng);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->centers.size(), 2u);
}

TEST(KMeans1DTest, AllIdenticalValues) {
  Rng rng(5);
  std::vector<double> values(20, 0.5);
  auto result = KMeans1D(values, 4, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->centers.size(), 1u);
  EXPECT_DOUBLE_EQ(result->centers[0], 0.5);
}

TEST(KMeans1DTest, KOneGivesMean) {
  Rng rng(6);
  std::vector<double> values = {0.0, 0.5, 1.0};
  auto result = KMeans1D(values, 1, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->centers.size(), 1u);
  EXPECT_NEAR(result->centers[0], 0.5, 1e-9);
}

TEST(KMeans1DTest, InertiaIsSumOfSquaredResiduals) {
  Rng rng(7);
  std::vector<double> values = {0.0, 0.2, 0.8, 1.0};
  auto result = KMeans1D(values, 2, &rng);
  ASSERT_TRUE(result.ok());
  // Optimal: centers {0.1, 0.9}, inertia 4 * 0.01 = 0.04.
  ASSERT_EQ(result->centers.size(), 2u);
  EXPECT_NEAR(result->inertia, 0.04, 1e-9);
}

TEST(KMeans1DTest, MoreClustersNeverIncreaseInertia) {
  Rng rng(8);
  std::vector<double> values;
  for (int i = 0; i < 150; ++i) values.push_back(rng.UniformDouble());
  double prev = 1e18;
  for (int k : {1, 2, 4, 8}) {
    auto result = KMeans1D(values, k, &rng);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->inertia, prev + 1e-9) << "k=" << k;
    prev = result->inertia;
  }
}

}  // namespace
}  // namespace ml
}  // namespace weber
