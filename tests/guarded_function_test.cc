#include "core/guarded_function.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/decision.h"
#include "core/resolver.h"
#include "corpus/generator.h"
#include "corpus/presets.h"

namespace weber {
namespace core {
namespace {

/// Test double returning a fixed value regardless of input.
class ConstantFunction : public SimilarityFunction {
 public:
  explicit ConstantFunction(double value) : value_(value) {}
  std::string_view name() const override { return "const"; }
  std::string_view description() const override { return "constant"; }
  double Compute(const extract::FeatureBundle&,
                 const extract::FeatureBundle&) const override {
    return value_;
  }

 private:
  double value_;
};

/// Violates symmetry: depends only on the first argument.
class AsymmetricFunction : public SimilarityFunction {
 public:
  std::string_view name() const override { return "asym"; }
  std::string_view description() const override { return "asymmetric"; }
  double Compute(const extract::FeatureBundle& a,
                 const extract::FeatureBundle&) const override {
    return a.informativeness;
  }
};

extract::FeatureBundle Bundle(double informativeness = 0.0) {
  extract::FeatureBundle b;
  b.informativeness = informativeness;
  return b;
}

TEST(GuardedFunctionTest, WellBehavedFunctionPassesThroughUntouched) {
  ConstantFunction inner(0.75);
  GuardOptions options;
  options.symmetry_check_interval = 1;  // check every call
  GuardedSimilarityFunction guard(&inner, options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(guard.Compute(Bundle(), Bundle()), 0.75);
  }
  EXPECT_EQ(guard.violations().total(), 0);
  EXPECT_FALSE(guard.quarantined());
  EXPECT_EQ(guard.calls(), 100);
  EXPECT_EQ(guard.name(), "const");
}

TEST(GuardedFunctionTest, NaNClampsToZeroAndQuarantines) {
  ConstantFunction inner(std::numeric_limits<double>::quiet_NaN());
  GuardOptions options;
  options.quarantine_threshold = 5;
  GuardedSimilarityFunction guard(&inner, options);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(guard.Compute(Bundle(), Bundle()), 0.0);
    EXPECT_FALSE(guard.quarantined());
  }
  EXPECT_EQ(guard.Compute(Bundle(), Bundle()), 0.0);  // fifth strike
  EXPECT_TRUE(guard.quarantined());
  EXPECT_EQ(guard.violations().non_finite, 5);
  // Still computes (and clamps) after quarantine.
  EXPECT_EQ(guard.Compute(Bundle(), Bundle()), 0.0);
}

TEST(GuardedFunctionTest, InfinityClampsIntoRange) {
  ConstantFunction pos(std::numeric_limits<double>::infinity());
  GuardedSimilarityFunction guard(&pos, {});
  EXPECT_EQ(guard.Compute(Bundle(), Bundle()), 0.0);
  EXPECT_EQ(guard.violations().non_finite, 1);
}

TEST(GuardedFunctionTest, OutOfRangeClampsToNearestBound) {
  ConstantFunction high(1.8);
  GuardedSimilarityFunction guard_high(&high, {});
  EXPECT_EQ(guard_high.Compute(Bundle(), Bundle()), 1.0);
  EXPECT_EQ(guard_high.violations().out_of_range, 1);

  ConstantFunction low(-0.3);
  GuardedSimilarityFunction guard_low(&low, {});
  EXPECT_EQ(guard_low.Compute(Bundle(), Bundle()), 0.0);
  EXPECT_EQ(guard_low.violations().out_of_range, 1);
}

TEST(GuardedFunctionTest, ZeroThresholdDisablesQuarantine) {
  ConstantFunction inner(std::numeric_limits<double>::quiet_NaN());
  GuardOptions options;
  options.quarantine_threshold = 0;
  GuardedSimilarityFunction guard(&inner, options);
  for (int i = 0; i < 50; ++i) guard.Compute(Bundle(), Bundle());
  EXPECT_EQ(guard.violations().non_finite, 50);
  EXPECT_FALSE(guard.quarantined());
}

TEST(GuardedFunctionTest, SymmetrySpotCheckCatchesAsymmetry) {
  AsymmetricFunction inner;
  GuardOptions options;
  options.symmetry_check_interval = 1;
  GuardedSimilarityFunction guard(&inner, options);
  // Symmetric inputs: no violation.
  guard.Compute(Bundle(0.4), Bundle(0.4));
  EXPECT_EQ(guard.violations().asymmetry, 0);
  // Asymmetric pair: f(a,b)=0.4, f(b,a)=0.9.
  guard.Compute(Bundle(0.4), Bundle(0.9));
  EXPECT_EQ(guard.violations().asymmetry, 1);
}

/// End-to-end quarantine: a resolver given the standard functions plus one
/// NaN-emitting function must quarantine the offender and produce exactly
/// the clustering it would have produced without it (same seeds, same RNG
/// stream), with the quarantine visible in RunHealth.
class GuardedResolverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result =
        corpus::SyntheticWebGenerator(corpus::TinyConfig(0x77)).Generate();
    ASSERT_TRUE(result.ok()) << result.status();
    data_ = new corpus::SyntheticData(std::move(result).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static corpus::SyntheticData* data_;
};

corpus::SyntheticData* GuardedResolverTest::data_ = nullptr;

TEST_F(GuardedResolverTest, QuarantinedFunctionDoesNotChangeResult) {
  ResolverOptions options;
  options.guard.quarantine_threshold = 4;

  auto healthy = MakeFunctions(kSubsetI4);
  ASSERT_TRUE(healthy.ok());
  auto clean_resolver = EntityResolver::CreateWithFunctions(
      &data_->gazetteer, options, std::move(healthy).ValueOrDie());
  ASSERT_TRUE(clean_resolver.ok()) << clean_resolver.status();

  auto poisoned = MakeFunctions(kSubsetI4);
  ASSERT_TRUE(poisoned.ok());
  auto functions = std::move(poisoned).ValueOrDie();
  functions.push_back(std::make_unique<ConstantFunction>(
      std::numeric_limits<double>::quiet_NaN()));
  auto dirty_resolver = EntityResolver::CreateWithFunctions(
      &data_->gazetteer, options, std::move(functions));
  ASSERT_TRUE(dirty_resolver.ok()) << dirty_resolver.status();

  const corpus::Block& block = data_->dataset.blocks[0];
  Rng clean_rng(0xABC);
  Rng dirty_rng(0xABC);
  auto clean = clean_resolver->ResolveBlock(block, &clean_rng);
  auto dirty = dirty_resolver->ResolveBlock(block, &dirty_rng);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(dirty.ok()) << dirty.status();

  EXPECT_EQ(dirty->health.quarantined_functions, 1);
  EXPECT_GT(dirty->health.value_violations, 0);
  EXPECT_EQ(clean->health.quarantined_functions, 0);
  EXPECT_EQ(clean->health.value_violations, 0);

  // Identical clustering and chosen source: quarantining is equivalent to
  // never having configured the broken function.
  EXPECT_EQ(dirty->clustering.labels(), clean->clustering.labels());
  EXPECT_EQ(dirty->chosen_source, clean->chosen_source);
  EXPECT_EQ(dirty->sources.size(), clean->sources.size());
}

TEST_F(GuardedResolverTest, AllFunctionsQuarantinedFallsBackGracefully) {
  ResolverOptions options;
  options.guard.quarantine_threshold = 2;
  std::vector<std::unique_ptr<SimilarityFunction>> functions;
  functions.push_back(std::make_unique<ConstantFunction>(
      std::numeric_limits<double>::quiet_NaN()));
  auto resolver = EntityResolver::CreateWithFunctions(
      &data_->gazetteer, options, std::move(functions));
  ASSERT_TRUE(resolver.ok()) << resolver.status();

  const corpus::Block& block = data_->dataset.blocks[0];
  Rng rng(7);
  auto r = resolver->ResolveBlock(block, &rng);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->clustering.num_items(), block.num_documents());
  EXPECT_EQ(r->health.quarantined_functions, 1);
  EXPECT_EQ(r->health.degraded_blocks, 1);
  EXPECT_TRUE(r->chosen_source.rfind("fallback/", 0) == 0)
      << r->chosen_source;
}

TEST_F(GuardedResolverTest, UnguardedNaNFunctionSkipsItsCriteria) {
  // With the guard off, NaN similarities reach the criterion fitters, which
  // must reject them (before any sort) instead of fitting garbage.
  ResolverOptions options;
  options.guard_functions = false;
  options.include_isotonic_criterion = true;

  auto healthy = MakeFunctions(kSubsetI4);
  ASSERT_TRUE(healthy.ok());
  auto clean_resolver = EntityResolver::CreateWithFunctions(
      &data_->gazetteer, options, std::move(healthy).ValueOrDie());
  ASSERT_TRUE(clean_resolver.ok()) << clean_resolver.status();

  auto poisoned = MakeFunctions(kSubsetI4);
  ASSERT_TRUE(poisoned.ok());
  auto functions = std::move(poisoned).ValueOrDie();
  functions.push_back(std::make_unique<ConstantFunction>(
      std::numeric_limits<double>::quiet_NaN()));
  auto dirty_resolver = EntityResolver::CreateWithFunctions(
      &data_->gazetteer, options, std::move(functions));
  ASSERT_TRUE(dirty_resolver.ok()) << dirty_resolver.status();

  const corpus::Block& block = data_->dataset.blocks[0];
  Rng clean_rng(0xABC);
  Rng dirty_rng(0xABC);
  auto clean = clean_resolver->ResolveBlock(block, &clean_rng);
  auto dirty = dirty_resolver->ResolveBlock(block, &dirty_rng);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(dirty.ok()) << dirty.status();

  // Threshold, equal-width, k-means and isotonic: every criterion of the
  // NaN function is skipped, and none of its sources survives.
  const long long per_function =
      static_cast<long long>(MakeStandardCriterionFactories(
                                 options.equal_width_bins, options.kmeans_k)
                                 .size()) +
      1;
  EXPECT_EQ(dirty->health.skipped_criteria,
            clean->health.skipped_criteria + per_function);
  for (const auto& source : dirty->sources) {
    EXPECT_NE(source.function_name, "const");
  }
  EXPECT_EQ(dirty->sources.size(), clean->sources.size());
  EXPECT_EQ(dirty->clustering.labels(), clean->clustering.labels());
}

TEST_F(GuardedResolverTest, GuardDisabledReproducesGuardedResults) {
  // With well-behaved functions the guard must be value-transparent:
  // guarded and unguarded runs agree bit-for-bit.
  ResolverOptions guarded;
  ResolverOptions unguarded;
  unguarded.guard_functions = false;
  auto a = EntityResolver::Create(&data_->gazetteer, guarded);
  auto b = EntityResolver::Create(&data_->gazetteer, unguarded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const corpus::Block& block = data_->dataset.blocks[0];
  Rng rng_a(0x5);
  Rng rng_b(0x5);
  auto ra = a->ResolveBlock(block, &rng_a);
  auto rb = b->ResolveBlock(block, &rng_b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->clustering.labels(), rb->clustering.labels());
  EXPECT_EQ(ra->chosen_source, rb->chosen_source);
  EXPECT_EQ(ra->health.TotalViolations(), 0);
}

}  // namespace
}  // namespace core
}  // namespace weber
