// Configuration-matrix property suite: every (combination strategy x
// clustering algorithm x criteria family) cell of the resolver must produce
// a valid resolution on the same block — the output invariants hold no
// matter how the pipeline is configured.

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "core/resolver.h"
#include "corpus/generator.h"
#include "corpus/presets.h"
#include "eval/metrics.h"

namespace weber {
namespace core {

using MatrixParam =
    std::tuple<CombinationStrategy, ClusteringAlgorithm, bool /*regions*/,
               bool /*isotonic*/>;

// Prints the configuration instead of raw enum bytes; ctest puts this
// GetParam() text into each test's name. Found by argument-dependent lookup,
// so it lives in the enums' namespace.
void PrintTo(const MatrixParam& param, std::ostream* os) {
  *os << "(" << CombinationStrategyToString(std::get<0>(param)) << ", "
      << ClusteringAlgorithmToString(std::get<1>(param)) << ", "
      << (std::get<2>(param) ? "regions" : "threshold")
      << (std::get<3>(param) ? ", isotonic" : "") << ")";
}

namespace {

class ResolverMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  static void SetUpTestSuite() {
    auto result =
        corpus::SyntheticWebGenerator(corpus::TinyConfig(0x3A7)).Generate();
    ASSERT_TRUE(result.ok());
    data_ = new corpus::SyntheticData(std::move(result).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static corpus::SyntheticData* data_;
};

corpus::SyntheticData* ResolverMatrixTest::data_ = nullptr;

TEST_P(ResolverMatrixTest, ProducesValidResolution) {
  const auto& [combination, clustering, regions, isotonic] = GetParam();
  ResolverOptions options;
  options.combination = combination;
  options.clustering = clustering;
  options.use_region_criteria = regions;
  options.include_isotonic_criterion = isotonic;
  auto resolver = EntityResolver::Create(&data_->gazetteer, options);
  ASSERT_TRUE(resolver.ok()) << resolver.status();

  for (const corpus::Block& block : data_->dataset.blocks) {
    Rng rng(0x5EED);
    auto resolution = resolver->ResolveBlock(block, &rng);
    ASSERT_TRUE(resolution.ok()) << resolution.status();
    // Output invariants: full coverage, canonical labels, evaluable.
    EXPECT_EQ(resolution->clustering.num_items(), block.num_documents());
    EXPECT_GE(resolution->clustering.num_clusters(), 1);
    EXPECT_LE(resolution->clustering.num_clusters(), block.num_documents());
    auto report = eval::Evaluate(block.GroundTruth(), resolution->clustering);
    ASSERT_TRUE(report.ok());
    EXPECT_GE(report->fp_measure, 0.0);
    EXPECT_LE(report->fp_measure, 1.0);
    // Every source family is present and scored.
    size_t expected_criteria = regions ? 3u : 1u;
    if (isotonic) expected_criteria += 1;
    EXPECT_EQ(resolution->sources.size(),
              options.function_names.size() * expected_criteria);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, ResolverMatrixTest,
    ::testing::Combine(
        ::testing::Values(CombinationStrategy::kBestGraph,
                          CombinationStrategy::kWeightedAverage,
                          CombinationStrategy::kMajorityVote),
        ::testing::Values(ClusteringAlgorithm::kTransitiveClosure,
                          ClusteringAlgorithm::kCorrelationClustering,
                          ClusteringAlgorithm::kAgglomerative),
        ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      // NOTE: no structured bindings here — commas inside their brackets
      // would split the surrounding macro's arguments.
      std::string name =
          CombinationStrategyToString(std::get<0>(info.param)) + "_" +
          ClusteringAlgorithmToString(std::get<1>(info.param)) +
          (std::get<2>(info.param) ? "_regions" : "_thresh") +
          (std::get<3>(info.param) ? "_iso" : "");
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace core
}  // namespace weber
