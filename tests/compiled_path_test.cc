#include "core/compiled_path.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <thread>

#include "common/fault_injection.h"
#include "core/decision.h"
#include "core/incremental.h"
#include "core/resolver.h"
#include "corpus/generator.h"
#include "corpus/presets.h"
#include "extract/feature_extractor.h"
#include "extract/url.h"
#include "ml/splitter.h"
#include "text/batch_similarity.h"
#include "text/string_similarity.h"
#include "text/vector_similarity.h"

namespace weber {
namespace core {
namespace {

using extract::FeatureBundle;
using text::SparseVector;

SparseVector RandomVector(std::mt19937_64& rng, int max_terms, int id_range) {
  std::vector<SparseVector::Entry> entries;
  const int n = static_cast<int>(rng() % (max_terms + 1));
  std::uniform_real_distribution<double> weight(0.0, 1.0);
  for (int k = 0; k < n; ++k) {
    // One in five entries carries weight exactly 0.0 (an idf-0 term): it is
    // present for overlap counting but contributes nothing to dot products.
    const double w = rng() % 5 == 0 ? 0.0 : weight(rng);
    entries.push_back({static_cast<int32_t>(rng() % id_range), w});
  }
  return SparseVector::FromPairs(std::move(entries));
}

/// Every kernel must reproduce its scalar counterpart bitwise, including
/// empty vectors and zero-weight entries.
void RunKernelEquivalence() {
  std::mt19937_64 rng(0xC0FFEE);
  constexpr int kDimension = 96;  // > any id, so Pearson is batch-eligible
  for (int round = 0; round < 20; ++round) {
    const int n = 1 + static_cast<int>(rng() % 24);
    std::vector<SparseVector> vecs(n);
    std::vector<const SparseVector*> ptrs(n);
    for (int i = 0; i < n; ++i) {
      vecs[i] = RandomVector(rng, 30, kDimension - 4);
      ptrs[i] = &vecs[i];
    }
    if (round % 3 == 0) vecs[0] = SparseVector();  // empty-vector edge case
    text::FrozenVectors frozen = text::FrozenVectors::Freeze(ptrs);
    text::BatchScorer scorer(&frozen);
    scorer.PreparePearson(kDimension);
    std::vector<double> out(n);
    std::vector<int32_t> overlap(n);
    for (int a = 0; a < n; ++a) {
      scorer.SetAnchor(a);
      scorer.Dot(0, n, out.data());
      for (int j = 0; j < n; ++j) EXPECT_EQ(out[j], vecs[a].Dot(vecs[j]));
      scorer.OverlapCount(0, n, overlap.data());
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(overlap[j], vecs[a].OverlapCount(vecs[j]));
      }
      scorer.Cosine(0, n, out.data());
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(out[j], text::CosineSimilarity(vecs[a], vecs[j]));
      }
      for (double damping : {2.0, 1.5, 0.0}) {
        scorer.SaturatingOverlap(damping, 0, n, out.data());
        for (int j = 0; j < n; ++j) {
          EXPECT_EQ(out[j],
                    text::SaturatingOverlap(vecs[a], vecs[j], damping));
        }
      }
      scorer.ExtendedJaccard(0, n, out.data());
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(out[j], text::ExtendedJaccardSimilarity(vecs[a], vecs[j]));
      }
      scorer.Pearson(0, n, out.data());
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(out[j],
                  text::PearsonSimilarity(vecs[a], vecs[j], kDimension));
      }
    }
  }
}

TEST(CompiledPathKernels, ScalarKernelsMatchScalarFunctionsBitwise) {
  RunKernelEquivalence();
}

// ---------------------------------------------------------------------------
// String strips (F2, F3, F7): interned ids and the ordered Jaro-Winkler memo

const SimilarityFunction& FunctionNamed(
    const std::vector<std::unique_ptr<SimilarityFunction>>& fns,
    std::string_view name) {
  for (const auto& fn : fns) {
    if (fn->name() == name) return *fn;
  }
  ADD_FAILURE() << "missing " << name;
  return *fns.front();
}

/// Scores every strip of the block through `scorer` (anchors in descending
/// order, so each anchor > j pair is looked up before its mirror) plus one
/// inner sub-strip per anchor, and compares each value bitwise with
/// fn.Compute(anchor, j); then checks a fresh scorer's ScoreMatrix against
/// ComputeSimilarityMatrix.
void ExpectStripsMatchCompute(const SimilarityFunction& fn,
                              const std::vector<FeatureBundle>& bundles,
                              BlockScorer& scorer) {
  const BatchSpec spec = fn.batch_spec();
  ASSERT_TRUE(scorer.CanBatch(spec)) << fn.name();
  const int n = static_cast<int>(bundles.size());
  std::vector<double> out(n);
  for (int a = n - 1; a >= 0; --a) {
    scorer.ScoreStrip(spec, a, 0, n, out.data());
    for (int j = 0; j < n; ++j) {
      const double want = fn.Compute(bundles[a], bundles[j]);
      EXPECT_EQ(std::memcmp(&out[j], &want, sizeof(double)), 0)
          << fn.name() << " anchor " << a << " j " << j << ": strip "
          << out[j] << " vs per-pair " << want;
    }
    const int begin = n / 3;
    const int end = n - n / 4;
    scorer.ScoreStrip(spec, a, begin, end, out.data());
    for (int j = begin; j < end; ++j) {
      EXPECT_EQ(out[j - begin], fn.Compute(bundles[a], bundles[j]))
          << fn.name() << " sub-strip anchor " << a << " j " << j;
    }
  }
  BlockScorer fresh(&bundles);
  EXPECT_EQ(fresh.ScoreMatrix(spec).data(),
            ComputeSimilarityMatrix(fn, bundles).data())
      << fn.name();
}

TEST(CompiledPathStrings, UrlStripMatchesPerPairOnEdgeCases) {
  // Each row pins the per-pair rung; the block built from all rows then
  // compares every ordered pair's strip value with F2's Compute.
  struct UrlCase {
    const char* a;
    const char* b;
    double rung;  // < 0: the Jaro-Winkler rung, 0.4 * JW(host_a, host_b)
  };
  const std::vector<UrlCase> cases = {
      {"http://www.epfl.ch/lab/a.html", "http://www.epfl.ch/lab/a.html", 1.0},
      // Upper-case host, query and fragment: same host and path.
      {"HTTP://WWW.EPFL.CH/lab/a.html?x=1#top",
       "http://www.epfl.ch/lab/a.html", 1.0},
      {"http://www.epfl.ch/lab/a.html", "http://www.epfl.ch/lab/b.html", 0.9},
      // Port and userinfo are not part of the host.
      {"http://bob@www.epfl.ch:8080/lab/c", "http://www.epfl.ch/lab/d", 0.9},
      {"http://www.epfl.ch/lab/a.html", "http://www.epfl.ch/doc/a.html", 0.8},
      // A bare "/", no path at all and a query-only path are all "/".
      {"http://h.org/", "http://h.org", 1.0},
      {"http://h.org?q=1", "http://h.org/#frag", 1.0},
      {"http://h.org/", "http://h.org/x", 0.8},
      // Empty first directories ("//x") never count as shared.
      {"http://h.org//x", "http://h.org//y", 0.8},
      {"http://people.epfl.ch/x", "http://www.epfl.ch/y", 0.6},
      {"http://a.example.co.uk/p", "http://b.example.co.uk/q", 0.6},
      {"http://a.example.co.uk/p", "http://a.other.co.uk/p", -1.0},
      {"http://alpha.com/x", "http://beta.org/x", -1.0},
      // Hosts "." and ".." have an empty registrable domain: no 0.6 rung.
      {"http://./a", "http://../a", -1.0},
      // Unparseable (empty, blank, host-less) URLs score 0 against all.
      {"", "", 0.0},
      {"   ", "http://h.org/", 0.0},
      {"http:///path-only", "http:///path-only", 0.0},
      {"http://user@:80/x", "http://h.org/x", 0.0},
  };
  std::vector<FeatureBundle> bundles;
  for (const UrlCase& c : cases) {
    const extract::UrlKey ka = extract::MakeUrlKey(c.a);
    const extract::UrlKey kb = extract::MakeUrlKey(c.b);
    const double want =
        c.rung >= 0.0 ? c.rung
                      : 0.4 * text::JaroWinklerSimilarity(ka.host, kb.host);
    EXPECT_EQ(extract::UrlSimilarity(c.a, c.b), want) << c.a << " | " << c.b;
    bundles.emplace_back().url = c.a;
    bundles.emplace_back().url = c.b;
  }
  auto fns = MakeStandardFunctions();
  BlockScorer scorer(&bundles);
  ExpectStripsMatchCompute(FunctionNamed(fns, "F2"), bundles, scorer);
}

TEST(CompiledPathStrings, NameStripsMatchPerPairOnEdgeCases) {
  const std::string long_a(70, 'a');
  const std::string long_b = std::string(69, 'a') + "b";
  const std::vector<std::string> names = {
      "", "alice cohen", "alice cohen", "alicia cohen", "cohen alice", "a",
      "b", "", long_a, long_b, long_a,
      "Jos\xc3\xa9 M\xc3\xbcller",  // non-ASCII bytes (UTF-8)
      "Jose Muller", "Zo\xc3\xab", "zoe", "a"};
  std::vector<FeatureBundle> bundles(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    bundles[i].most_frequent_name = names[i];
    // F7 sees the same values in another order and with other gaps.
    bundles[i].closest_name = names[(i * 7 + 3) % names.size()];
  }
  auto fns = MakeStandardFunctions();
  const SimilarityFunction& f3 = FunctionNamed(fns, "F3");
  const SimilarityFunction& f7 = FunctionNamed(fns, "F7");
  // Per-pair pins: an empty name scores 0, even against another empty one.
  EXPECT_EQ(f3.Compute(bundles[0], bundles[7]), 0.0);
  EXPECT_EQ(f3.Compute(bundles[1], bundles[2]), 1.0);
  // One scorer for both: each name field must get its own ids and memo.
  BlockScorer scorer(&bundles);
  ExpectStripsMatchCompute(f3, bundles, scorer);
  ExpectStripsMatchCompute(f7, bundles, scorer);
}

TEST(CompiledPathStrings, MismatchedMeasureAndFieldAreNotBatchable) {
  std::vector<FeatureBundle> bundles(3);
  BlockScorer scorer(&bundles);
  EXPECT_TRUE(scorer.CanBatch({BatchSpec::Measure::kUrl,
                               BatchSpec::Field::kUrl, 0.0}));
  EXPECT_TRUE(scorer.CanBatch({BatchSpec::Measure::kJaroWinkler,
                               BatchSpec::Field::kClosestName, 0.0}));
  EXPECT_FALSE(scorer.CanBatch({BatchSpec::Measure::kUrl,
                                BatchSpec::Field::kClosestName, 0.0}));
  EXPECT_FALSE(scorer.CanBatch({BatchSpec::Measure::kJaroWinkler,
                                BatchSpec::Field::kTfidf, 0.0}));
  EXPECT_FALSE(scorer.CanBatch({BatchSpec::Measure::kCosine,
                                BatchSpec::Field::kMostFrequentName, 0.0}));
}

TEST(CompiledPathStrings, AllStandardFunctionsBatchOnEveryWww05Block) {
  // The end-to-end equivalence tests compare the default resolver with the
  // per-pair walk; they cover the string strips only if every function
  // batches on real blocks. Checked on the paper's www05 corpus.
  auto data = corpus::SyntheticWebGenerator(corpus::Www05Config()).Generate();
  ASSERT_TRUE(data.ok()) << data.status();
  extract::FeatureExtractor extractor(&data->gazetteer, {});
  const auto fns = MakeStandardFunctions();
  ASSERT_EQ(fns.size(), 10u);
  ASSERT_FALSE(data->dataset.blocks.empty());
  for (const corpus::Block& block : data->dataset.blocks) {
    std::vector<extract::PageInput> pages;
    for (const corpus::Document& d : block.documents) {
      pages.push_back({d.url, d.text});
    }
    auto bundles = extractor.ExtractBlock(pages, block.query);
    ASSERT_TRUE(bundles.ok()) << bundles.status();
    BlockScorer scorer(&*bundles);
    for (const auto& fn : fns) {
      EXPECT_TRUE(scorer.CanBatch(fn->batch_spec()))
          << fn->name() << " on block " << block.query;
    }
  }
}

TEST(CompiledPathKernels, CosineClampMasksOutOfRangeIntermediate) {
  // dot = 3 exactly, but |v|*|v| rounds to 2.9999999999999996, so the raw
  // ratio exceeds 1 before the [0, 1] clamp hides it. The clamp is part of
  // the scalar contract, so the kernels must replicate it — this pins the
  // case where batch-vs-scalar drift would otherwise be invisible.
  const SparseVector v =
      SparseVector::FromPairs({{0, 1.0}, {1, 1.0}, {2, 1.0}});
  const double raw = v.Dot(v) / (v.Norm() * v.Norm());
  EXPECT_GT(raw, 1.0);
  EXPECT_EQ(text::CosineSimilarity(v, v), 1.0);

  text::FrozenVectors frozen = text::FrozenVectors::Freeze({&v, &v});
  text::BatchScorer scorer(&frozen);
  scorer.SetAnchor(0);
  double out[2];
  scorer.Cosine(0, 2, out);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 1.0);
}

TEST(CompiledPathKernels, SaturatingOverlapZeroOverZeroIsZero) {
  // Regression: disjoint vectors with damping 0 used to evaluate 0/0 and
  // return NaN, which then poisoned similarity matrices downstream.
  const SparseVector a = SparseVector::FromPairs({{0, 1.0}});
  const SparseVector b = SparseVector::FromPairs({{5, 1.0}});
  EXPECT_EQ(text::SaturatingOverlap(a, b, 0.0), 0.0);
  EXPECT_EQ(text::SaturatingOverlap(a, a, 0.0), 1.0);  // n/n stays exact
  EXPECT_EQ(text::SaturatingOverlap(SparseVector(), SparseVector(), 0.0),
            0.0);

  text::FrozenVectors frozen = text::FrozenVectors::Freeze({&a, &b});
  text::BatchScorer scorer(&frozen);
  scorer.SetAnchor(0);
  double out[2];
  scorer.SaturatingOverlap(0.0, 0, 2, out);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(CompiledPathKernels, PearsonClampsStaleDimensionAndCountsIt) {
  // Regression: a dimension below the union size only tripped an assert in
  // debug builds; release builds computed a negative variance. It is now
  // clamped up to the union size and the correction is counted.
  const SparseVector a =
      SparseVector::FromPairs({{0, 1.0}, {1, 2.0}, {7, 1.5}});
  const SparseVector b = SparseVector::FromPairs({{1, 0.5}, {3, 1.0}});
  const int union_count = a.UnionCount(b);
  ASSERT_EQ(union_count, 4);

  const long long before = text::PearsonDimensionCorrections();
  const double clamped = text::PearsonSimilarity(a, b, 2);
  EXPECT_EQ(text::PearsonDimensionCorrections(), before + 1);

  // The healthy path (dimension already >= union) must not count.
  const double reference = text::PearsonSimilarity(a, b, union_count);
  EXPECT_EQ(text::PearsonDimensionCorrections(), before + 1);
  EXPECT_EQ(clamped, reference);
  EXPECT_TRUE(std::isfinite(clamped));
  EXPECT_GE(clamped, 0.0);
  EXPECT_LE(clamped, 1.0);

  // Degenerate dimensions stay at the r = 0 midpoint.
  EXPECT_EQ(text::PearsonSimilarity(SparseVector(), SparseVector(), 0), 0.5);
  EXPECT_EQ(text::PearsonSimilarity(SparseVector(), SparseVector(), 1), 0.5);
}

// ---------------------------------------------------------------------------
// Compiled decision tables

std::vector<double> ProbeValues(
    const std::vector<ml::LabeledSimilarity>& training,
    const CompiledDecision& table) {
  std::vector<double> probes = {0.0,
                                1.0,
                                0.5,
                                -0.5,
                                1.5,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  for (const ml::LabeledSimilarity& s : training) probes.push_back(s.value);
  for (double b : table.boundaries) {
    // Boundary-exact values and their immediate floating-point neighbours:
    // the upper_bound-vs-count equivalence has to hold at the knife edge.
    probes.push_back(b);
    probes.push_back(std::nextafter(b, -1e300));
    probes.push_back(std::nextafter(b, 1e300));
  }
  return probes;
}

TEST(CompiledPathDecision, FuzzCompiledMatchesInterpretedPerCriterion) {
  std::mt19937_64 rng(0xDEC1DE);
  Rng weber_rng(17);
  std::vector<CriterionFactory> factories =
      MakeStandardCriterionFactories(10, 8);
  factories.push_back([] {
    return std::unique_ptr<DecisionCriterion>(
        std::make_unique<IsotonicCriterion>());
  });

  std::map<std::string, long long> checks_per_criterion;
  std::uniform_real_distribution<double> value(0.0, 1.0);
  for (int round = 0; round < 60; ++round) {
    const int m = 8 + static_cast<int>(rng() % 60);
    std::vector<ml::LabeledSimilarity> training;
    training.reserve(m);
    for (int i = 0; i < m; ++i) {
      const double v = value(rng);
      // Links correlate with the value plus noise, so fitted thresholds and
      // regions land at varied, non-degenerate places.
      const bool link = v + 0.4 * value(rng) > 0.7;
      training.push_back({v, link});
    }
    for (const CriterionFactory& factory : factories) {
      std::unique_ptr<DecisionCriterion> criterion = factory();
      ASSERT_TRUE(criterion->Fit(training, &weber_rng).ok());
      CompiledDecision table;
      ASSERT_TRUE(criterion->Compile(&table)) << criterion->name();
      for (double p : ProbeValues(training, table)) {
        EXPECT_EQ(criterion->Decide(p), table.Decide(p))
            << criterion->name() << " at " << p;
        EXPECT_EQ(criterion->LinkProbability(p), table.LinkProbability(p))
            << criterion->name() << " at " << p;
        ++checks_per_criterion[criterion->name()];
      }
    }
  }
  ASSERT_EQ(checks_per_criterion.size(), 4u);  // threshold, eq, km, isotonic
  for (const auto& [name, checks] : checks_per_criterion) {
    EXPECT_GE(checks, 1000) << name;
  }
}

TEST(CompiledPathDecision, EvalBlockMatchesPerValueCalls) {
  std::mt19937_64 rng(0xB10C);
  std::vector<ml::LabeledSimilarity> training;
  std::uniform_real_distribution<double> value(0.0, 1.0);
  for (int i = 0; i < 40; ++i) {
    const double v = value(rng);
    training.push_back({v, v > 0.6});
  }
  Rng weber_rng(23);
  auto criterion = RegionCriterion::EqualWidth(10);
  ASSERT_TRUE(criterion->Fit(training, &weber_rng).ok());
  CompiledDecision table;
  ASSERT_TRUE(criterion->Compile(&table));

  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(value(rng) * 1.2 - 0.1);
  values.push_back(std::numeric_limits<double>::quiet_NaN());

  std::vector<char> decisions(values.size(), 2);
  std::vector<double> probs(values.size(), -1.0);
  table.EvalBlock(values.data(), values.size(), decisions.data(),
                  probs.data());
  for (size_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(decisions[k] != 0, table.Decide(values[k]));
    EXPECT_EQ(probs[k], table.LinkProbability(values[k]));
  }

  // Either output may be omitted.
  std::vector<char> only_decisions(values.size(), 2);
  table.EvalBlock(values.data(), values.size(), only_decisions.data(),
                  nullptr);
  EXPECT_EQ(only_decisions, decisions);
  std::vector<double> only_probs(values.size(), -1.0);
  table.EvalBlock(values.data(), values.size(), nullptr, only_probs.data());
  EXPECT_EQ(only_probs, probs);
}

TEST(CompiledPathDecision, UnfittedCriteriaRefuseToCompile) {
  CompiledDecision table;
  ThresholdCriterion threshold;
  EXPECT_FALSE(threshold.Compile(&table));
  EXPECT_FALSE(RegionCriterion::EqualWidth(10)->Compile(&table));
  IsotonicCriterion isotonic;
  EXPECT_FALSE(isotonic.Compile(&table));
}

/// A criterion with no compiled form: EvalCriterion must take the virtual
/// per-value calls.
class UncompiledCriterion final : public DecisionCriterion {
 public:
  std::string name() const override { return "uncompiled"; }
  Status Fit(const std::vector<ml::LabeledSimilarity>&, Rng*) override {
    return Status::OK();
  }
  bool Decide(double value) const override { return value >= 0.25; }
  double LinkProbability(double value) const override { return value / 2; }
  double train_accuracy() const override { return 1.0; }
};

TEST(CompiledPathDecision, EvalCriterionFallsBackWhenCompileRefuses) {
  graph::SimilarityMatrix sims(4, 0.0, 1.0);
  auto& values = sims.data();
  for (size_t k = 0; k < values.size(); ++k) values[k] = 0.1 * k;
  UncompiledCriterion criterion;
  CompiledDecision table;
  ASSERT_FALSE(criterion.Compile(&table));
  std::vector<char> decisions(values.size(), 2);
  std::vector<double> probs(values.size(), -1.0);
  EvalCriterion(criterion, sims, decisions.data(), probs.data());
  for (size_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(decisions[k] != 0, criterion.Decide(values[k]));
    EXPECT_EQ(probs[k], criterion.LinkProbability(values[k]));
  }
  std::vector<char> only_decisions(values.size(), 2);
  EvalCriterion(criterion, sims, only_decisions.data(), nullptr);
  EXPECT_EQ(only_decisions, decisions);
}

TEST(CompiledPathDecision, FusedWeightedAverageMatchesTwoPassLoop) {
  std::mt19937_64 rng(0xFACE);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  const size_t num_sources = 7, num_pairs = 113;
  std::vector<double> accuracies(num_sources);
  std::vector<std::vector<double>> probs(num_sources,
                                         std::vector<double>(num_pairs));
  std::vector<const double*> prob_ptrs(num_sources);
  for (size_t s = 0; s < num_sources; ++s) {
    accuracies[s] = value(rng);
    for (double& p : probs[s]) p = value(rng);
    prob_ptrs[s] = probs[s].data();
  }

  // The pre-refactor combiner loop, verbatim: source-major accumulation
  // followed by one multiply with the reciprocal of the weight total.
  double best_score = 0.0;
  for (double acc : accuracies) best_score = std::max(best_score, acc);
  std::vector<double> expected(num_pairs, 0.0);
  double total_weight = 0.0;
  for (size_t s = 0; s < num_sources; ++s) {
    const double rel =
        best_score > 0.0 ? accuracies[s] / best_score : 1.0;
    const double w = rel * rel * rel * rel + 0.01;
    total_weight += w;
    for (size_t k = 0; k < num_pairs; ++k) expected[k] += w * probs[s][k];
  }
  const double inv = 1.0 / total_weight;
  for (size_t k = 0; k < num_pairs; ++k) expected[k] *= inv;

  const CompiledCombineWeights baked = BakeCombineWeights(accuracies);
  std::vector<double> fused(num_pairs, 0.0);
  FusedWeightedAverage(prob_ptrs, baked, num_pairs, fused.data());
  for (size_t k = 0; k < num_pairs; ++k) EXPECT_EQ(fused[k], expected[k]);
}

// ---------------------------------------------------------------------------
// End-to-end resolver equivalence

class CompiledPathResolver : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result =
        corpus::SyntheticWebGenerator(corpus::TinyConfig(0xAB1E)).Generate();
    ASSERT_TRUE(result.ok()) << result.status();
    data_ = new corpus::SyntheticData(std::move(result).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  /// Resolves every block through the batch kernels and through the
  /// per-pair guarded walk; the results must be indistinguishable
  /// (clustering, sources, accuracies, timings aside). Arming the
  /// `similarity.compute` fault point at probability 0 forces the per-pair
  /// walk and never fires.
  void ExpectBatchMatchesPerPair(const ResolverOptions& options) {
    auto resolver = EntityResolver::Create(&data_->gazetteer, options);
    ASSERT_TRUE(resolver.ok()) << resolver.status();
    faults::ScopedFaultClearance clearance;
    faults::FaultConfig never;
    never.kind = faults::FaultKind::kNaN;
    never.probability = 0.0;

    for (size_t b = 0; b < data_->dataset.blocks.size(); ++b) {
      const corpus::Block& block = data_->dataset.blocks[b];
      Rng rng_a(1000 + b), rng_b(1000 + b);
      auto ra = resolver->ResolveBlock(block, &rng_a);
      faults::FaultInjector::Instance().Arm("similarity.compute", never);
      auto rb = resolver->ResolveBlock(block, &rng_b);
      EXPECT_EQ(
          faults::FaultInjector::Instance().TriggerCount("similarity.compute"),
          0);
      faults::FaultInjector::Instance().DisarmAll();
      ASSERT_TRUE(ra.ok()) << ra.status();
      ASSERT_TRUE(rb.ok()) << rb.status();
      EXPECT_EQ(ra->clustering.labels(), rb->clustering.labels());
      EXPECT_EQ(ra->chosen_source, rb->chosen_source);
      ASSERT_EQ(ra->sources.size(), rb->sources.size());
      for (size_t s = 0; s < ra->sources.size(); ++s) {
        EXPECT_EQ(ra->sources[s].function_name,
                  rb->sources[s].function_name);
        EXPECT_EQ(ra->sources[s].criterion_name,
                  rb->sources[s].criterion_name);
        EXPECT_EQ(ra->sources[s].train_accuracy,
                  rb->sources[s].train_accuracy);
        EXPECT_EQ(ra->sources[s].num_edges, rb->sources[s].num_edges);
      }
    }
  }

  static corpus::SyntheticData* data_;
};

corpus::SyntheticData* CompiledPathResolver::data_ = nullptr;

TEST_F(CompiledPathResolver, DefaultConfigurationIsBitIdentical) {
  ExpectBatchMatchesPerPair(ResolverOptions{});
}

TEST_F(CompiledPathResolver, WeightedCombinationIsBitIdentical) {
  ResolverOptions options;
  options.combination = CombinationStrategy::kWeightedAverage;
  ExpectBatchMatchesPerPair(options);
}

TEST_F(CompiledPathResolver, IsotonicAndGatingAreBitIdentical) {
  ResolverOptions options;
  options.include_isotonic_criterion = true;
  options.min_pair_informativeness = 0.05;
  ExpectBatchMatchesPerPair(options);
}

TEST_F(CompiledPathResolver, ThresholdOnlySubsetIsBitIdentical) {
  ResolverOptions options;
  options.use_region_criteria = false;
  options.function_names = kSubsetI4;
  ExpectBatchMatchesPerPair(options);
}

TEST_F(CompiledPathResolver, EvalBlockMatchesVirtualCallsOnRealMatrices) {
  // Every criterion the resolver can fit, fitted on each block's real
  // similarity matrices: the compiled table must give the virtual
  // Decide / LinkProbability bits for every pair of the block.
  auto functions = MakeFunctions(kSubsetI10);
  ASSERT_TRUE(functions.ok()) << functions.status();
  extract::FeatureExtractor extractor(&data_->gazetteer, {});
  std::vector<CriterionFactory> factories =
      MakeStandardCriterionFactories(10, 8);
  factories.push_back([] {
    return std::unique_ptr<DecisionCriterion>(
        std::make_unique<IsotonicCriterion>());
  });
  long long checked = 0;
  for (size_t b = 0; b < data_->dataset.blocks.size(); ++b) {
    const corpus::Block& block = data_->dataset.blocks[b];
    std::vector<extract::PageInput> pages;
    for (const corpus::Document& d : block.documents) {
      pages.push_back({d.url, d.text});
    }
    auto bundles = extractor.ExtractBlock(pages, block.query);
    ASSERT_TRUE(bundles.ok()) << bundles.status();
    Rng rng(2000 + b);
    const auto pairs = ml::SampleTrainingPairs(block.num_documents(), 0.10,
                                               &rng, 10);
    for (const auto& fn : *functions) {
      const graph::SimilarityMatrix sims =
          ComputeSimilarityMatrix(*fn, *bundles);
      std::vector<ml::LabeledSimilarity> training;
      for (const auto& [a, c] : pairs) {
        training.push_back({sims.Get(a, c), block.entity_labels[a] ==
                                                block.entity_labels[c]});
      }
      const std::vector<double>& values = sims.data();
      for (const CriterionFactory& factory : factories) {
        std::unique_ptr<DecisionCriterion> criterion = factory();
        ASSERT_TRUE(criterion->Fit(training, &rng).ok())
            << fn->name() << " " << criterion->name();
        CompiledDecision table;
        ASSERT_TRUE(criterion->Compile(&table)) << criterion->name();
        std::vector<char> decisions(values.size(), 2);
        std::vector<double> probs(values.size(), -1.0);
        table.EvalBlock(values.data(), values.size(), decisions.data(),
                        probs.data());
        for (size_t k = 0; k < values.size(); ++k) {
          ASSERT_EQ(decisions[k] != 0, criterion->Decide(values[k]))
              << fn->name() << " " << criterion->name() << " pair " << k;
          ASSERT_EQ(probs[k], criterion->LinkProbability(values[k]))
              << fn->name() << " " << criterion->name() << " pair " << k;
        }
        checked += static_cast<long long>(values.size());
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_F(CompiledPathResolver, DimensionCorrectionsSurfaceInRunHealth) {
  // Poison one bundle's vocabulary dimension so the interpreted Pearson
  // path must correct it; the counter has to land in the block's health.
  auto resolver = EntityResolver::Create(&data_->gazetteer, ResolverOptions{});
  ASSERT_TRUE(resolver.ok());
  const corpus::Block& block = data_->dataset.blocks[0];
  std::vector<extract::PageInput> pages;
  for (const corpus::Document& d : block.documents) {
    pages.push_back({d.url, d.text});
  }
  extract::FeatureExtractor extractor(&data_->gazetteer, {});
  auto bundles = extractor.ExtractBlock(pages, block.query);
  ASSERT_TRUE(bundles.ok());
  for (auto& b : *bundles) b.tfidf_dimension = 2;  // stale vocabulary

  Rng rng(9);
  auto pairs = ml::SampleTrainingPairs(
      static_cast<int>(bundles->size()), 0.10, &rng, 10);
  auto r = resolver->ResolveExtracted(*bundles, block.entity_labels, pairs,
                                      &rng);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->health.dimension_corrections, 0);
  EXPECT_TRUE(r->health.AnyDegradation());
}

// ---------------------------------------------------------------------------
// Incremental batch resolve

std::vector<FeatureBundle> PlantedStream(std::vector<int>* labels) {
  std::vector<FeatureBundle> bundles(12);
  labels->resize(12);
  for (int i = 0; i < 12; ++i) {
    const int entity = i % 3;
    (*labels)[i] = entity;
    const int base = entity * 10;
    bundles[i].tfidf = SparseVector::FromPairs(
        {{base, 0.7}, {base + 1, 0.6}, {base + 2 + (i % 2), 0.4}});
    bundles[i].tfidf = bundles[i].tfidf.Normalized();
    bundles[i].tfidf_dimension = 40;
    bundles[i].concepts = SparseVector::FromPairs(
        {{base, 1.0}, {base + 1, 1.0}});
    bundles[i].weighted_concepts = bundles[i].concepts;
    bundles[i].organizations = SparseVector::FromPairs({{entity, 1.0}});
    bundles[i].most_frequent_name =
        std::string(1, static_cast<char>('a' + entity)) + "lice x";
    bundles[i].closest_name = bundles[i].most_frequent_name;
    bundles[i].url = "http://e" + std::to_string(entity) + ".edu/x/p.html";
  }
  return bundles;
}

std::unique_ptr<IncrementalResolver> MakeCalibrated(
    const std::vector<FeatureBundle>& bundles, const std::vector<int>& labels) {
  auto created = IncrementalResolver::Create(IncrementalOptions{});
  EXPECT_TRUE(created.ok());
  auto resolver =
      std::make_unique<IncrementalResolver>(std::move(created).ValueOrDie());
  Rng rng(1);
  auto pairs =
      ml::SampleTrainingPairs(static_cast<int>(bundles.size()), 0.6, &rng);
  EXPECT_TRUE(resolver->CalibrateThreshold(bundles, labels, pairs).ok());
  for (const auto& b : bundles) resolver->Add(b);
  return resolver;
}

/// Stores every inserted score and counts lookups; installing it sends
/// BatchResolve down the per-pair walk.
class CountingCache : public PairScoreCache {
 public:
  bool Lookup(int function_index, int a, int b, double* value) override {
    ++lookups;
    auto it = store.find(KeyOf(function_index, a, b));
    if (it == store.end()) return false;
    *value = it->second;
    return true;
  }
  void Insert(int function_index, int a, int b, double value) override {
    store[KeyOf(function_index, a, b)] = value;
  }
  static long long KeyOf(int f, int a, int b) {
    return (static_cast<long long>(f) << 40) |
           (static_cast<long long>(std::min(a, b)) << 20) |
           static_cast<long long>(std::max(a, b));
  }
  std::map<long long, double> store;
  long long lookups = 0;
};

TEST(CompiledPathIncremental, BatchResolveMatchesInterpreted) {
  // Without a cache BatchResolve scores strips through the batch kernels;
  // with one it walks every pair through MatchScore. Both must agree.
  std::vector<int> labels;
  const auto bundles = PlantedStream(&labels);
  auto resolver = MakeCalibrated(bundles, labels);
  auto batch_a = resolver->BatchResolve();
  CountingCache cache;
  resolver->set_score_cache(&cache);
  auto batch_b = resolver->BatchResolve();
  resolver->set_score_cache(nullptr);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  EXPECT_GT(cache.lookups, 0);  // the per-pair walk ran
  EXPECT_EQ(batch_a->labels(), batch_b->labels());
  EXPECT_EQ(*batch_a, graph::Clustering::FromLabels(labels));
}

TEST(CompiledPathIncremental, ConcurrentBatchResolvesAgree) {
  // Exercised under TSan by check.sh: BatchResolve is const and the batch
  // scorer is per-call state, so concurrent calls must neither race nor
  // diverge.
  std::vector<int> labels;
  const auto bundles = PlantedStream(&labels);
  auto resolver = MakeCalibrated(bundles, labels);
  const auto expected = resolver->BatchResolve();
  ASSERT_TRUE(expected.ok());

  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        auto got = resolver->BatchResolve();
        if (!got.ok() || !(*got == *expected)) ++mismatches[t];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0);
}

}  // namespace
}  // namespace core
}  // namespace weber
