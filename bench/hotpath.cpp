// Hot-path benchmark: pair-scoring throughput of the per-pair walk vs the
// compiled batch kernels, decision-table evaluation, and criterion fitting.
//
// For each block size the seven batchable vector functions (F1, F4, F5,
// F6, F8, F9, F10) score the full upper triangle two ways:
//
//   interpreted      — virtual SimilarityFunction::Compute per pair
//   compiled-scalar  — BlockScorer strips through the scalar kernels
//
// plus the fitted decision criteria evaluated per value (virtual Decide /
// LinkProbability) vs CompiledDecision::EvalBlock. Both scoring modes
// produce bit-identical scores (one pass of each is checked before timing),
// so the ratio is pure speed.
//
// The fit section times DecisionCriterion::Fit for the resolver's standard
// criteria (threshold, 10 equal-width regions, 8 k-means regions) on
// training sets of 500, 5,333 and 8,000 labeled values: the sizes of a
// www05 block and of resolve_large-sized blocks.
//
// Every row is sampled several times, the rows of one group alternating
// sample by sample so that host drift hits them alike, and reported as
// median and quartiles. Emits BENCH_hotpath.json.
//
// Usage: hotpath [--quick] [output.json]

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/compiled_path.h"
#include "core/decision.h"
#include "extract/feature_extractor.h"
#include "ml/splitter.h"

using namespace weber;

namespace {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles QuartilesOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {obs::Percentile(samples, 0.25), obs::Percentile(samples, 0.5),
          obs::Percentile(samples, 0.75)};
}

std::ostream& operator<<(std::ostream& os, const Quartiles& q) {
  return os << "{\"median\": " << q.median << ", \"q1\": " << q.q1
            << ", \"q3\": " << q.q3 << "}";
}

/// Runs `body` (one repetition) until ~`budget_s` of wall clock is spent,
/// returning `units_per_rep` × repetitions per second.
template <typename Body>
double Rate(double units_per_rep, double budget_s, Body&& body) {
  WallTimer timer;
  long long reps = 0;
  do {
    body();
    ++reps;
  } while (timer.ElapsedSeconds() < budget_s);
  return units_per_rep * static_cast<double>(reps) / timer.ElapsedSeconds();
}

/// Samples each rate function `samples` times, alternating between them,
/// after one warm-up call each.
std::vector<Quartiles> SampleAlternating(
    const std::vector<std::function<double()>>& rates, int samples) {
  std::vector<std::vector<double>> taken(rates.size());
  for (const auto& rate : rates) rate();
  for (int s = 0; s < samples; ++s) {
    for (size_t r = 0; r < rates.size(); ++r) taken[r].push_back(rates[r]());
  }
  std::vector<Quartiles> out;
  for (const auto& t : taken) out.push_back(QuartilesOf(t));
  return out;
}

struct SizeResult {
  int block_size = 0;
  long long pairs = 0;
  Quartiles interpreted;
  Quartiles compiled_scalar;
  Quartiles decision_interpreted;
  Quartiles decision_compiled;
};

struct FitResult {
  std::string criterion;
  int n = 0;
  Quartiles fit_ms;
};

/// Tiles the extracted bundles of one synthetic block up to `n` documents,
/// so every size benchmarks the same realistic feature distributions.
std::vector<extract::FeatureBundle> TileBundles(
    const std::vector<extract::FeatureBundle>& seed, int n) {
  std::vector<extract::FeatureBundle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(seed[i % seed.size()]);
  return out;
}

/// Labeled training values shaped like a block's: most pairs score exactly
/// 0 or near it and are non-links; links skew toward high values.
std::vector<ml::LabeledSimilarity> FitTraining(int n) {
  Rng rng(0x407 + n);
  std::vector<ml::LabeledSimilarity> training(n);
  for (ml::LabeledSimilarity& s : training) {
    const double u = rng.UniformDouble();
    s.value = u < 0.6 ? 0.0 : rng.UniformDouble() * rng.UniformDouble();
    s.link = rng.Bernoulli(0.1 + 0.8 * s.value);
  }
  return training;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::cerr << "usage: hotpath [--quick] [output.json]\n";
      return 2;
    } else {
      out_path = argv[i];
    }
  }
  const int samples = quick ? 5 : 7;
  const double budget_s = quick ? 0.01 : 0.1;
  const std::vector<int> sizes =
      quick ? std::vector<int>{64} : std::vector<int>{32, 64, 128, 256};
  const std::vector<int> fit_sizes =
      quick ? std::vector<int>{500} : std::vector<int>{500, 5333, 8000};

  corpus::SyntheticData data = bench::GenerateOrDie(corpus::TinyConfig());
  const corpus::Block& block = data.dataset.blocks[0];
  std::vector<extract::PageInput> pages;
  for (const corpus::Document& d : block.documents) {
    pages.push_back({d.url, d.text});
  }
  extract::FeatureExtractor extractor(&data.gazetteer, {});
  auto seed_bundles =
      bench::CheckResult(extractor.ExtractBlock(pages, block.query),
                         "feature extraction");

  auto functions = bench::CheckResult(core::MakeFunctions(core::kSubsetI10),
                                      "function registry");
  // Keep only the kernel-covered vector functions; the string/composed
  // functions are identical in all modes and would only dilute the ratio.
  std::vector<core::SimilarityFunction*> batchable;
  std::vector<core::BatchSpec> specs;
  for (const auto& fn : functions) {
    const core::BatchSpec spec = fn->batch_spec();
    if (spec.batchable()) {
      batchable.push_back(fn.get());
      specs.push_back(spec);
    }
  }

  // A fitted region criterion for the decision-table comparison.
  Rng rng(0x407);
  std::vector<ml::LabeledSimilarity> training;
  for (int i = 0; i < 400; ++i) {
    const double v = (i % 100) / 100.0;
    training.push_back({v, v > 0.55});
  }
  auto criterion = core::RegionCriterion::EqualWidth(10);
  bench::CheckOk(criterion->Fit(training, &rng), "criterion fit");
  core::CompiledDecision table;
  if (!criterion->Compile(&table)) {
    std::cerr << "fitted criterion failed to compile\n";
    return 1;
  }

  // Sinks keep the optimizer from dropping the timed work.
  double sink = 0.0;
  std::vector<SizeResult> results;
  for (int n : sizes) {
    const auto bundles = TileBundles(seed_bundles, n);
    const long long tri_pairs = static_cast<long long>(n) * (n - 1) / 2;
    const long long pairs_per_rep =
        tri_pairs * static_cast<long long>(batchable.size());
    SizeResult r;
    r.block_size = n;
    r.pairs = pairs_per_rep;

    auto interpreted_pass = [&] {
      double sum = 0.0;
      for (core::SimilarityFunction* fn : batchable) {
        for (int a = 0; a < n; ++a) {
          for (int b = a + 1; b < n; ++b) {
            sum += fn->Compute(bundles[a], bundles[b]);
          }
        }
      }
      return sum;
    };

    auto compiled_pass = [&] {
      core::BlockScorer scorer(&bundles);
      std::vector<double> strip(n);
      double sum = 0.0;
      for (size_t f = 0; f < batchable.size(); ++f) {
        if (!scorer.CanBatch(specs[f])) {
          std::cerr << "spec unexpectedly not batchable\n";
          std::exit(1);
        }
        for (int a = 0; a < n - 1; ++a) {
          scorer.ScoreStrip(specs[f], a, a + 1, n, strip.data());
          for (int k = 0; k < n - a - 1; ++k) sum += strip[k];
        }
      }
      return sum;
    };
    // Same pairs, same order, same raw values: the sums match bitwise.
    if (interpreted_pass() != compiled_pass()) {
      std::cerr << "n=" << n << ": compiled scores differ from per-pair\n";
      return 1;
    }
    const double units = static_cast<double>(pairs_per_rep);
    const std::vector<Quartiles> scoring = SampleAlternating(
        {[&] {
           return Rate(units, budget_s, [&] { sink += interpreted_pass(); });
         },
         [&] {
           return Rate(units, budget_s, [&] { sink += compiled_pass(); });
         }},
        samples);
    r.interpreted = scoring[0];
    r.compiled_scalar = scoring[1];

    // Decision tables: one value per pair, region criterion.
    std::vector<double> values(tri_pairs);
    for (long long k = 0; k < tri_pairs; ++k) {
      values[k] = (k % 1000) / 999.0;
    }
    std::vector<char> dec(tri_pairs);
    std::vector<double> probs(tri_pairs);
    auto per_value = [&] {
      for (long long k = 0; k < tri_pairs; ++k) {
        dec[k] = criterion->Decide(values[k]) ? 1 : 0;
        probs[k] = criterion->LinkProbability(values[k]);
        sink += probs[k];
      }
    };
    auto compiled_table = [&] {
      table.EvalBlock(values.data(), values.size(), dec.data(), probs.data());
      for (long long k = 0; k < tri_pairs; ++k) sink += probs[k];
    };
    const double vals = static_cast<double>(tri_pairs);
    const std::vector<Quartiles> decision = SampleAlternating(
        {[&] { return Rate(vals, budget_s / 2, per_value); },
         [&] { return Rate(vals, budget_s / 2, compiled_table); }},
        samples);
    r.decision_interpreted = decision[0];
    r.decision_compiled = decision[1];

    results.push_back(r);
    std::cout << "n=" << n << "  interpreted " << r.interpreted.median
              << " pairs/s, scalar " << r.compiled_scalar.median << " (x"
              << r.compiled_scalar.median / r.interpreted.median << ")\n";
  }

  // Criterion fitting: each repetition fits a fresh criterion with a fresh
  // generator, so every repetition does identical work.
  const std::vector<std::pair<std::string, core::CriterionFactory>> fitters = {
      {"threshold",
       [] { return std::unique_ptr<core::DecisionCriterion>(
                std::make_unique<core::ThresholdCriterion>()); }},
      {"regions-eq10",
       [] { return std::unique_ptr<core::DecisionCriterion>(
                core::RegionCriterion::EqualWidth(10)); }},
      {"regions-km8",
       [] { return std::unique_ptr<core::DecisionCriterion>(
                core::RegionCriterion::KMeans(8)); }},
  };
  std::vector<FitResult> fits;
  for (int n : fit_sizes) {
    const std::vector<ml::LabeledSimilarity> fit_training = FitTraining(n);
    std::vector<std::function<double()>> rates;
    for (const auto& fitter : fitters) {
      const core::CriterionFactory& factory = fitter.second;
      rates.push_back([&, factory] {
        const double fits_per_s = Rate(1.0, budget_s, [&] {
          std::unique_ptr<core::DecisionCriterion> c = factory();
          Rng fit_rng(0xF17);
          bench::CheckOk(c->Fit(fit_training, &fit_rng), "criterion fit");
          sink += c->train_accuracy();
        });
        return 1000.0 / fits_per_s;
      });
    }
    const std::vector<Quartiles> timed = SampleAlternating(rates, samples);
    for (size_t f = 0; f < fitters.size(); ++f) {
      fits.push_back({fitters[f].first, n, timed[f]});
      std::cout << "fit " << fitters[f].first << " n=" << n << "  "
                << timed[f].median << " ms\n";
    }
  }

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"hotpath\",\n  \"samples\": " << samples
      << ",\n  \"functions\": " << batchable.size() << ",\n  \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    out << (i ? "," : "") << "\n    {\"block_size\": " << r.block_size
        << ", \"pairs_per_rep\": " << r.pairs
        << ",\n     \"interpreted_pairs_per_sec\": " << r.interpreted
        << ",\n     \"compiled_scalar_pairs_per_sec\": " << r.compiled_scalar
        << ",\n     \"scalar_speedup\": "
        << r.compiled_scalar.median / r.interpreted.median
        << ",\n     \"decision_interpreted_vals_per_sec\": "
        << r.decision_interpreted
        << ",\n     \"decision_compiled_vals_per_sec\": "
        << r.decision_compiled << "}";
  }
  out << "\n  ],\n  \"fit\": [";
  for (size_t i = 0; i < fits.size(); ++i) {
    out << (i ? "," : "") << "\n    {\"criterion\": \"" << fits[i].criterion
        << "\", \"n\": " << fits[i].n << ", \"fit_ms\": " << fits[i].fit_ms
        << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "checksum " << sink << "\nwrote " << out_path << "\n";
  return 0;
}
