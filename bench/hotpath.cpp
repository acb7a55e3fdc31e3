// Hot-path benchmark: pair-scoring throughput of the per-pair walk vs the
// compiled batch kernels, per block size.
//
// For each block size the seven batchable vector functions (F1, F4, F5,
// F6, F8, F9, F10) score the full upper triangle two ways:
//
//   interpreted      — virtual SimilarityFunction::Compute per pair
//   compiled-scalar  — BlockScorer strips through the scalar kernels
//
// plus the fitted decision criteria evaluated per value (virtual Decide /
// LinkProbability) vs CompiledDecision::EvalBlock. Emits BENCH_hotpath.json
// with pairs/sec per mode and the speedup ratio. Both modes produce
// bit-identical scores (one pass of each is checked before timing), so the
// ratio is pure speed.
//
// Usage: hotpath [--quick] [output.json]

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/compiled_path.h"
#include "core/decision.h"
#include "extract/feature_extractor.h"
#include "ml/splitter.h"

using namespace weber;

namespace {

struct ModeResult {
  double pairs_per_sec = 0.0;
  double checksum = 0.0;
};

struct SizeResult {
  int block_size = 0;
  long long pairs = 0;
  ModeResult interpreted;
  ModeResult compiled_scalar;
  double decision_interpreted_vals_per_sec = 0.0;
  double decision_compiled_vals_per_sec = 0.0;
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

/// Runs `body` (one full upper-triangle pass) until ~`budget_s` of wall
/// clock is spent, returning pairs/sec over all repetitions.
template <typename Body>
ModeResult Measure(long long pairs_per_rep, double budget_s, Body&& body) {
  // One warm-up pass (freezes vectors, faults pages in).
  double checksum = body();
  WallTimer timer;
  long long reps = 0;
  do {
    checksum += body();
    ++reps;
  } while (timer.ElapsedSeconds() < budget_s);
  const double elapsed = timer.ElapsedSeconds();
  return {static_cast<double>(pairs_per_rep) * reps / elapsed, checksum};
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
  const double budget_s = quick ? 0.05 : 0.5;
  const std::vector<int> sizes =
      quick ? std::vector<int>{64} : std::vector<int>{32, 64, 128, 256};

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
    r.interpreted = Measure(pairs_per_rep, budget_s, interpreted_pass);
    r.compiled_scalar = Measure(pairs_per_rep, budget_s, compiled_pass);

    // Decision tables: one value per pair, region criterion.
    std::vector<double> values(tri_pairs);
    for (long long k = 0; k < tri_pairs; ++k) {
      values[k] = (k % 1000) / 999.0;
    }
    std::vector<char> dec(tri_pairs);
    std::vector<double> probs(tri_pairs);
    const ModeResult di = Measure(tri_pairs, budget_s / 2, [&] {
      double sum = 0.0;
      for (long long k = 0; k < tri_pairs; ++k) {
        dec[k] = criterion->Decide(values[k]) ? 1 : 0;
        probs[k] = criterion->LinkProbability(values[k]);
        sum += probs[k];
      }
      return sum;
    });
    const ModeResult dc = Measure(tri_pairs, budget_s / 2, [&] {
      table.EvalBlock(values.data(), values.size(), dec.data(), probs.data());
      double sum = 0.0;
      for (long long k = 0; k < tri_pairs; ++k) sum += probs[k];
      return sum;
    });
    r.decision_interpreted_vals_per_sec = di.pairs_per_sec;
    r.decision_compiled_vals_per_sec = dc.pairs_per_sec;

    results.push_back(r);
    std::cout << "n=" << n << "  interpreted " << r.interpreted.pairs_per_sec
              << " pairs/s, scalar " << r.compiled_scalar.pairs_per_sec
              << " (x"
              << r.compiled_scalar.pairs_per_sec / r.interpreted.pairs_per_sec
              << ")\n";
  }

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"hotpath\",\n  \"functions\": "
      << batchable.size() << ",\n  \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    const double s_speed =
        r.compiled_scalar.pairs_per_sec / r.interpreted.pairs_per_sec;
    out << (i ? "," : "") << "\n    {\"block_size\": " << r.block_size
        << ", \"pairs_per_rep\": " << r.pairs
        << ", \"interpreted_pairs_per_sec\": " << r.interpreted.pairs_per_sec
        << ", \"compiled_scalar_pairs_per_sec\": "
        << r.compiled_scalar.pairs_per_sec
        << ", \"scalar_speedup\": " << s_speed
        << ", \"decision_interpreted_vals_per_sec\": "
        << r.decision_interpreted_vals_per_sec
        << ", \"decision_compiled_vals_per_sec\": "
        << r.decision_compiled_vals_per_sec << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
