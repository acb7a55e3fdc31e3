// Extended-function study: does the combination framework keep improving
// when the function pool grows beyond the paper's Table I? Compares the
// paper's C10 against C16 (Table I + six composed functions, including the
// structured name-compatibility measures F11/F12) on both corpora, and
// reports each new function's individual quality.

#include <iostream>

#include "bench_util.h"
#include "core/composed_functions.h"

using namespace weber;

namespace {

void RunDataset(const char* title, const corpus::GeneratorConfig& cfg,
                uint64_t seed) {
  corpus::SyntheticData data = bench::GenerateOrDie(cfg);
  core::ExperimentRunner runner = bench::MakeRunner(data, seed, /*runs=*/3);

  std::vector<core::ExperimentConfig> configs;
  for (const char* name : {"F11", "F12", "F13", "F14", "F15", "F16"}) {
    configs.push_back(bench::SingleFunctionConfig(name));
  }
  configs.push_back(bench::RegionBestConfig("C10", core::kSubsetI10));
  configs.push_back(bench::RegionBestConfig("C16", core::kSubsetExtended16));
  core::ExperimentConfig w16 = bench::WeightedAverageConfig("W16");
  w16.options.function_names = core::kSubsetExtended16;
  configs.push_back(w16);

  auto results = bench::CheckResult(runner.RunAllParallel(configs, 8), "extended study");

  std::cout << title << "\n";
  TablePrinter table;
  table.SetHeader({"config", "Fp", "F", "Rand"});
  for (const auto& r : results) {
    table.AddRow({r.label, FormatDouble(r.overall.fp_measure, 4),
                  FormatDouble(r.overall.f_measure, 4),
                  FormatDouble(r.overall.rand_index, 4)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "== Extended function set (F11..F16 composed from the Table-I "
               "design space) ==\n\n"
               "F11 closest-name x name-compatibility, F12 "
               "most-frequent-name x name-compatibility,\nF13 concepts x "
               "jaccard, F14 organizations x dice, F15 tfidf x term-overlap "
               "jaccard,\nF16 url x jaro-winkler\n\n";
  RunDataset("WWW'05-like corpus:", corpus::Www05Config(), 0xE16A);
  RunDataset("WePS-2-like corpus:", corpus::WepsConfig(), 0xE16B);
  std::cout << "Reading: with reliable (cross-validated) graph ranking, "
               "adding candidate functions never hurts best-graph selection "
               "much and can help when a composed function dominates a "
               "name (the structured F11/F12 are immune to the "
               "contradictory-first-name failure of F3/F7).\n";
  return 0;
}
