// Fuzz-style robustness tests: random and adversarial bytes through every
// parsing/processing entry point. Nothing may crash; failures must arrive
// as Status, and outputs must respect their documented invariants.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/experiment.h"
#include "corpus/dataset_io.h"
#include "corpus/generator.h"
#include "corpus/presets.h"
#include "corpus/resolution_io.h"
#include "extract/feature_extractor.h"
#include "extract/url.h"
#include "text/analyzer.h"
#include "text/person_name.h"
#include "text/phonetic.h"
#include "text/string_similarity.h"
#include "text/tokenizer.h"

namespace weber {
namespace {

std::string RandomBytes(Rng* rng, int max_len) {
  int len = rng->UniformInt(0, max_len);
  std::string s;
  s.reserve(len);
  for (int i = 0; i < len; ++i) {
    s += static_cast<char>(rng->UniformInt(1, 255));  // no NULs in text APIs
  }
  return s;
}

std::string RandomAsciiish(Rng* rng, int max_len) {
  int len = rng->UniformInt(0, max_len);
  std::string s;
  constexpr std::string_view alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 .,;:-'\"\n\t#@/\\()[]{}";
  for (int i = 0; i < len; ++i) {
    s += alphabet[rng->UniformUint64(alphabet.size())];
  }
  return s;
}

class RobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RobustnessTest, TextPipelineNeverMisbehaves) {
  Rng rng(GetParam());
  text::Tokenizer tokenizer;
  text::Analyzer analyzer;
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes =
        trial % 2 == 0 ? RandomBytes(&rng, 400) : RandomAsciiish(&rng, 400);
    for (const std::string& token : tokenizer.Tokenize(bytes)) {
      EXPECT_FALSE(token.empty());
      EXPECT_LE(token.size(), 64u);
    }
    for (const std::string& term : analyzer.Analyze(bytes)) {
      EXPECT_GE(term.size(), 2u);
    }
  }
}

TEST_P(RobustnessTest, StringMeasuresStayBoundedOnGarbage) {
  Rng rng(GetParam() ^ 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::string a = RandomBytes(&rng, 60);
    std::string b = RandomBytes(&rng, 60);
    for (double v :
         {text::LevenshteinSimilarity(a, b), text::JaroSimilarity(a, b),
          text::JaroWinklerSimilarity(a, b), text::NgramSimilarity(a, b),
          text::LongestCommonSubstringRatio(a, b),
          text::NameCompatibilitySimilarity(a, b),
          text::PhoneticNameSimilarity(a, b)}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    std::string sx = text::Soundex(a);
    EXPECT_TRUE(sx.empty() || sx.size() == 4u);
  }
}

TEST_P(RobustnessTest, UrlParserNeverCrashes) {
  Rng rng(GetParam() ^ 2);
  for (int trial = 0; trial < 300; ++trial) {
    std::string url = RandomAsciiish(&rng, 80);
    auto parsed = extract::ParseUrl(url);
    if (parsed.ok()) {
      EXPECT_FALSE(parsed->host.empty());
      EXPECT_FALSE(parsed->path.empty());
    }
    double sim = extract::UrlSimilarity(url, RandomAsciiish(&rng, 80));
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
  }
}

TEST_P(RobustnessTest, DatasetLoaderRejectsGarbageGracefully) {
  Rng rng(GetParam() ^ 3);
  for (int trial = 0; trial < 100; ++trial) {
    std::stringstream ss(RandomAsciiish(&rng, 500));
    auto loaded = corpus::LoadDataset(ss);
    // Either a parse error or an (unlikely) valid tiny dataset; never UB.
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_P(RobustnessTest, DatasetLoaderSurvivesMutatedValidInput) {
  Rng rng(GetParam() ^ 4);
  // Start from a valid serialization and corrupt single bytes.
  corpus::Dataset dataset;
  dataset.name = "mutate";
  corpus::Block block;
  block.query = "q";
  block.documents.push_back({"q/0", "http://x.com", "some text\nmore text"});
  block.documents.push_back({"q/1", "http://y.com", "other"});
  block.entity_labels = {0, 1};
  dataset.blocks.push_back(block);
  std::stringstream base;
  ASSERT_TRUE(corpus::SaveDataset(dataset, base).ok());
  const std::string original = base.str();

  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = original;
    int pos = rng.UniformInt(0, static_cast<int>(mutated.size()) - 1);
    mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
    std::stringstream ss(mutated);
    auto loaded = corpus::LoadDataset(ss);  // must not crash
    if (loaded.ok()) {
      EXPECT_LE(loaded->num_blocks(), 2);
    }
  }
}

TEST_P(RobustnessTest, ResolutionLoaderSurvivesGarbage) {
  Rng rng(GetParam() ^ 5);
  for (int trial = 0; trial < 100; ++trial) {
    std::stringstream ss(RandomAsciiish(&rng, 300));
    auto loaded = corpus::LoadResolutions(ss);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_P(RobustnessTest, FeatureExtractionOnGarbagePages) {
  Rng rng(GetParam() ^ 6);
  extract::Gazetteer gazetteer;
  gazetteer.Add("alice cohen", extract::EntityType::kPerson);
  gazetteer.Add("acme corp", extract::EntityType::kOrganization);
  gazetteer.Add("entity resolution", extract::EntityType::kConcept, 1.5);
  gazetteer.Build();
  extract::FeatureExtractor extractor(&gazetteer, {});
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<extract::PageInput> pages;
    int n = rng.UniformInt(1, 5);
    for (int i = 0; i < n; ++i) {
      pages.push_back({RandomAsciiish(&rng, 40), RandomBytes(&rng, 300)});
    }
    auto bundles = extractor.ExtractBlock(pages, "cohen");
    ASSERT_TRUE(bundles.ok()) << bundles.status();
    for (const auto& fb : *bundles) {
      EXPECT_GE(fb.informativeness, 0.0);
      EXPECT_LE(fb.informativeness, 1.0);
    }
  }
}

TEST_P(RobustnessTest, PersonNameParserOnGarbage) {
  Rng rng(GetParam() ^ 7);
  for (int trial = 0; trial < 300; ++trial) {
    text::PersonName name = text::ParsePersonName(RandomBytes(&rng, 50));
    if (!name.first.empty()) {
      EXPECT_FALSE(name.last.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessTest,
                         ::testing::Values(0xF1, 0xF2, 0xF3));

// --- Truncation sweep: a valid serialized dataset cut at every line
// boundary must come back as ok or a Status, never crash. ---

TEST(TruncationSweepTest, EveryPrefixLoadsOrFailsCleanly) {
  corpus::Dataset dataset;
  dataset.name = "trunc";
  for (int b = 0; b < 3; ++b) {
    corpus::Block block;
    block.query = "q" + std::to_string(b);
    for (int d = 0; d < 3; ++d) {
      block.documents.push_back({block.query + "/" + std::to_string(d),
                                 "http://site" + std::to_string(d) + ".com",
                                 "line one\nline two\nline three"});
      block.entity_labels.push_back(d % 2);
    }
    dataset.blocks.push_back(block);
  }
  std::stringstream full;
  ASSERT_TRUE(corpus::SaveDataset(dataset, full).ok());
  const std::string text = full.str();

  std::vector<size_t> boundaries;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') boundaries.push_back(i + 1);
  }
  ASSERT_GT(boundaries.size(), 10u);

  for (size_t end : boundaries) {
    const std::string prefix = text.substr(0, end);
    {
      std::stringstream ss(prefix);
      auto loaded = corpus::LoadDataset(ss);  // strict: must not crash
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
      }
    }
    {
      // Lenient mode on the same prefix: also crash-free, and whatever
      // loads is a usable dataset.
      std::stringstream ss(prefix);
      corpus::LoadOptions options;
      options.lenient = true;
      corpus::LoadReport report;
      auto loaded = corpus::LoadDataset(ss, options, &report);
      if (loaded.ok()) {
        EXPECT_EQ(loaded->num_blocks(), report.blocks_loaded);
        for (const corpus::Block& block : loaded->blocks) {
          EXPECT_EQ(block.documents.size(), block.entity_labels.size());
        }
      }
    }
  }
}

// --- Chaos test: every fault point armed at once; the full pipeline must
// complete, report failures as Status only, and account for the damage in
// RunHealth. ---

TEST(ChaosTest, FullPipelineSurvivesAllFaultPointsArmed) {
  faults::ScopedFaultClearance clearance;
  faults::FaultInjector& fi = faults::FaultInjector::Instance();
  fi.Seed(0xC4A05);

  auto generated =
      corpus::SyntheticWebGenerator(corpus::TinyConfig(0x31)).Generate();
  ASSERT_TRUE(generated.ok()) << generated.status();
  corpus::SyntheticData data = std::move(generated).ValueOrDie();

  // dataset_io.read: transient I/O errors (fail twice, then succeed) are
  // absorbed by the retry loop.
  const std::string path = ::testing::TempDir() + "/weber_chaos_dataset.txt";
  ASSERT_TRUE(corpus::SaveDatasetToFile(data.dataset, path).ok());
  ASSERT_TRUE(fi.ArmFromSpec("dataset_io.read=ioerror:1:0:2").ok());
  corpus::LoadOptions load_options;
  load_options.max_retries = 3;
  load_options.retry_backoff_ms = 1;
  corpus::LoadReport report;
  auto loaded = corpus::LoadDatasetFromFile(path, load_options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(loaded->TotalDocuments(), data.dataset.TotalDocuments());

  // Now the resolution-time points, all at once.
  ASSERT_TRUE(fi.ArmFromSpec("similarity.compute=nan:0.2;"
                             "resolver.train=error:0.3;"
                             "clustering.run=error:0.5")
                  .ok());

  core::ExperimentRunner runner(&data.dataset, &data.gazetteer, /*runs=*/2,
                                /*seed=*/0xBEEF);
  ASSERT_TRUE(runner.Prepare().ok());
  core::ExperimentConfig config;
  config.label = "chaos";
  auto results = runner.RunAll({config});
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);

  const core::RunHealth& health = (*results)[0].health;
  EXPECT_TRUE(health.AnyDegradation());
  EXPECT_GT(health.value_violations, 0);
  // At 20% NaN most functions quarantine before any criterion is fitted, so
  // the damage shows up as quarantines and/or skipped criteria.
  EXPECT_GT(health.quarantined_functions + health.skipped_criteria, 0);
  EXPECT_GT(health.clustering_fallbacks + health.degraded_blocks +
                health.quarantined_functions,
            0);

  // resolver.train faults alone (healthy similarities): criterion fits are
  // skipped, yet every block still resolves.
  fi.DisarmAll();
  ASSERT_TRUE(fi.ArmFromSpec("resolver.train=error:0.5").ok());
  core::ExperimentRunner train_runner(&data.dataset, &data.gazetteer, 1,
                                      0xBEEF);
  ASSERT_TRUE(train_runner.Prepare().ok());
  auto train_results = train_runner.RunAll({config});
  ASSERT_TRUE(train_results.ok()) << train_results.status();
  EXPECT_GT((*train_results)[0].health.skipped_criteria, 0);

  // The damage report survives into the experiment JSON.
  std::ostringstream os;
  ASSERT_TRUE(
      core::WriteExperimentJson(data.dataset, 2, *results, os).ok());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"health\":"), std::string::npos);
  EXPECT_NE(json.find("\"value_violations\":"), std::string::npos);
  EXPECT_EQ(json.find("\"value_violations\":0,"), std::string::npos);

  // Disarmed, the same pipeline is pristine again.
  fi.DisarmAll();
  core::ExperimentRunner clean_runner(&data.dataset, &data.gazetteer, 2,
                                      0xBEEF);
  ASSERT_TRUE(clean_runner.Prepare().ok());
  auto clean = clean_runner.RunAll({config});
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE((*clean)[0].health.AnyDegradation());
}

}  // namespace
}  // namespace weber
