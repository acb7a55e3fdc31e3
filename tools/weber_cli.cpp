// weber: command-line driver for the WEBER entity resolution library.
//
//   weber generate  --preset=www05 --out=/tmp/corpus        # build a corpus
//   weber stats     --dataset=/tmp/corpus/dataset.txt       # describe it
//   weber resolve   --dataset=... --gazetteer=... --out=... # run Algorithm 1
//   weber evaluate  --dataset=... --resolution=...          # score a run
//
// `resolve` also prints metrics directly when the dataset carries ground
// truth, so the resolve/evaluate split is optional.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <system_error>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "core/weber.h"
#include "corpus/resolution_io.h"
#include "corpus/stats.h"
#include "match/race.h"

using namespace weber;

namespace {

/// Failures exit with a per-StatusCode code (2=InvalidArgument, 3=IOError,
/// 4=Corruption, ...; see ExitCodeForStatus) so scripts can branch on the
/// failure class.
int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return ExitCodeForStatus(status.code());
}

/// Shared dataset-loading flags (lenient mode + transient-error retries).
void AddLoadFlags(FlagParser* flags) {
  flags->AddBool("lenient", false,
                 "skip corrupt dataset blocks instead of failing the file");
  flags->AddInt("load_retries", 0,
                "retries for transient dataset I/O errors");
}

Result<corpus::Dataset> LoadDatasetWithFlags(const FlagParser& flags) {
  corpus::LoadOptions options;
  options.lenient = flags.GetBool("lenient");
  options.max_retries = flags.GetInt("load_retries");
  corpus::LoadReport report;
  auto dataset = corpus::LoadDatasetFromFile(flags.GetString("dataset"),
                                             options, &report);
  if (report.retries > 0) {
    std::cerr << "warning: dataset load needed " << report.retries
              << " retr" << (report.retries == 1 ? "y" : "ies") << "\n";
  }
  for (const corpus::BlockLoadError& e : report.block_errors) {
    std::cerr << "warning: skipped block '" << e.query << "' (line "
              << e.line_no << "): " << e.status << "\n";
  }
  return dataset;
}

/// Arms fault points from --faults / WEBER_FAULTS (chaos testing).
Status ArmFaultsFromFlags(const FlagParser& flags) {
  faults::FaultInjector& injector = faults::FaultInjector::Instance();
  if (flags.WasSet("fault_seed")) {
    injector.Seed(static_cast<uint64_t>(flags.GetInt("fault_seed")));
  }
  std::string spec = flags.GetString("faults");
  if (spec.empty()) {
    if (const char* env = std::getenv("WEBER_FAULTS")) spec = env;
  }
  if (spec.empty()) return Status::OK();
  WEBER_RETURN_NOT_OK(injector.ArmFromSpec(spec));
  std::cerr << "fault injection armed: " << spec << "\n";
  return Status::OK();
}

void AddFaultFlags(FlagParser* flags) {
  flags->AddString("faults", "",
                   "fault spec point=kind[:prob[:param[:max]]];... "
                   "(or WEBER_FAULTS env)");
  flags->AddInt("fault_seed", 0, "seed for fault trigger streams");
}

Result<corpus::GeneratorConfig> PresetByName(const std::string& preset) {
  if (preset == "www05") return corpus::Www05Config();
  if (preset == "weps") return corpus::WepsConfig();
  if (preset == "tiny") return corpus::TinyConfig();
  return Status::InvalidArgument("unknown preset '", preset,
                                 "' (use www05 | weps | tiny)");
}

int CmdGenerate(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("preset", "www05", "corpus preset: www05 | weps | tiny");
  flags.AddInt("seed", 0, "generator seed (preset default when unset)");
  flags.AddString("out", ".", "output directory");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);

  auto config = PresetByName(flags.GetString("preset"));
  if (!config.ok()) return Fail(config.status());
  if (flags.WasSet("seed")) {
    config->seed = static_cast<uint64_t>(flags.GetInt("seed"));
  }

  auto data = corpus::SyntheticWebGenerator(*config).Generate();
  if (!data.ok()) return Fail(data.status());

  const std::string dir = flags.GetString("out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Fail(Status::IOError("cannot create directory ", dir, ": ",
                                ec.message()));
  }
  const std::string dataset_path = dir + "/dataset.txt";
  const std::string gazetteer_path = dir + "/gazetteer.txt";
  if (auto st = corpus::SaveDatasetToFile(data->dataset, dataset_path);
      !st.ok()) {
    return Fail(st);
  }
  std::ofstream gz(gazetteer_path);
  if (!gz) return Fail(Status::IOError("cannot write ", gazetteer_path));
  if (auto st = corpus::SaveGazetteer(data->gazetteer, gz); !st.ok()) {
    return Fail(st);
  }
  std::cout << "wrote " << data->dataset.TotalDocuments() << " documents to "
            << dataset_path << "\nwrote " << data->gazetteer.size()
            << " gazetteer entries to " << gazetteer_path << "\n";
  return 0;
}

int CmdStats(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("dataset", "", "path to a WEBER dataset file");
  AddLoadFlags(&flags);
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  auto dataset = LoadDatasetWithFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  corpus::PrintDatasetStats(corpus::ComputeDatasetStats(*dataset), std::cout);
  return 0;
}

Result<core::ResolverOptions> OptionsFromFlags(const FlagParser& flags) {
  core::ResolverOptions options;
  const std::string functions = flags.GetString("functions");
  if (!functions.empty()) {
    options.function_names.clear();
    for (auto& name : Split(functions, ',')) {
      options.function_names.push_back(std::string(TrimWhitespace(name)));
    }
  }
  options.use_region_criteria = flags.GetBool("regions");
  const std::string combo = flags.GetString("combination");
  if (combo == "best") {
    options.combination = core::CombinationStrategy::kBestGraph;
  } else if (combo == "weighted") {
    options.combination = core::CombinationStrategy::kWeightedAverage;
  } else if (combo == "majority") {
    options.combination = core::CombinationStrategy::kMajorityVote;
  } else {
    return Status::InvalidArgument("unknown --combination '", combo,
                                   "' (best | weighted | majority)");
  }
  const std::string clustering = flags.GetString("clustering");
  if (clustering == "closure") {
    options.clustering = core::ClusteringAlgorithm::kTransitiveClosure;
  } else if (clustering == "correlation") {
    options.clustering = core::ClusteringAlgorithm::kCorrelationClustering;
  } else if (clustering == "agglomerative") {
    options.clustering = core::ClusteringAlgorithm::kAgglomerative;
  } else {
    return Status::InvalidArgument(
        "unknown --clustering '", clustering,
        "' (closure | correlation | agglomerative)");
  }
  options.train_fraction = flags.GetDouble("train_fraction");
  options.min_pair_informativeness = flags.GetDouble("min_informativeness");
  options.deadline_ms = flags.GetDouble("deadline_ms");
  options.max_pair_budget = flags.GetInt("max_pairs");
  return options;
}

int CmdResolve(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("dataset", "", "path to a WEBER dataset file");
  flags.AddString("gazetteer", "", "path to a WEBER gazetteer file");
  flags.AddString("out", "", "write resolutions here (optional)");
  flags.AddString("functions", "", "comma list, e.g. F3,F7,F8 (default all)");
  flags.AddBool("regions", true, "use region-accuracy decision criteria");
  flags.AddString("combination", "best", "best | weighted | majority");
  flags.AddString("clustering", "closure",
                  "closure | correlation | agglomerative");
  flags.AddDouble("train_fraction", 0.10, "labeled training pair fraction");
  flags.AddDouble("min_informativeness", 0.0,
                  "entropy gate threshold (0 disables)");
  flags.AddDouble("deadline_ms", 0.0,
                  "per-block resolution deadline in ms (0 disables)");
  flags.AddInt("max_pairs", 0,
               "per-block pairwise-similarity budget (0 disables)");
  flags.AddInt("seed", 1, "random seed");
  AddLoadFlags(&flags);
  AddFaultFlags(&flags);
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  if (auto st = ArmFaultsFromFlags(flags); !st.ok()) return Fail(st);

  auto dataset = LoadDatasetWithFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  std::ifstream gz(flags.GetString("gazetteer"));
  if (!gz) {
    return Fail(Status::IOError("cannot read ", flags.GetString("gazetteer")));
  }
  auto gazetteer = corpus::LoadGazetteer(gz);
  if (!gazetteer.ok()) return Fail(gazetteer.status());

  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());
  auto resolver = core::EntityResolver::Create(&*gazetteer, *options);
  if (!resolver.ok()) return Fail(resolver.status());

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  std::vector<corpus::BlockResolutionRecord> records;
  std::vector<eval::MetricReport> reports;
  core::RunHealth health;
  bool have_truth = true;
  for (const corpus::Block& block : dataset->blocks) {
    auto resolution = resolver->ResolveBlock(block, &rng);
    if (!resolution.ok()) return Fail(resolution.status());
    health.Merge(resolution->health);
    corpus::BlockResolutionRecord record;
    record.query = block.query;
    for (const corpus::Document& d : block.documents) {
      record.document_ids.push_back(d.id);
    }
    record.clustering = resolution->clustering;
    std::cout << block.query << ": " << resolution->clustering.num_clusters()
              << " clusters (chose " << resolution->chosen_source << ")";
    if (resolution->health.degraded_blocks > 0) std::cout << " [degraded]";
    for (int label : block.entity_labels) {
      if (label < 0) have_truth = false;
    }
    if (have_truth) {
      auto report = eval::Evaluate(block.GroundTruth(), resolution->clustering);
      if (!report.ok()) return Fail(report.status());
      std::cout << "  Fp=" << FormatDouble(report->fp_measure, 4);
      reports.push_back(*report);
    }
    std::cout << "\n";
    records.push_back(std::move(record));
  }
  if (have_truth && !reports.empty()) {
    auto mean = eval::MeanReport(reports);
    if (mean.ok()) {
      std::cout << "MEAN  Fp=" << FormatDouble(mean->fp_measure, 4)
                << "  F=" << FormatDouble(mean->f_measure, 4)
                << "  Rand=" << FormatDouble(mean->rand_index, 4) << "\n";
    }
  }
  if (health.AnyDegradation()) {
    std::cerr << "health: " << health.TotalViolations()
              << " value violations, " << health.quarantined_functions
              << " quarantined functions, " << health.skipped_criteria
              << " skipped criteria, " << health.degraded_blocks
              << " degraded blocks\n";
  }
  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    if (auto st = corpus::SaveResolutionsToFile(records, out); !st.ok()) {
      return Fail(st);
    }
    std::cout << "wrote resolutions to " << out << "\n";
  }
  return 0;
}

int CmdEvaluate(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("dataset", "", "path to the labeled dataset");
  flags.AddString("resolution", "", "path to a resolution file");
  AddLoadFlags(&flags);
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);

  auto dataset = LoadDatasetWithFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto resolutions =
      corpus::LoadResolutionsFromFile(flags.GetString("resolution"));
  if (!resolutions.ok()) return Fail(resolutions.status());

  TablePrinter table;
  table.SetHeader({"name", "Fp", "F", "Rand", "B-cubed F"});
  std::vector<eval::MetricReport> reports;
  for (const corpus::Block& block : dataset->blocks) {
    const corpus::BlockResolutionRecord* record = nullptr;
    for (const auto& r : *resolutions) {
      if (r.query == block.query) record = &r;
    }
    if (record == nullptr) {
      return Fail(Status::NotFound("no resolution for block '", block.query,
                                   "'"));
    }
    auto aligned = corpus::AlignResolution(block, *record);
    if (!aligned.ok()) return Fail(aligned.status());
    auto report = eval::Evaluate(block.GroundTruth(), *aligned);
    if (!report.ok()) return Fail(report.status());
    table.AddRow({block.query, FormatDouble(report->fp_measure, 4),
                  FormatDouble(report->f_measure, 4),
                  FormatDouble(report->rand_index, 4),
                  FormatDouble(report->bcubed_f, 4)});
    reports.push_back(*report);
  }
  auto mean = eval::MeanReport(reports);
  if (!mean.ok()) return Fail(mean.status());
  table.AddSeparator();
  table.AddRow({"MEAN", FormatDouble(mean->fp_measure, 4),
                FormatDouble(mean->f_measure, 4),
                FormatDouble(mean->rand_index, 4),
                FormatDouble(mean->bcubed_f, 4)});
  table.Print(std::cout);
  return 0;
}

int CmdExperiment(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("dataset", "", "path to a labeled WEBER dataset file");
  flags.AddString("gazetteer", "", "path to a WEBER gazetteer file");
  flags.AddInt("runs", 5, "randomized runs to average");
  flags.AddInt("threads", 4, "worker threads across configurations");
  flags.AddDouble("train_fraction", 0.10, "labeled training pair fraction");
  flags.AddString("json", "", "also write results as JSON to this path");
  flags.AddInt("seed", 0x717, "experiment seed");
  AddLoadFlags(&flags);
  AddFaultFlags(&flags);
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  if (auto st = ArmFaultsFromFlags(flags); !st.ok()) return Fail(st);

  auto dataset = LoadDatasetWithFlags(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  std::ifstream gz(flags.GetString("gazetteer"));
  if (!gz) {
    return Fail(Status::IOError("cannot read ", flags.GetString("gazetteer")));
  }
  auto gazetteer = corpus::LoadGazetteer(gz);
  if (!gazetteer.ok()) return Fail(gazetteer.status());

  core::ExperimentRunner runner(&*dataset, &*gazetteer, flags.GetInt("runs"),
                                static_cast<uint64_t>(flags.GetInt("seed")));
  if (auto st = runner.Prepare({}, flags.GetDouble("train_fraction"));
      !st.ok()) {
    return Fail(st);
  }

  // The paper's Table II columns.
  std::vector<core::ExperimentConfig> configs;
  auto add = [&](const std::string& label,
                 const std::vector<std::string>& fns, bool regions,
                 core::CombinationStrategy combo) {
    core::ExperimentConfig config;
    config.label = label;
    config.options.function_names = fns;
    config.options.use_region_criteria = regions;
    config.options.combination = combo;
    configs.push_back(std::move(config));
  };
  using CS = core::CombinationStrategy;
  add("I4", core::kSubsetI4, false, CS::kBestGraph);
  add("I7", core::kSubsetI7, false, CS::kBestGraph);
  add("I10", core::kSubsetI10, false, CS::kBestGraph);
  add("C4", core::kSubsetI4, true, CS::kBestGraph);
  add("C7", core::kSubsetI7, true, CS::kBestGraph);
  add("C10", core::kSubsetI10, true, CS::kBestGraph);
  add("W", core::kSubsetI10, true, CS::kWeightedAverage);

  auto results = runner.RunAllParallel(configs, flags.GetInt("threads"));
  if (!results.ok()) return Fail(results.status());

  TablePrinter table;
  table.SetHeader({"config", "Fp", "F", "Rand", "B-cubed F"});
  for (const auto& r : *results) {
    table.AddRow({r.label, FormatDouble(r.overall.fp_measure, 4),
                  FormatDouble(r.overall.f_measure, 4),
                  FormatDouble(r.overall.rand_index, 4),
                  FormatDouble(r.overall.bcubed_f, 4)});
  }
  table.Print(std::cout);
  for (const auto& r : *results) {
    if (r.health.AnyDegradation()) {
      std::cerr << "health[" << r.label << "]: "
                << r.health.TotalViolations() << " violations, "
                << r.health.quarantined_functions << " quarantined, "
                << r.health.skipped_criteria << " skipped criteria, "
                << r.health.degraded_blocks << " degraded blocks\n";
    }
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) return Fail(Status::IOError("cannot write ", json_path));
    if (auto st = core::WriteExperimentJson(*dataset, flags.GetInt("runs"),
                                            *results, out);
        !st.ok()) {
      return Fail(st);
    }
    std::cout << "wrote JSON results to " << json_path << "\n";
  }
  return 0;
}

/// Races the clean-clean matchers (threshold / greedy / greedy+sbm /
/// optimal) over a generated two-collection corpus and prints a
/// per-matcher P/R/F1 table. The corpus, its ground-truth mapping, and the
/// fitted decision threshold are all derived from --preset and --seed, so
/// a given flag set reproduces the same table on every run.
int CmdMatchRace(int argc, const char* const* argv) {
  FlagParser flags;
  flags.AddString("preset", "www05", "corpus preset: www05 | weps | tiny");
  flags.AddInt("seed", 0, "generator seed (preset default when unset)");
  flags.AddDouble("overlap", 0.6,
                  "fraction of each block's entities shared by both "
                  "collections (0,1]");
  flags.AddInt("negatives", 3,
               "sampled negative pairs per truth pair when fitting the "
               "decision threshold");
  flags.AddInt("optimal_cutoff", 512,
               "largest matrix side the optimal matcher solves exactly "
               "before falling back to greedy");
  flags.AddString("json", "", "also write results as JSON to this path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);

  auto config = PresetByName(flags.GetString("preset"));
  if (!config.ok()) return Fail(config.status());
  if (flags.WasSet("seed")) {
    config->seed = static_cast<uint64_t>(flags.GetInt("seed"));
  }

  match::RaceConfig race;
  race.corpus = *config;
  race.overlap_fraction = flags.GetDouble("overlap");
  race.negatives_per_positive = flags.GetInt("negatives");
  race.optimal_size_cutoff = flags.GetInt("optimal_cutoff");

  auto result = match::RaceMatchers(race);
  if (!result.ok()) return Fail(result.status());

  std::cout << "clean-clean race: " << result->blocks << " blocks, "
            << result->left_documents << " left + " << result->right_documents
            << " right documents, " << result->truth_pairs
            << " truth pairs, threshold "
            << FormatDouble(result->threshold, 4) << " (train acc "
            << FormatDouble(result->train_accuracy, 4) << ")\n";
  TablePrinter table;
  table.SetHeader({"matcher", "precision", "recall", "F1", "match ms"});
  for (const match::RaceEntry& entry : result->entries) {
    table.AddRow({entry.matcher, FormatDouble(entry.report.precision, 4),
                  FormatDouble(entry.report.recall, 4),
                  FormatDouble(entry.report.f1, 4),
                  FormatDouble(entry.match_ms, 2)});
  }
  table.Print(std::cout);

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) return Fail(Status::IOError("cannot write ", json_path));
    match::WriteRaceJson(*result, out);
    std::cout << "wrote JSON results to " << json_path << "\n";
  }
  return 0;
}

void PrintUsage() {
  std::cout <<
      "weber — entity resolution for Web document collections\n\n"
      "subcommands:\n"
      "  generate    build a synthetic labeled corpus (www05 | weps | tiny)\n"
      "  stats       describe a dataset file\n"
      "  resolve     run the resolution pipeline over a dataset\n"
      "  evaluate    score a saved resolution against ground truth\n"
      "  experiment  run the paper's Table-II comparison (+ optional JSON)\n"
      "  matchrace   race clean-clean matchers on a generated two-collection "
      "corpus\n\n"
      "run `weber <subcommand> --help` equivalent by passing no flags.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  std::string command = argv[1];
  // Shift argv so subcommand flags parse from index 1.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (command == "generate") return CmdGenerate(sub_argc, sub_argv);
  if (command == "stats") return CmdStats(sub_argc, sub_argv);
  if (command == "resolve") return CmdResolve(sub_argc, sub_argv);
  if (command == "evaluate") return CmdEvaluate(sub_argc, sub_argv);
  if (command == "experiment") return CmdExperiment(sub_argc, sub_argv);
  if (command == "matchrace") return CmdMatchRace(sub_argc, sub_argv);
  PrintUsage();
  return 2;
}
