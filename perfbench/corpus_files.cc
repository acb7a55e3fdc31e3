// Corpus generation, loading and the serving reference partitions.

#include <filesystem>
#include <fstream>

#include "core/incremental.h"
#include "corpus/dataset_io.h"
#include "corpus/generator.h"
#include "corpus/presets.h"
#include "extract/feature_extractor.h"
#include "ml/splitter.h"
#include "router/router.h"
#include "serve/resolution_service.h"
#include "workloads.h"

namespace perfbench {

using namespace weber;

Result<Corpus> LoadCorpus(const std::string& dataset_path,
                          const std::string& gazetteer_path) {
  Corpus corpus;
  WEBER_ASSIGN_OR_RETURN(corpus.dataset,
                         corpus::LoadDatasetFromFile(dataset_path));
  std::ifstream gz(gazetteer_path);
  if (!gz) return Status::IOError("cannot read ", gazetteer_path);
  WEBER_ASSIGN_OR_RETURN(extract::Gazetteer gazetteer,
                         corpus::LoadGazetteer(gz));
  corpus.gazetteer =
      std::make_unique<extract::Gazetteer>(std::move(gazetteer));
  return corpus;
}

Status GenerateCorpus(const std::string& preset, uint64_t seed,
                      const std::string& out_dir, int backends) {
  corpus::GeneratorConfig config;
  if (preset == "www05") {
    config = corpus::Www05Config(seed);
  } else if (preset == "large") {
    config = corpus::Www05Config(seed);
    for (corpus::NameSpec& name : config.names) {
      name.num_documents *= 4;
      name.num_entities *= 4;
    }
  } else if (preset == "tiny") {
    config = corpus::TinyConfig(seed);
  } else {
    return Status::InvalidArgument("unknown preset '", preset,
                                   "' (www05 | large | tiny)");
  }
  WEBER_ASSIGN_OR_RETURN(corpus::SyntheticData data,
                         corpus::SyntheticWebGenerator(config).Generate());
  std::filesystem::create_directories(out_dir);
  WEBER_RETURN_NOT_OK(
      corpus::SaveDatasetToFile(data.dataset, out_dir + "/dataset.txt"));
  std::ofstream gz(out_dir + "/gazetteer.txt");
  WEBER_RETURN_NOT_OK(corpus::SaveGazetteer(data.gazetteer, gz));
  gz.close();
  if (!gz) return Status::IOError("cannot write ", out_dir, "/gazetteer.txt");

  for (int i = 0; i < backends; ++i) {
    corpus::Dataset part;
    part.name = data.dataset.name;
    for (const corpus::Block& block : data.dataset.blocks) {
      const std::vector<size_t> order = router::Router::RouteOrder(
          block.query, static_cast<size_t>(backends));
      if (order.front() == static_cast<size_t>(i)) part.blocks.push_back(block);
    }
    if (part.blocks.empty()) {
      return Status::FailedPrecondition("backend ", i,
                                        " owns no block of the corpus");
    }
    WEBER_RETURN_NOT_OK(corpus::SaveDatasetToFile(
        part, out_dir + "/backend" + std::to_string(i) + ".txt"));
  }
  return Status::OK();
}

Result<std::vector<graph::Clustering>> ReferencePartitions(
    const corpus::Dataset& dataset, const extract::Gazetteer* gazetteer) {
  const serve::ServiceOptions defaults;
  extract::FeatureExtractor extractor(gazetteer);
  Rng calibration_rng(defaults.calibration_seed);
  std::vector<graph::Clustering> partitions;
  for (size_t b = 0; b < dataset.blocks.size(); ++b) {
    const corpus::Block& block = dataset.blocks[b];
    std::vector<extract::PageInput> pages;
    for (const corpus::Document& d : block.documents) {
      pages.push_back({d.url, d.text});
    }
    WEBER_ASSIGN_OR_RETURN(std::vector<extract::FeatureBundle> bundles,
                           extractor.ExtractBlock(pages, block.query));
    WEBER_ASSIGN_OR_RETURN(
        core::IncrementalResolver resolver,
        core::IncrementalResolver::Create(defaults.incremental));
    Rng rng = calibration_rng.Fork(b);
    const auto pairs = ml::SampleTrainingPairs(block.num_documents(),
                                               defaults.train_fraction, &rng);
    WEBER_RETURN_NOT_OK(
        resolver.CalibrateThreshold(bundles, block.entity_labels, pairs));
    for (const extract::FeatureBundle& bundle : bundles) {
      if (resolver.Add(bundle) < 0) {
        return Status::Internal("reference resolver rejected a document");
      }
    }
    WEBER_ASSIGN_OR_RETURN(graph::Clustering partition,
                           resolver.BatchResolve());
    partitions.push_back(std::move(partition));
  }
  return partitions;
}

}  // namespace perfbench
