#include "core/resolver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/compiled_path.h"
#include "core/decision.h"
#include "ml/splitter.h"
#include "text/vector_similarity.h"

namespace weber {
namespace core {

namespace {

/// Labeled training pair with its similarity value under one function.
struct LabeledPair {
  int a;
  int b;
  bool link;
};

/// Cross-validated *graph-level* quality of one decision criterion for one
/// similarity matrix: the paper's acc(G^i_{Dj}) estimated without the
/// winner's curse. For each fold, a fresh criterion is fitted on the fold
/// complement, the full decision graph is built and transitively closed
/// (closure uses no labels — it is transductive structure), and the
/// held-out pairs are scored. The score is the F1 of the link class, which
/// — unlike raw pair accuracy under heavy class imbalance — tracks the
/// clustering quality the graph will deliver.
Result<double> CvGraphScore(const CriterionFactory& factory,
                            const graph::SimilarityMatrix& sims,
                            const std::vector<LabeledPair>& training,
                            int folds, Rng* rng) {
  if (training.empty()) {
    return Status::InvalidArgument("CvGraphScore: empty training sample");
  }
  folds = std::max(2, folds);
  const int n = sims.size();

  std::vector<int> order(training.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng->Shuffle(&order);
  const bool tiny = static_cast<int>(training.size()) < 2 * folds;

  long long tp = 0, fp = 0, fn = 0, tn = 0;
  const int fold_count = tiny ? 1 : folds;
  for (int f = 0; f < fold_count; ++f) {
    std::vector<ml::LabeledSimilarity> fit_part;
    std::vector<const LabeledPair*> held_out;
    for (size_t i = 0; i < order.size(); ++i) {
      const LabeledPair& p = training[order[i]];
      const bool in_fold = !tiny && static_cast<int>(i) % folds == f;
      if (in_fold) {
        held_out.push_back(&p);
      } else {
        fit_part.push_back({sims.Get(p.a, p.b), p.link});
      }
    }
    if (tiny) {
      // Degenerate sample: score in-sample (still post-closure).
      for (const LabeledPair& p : training) held_out.push_back(&p);
    }
    if (fit_part.empty() || held_out.empty()) continue;

    std::unique_ptr<DecisionCriterion> criterion = factory();
    WEBER_RETURN_NOT_OK(criterion->Fit(fit_part, rng));
    graph::DecisionGraph decisions(n, 0, 1);
    EvalCriterion(*criterion, sims, decisions.data().data(), nullptr);
    graph::Clustering closed = graph::TransitiveClosure(decisions);
    for (const LabeledPair* p : held_out) {
      const bool predicted = closed.SameCluster(p->a, p->b);
      if (predicted && p->link) ++tp;
      else if (predicted && !p->link) ++fp;
      else if (!predicted && p->link) ++fn;
      else ++tn;
    }
  }
  if (tp + fp + fn == 0) return 1.0;  // no links anywhere: vacuously perfect
  return 2.0 * tp / static_cast<double>(2 * tp + fp + fn);
}

}  // namespace

std::string ClusteringAlgorithmToString(ClusteringAlgorithm a) {
  switch (a) {
    case ClusteringAlgorithm::kTransitiveClosure:
      return "transitive-closure";
    case ClusteringAlgorithm::kCorrelationClustering:
      return "correlation-clustering";
    case ClusteringAlgorithm::kAgglomerative:
      return "agglomerative";
  }
  return "unknown";
}

Result<EntityResolver> EntityResolver::Create(
    const extract::Gazetteer* gazetteer, ResolverOptions options) {
  WEBER_ASSIGN_OR_RETURN(auto functions,
                         MakeFunctions(options.function_names));
  return CreateWithFunctions(gazetteer, std::move(options),
                             std::move(functions));
}

Result<EntityResolver> EntityResolver::CreateWithFunctions(
    const extract::Gazetteer* gazetteer, ResolverOptions options,
    std::vector<std::unique_ptr<SimilarityFunction>> functions) {
  if (gazetteer == nullptr) {
    return Status::InvalidArgument("EntityResolver: null gazetteer");
  }
  if (options.train_fraction <= 0.0 || options.train_fraction > 1.0) {
    return Status::InvalidArgument("EntityResolver: train_fraction must be in"
                                   " (0, 1], got ", options.train_fraction);
  }
  if (functions.empty()) {
    return Status::InvalidArgument("EntityResolver: no similarity functions");
  }
  for (const auto& fn : functions) {
    if (fn == nullptr) {
      return Status::InvalidArgument("EntityResolver: null similarity function");
    }
  }
  if (options.deadline_ms < 0.0) {
    return Status::InvalidArgument("EntityResolver: deadline_ms must be >= 0");
  }
  if (options.max_pair_budget < 0) {
    return Status::InvalidArgument(
        "EntityResolver: max_pair_budget must be >= 0");
  }
  return EntityResolver(gazetteer, std::move(options), std::move(functions));
}

Result<BlockResolution> EntityResolver::ResolveBlock(
    const corpus::Block& block, Rng* rng) const {
  if (block.documents.empty()) {
    return Status::InvalidArgument("ResolveBlock: empty block");
  }
  if (block.entity_labels.size() != block.documents.size()) {
    return Status::InvalidArgument(
        "ResolveBlock: labels/documents size mismatch in block '",
        block.query, "'");
  }
  // Blocking already happened upstream (documents grouped per name); extract
  // features for this block.
  std::vector<extract::PageInput> pages;
  pages.reserve(block.documents.size());
  for (const corpus::Document& d : block.documents) {
    pages.push_back({d.url, d.text});
  }
  WEBER_ASSIGN_OR_RETURN(auto bundles,
                         extractor_.ExtractBlock(pages, block.query));

  // Training sample (Section V-A2): 10% of the block's pairs, or all pairs
  // among 10% of its documents, per options.
  std::vector<std::pair<int, int>> training_pairs;
  if (options_.train_sampling == ResolverOptions::TrainSampling::kPairs) {
    training_pairs = ml::SampleTrainingPairs(
        block.num_documents(), options_.train_fraction, rng,
        options_.min_train_size);
  } else {
    training_pairs = ml::PairsAmong(ml::SampleTrainingDocuments(
        block.num_documents(), options_.train_fraction, rng,
        options_.min_train_size));
  }

  return ResolveExtracted(bundles, block.entity_labels, training_pairs, rng);
}

Result<BlockResolution> EntityResolver::ResolveExtracted(
    const std::vector<extract::FeatureBundle>& bundles,
    const std::vector<int>& entity_labels,
    const std::vector<std::pair<int, int>>& training_pairs, Rng* rng) const {
  const int n = static_cast<int>(bundles.size());
  if (n == 0) return Status::InvalidArgument("ResolveExtracted: no documents");
  if (static_cast<int>(entity_labels.size()) != n) {
    return Status::InvalidArgument("ResolveExtracted: label size mismatch");
  }
  for (const auto& [a, b] : training_pairs) {
    if (a < 0 || b < 0 || a >= n || b >= n || a == b) {
      return Status::InvalidArgument("ResolveExtracted: bad training pair (",
                                     a, ", ", b, ")");
    }
  }

  BlockResolution resolution;
  resolution.training_pairs = training_pairs;

  // Trivial blocks: nothing to pair up.
  if (n == 1) {
    resolution.clustering = graph::Clustering::Singletons(1);
    return resolution;
  }

  const std::vector<std::pair<int, int>>& train_pairs = training_pairs;
  RunHealth& health = resolution.health;

  WallTimer timer;
  auto deadline_exceeded = [&]() {
    return options_.deadline_ms > 0.0 &&
           timer.ElapsedMillis() > options_.deadline_ms;
  };

  // Per-call guards: quarantine state is per block, so one poisoned block
  // cannot blacklist a function for the rest of the run, and concurrent
  // ResolveExtracted calls on the same resolver stay thread-compatible.
  std::vector<GuardedSimilarityFunction> guards;
  if (options_.guard_functions) {
    guards.reserve(functions_.size());
    for (const auto& fn : functions_) {
      guards.emplace_back(fn.get(), options_.guard);
    }
  }

  // --- Step 1: complete weighted graph per function, under the pair budget
  // and deadline. ---
  WallTimer stage_timer;
  obs::ScopedSpan similarity_span(options_.trace, "pipeline.similarity");
  const long long pairs_per_matrix =
      static_cast<long long>(n) * (n - 1) / 2;
  long long pairs_spent = 0;
  std::vector<graph::SimilarityMatrix> matrices(functions_.size());
  std::vector<char> computed(functions_.size(), 0);
  std::vector<char> quarantined(functions_.size(), 0);
  // Score whole matrices through the frozen CSR/SoA kernels when the
  // function declares a batchable form. Bit-identical to the per-pair walk
  // (see compiled_path.h), so the guard wrapper — which is
  // value-transparent for these contract-abiding standard functions — can
  // be skipped. Armed fault injection forces the per-pair guarded walk so
  // the `similarity.compute` fault point keeps seeing every pair.
  BlockScorer block_scorer(&bundles);
  const bool use_batch = !faults::FaultInjector::Instance().AnyArmed();
  const long long pearson_corrections_before =
      text::PearsonDimensionCorrections();
  for (size_t f = 0; f < functions_.size(); ++f) {
    if (options_.max_pair_budget > 0 &&
        pairs_spent + pairs_per_matrix > options_.max_pair_budget) {
      if (health.budget_hits == 0) health.budget_hits = 1;
      health.skipped_pairs += pairs_per_matrix;
      continue;
    }
    if (deadline_exceeded()) {
      if (health.deadline_hits == 0) health.deadline_hits = 1;
      health.skipped_pairs += pairs_per_matrix;
      continue;
    }
    const BatchSpec spec = functions_[f]->batch_spec();
    if (use_batch && spec.batchable() && block_scorer.CanBatch(spec)) {
      matrices[f] = block_scorer.ScoreMatrix(spec);
    } else {
      const SimilarityFunction& fn =
          options_.guard_functions ? static_cast<const SimilarityFunction&>(
                                         guards[f])
                                   : *functions_[f];
      matrices[f] = ComputeSimilarityMatrix(fn, bundles);
    }
    computed[f] = 1;
    pairs_spent += pairs_per_matrix;
    if (options_.guard_functions && guards[f].quarantined()) {
      quarantined[f] = 1;
      ++health.quarantined_functions;
    }
  }
  health.dimension_corrections +=
      text::PearsonDimensionCorrections() - pearson_corrections_before;
  if (options_.guard_functions) {
    for (const GuardedSimilarityFunction& g : guards) {
      health.value_violations +=
          g.violations().non_finite + g.violations().out_of_range;
      health.asymmetry_violations += g.violations().asymmetry;
    }
  }

  similarity_span.End();
  resolution.stage_ms.similarity_ms = stage_timer.ElapsedMillis();
  stage_timer.Restart();
  obs::ScopedSpan decision_span(options_.trace, "pipeline.decision");

  // Layout helper for pair offsets (all matrices share the same indexing).
  const graph::SimilarityMatrix* layout = nullptr;
  for (size_t f = 0; f < matrices.size(); ++f) {
    if (computed[f]) {
      layout = &matrices[f];
      break;
    }
  }

  // --- Steps 2-4: fit criteria per function, build decision graphs with
  // accuracy estimates. ---
  std::vector<DecisionSource> sources;
  std::vector<TrainingPair> training_offsets;
  training_offsets.reserve(train_pairs.size());
  if (!train_pairs.empty() && layout != nullptr) {
    for (const auto& [a, b] : train_pairs) {
      training_offsets.push_back(
          {a, b, layout->Index(a, b), entity_labels[a] == entity_labels[b]});
    }
  }

  // Informativeness gate (optional extension): pairs with too little page
  // evidence cannot carry positive decisions.
  std::vector<char> pair_gated;
  if (options_.min_pair_informativeness > 0.0 && layout != nullptr) {
    pair_gated.assign(layout->num_pairs(), 0);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double evidence = std::sqrt(bundles[i].informativeness *
                                    bundles[j].informativeness);
        if (evidence < options_.min_pair_informativeness) {
          pair_gated[layout->Index(i, j)] = 1;
        }
      }
    }
  }

  // First fitting failure, preserved so a clean-but-unfittable run (e.g. an
  // empty training sample) still surfaces the underlying error instead of
  // silently degrading.
  Status first_fit_error = Status::OK();
  long long fault_skips = 0;

  for (size_t f = 0; f < functions_.size(); ++f) {
    if (!computed[f]) continue;
    // A quarantined function's values are untrustworthy end to end: drop
    // its decision graphs and continue with the remaining functions. The
    // RNG stream then matches a run that omitted the function, so the
    // resolution is identical to never having included it.
    if (quarantined[f]) continue;
    if (deadline_exceeded()) {
      if (health.deadline_hits == 0) health.deadline_hits = 1;
      break;
    }
    const graph::SimilarityMatrix& sims = matrices[f];

    std::vector<ml::LabeledSimilarity> training;
    training.reserve(train_pairs.size());
    for (const auto& [a, b] : train_pairs) {
      training.push_back(
          {sims.Get(a, b), entity_labels[a] == entity_labels[b]});
    }

    std::vector<CriterionFactory> factories =
        options_.use_region_criteria
            ? MakeStandardCriterionFactories(options_.equal_width_bins,
                                             options_.kmeans_k)
            : MakeThresholdOnlyCriterionFactories();
    if (options_.include_isotonic_criterion) {
      factories.push_back([] {
        return std::unique_ptr<DecisionCriterion>(
            std::make_unique<IsotonicCriterion>());
      });
    }

    std::vector<LabeledPair> labeled_pairs;
    labeled_pairs.reserve(train_pairs.size());
    for (const auto& [a, b] : train_pairs) {
      labeled_pairs.push_back({a, b, entity_labels[a] == entity_labels[b]});
    }

    for (const CriterionFactory& factory : factories) {
      if (Status fault = faults::MaybeFail("resolver.train"); !fault.ok()) {
        ++health.skipped_criteria;
        ++fault_skips;
        continue;
      }
      std::unique_ptr<DecisionCriterion> criterion = factory();
      if (Status fit = criterion->Fit(training, rng); !fit.ok()) {
        if (first_fit_error.ok()) first_fit_error = fit;
        ++health.skipped_criteria;
        continue;
      }
      // Rank decision graphs by cross-validated post-closure F1, not
      // in-sample pair accuracy: with up to 30 competing graphs, in-sample
      // ranking suffers a strong winner's curse, and raw pair accuracy is
      // swamped by the negative class.
      Result<double> graph_score =
          CvGraphScore(factory, sims, labeled_pairs, /*folds=*/3, rng);
      if (!graph_score.ok()) {
        if (first_fit_error.ok()) first_fit_error = graph_score.status();
        ++health.skipped_criteria;
        continue;
      }
      DecisionSource source;
      source.function_name = std::string(functions_[f]->name());
      source.criterion_name = criterion->name();
      source.train_accuracy = *graph_score;
      source.decisions = graph::DecisionGraph(n, 0, 1);
      source.link_probs = graph::SimilarityMatrix(n, 0.0, 1.0);
      auto& dec = source.decisions.data();
      auto& probs = source.link_probs.data();
      EvalCriterion(*criterion, sims, dec.data(), probs.data());
      if (!pair_gated.empty()) {
        for (size_t k = 0; k < pair_gated.size(); ++k) {
          if (!pair_gated[k]) continue;
          dec[k] = 0;
          probs[k] = std::min(probs[k], 0.49);
        }
      }
      resolution.sources.push_back({source.function_name,
                                    source.criterion_name,
                                    source.train_accuracy,
                                    graph::CountEdges(source.decisions)});
      sources.push_back(std::move(source));
    }
  }

  decision_span.End();
  resolution.stage_ms.decision_ms = stage_timer.ElapsedMillis();
  stage_timer.Restart();

  bool used_fallback = false;
  if (sources.empty()) {
    // No usable decision graph. If fitting failed on otherwise healthy
    // inputs (no quarantine, no deadline/budget cut, no injected faults),
    // keep the strict contract and report the error.
    const bool degraded_cause = health.quarantined_functions > 0 ||
                                health.deadline_hits > 0 ||
                                health.budget_hits > 0 || fault_skips > 0;
    if (!first_fit_error.ok() && !degraded_cause) return first_fit_error;

    // Graceful degradation: plain-threshold baseline over the mean of the
    // computed (guarded, clamped) matrices; singletons when even that is
    // impossible. Never fail the block for a recoverable cause.
    used_fallback = true;
    // The whole fallback path (mean matrix + threshold + closure) counts
    // as clustering time: it substitutes for Steps 5-6.
    obs::ScopedSpan fallback_span(options_.trace, "pipeline.cluster");
    resolution.clustering = graph::Clustering::Singletons(n);
    resolution.chosen_source = "fallback/singletons";
    if (layout != nullptr && !train_pairs.empty()) {
      graph::SimilarityMatrix mean(n, 0.0, 1.0);
      int used = 0;
      for (size_t f = 0; f < matrices.size(); ++f) {
        if (!computed[f]) continue;
        const auto& values = matrices[f].data();
        auto& acc = mean.data();
        for (size_t k = 0; k < values.size(); ++k) acc[k] += values[k];
        ++used;
      }
      if (used > 0) {
        for (double& v : mean.data()) v /= used;
        std::vector<ml::LabeledSimilarity> training;
        training.reserve(train_pairs.size());
        for (const auto& [a, b] : train_pairs) {
          training.push_back(
              {mean.Get(a, b), entity_labels[a] == entity_labels[b]});
        }
        ThresholdCriterion threshold;
        if (threshold.Fit(training, rng).ok()) {
          graph::DecisionGraph decisions(n, 0, 1);
          const auto& values = mean.data();
          auto& dec = decisions.data();
          for (size_t k = 0; k < values.size(); ++k) {
            dec[k] = threshold.Decide(values[k]) ? 1 : 0;
            if (!pair_gated.empty() && pair_gated[k]) dec[k] = 0;
          }
          resolution.clustering = graph::TransitiveClosure(decisions);
          resolution.chosen_source = "fallback/threshold";
        }
      }
    }
    fallback_span.End();
    resolution.stage_ms.cluster_ms = stage_timer.ElapsedMillis();
  } else {
    // --- Step 5: combine. ---
    obs::ScopedSpan combine_span(options_.trace, "pipeline.combine");
    WEBER_ASSIGN_OR_RETURN(
        CombinedGraph combined,
        CombineDecisionGraphs(sources, training_offsets, options_.combination));
    resolution.chosen_source = combined.chosen_source;
    combine_span.End();
    resolution.stage_ms.combine_ms = stage_timer.ElapsedMillis();
    stage_timer.Restart();

    // --- Step 6: cluster. ---
    obs::ScopedSpan cluster_span(options_.trace, "pipeline.cluster");
    if (Status fault = faults::MaybeFail("clustering.run"); !fault.ok()) {
      // The robust default: transitive closure needs no parameters and
      // cannot fail, so a broken clustering backend degrades to the
      // paper's baseline clustering instead of failing the block.
      ++health.clustering_fallbacks;
      resolution.clustering = graph::TransitiveClosure(combined.decisions);
    } else {
      switch (options_.clustering) {
        case ClusteringAlgorithm::kTransitiveClosure:
          resolution.clustering = graph::TransitiveClosure(combined.decisions);
          break;
        case ClusteringAlgorithm::kCorrelationClustering: {
          graph::CorrelationClusteringOptions cc = options_.correlation_options;
          cc.seed = rng->NextUint64();
          resolution.clustering =
              graph::CorrelationClustering(combined.link_probs, cc);
          break;
        }
        case ClusteringAlgorithm::kAgglomerative:
          resolution.clustering = graph::AgglomerativeClustering(
              combined.link_probs, options_.agglomerative_options);
          break;
      }
    }
    cluster_span.End();
    resolution.stage_ms.cluster_ms = stage_timer.ElapsedMillis();
  }

  if (used_fallback || health.deadline_hits > 0 || health.budget_hits > 0 ||
      health.clustering_fallbacks > 0) {
    health.degraded_blocks = 1;
  }
  return resolution;
}

}  // namespace core
}  // namespace weber
