// EntityResolver: the paper's Algorithm 1 (Section IV-C).
//
//   compute the graph G_w^{fi} for each fi (per block)
//   obtain the decision criteria Dj (threshold, regions, ...) from training
//   apply Dj to the data, to compute G^i_{Dj}, for each i and Dj
//   compute the accuracy acc(G^i_{Dj})
//   combine them, for all i, Dj
//   apply a clustering algorithm
//   output the final entity resolution

#ifndef WEBER_CORE_RESOLVER_H_
#define WEBER_CORE_RESOLVER_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/combiner.h"
#include "core/guarded_function.h"
#include "core/run_health.h"
#include "core/similarity_function.h"
#include "corpus/document.h"
#include "extract/feature_extractor.h"
#include "extract/gazetteer.h"
#include "graph/agglomerative.h"
#include "graph/clustering.h"
#include "graph/correlation_clustering.h"

namespace weber {
namespace core {

/// Final clustering step of Algorithm 1.
enum class ClusteringAlgorithm : int {
  kTransitiveClosure = 0,      ///< the paper's default
  kCorrelationClustering = 1,  ///< the paper's experimental alternative
  kAgglomerative = 2,          ///< hierarchical clustering on link probs
};

std::string ClusteringAlgorithmToString(ClusteringAlgorithm a);

struct ResolverOptions {
  /// Which similarity functions to use; default all ten of Table I.
  std::vector<std::string> function_names = kSubsetI10;

  /// Use region-based decision criteria in addition to the plain threshold
  /// (false reproduces the paper's threshold-only I columns).
  bool use_region_criteria = true;

  /// Extension: also include the isotonic (monotone-calibrated) criterion
  /// in the candidate family. Off in the paper's configuration; used by
  /// the region ablation to separate "better calibration" from
  /// "non-monotone expressiveness".
  bool include_isotonic_criterion = false;

  /// Region construction parameters.
  int equal_width_bins = 10;
  int kmeans_k = 8;

  CombinationStrategy combination = CombinationStrategy::kBestGraph;

  /// Extension (the paper's Section VII future work): entropy-based
  /// handling of incomplete pages. A pair whose geometric-mean page
  /// informativeness falls below this threshold has too little evidence for
  /// a positive decision: its link decisions are vetoed in every decision
  /// graph and its link probability is capped below 0.5. 0 disables the
  /// gate (the paper's published configuration).
  double min_pair_informativeness = 0.0;

  ClusteringAlgorithm clustering = ClusteringAlgorithm::kTransitiveClosure;
  graph::CorrelationClusteringOptions correlation_options;
  graph::AgglomerativeOptions agglomerative_options;

  /// How the training sample is drawn (Section V-A2, "10% of the complete
  /// dataset"): kPairs samples 10% of the block's document pairs directly;
  /// kDocuments samples 10% of the documents and labels all pairs among
  /// them (a much smaller, noisier sample).
  enum class TrainSampling : int { kPairs = 0, kDocuments = 1 };
  TrainSampling train_sampling = TrainSampling::kPairs;

  /// Fraction of the block (pairs or documents, per train_sampling) whose
  /// labels form the training set (the paper uses 10%).
  double train_fraction = 0.10;
  /// Lower bound on training pairs (kPairs) or documents (kDocuments).
  int min_train_size = 10;

  extract::FeatureExtractorOptions extractor;

  // --- Robustness (hardening substrate; see DESIGN.md "Failure model"). ---

  /// Wrap every similarity function in a GuardedSimilarityFunction that
  /// clamps non-finite / out-of-range values, spot-checks symmetry and
  /// quarantines repeat offenders. The guard is value-transparent for
  /// contract-abiding functions, so disabling it only removes the safety
  /// net (it never changes results of well-behaved runs).
  bool guard_functions = true;
  GuardOptions guard;

  /// Soft wall-clock deadline for one ResolveExtracted call, checked
  /// cooperatively between similarity matrices and decision criteria. When
  /// exceeded, the block resolves from the sources computed so far (or the
  /// threshold fallback) and is marked degraded. 0 disables.
  double deadline_ms = 0.0;

  /// Maximum pairwise similarity evaluations per block across all
  /// functions. Protects against one pathologically large block starving
  /// the rest of a run. When the next function's matrix would exceed the
  /// budget, remaining functions are skipped and the block is marked
  /// degraded. 0 disables.
  long long max_pair_budget = 0;

  /// Optional span sink (weber::obs): when set, ResolveExtracted records
  /// one span per pipeline stage. Stage timings in BlockResolution are
  /// collected regardless — they cost two clock reads per stage. The
  /// collector must outlive the resolver.
  obs::TraceCollector* trace = nullptr;
};

/// Wall-clock milliseconds spent in each stage of Algorithm 1 for one
/// block. `blocking_ms` (extraction/blocking) is filled by the caller that
/// owns that work (the experiment runner); the resolver fills the rest.
struct StageTimings {
  double blocking_ms = 0.0;
  double similarity_ms = 0.0;
  double decision_ms = 0.0;
  double combine_ms = 0.0;
  double cluster_ms = 0.0;

  void Merge(const StageTimings& other) {
    blocking_ms += other.blocking_ms;
    similarity_ms += other.similarity_ms;
    decision_ms += other.decision_ms;
    combine_ms += other.combine_ms;
    cluster_ms += other.cluster_ms;
  }
  double TotalMs() const {
    return blocking_ms + similarity_ms + decision_ms + combine_ms +
           cluster_ms;
  }
};

/// Diagnostics for one (function, criterion) decision graph.
struct SourceDiagnostics {
  std::string function_name;
  std::string criterion_name;
  double train_accuracy = 0.0;
  long long num_edges = 0;
};

/// Result of resolving one block.
struct BlockResolution {
  graph::Clustering clustering;

  /// The combined graph's chosen source (best-graph) or strategy tag.
  std::string chosen_source;

  /// Per-source diagnostics, in (function-major, criterion-minor) order.
  std::vector<SourceDiagnostics> sources;

  /// The labeled pairs used for training in this run.
  std::vector<std::pair<int, int>> training_pairs;

  /// Wall-clock per-stage breakdown (blocking_ms left 0 here; the caller
  /// that performed extraction fills it in).
  StageTimings stage_ms;

  /// Degradation diagnostics for this block (all-zero on a clean run).
  /// `health.degraded_blocks` is 1 when the result is partial: a deadline
  /// or pair budget was hit, all functions were quarantined (threshold
  /// fallback), or the configured clustering failed and transitive closure
  /// substituted.
  RunHealth health;
};

/// Per-block entity resolver. Construct once (feature extraction config +
/// gazetteer + functions), resolve many blocks.
class EntityResolver {
 public:
  /// The gazetteer must outlive the resolver. Returns via factory so that
  /// unknown function names surface as a Status rather than a constructor
  /// failure.
  static Result<EntityResolver> Create(const extract::Gazetteer* gazetteer,
                                       ResolverOptions options);

  /// As Create, but with an explicit function set instead of resolving
  /// `options.function_names` through the registry. Lets callers (and chaos
  /// tests) inject custom — including deliberately misbehaving — functions.
  static Result<EntityResolver> CreateWithFunctions(
      const extract::Gazetteer* gazetteer, ResolverOptions options,
      std::vector<std::unique_ptr<SimilarityFunction>> functions);

  /// Runs Algorithm 1 on one labeled block. `rng` drives the training
  /// sample and k-means seeding; pass a differently-seeded Rng per run to
  /// reproduce the paper's 5-run averaging.
  Result<BlockResolution> ResolveBlock(const corpus::Block& block,
                                       Rng* rng) const;

  /// Variant for callers that already extracted features and sampled the
  /// training pairs (used by the benchmark harness to share work across the
  /// I4/I7/I10/C4/C7/C10/W configurations).
  Result<BlockResolution> ResolveExtracted(
      const std::vector<extract::FeatureBundle>& bundles,
      const std::vector<int>& entity_labels,
      const std::vector<std::pair<int, int>>& training_pairs, Rng* rng) const;

  const ResolverOptions& options() const { return options_; }

 private:
  EntityResolver(const extract::Gazetteer* gazetteer, ResolverOptions options,
                 std::vector<std::unique_ptr<SimilarityFunction>> functions)
      : gazetteer_(gazetteer),
        options_(std::move(options)),
        functions_(std::move(functions)),
        extractor_(gazetteer_, options_.extractor) {}

  const extract::Gazetteer* gazetteer_;
  ResolverOptions options_;
  std::vector<std::unique_ptr<SimilarityFunction>> functions_;
  extract::FeatureExtractor extractor_;
};

}  // namespace core
}  // namespace weber

#endif  // WEBER_CORE_RESOLVER_H_
