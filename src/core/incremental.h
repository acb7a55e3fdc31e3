// Incremental entity resolution: documents arrive one at a time and are
// assigned to an existing person cluster or open a new one — the
// "incremental clustering-based methods" family the paper's related work
// describes ([2] and the merge-based systems [5], [7]). Useful when a Web
// crawl streams in and re-running batch resolution per page is wasteful.

#ifndef WEBER_CORE_INCREMENTAL_H_
#define WEBER_CORE_INCREMENTAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/similarity_function.h"
#include "graph/clustering.h"

namespace weber {
namespace core {

/// Memo for per-function pair scores, keyed by the arrival indices of the
/// two documents within one resolver. Lets a serving layer (see
/// serve::SimilarityCache) share similarity work between the hot assignment
/// path and background batch re-resolution. Implementations must be
/// thread-safe when the resolver is driven from multiple threads.
class PairScoreCache {
 public:
  virtual ~PairScoreCache() = default;

  /// Returns true and fills `*value` when (function, a, b) is cached.
  virtual bool Lookup(int function_index, int a, int b, double* value) = 0;
  virtual void Insert(int function_index, int a, int b, double value) = 0;
};

struct IncrementalOptions {
  /// Functions averaged into the match score.
  std::vector<std::string> function_names = kSubsetI10;

  /// How a document is scored against an existing cluster.
  enum class Assignment : int {
    kBestMean = 0,  ///< mean score over cluster members (average linkage)
    kBestMax = 1,   ///< max score over cluster members (single linkage)
  };
  Assignment assignment = Assignment::kBestMean;
};

/// Streaming resolver. Calibrate the match threshold once on labeled pairs
/// (CalibrateThreshold), then feed documents in arrival order with Add.
///
///   auto r = IncrementalResolver::Create({});
///   r->CalibrateThreshold(bundles, labels, training_pairs);
///   for (const auto& page : stream) r->Add(page_bundle);
///   graph::Clustering now = r->CurrentClustering();
class IncrementalResolver {
 public:
  static Result<IncrementalResolver> Create(IncrementalOptions options);

  /// Fits the match threshold from labeled pairs (same evidence as Add
  /// uses). Must be called before the first Add. Resets streaming state.
  Status CalibrateThreshold(
      const std::vector<extract::FeatureBundle>& bundles,
      const std::vector<int>& entity_labels,
      const std::vector<std::pair<int, int>>& training_pairs);

  /// Adds one document; returns the cluster index it was assigned to
  /// (possibly a brand-new cluster). Must be calibrated first; returns -1
  /// and logs nothing if not (check calibrated()).
  int Add(extract::FeatureBundle bundle);

  /// The partition of all documents Added so far, in arrival order.
  graph::Clustering CurrentClustering() const;

  /// Full batch re-resolution of every document Added so far: links every
  /// pair whose match score reaches the calibrated threshold and takes the
  /// transitive closure (the paper's default clustering step). Unlike the
  /// greedy Add path, the result is invariant to arrival order, which is
  /// what makes it a fixed point for concurrent serving: any interleaving
  /// of the same document set batch-resolves to the same partition.
  ///
  /// `deadline_ms` is a soft wall-clock budget with the same semantics as
  /// ResolverOptions::deadline_ms: checked cooperatively between pair-score
  /// rows, and on expiry the call returns DeadlineExceeded instead of a
  /// partial partition (a batch result is only useful whole). 0 disables.
  Result<graph::Clustering> BatchResolve(double deadline_ms = 0.0) const;

  /// Replaces the current partition with an externally computed one (e.g.
  /// the published result of BatchResolve) over the same documents. The
  /// clusters must partition exactly the arrival indices [0, num_documents).
  Status AdoptPartition(const std::vector<std::vector<int>>& clusters);

  /// Rebuilds streaming state from durable storage: installs `documents` as
  /// the arrival history and adopts `clusters` (indices into `documents`)
  /// as their partition. Requires a calibrated resolver with no documents;
  /// on failure the resolver is left empty.
  Status Restore(std::vector<extract::FeatureBundle> documents,
                 const std::vector<std::vector<int>>& clusters);

  /// Installs a pair-score memo consulted (and filled) by every indexed
  /// match-score computation. Not owned; pass nullptr to detach. The cache
  /// keys are arrival indices, so it must be cleared or swapped when the
  /// resolver is Reset.
  void set_score_cache(PairScoreCache* cache) { score_cache_ = cache; }

  /// Document indices (arrival order) per cluster.
  const std::vector<std::vector<int>>& clusters() const { return clusters_; }

  int num_documents() const { return next_document_; }
  bool calibrated() const { return calibrated_; }
  double threshold() const { return threshold_; }

  /// Clears streaming state but keeps the calibrated threshold.
  void Reset();

 private:
  explicit IncrementalResolver(
      IncrementalOptions options,
      std::vector<std::unique_ptr<SimilarityFunction>> functions)
      : options_(std::move(options)), functions_(std::move(functions)) {}

  double MatchScore(const extract::FeatureBundle& a,
                    const extract::FeatureBundle& b) const;
  double MatchScoreIndexed(int a, int b) const;
  double ClusterScore(int doc, const std::vector<int>& members) const;

  IncrementalOptions options_;
  std::vector<std::unique_ptr<SimilarityFunction>> functions_;
  PairScoreCache* score_cache_ = nullptr;
  double threshold_ = 0.5;
  bool calibrated_ = false;

  std::vector<extract::FeatureBundle> documents_;  // arrival order
  std::vector<std::vector<int>> clusters_;
  int next_document_ = 0;
};

}  // namespace core
}  // namespace weber

#endif  // WEBER_CORE_INCREMENTAL_H_
