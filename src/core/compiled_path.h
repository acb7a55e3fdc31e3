// The compiled scoring path: the one way a block's pairs are scored and
// decided.
//
// Per pair, Algorithm 1 is a virtual SimilarityFunction::Compute per
// function (merge-join + per-pair norm recomputation), a virtual
// DecisionCriterion::Decide / LinkProbability (binary search plus
// per-region branching inside the model), and a per-source pass in the
// combiner. This header bakes each of those walks into flat tables:
//
//   * CompiledDecision — a trained criterion (threshold / region-accuracy /
//     isotonic) flattened into one sorted boundary array plus a per-region
//     link-probability array. Region lookup is a branch-free comparison
//     count over the contiguous boundaries; Decide and LinkProbability are
//     table lookups off that index. EvalBlock processes a whole pair array
//     per call.
//   * BlockScorer — a block's FeatureBundles frozen into the text layer's
//     CSR/SoA arenas (text::FrozenVectors, one per feature family), scoring
//     each function's full similarity matrix with one-against-strip scalar
//     kernels instead of per-pair Compute calls. String fields (URL, the
//     two names) are interned per block into integer ids instead: each URL
//     is parsed once, the URL ladder compares ids, and Jaro-Winkler comes
//     from a memo keyed by the ordered value-id pair.
//   * BakeCombineWeights / FusedWeightedAverage — the weighted-average
//     combiner's accuracy weights baked once, each pair combined as a fused
//     dot product over the sources.
//
// The per-pair Compute / Decide / LinkProbability calls remain only as the
// fallback for functions and criteria without a compiled form, and as the
// test oracle. Equivalence guarantee: every compiled evaluation is
// BIT-IDENTICAL to its per-pair counterpart (see batch_similarity.h for the
// kernels; the string strips share extract::UrlSimilarityLadder with the
// per-pair URL measure and call Jaro-Winkler with the per-pair argument
// order; CompiledDecision reproduces the exact comparison semantics of
// each criterion, including NaN ordering and the region models' input
// clamp). compiled_path_test checks the equivalence per kernel, per
// criterion and end to end.

#ifndef WEBER_CORE_COMPILED_PATH_H_
#define WEBER_CORE_COMPILED_PATH_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "core/similarity_function.h"
#include "extract/feature_bundle.h"
#include "extract/url.h"
#include "graph/pair_matrix.h"
#include "text/batch_similarity.h"

namespace weber {
namespace core {

/// A fitted decision criterion flattened into a sorted-boundary table.
/// Region lookup is a linear comparison count over the contiguous
/// boundaries — branch-free (each comparison becomes a flag-to-int add) and
/// comparison-equivalent to the interpreted std::upper_bound for every
/// input, NaN included.
struct CompiledDecision {
  /// Ascending region boundaries; region r spans [boundaries[r-1],
  /// boundaries[r]) under the upper_bound convention.
  std::vector<double> boundaries;

  /// Per-region link probability; size boundaries.size() + 1.
  std::vector<double> probs;

  /// Region models clamp the value into [0, 1] before lookup; threshold and
  /// isotonic rules compare the raw value.
  bool clamp_input = false;

  /// Comparison semantics for NaN values, replicating the interpreted rule:
  /// true  — upper_bound-style (NaN lands in the top region; region and
  ///         isotonic criteria),
  /// false — `value >= boundary`-style (NaN lands in region 0; the
  ///         threshold criterion).
  bool nan_in_top_region = false;

  /// When >= 0, Decide is `region >= decide_region` (the threshold rule,
  /// whose upper link rate may itself be below 0.5); when -1, Decide is
  /// `probs[region] >= 0.5` (region and isotonic rules).
  int decide_region = -1;

  int RegionOf(double value) const {
    if (clamp_input) value = std::clamp(value, 0.0, 1.0);
    const double* b = boundaries.data();
    const size_t nb = boundaries.size();
    int r = 0;
    if (nan_in_top_region) {
      for (size_t i = 0; i < nb; ++i) r += value < b[i] ? 0 : 1;
    } else {
      for (size_t i = 0; i < nb; ++i) r += b[i] <= value ? 1 : 0;
    }
    return r;
  }

  bool Decide(double value) const {
    const int r = RegionOf(value);
    return decide_region >= 0 ? r >= decide_region : probs[r] >= 0.5;
  }

  double LinkProbability(double value) const { return probs[RegionOf(value)]; }

  /// Evaluates a whole pair array: decisions[k] = Decide(values[k]) (0/1),
  /// link_probs[k] = LinkProbability(values[k]). Either output may be null.
  void EvalBlock(const double* values, size_t count, char* decisions,
                 double* link_probs) const;
};

/// Pre-baked accuracy weights for the weighted-average combiner: one weight
/// per source (rel^4 + 0.01 against the best score) plus the normalizing
/// inverse. The inverse is applied AFTER each pair's fused dot — folding it
/// into the weights would change the rounding sequence and break
/// bit-identity with the interpreted two-pass loop.
struct CompiledCombineWeights {
  std::vector<double> weights;
  double inv_total = 0.0;
};

CompiledCombineWeights BakeCombineWeights(
    const std::vector<double>& train_accuracies);

/// out[k] = (Σ_s weights[s] * source_probs[s][k]) * inv_total, accumulated
/// in source order per pair (bit-identical to the source-major loop).
void FusedWeightedAverage(const std::vector<const double*>& source_probs,
                          const CompiledCombineWeights& baked,
                          size_t num_pairs, double* out);

/// Batched pair scoring for one block. On first use of a field it freezes
/// a sparse-vector field into text::FrozenVectors, or interns a string
/// field into per-block ids; it then scores whole similarity matrices /
/// strips through the batch kernels and id tables. Not thread-safe; use one
/// scorer per resolve call (freezing and interning are per block).
class BlockScorer {
 public:
  /// The bundles must outlive the scorer and not change while it is used.
  explicit BlockScorer(const std::vector<extract::FeatureBundle>* bundles);

  /// True when `spec` can be scored in batch for THIS block. Always true
  /// for cosine / saturating-overlap / extended-Jaccard specs and for the
  /// string measures (a measure paired with a field of the other kind is
  /// refused); Pearson additionally requires a block-constant ambient
  /// dimension (every bundle shares one tfidf_dimension ≥ 2 that bounds
  /// every term id), because the interpreted per-pair dimension
  /// max(dim, union) must collapse to that constant. Non-batchable specs
  /// always return false.
  bool CanBatch(const BatchSpec& spec);

  /// The full similarity matrix for `spec`, values clamped into [0, 1] —
  /// bit-identical to ComputeSimilarityMatrix over the declaring function.
  /// Requires CanBatch(spec).
  graph::SimilarityMatrix ScoreMatrix(const BatchSpec& spec);

  /// Scores bundle `anchor` against bundles [begin, end) under `spec`,
  /// writing raw (unclamped) measure values — bit-identical to
  /// fn.Compute(bundles[anchor], bundles[j]), also for j < anchor.
  /// Requires CanBatch(spec).
  void ScoreStrip(const BatchSpec& spec, int anchor, int begin, int end,
                  double* out);

  int size() const { return static_cast<int>(bundles_->size()); }

 private:
  struct Field {
    bool ready = false;
    text::FrozenVectors frozen;
    std::unique_ptr<text::BatchScorer> scorer;
  };

  /// The distinct non-empty values of one string field of the block, with
  /// a Jaro-Winkler memo keyed by the ORDERED id pair: memo[a][b] =
  /// JaroWinklerSimilarity(values[a], values[b]), -1.0 until first needed
  /// (Jaro-Winkler lies in [0, 1]). Keeping the argument order of the
  /// per-pair call makes each entry bit-identical to it without relying on
  /// Jaro-Winkler being symmetric. A row is allocated when its value first
  /// anchors a lookup, so the memo holds at most k² doubles for k values.
  struct JaroWinklerMemo {
    std::vector<std::string_view> values;
    std::vector<std::vector<double>> memo;

    /// Installs the distinct values (by id) and an empty memo.
    void Reset(std::vector<std::string_view> distinct);
    double Get(int a, int b);
  };

  /// A name field interned: each bundle's value as an id into `jw.values`,
  /// -1 for an empty name.
  struct NameField {
    bool ready = false;
    std::vector<int> ids;
    JaroWinklerMemo jw;
  };

  /// A page URL's extract::UrlKey with every field interned per block, -1
  /// for an empty field (so an unparseable URL has host -1). Equal ids mean
  /// equal strings, so extract::UrlSimilarityLadder runs on it unchanged.
  struct InternedUrl {
    int host = -1;
    int path = -1;
    int first_dir = -1;
    int registrable_domain = -1;
  };

  Field& GetField(BatchSpec::Field field);
  NameField& GetNames(BatchSpec::Field field);
  void PrepareUrls();

  const std::vector<extract::FeatureBundle>* bundles_;
  std::array<Field, 5> fields_;
  std::array<NameField, 2> names_;  // most_frequent_name, closest_name

  bool urls_ready_ = false;
  std::vector<extract::UrlKey> url_keys_;  // owns the strings hosts_ views
  std::vector<InternedUrl> urls_;
  JaroWinklerMemo hosts_;

  int pearson_state_ = 0;  // 0 = unknown, 1 = eligible, -1 = ineligible
  int pearson_dim_ = 0;    // the shared ambient dimension when eligible
};

}  // namespace core
}  // namespace weber

#endif  // WEBER_CORE_COMPILED_PATH_H_
