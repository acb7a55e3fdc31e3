// Batch similarity kernels: the SoA/CSR layout and one-against-many strip
// kernels behind the resolver's compiled hot path.
//
// The per-pair functions walk two SparseVectors per pair: a merge-join dot
// product plus Norm()/Sum() recomputed from scratch for every pair. Here a
// block's vectors are frozen once into contiguous CSR arrays (sorted term
// ids + weights in one arena) with per-vector norms/sums precomputed, and
// one anchor document is scored against a strip of candidates per call.
//
// Bit-exactness guarantee (stronger than the 1e-12 the equivalence sweep
// documents): every kernel reproduces the scalar functions in
// text/vector_similarity.h BIT FOR BIT.
//   * The strip kernel accumulates each candidate's entries in ascending id
//     order against a dense scatter of the anchor — the same addition
//     sequence as SparseVector::Dot's merge join, plus exact-zero additions
//     for non-common ids (an IEEE-754 no-op).
//   * The composite measures (cosine, saturating overlap, extended Jaccard,
//     Pearson) replicate the exact expression and operand order of their
//     scalar counterparts.

#ifndef WEBER_TEXT_BATCH_SIMILARITY_H_
#define WEBER_TEXT_BATCH_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "text/sparse_vector.h"

namespace weber {
namespace text {

/// A block's sparse vectors frozen into contiguous CSR arrays, with the
/// per-vector statistics (Euclidean norm, weight sum) the composite
/// measures need.
class FrozenVectors {
 public:
  FrozenVectors() = default;

  /// Freezes `vectors[i]` for all i. Null entries freeze as empty vectors.
  static FrozenVectors Freeze(const std::vector<const SparseVector*>& vectors);

  int size() const { return static_cast<int>(norms_.size()); }
  /// Largest term id across all frozen vectors, or -1 when all are empty.
  int32_t max_id() const { return max_id_; }

 private:
  friend class BatchScorer;

  // CSR: entries of vector i live at [offsets_[i], offsets_[i + 1]).
  std::vector<int64_t> offsets_;
  std::vector<int32_t> ids_;
  std::vector<double> weights_;

  // Per-vector statistics, computed with the same sequential loops as
  // SparseVector::Norm / SparseVector::Sum (bit-identical).
  std::vector<double> norms_;
  std::vector<double> sums_;

  int32_t max_id_ = -1;
};

/// Scores one anchor vector against strips of candidate vectors from the
/// same FrozenVectors set. Holds the dense scratch (anchor weights scattered
/// by id, plus a presence table — entry weights may legitimately be zero).
/// Not thread-safe; use one scorer per thread.
class BatchScorer {
 public:
  /// The frozen set must outlive the scorer.
  explicit BatchScorer(const FrozenVectors* frozen);

  /// Selects vector `anchor` as the one-against-many side. Clears the
  /// previous anchor's scatter first; cost is O(entries of both anchors).
  void SetAnchor(int anchor);
  int anchor() const { return anchor_; }

  /// out[j - begin] = dot(anchor, j), bit-identical to SparseVector::Dot.
  void Dot(int begin, int end, double* out) const;

  /// out[j - begin] = |ids(anchor) ∩ ids(j)|.
  void OverlapCount(int begin, int end, int32_t* out) const;

  // Composite measures; each is bit-identical to its scalar counterpart in
  // text/vector_similarity.h applied to (anchor, j).
  void Cosine(int begin, int end, double* out) const;
  void SaturatingOverlap(double damping, int begin, int end,
                         double* out) const;
  void ExtendedJaccard(int begin, int end, double* out) const;

  /// Precomputes the per-vector Pearson variance terms for ambient
  /// dimension `dimension`. Pearson(…) requires that every scored pair use
  /// this same ambient dimension — the caller must verify eligibility
  /// (shared vocabulary dimension ≥ every pairwise union size) before
  /// batching Pearson. Idempotent per dimension.
  void PreparePearson(int dimension);

  /// out[j - begin] = PearsonSimilarity(anchor, j, dimension) for the
  /// dimension passed to PreparePearson. Must call PreparePearson first.
  void Pearson(int begin, int end, double* out) const;

 private:
  const FrozenVectors* frozen_;
  std::vector<double> dense_;      // anchor weight by id, 0 when absent
  std::vector<int32_t> present_;   // 1 iff the anchor has this id
  int anchor_ = -1;

  int pearson_dim_ = -1;
  std::vector<double> pearson_means_;  // sum(i) / dim
  std::vector<double> pearson_vars_;   // -dim*mean² + Σw² (scalar loop order)
};

}  // namespace text
}  // namespace weber

#endif  // WEBER_TEXT_BATCH_SIMILARITY_H_
