#include "text/batch_similarity.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace weber {
namespace text {

FrozenVectors FrozenVectors::Freeze(
    const std::vector<const SparseVector*>& vectors) {
  FrozenVectors frozen;
  const int n = static_cast<int>(vectors.size());
  frozen.offsets_.resize(n + 1, 0);
  frozen.norms_.resize(n, 0.0);
  frozen.sums_.resize(n, 0.0);
  frozen.sum_squares_.resize(n, 0.0);

  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    const size_t count = vectors[i] == nullptr ? 0 : vectors[i]->size();
    total += static_cast<int64_t>(count);
    frozen.offsets_[i + 1] = total;
    if (count > 0) {
      frozen.max_id_ =
          std::max(frozen.max_id_, vectors[i]->entries().back().id);
    }
  }

  frozen.ids_.resize(total);
  frozen.weights_.resize(total);
  for (int i = 0; i < n; ++i) {
    if (vectors[i] == nullptr) continue;
    int64_t at = frozen.offsets_[i];
    // The statistics loops mirror SparseVector::Sum / Norm exactly (same
    // sequential accumulation), so the cached values are bit-identical to
    // what the per-pair functions recompute.
    double sum = 0.0, sum_squares = 0.0;
    for (const SparseVector::Entry& e : vectors[i]->entries()) {
      frozen.ids_[at] = e.id;
      frozen.weights_[at] = e.weight;
      ++at;
      sum += e.weight;
      sum_squares += e.weight * e.weight;
    }
    frozen.sums_[i] = sum;
    frozen.sum_squares_[i] = sum_squares;
    frozen.norms_[i] = std::sqrt(sum_squares);
  }
  return frozen;
}

BatchScorer::BatchScorer(const FrozenVectors* frozen) : frozen_(frozen) {
  // One slot per id up to max_id(); a candidate id the anchor lacks reads an
  // exact zero.
  dense_.assign(static_cast<size_t>(frozen_->max_id_ + 1), 0.0);
  present_.assign(static_cast<size_t>(frozen_->max_id_ + 1), 0);
}

void BatchScorer::SetAnchor(int anchor) {
  assert(anchor >= 0 && anchor < frozen_->size());
  if (anchor == anchor_) return;
  if (anchor_ >= 0) {
    for (int64_t k = frozen_->offsets_[anchor_];
         k < frozen_->offsets_[anchor_ + 1]; ++k) {
      dense_[frozen_->ids_[k]] = 0.0;
      present_[frozen_->ids_[k]] = 0;
    }
  }
  anchor_ = anchor;
  for (int64_t k = frozen_->offsets_[anchor]; k < frozen_->offsets_[anchor + 1];
       ++k) {
    dense_[frozen_->ids_[k]] = frozen_->weights_[k];
    present_[frozen_->ids_[k]] = 1;
  }
}

void BatchScorer::Dot(int begin, int end, double* out) const {
  assert(anchor_ >= 0);
  assert(begin >= 0 && begin <= end && end <= frozen_->size());
  // Each candidate's entries accumulate in ascending id order against the
  // dense anchor — the same addition sequence as SparseVector::Dot's merge
  // join (non-common ids add exact zeros).
  for (int j = begin; j < end; ++j) {
    double acc = 0.0;
    for (int64_t k = frozen_->offsets_[j]; k < frozen_->offsets_[j + 1]; ++k) {
      acc += dense_[frozen_->ids_[k]] * frozen_->weights_[k];
    }
    out[j - begin] = acc;
  }
}

void BatchScorer::OverlapCount(int begin, int end, int32_t* out) const {
  assert(anchor_ >= 0);
  assert(begin >= 0 && begin <= end && end <= frozen_->size());
  for (int j = begin; j < end; ++j) {
    int32_t count = 0;
    for (int64_t k = frozen_->offsets_[j]; k < frozen_->offsets_[j + 1]; ++k) {
      count += present_[frozen_->ids_[k]];
    }
    out[j - begin] = count;
  }
}

void BatchScorer::Cosine(int begin, int end, double* out) const {
  Dot(begin, end, out);
  const double na = frozen_->norms_[anchor_];
  for (int j = begin; j < end; ++j) {
    const double nb = frozen_->norms_[j];
    if (na == 0.0 || nb == 0.0) {
      out[j - begin] = 0.0;
      continue;
    }
    const double cos = out[j - begin] / (na * nb);
    out[j - begin] = std::clamp(cos, 0.0, 1.0);
  }
}

void BatchScorer::SaturatingOverlap(double damping, int begin, int end,
                                    double* out) const {
  if (begin == end) return;
  std::vector<int32_t> overlaps(static_cast<size_t>(end - begin));
  OverlapCount(begin, end, overlaps.data());
  for (int j = begin; j < end; ++j) {
    const double n = static_cast<double>(overlaps[j - begin]);
    const double denom = n + damping;
    out[j - begin] = denom <= 0.0 ? 0.0 : n / denom;
  }
}

void BatchScorer::ExtendedJaccard(int begin, int end, double* out) const {
  Dot(begin, end, out);
  const double na2 = frozen_->norms_[anchor_] * frozen_->norms_[anchor_];
  for (int j = begin; j < end; ++j) {
    const double dot = out[j - begin];
    const double nb2 = frozen_->norms_[j] * frozen_->norms_[j];
    const double denom = na2 + nb2 - dot;
    out[j - begin] = denom <= 0.0 ? 0.0 : std::clamp(dot / denom, 0.0, 1.0);
  }
}

void BatchScorer::PreparePearson(int dimension) {
  if (pearson_dim_ == dimension) return;
  pearson_dim_ = dimension;
  if (dimension <= 1) return;  // every pair is degenerate; Pearson() shortcuts
  const int n = frozen_->size();
  pearson_means_.resize(n);
  pearson_vars_.resize(n);
  const double nd = static_cast<double>(dimension);
  for (int i = 0; i < n; ++i) {
    const double mean = frozen_->sums_[i] / nd;
    // Replicates the scalar variance loop exactly: the -n*m² start value
    // participates in every intermediate rounding, so Σw² cannot be
    // substituted from the cached sum_squares_.
    double var = -nd * mean * mean;
    for (int64_t k = frozen_->offsets_[i]; k < frozen_->offsets_[i + 1]; ++k) {
      var += frozen_->weights_[k] * frozen_->weights_[k];
    }
    pearson_means_[i] = mean;
    pearson_vars_[i] = var;
  }
}

void BatchScorer::Pearson(int begin, int end, double* out) const {
  assert(pearson_dim_ >= 0 && "call PreparePearson first");
  if (begin == end) return;
  if (pearson_dim_ <= 1) {
    std::fill(out, out + (end - begin), 0.5);
    return;
  }
  Dot(begin, end, out);
  const double nd = static_cast<double>(pearson_dim_);
  const double mean_a = pearson_means_[anchor_];
  const double var_a = pearson_vars_[anchor_];
  for (int j = begin; j < end; ++j) {
    const double mean_b = pearson_means_[j];
    const double var_b = pearson_vars_[j];
    const double cov = out[j - begin] - nd * mean_a * mean_b;
    if (var_a <= 1e-15 || var_b <= 1e-15) {
      out[j - begin] = 0.5;
      continue;
    }
    double r = cov / std::sqrt(var_a * var_b);
    r = std::clamp(r, -1.0, 1.0);
    out[j - begin] = (r + 1.0) / 2.0;
  }
}

}  // namespace text
}  // namespace weber
