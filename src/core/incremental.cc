#include "core/incremental.h"

#include <algorithm>

#include "common/timer.h"
#include "core/compiled_path.h"
#include "graph/components.h"
#include "ml/threshold.h"

namespace weber {
namespace core {

Result<IncrementalResolver> IncrementalResolver::Create(
    IncrementalOptions options) {
  WEBER_ASSIGN_OR_RETURN(auto functions, MakeFunctions(options.function_names));
  if (functions.empty()) {
    return Status::InvalidArgument("IncrementalResolver: no functions");
  }
  return IncrementalResolver(std::move(options), std::move(functions));
}

double IncrementalResolver::MatchScore(const extract::FeatureBundle& a,
                                       const extract::FeatureBundle& b) const {
  double sum = 0.0;
  for (const auto& fn : functions_) sum += fn->Compute(a, b);
  return sum / static_cast<double>(functions_.size());
}

double IncrementalResolver::MatchScoreIndexed(int a, int b) const {
  if (score_cache_ == nullptr) {
    return MatchScore(documents_[a], documents_[b]);
  }
  // Cache keys are unordered pairs; similarity functions are symmetric.
  const int lo = std::min(a, b), hi = std::max(a, b);
  double sum = 0.0;
  for (size_t f = 0; f < functions_.size(); ++f) {
    double value;
    if (!score_cache_->Lookup(static_cast<int>(f), lo, hi, &value)) {
      value = functions_[f]->Compute(documents_[lo], documents_[hi]);
      score_cache_->Insert(static_cast<int>(f), lo, hi, value);
    }
    sum += value;
  }
  return sum / static_cast<double>(functions_.size());
}

double IncrementalResolver::ClusterScore(int doc,
                                         const std::vector<int>& members) const {
  double best = 0.0, sum = 0.0;
  for (int member : members) {
    double score = MatchScoreIndexed(doc, member);
    best = std::max(best, score);
    sum += score;
  }
  if (members.empty()) return 0.0;
  return options_.assignment == IncrementalOptions::Assignment::kBestMax
             ? best
             : sum / static_cast<double>(members.size());
}

Status IncrementalResolver::CalibrateThreshold(
    const std::vector<extract::FeatureBundle>& bundles,
    const std::vector<int>& entity_labels,
    const std::vector<std::pair<int, int>>& training_pairs) {
  if (bundles.size() != entity_labels.size()) {
    return Status::InvalidArgument(
        "CalibrateThreshold: bundle/label size mismatch");
  }
  if (training_pairs.empty()) {
    return Status::InvalidArgument("CalibrateThreshold: no training pairs");
  }
  std::vector<ml::LabeledSimilarity> labeled;
  labeled.reserve(training_pairs.size());
  const int n = static_cast<int>(bundles.size());
  for (const auto& [a, b] : training_pairs) {
    if (a < 0 || b < 0 || a >= n || b >= n) {
      return Status::InvalidArgument("CalibrateThreshold: bad pair (", a, ", ",
                                     b, ")");
    }
    labeled.push_back({MatchScore(bundles[a], bundles[b]),
                       entity_labels[a] == entity_labels[b]});
  }
  WEBER_ASSIGN_OR_RETURN(ml::ThresholdFit fit, ml::FitOptimalThreshold(labeled));
  threshold_ = fit.threshold;
  calibrated_ = true;
  Reset();
  return Status::OK();
}

int IncrementalResolver::Add(extract::FeatureBundle bundle) {
  if (!calibrated_) return -1;
  const int doc = next_document_++;
  documents_.push_back(std::move(bundle));

  int best_cluster = -1;
  double best_score = threshold_;  // must reach the calibrated threshold
  for (size_t c = 0; c < clusters_.size(); ++c) {
    double score = ClusterScore(doc, clusters_[c]);
    if (score >= best_score) {
      best_score = score;
      best_cluster = static_cast<int>(c);
    }
  }
  if (best_cluster < 0) {
    clusters_.push_back({doc});
    return static_cast<int>(clusters_.size()) - 1;
  }
  clusters_[best_cluster].push_back(doc);
  return best_cluster;
}

Result<graph::Clustering> IncrementalResolver::BatchResolve(
    double deadline_ms) const {
  if (!calibrated_) {
    return Status::FailedPrecondition("BatchResolve: not calibrated");
  }
  const int n = next_document_;
  WallTimer timer;
  std::vector<std::pair<int, int>> edges;

  // With no cache to consult every pair is scored fresh, so whole rows of
  // the upper triangle go through the batched kernels. Accumulating the
  // functions in declaration order per pair and dividing once reproduces
  // MatchScore's sum bit for bit (see compiled_path.h). An installed
  // PairScoreCache must keep observing (and serving) every pair score, so
  // cached resolvers take the per-pair loop below.
  if (score_cache_ == nullptr && n >= 2) {
    BlockScorer scorer(&documents_);
    std::vector<BatchSpec> specs(functions_.size());
    std::vector<char> batchable(functions_.size(), 0);
    for (size_t f = 0; f < functions_.size(); ++f) {
      specs[f] = functions_[f]->batch_spec();
      batchable[f] = specs[f].batchable() && scorer.CanBatch(specs[f]) ? 1 : 0;
    }
    const double num_functions = static_cast<double>(functions_.size());
    std::vector<double> row(n), strip(n);
    for (int a = 0; a < n; ++a) {
      if (deadline_ms > 0.0 && timer.ElapsedMillis() > deadline_ms) {
        return Status::DeadlineExceeded("BatchResolve: deadline of ",
                                        deadline_ms, " ms hit after ", a,
                                        " of ", n, " rows");
      }
      const int width = n - a - 1;
      if (width <= 0) continue;
      std::fill(row.begin(), row.begin() + width, 0.0);
      for (size_t f = 0; f < functions_.size(); ++f) {
        if (batchable[f]) {
          scorer.ScoreStrip(specs[f], a, a + 1, n, strip.data());
          for (int k = 0; k < width; ++k) row[k] += strip[k];
        } else {
          for (int k = 0; k < width; ++k) {
            row[k] +=
                functions_[f]->Compute(documents_[a], documents_[a + 1 + k]);
          }
        }
      }
      for (int k = 0; k < width; ++k) {
        if (row[k] / num_functions >= threshold_) {
          edges.push_back({a, a + 1 + k});
        }
      }
    }
    return graph::ConnectedComponents(n, edges);
  }

  for (int a = 0; a < n; ++a) {
    // Cooperative deadline check once per row: cheap relative to the O(n)
    // scores the row costs, and a blown budget stops before the next row.
    if (deadline_ms > 0.0 && timer.ElapsedMillis() > deadline_ms) {
      return Status::DeadlineExceeded("BatchResolve: deadline of ",
                                      deadline_ms, " ms hit after ", a,
                                      " of ", n, " rows");
    }
    for (int b = a + 1; b < n; ++b) {
      if (MatchScoreIndexed(a, b) >= threshold_) edges.push_back({a, b});
    }
  }
  return graph::ConnectedComponents(n, edges);
}

Status IncrementalResolver::AdoptPartition(
    const std::vector<std::vector<int>>& clusters) {
  std::vector<char> seen(next_document_, 0);
  int covered = 0;
  for (const auto& members : clusters) {
    if (members.empty()) {
      return Status::InvalidArgument("AdoptPartition: empty cluster");
    }
    for (int doc : members) {
      if (doc < 0 || doc >= next_document_ || seen[doc]) {
        return Status::InvalidArgument("AdoptPartition: clusters must ",
                                       "partition the added documents (bad ",
                                       "or repeated index ", doc, ")");
      }
      seen[doc] = 1;
      ++covered;
    }
  }
  if (covered != next_document_) {
    return Status::InvalidArgument("AdoptPartition: ", covered, " of ",
                                   next_document_, " documents covered");
  }
  clusters_ = clusters;
  return Status::OK();
}

Status IncrementalResolver::Restore(
    std::vector<extract::FeatureBundle> documents,
    const std::vector<std::vector<int>>& clusters) {
  if (!calibrated_) {
    return Status::FailedPrecondition("Restore: not calibrated");
  }
  if (next_document_ != 0) {
    return Status::FailedPrecondition("Restore: resolver already holds ",
                                      next_document_, " documents");
  }
  documents_ = std::move(documents);
  next_document_ = static_cast<int>(documents_.size());
  if (Status st = AdoptPartition(clusters); !st.ok()) {
    Reset();
    return st;
  }
  return Status::OK();
}

graph::Clustering IncrementalResolver::CurrentClustering() const {
  std::vector<int> labels(next_document_, 0);
  for (size_t c = 0; c < clusters_.size(); ++c) {
    for (int doc : clusters_[c]) labels[doc] = static_cast<int>(c);
  }
  return graph::Clustering::FromLabels(labels);
}

void IncrementalResolver::Reset() {
  documents_.clear();
  clusters_.clear();
  next_document_ = 0;
}

}  // namespace core
}  // namespace weber
