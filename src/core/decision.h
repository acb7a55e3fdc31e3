// Decision criteria D_j (Section IV-A): rules that turn a similarity value
// into a link decision, fitted on the block's training pairs. Two families:
// the plain optimal threshold, and region-accuracy models (equal-width or
// k-means regions).

#ifndef WEBER_CORE_DECISION_H_
#define WEBER_CORE_DECISION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "core/compiled_path.h"
#include "ml/isotonic.h"
#include "ml/region_model.h"
#include "ml/threshold.h"

namespace weber {
namespace core {

/// A fitted decision rule over similarity values.
class DecisionCriterion {
 public:
  virtual ~DecisionCriterion() = default;

  /// Identifier, e.g. "threshold", "regions-eq10", "regions-km8".
  virtual std::string name() const = 0;

  /// Fits the rule on labeled training similarities. Must be called before
  /// Decide / LinkProbability.
  virtual Status Fit(const std::vector<ml::LabeledSimilarity>& training,
                     Rng* rng) = 0;

  /// Link / no-link decision for a similarity value.
  virtual bool Decide(double value) const = 0;

  /// Estimated probability that a pair with this value is a true link; the
  /// edge weight used by the weighted-average combiner (Section IV-B).
  virtual double LinkProbability(double value) const = 0;

  /// Accuracy of this rule's decisions on the training set it was fitted
  /// on; the graph-ranking score used for best-graph selection.
  virtual double train_accuracy() const = 0;

  /// Flattens the fitted rule into a CompiledDecision whose Decide /
  /// LinkProbability are bit-identical to the virtual walk. Returns false
  /// when the rule has no compiled form (or is not fitted yet); callers
  /// then stay on the virtual path.
  virtual bool Compile(CompiledDecision* out) const {
    (void)out;
    return false;
  }
};

/// Plain optimal-threshold rule: link iff value >= t*, with t* maximizing
/// training accuracy. LinkProbability is the empirical link rate above /
/// below the threshold (a two-region accuracy model), so the combiner gets
/// calibrated weights rather than hard 0/1.
class ThresholdCriterion final : public DecisionCriterion {
 public:
  std::string name() const override { return "threshold"; }
  Status Fit(const std::vector<ml::LabeledSimilarity>& training,
             Rng* rng) override;
  bool Decide(double value) const override { return value >= fit_.threshold; }
  double LinkProbability(double value) const override {
    return value >= fit_.threshold ? link_rate_above_ : link_rate_below_;
  }
  double train_accuracy() const override { return fit_.train_accuracy; }
  bool Compile(CompiledDecision* out) const override;

  double threshold() const { return fit_.threshold; }

 private:
  ml::ThresholdFit fit_;
  bool fitted_ = false;
  double link_rate_above_ = 1.0;
  double link_rate_below_ = 0.0;
};

/// Region-accuracy rule (the paper's contribution): link iff the value's
/// region has link rate >= 0.5; LinkProbability is the region's link rate.
class RegionCriterion final : public DecisionCriterion {
 public:
  /// Equal-width construction with `bins` regions, or k-means construction
  /// with `k` clusters.
  static std::unique_ptr<RegionCriterion> EqualWidth(int bins);
  static std::unique_ptr<RegionCriterion> KMeans(int k);

  std::string name() const override { return name_; }
  Status Fit(const std::vector<ml::LabeledSimilarity>& training,
             Rng* rng) override;
  bool Decide(double value) const override { return model_->Decide(value); }
  double LinkProbability(double value) const override {
    return model_->LinkProbability(value);
  }
  double train_accuracy() const override { return train_accuracy_; }
  bool Compile(CompiledDecision* out) const override;

  /// The fitted model (valid after Fit); exposed for diagnostics and the
  /// Figure 1 benchmark.
  const ml::RegionAccuracyModel& model() const { return *model_; }

 private:
  RegionCriterion(ml::RegionScheme scheme, int param, std::string name)
      : scheme_(scheme), param_(param), name_(std::move(name)) {}

  ml::RegionScheme scheme_;
  int param_;
  std::string name_;
  std::unique_ptr<ml::RegionAccuracyModel> model_;
  double train_accuracy_ = 0.0;
};

/// Monotone-calibrated rule (extension): isotonic regression of the link
/// probability via pool-adjacent-violators. Strictly more expressive than
/// a threshold, strictly less than free regions — the middle rung of the
/// assumption ladder. Not part of the paper's configuration; used by the
/// region ablation to isolate how much of C's gain comes from
/// *non-monotone* structure.
class IsotonicCriterion final : public DecisionCriterion {
 public:
  std::string name() const override { return "isotonic"; }
  Status Fit(const std::vector<ml::LabeledSimilarity>& training,
             Rng* rng) override;
  bool Decide(double value) const override {
    return model_->LinkProbability(value) >= 0.5;
  }
  double LinkProbability(double value) const override {
    return model_->LinkProbability(value);
  }
  double train_accuracy() const override { return train_accuracy_; }
  bool Compile(CompiledDecision* out) const override;

 private:
  std::unique_ptr<ml::IsotonicModel> model_;
  double train_accuracy_ = 0.0;
};

/// Evaluates a fitted criterion over every pair of `sims`:
/// decisions[k] = Decide(value k) as 0/1 and link_probs[k] =
/// LinkProbability(value k), in sims.data() order. Either output may be
/// null. Runs the criterion's CompiledDecision table when Compile gives
/// one, else the virtual per-value calls; both give the same bits.
void EvalCriterion(const DecisionCriterion& criterion,
                   const graph::SimilarityMatrix& sims, char* decisions,
                   double* link_probs);

/// The full criteria family used by the resolver: a plain threshold, an
/// equal-width region model, and a k-means region model.
std::vector<std::unique_ptr<DecisionCriterion>> MakeStandardCriteria(
    int equal_width_bins, int kmeans_k);

/// Threshold-only family (the paper's I columns).
std::vector<std::unique_ptr<DecisionCriterion>> MakeThresholdOnlyCriteria();

/// Factory producing fresh (unfitted) instances of one criterion; needed
/// for cross-validated accuracy estimation.
using CriterionFactory = std::function<std::unique_ptr<DecisionCriterion>()>;

std::vector<CriterionFactory> MakeStandardCriterionFactories(
    int equal_width_bins, int kmeans_k);
std::vector<CriterionFactory> MakeThresholdOnlyCriterionFactories();

/// K-fold cross-validated decision accuracy of a criterion family on a
/// labeled training sample. A fresh criterion is fitted on each fold
/// complement and scored on the held-out fold; the pooled accuracy is
/// returned. Ranking decision graphs by this estimate instead of in-sample
/// accuracy avoids the winner's curse when many graphs compete (the larger
/// the candidate set — C10 has 30 graphs — the more in-sample ranking
/// overfits). Falls back to in-sample accuracy when the sample is smaller
/// than 2 * folds. Returns InvalidArgument on an empty sample.
Result<double> CrossValidatedAccuracy(
    const CriterionFactory& factory,
    const std::vector<ml::LabeledSimilarity>& training, int folds, Rng* rng);

}  // namespace core
}  // namespace weber

#endif  // WEBER_CORE_DECISION_H_
