// Isotonic regression via the pool-adjacent-violators algorithm (PAV).
//
// Methodologically this sits exactly between the paper's two decision
// devices: the optimal threshold assumes the link probability is a step
// 0/1 function of the similarity value, free regions (Section IV-A) assume
// nothing, and isotonic regression assumes only *monotonicity* — the link
// probability never decreases as similarity grows. For functions that are
// genuinely monotone it uses the training sample more efficiently than
// regions; for the non-monotone functions the paper showcases (Figure 1)
// it cannot express the dip and regions win. The ablation benchmark
// measures exactly this trade-off.

#ifndef WEBER_ML_ISOTONIC_H_
#define WEBER_ML_ISOTONIC_H_

#include <vector>

#include "common/result.h"
#include "ml/region_model.h"

namespace weber {
namespace ml {

/// A fitted non-decreasing step function from similarity values to link
/// probabilities.
class IsotonicModel {
 public:
  /// Fits by PAV on (value, link) pairs: finds the non-decreasing function
  /// minimizing squared error against the 0/1 labels. Returns
  /// InvalidArgument on empty input or a non-finite value.
  static Result<IsotonicModel> Fit(
      const std::vector<LabeledSimilarity>& training);

  /// Predicted link probability at `value` (step function evaluated at the
  /// greatest knot <= value; values below the first knot get the first
  /// level).
  double LinkProbability(double value) const;

  /// Number of constant segments after pooling.
  int num_segments() const { return static_cast<int>(levels_.size()); }

  /// Segment start values (ascending) and their fitted levels
  /// (non-decreasing).
  const std::vector<double>& knots() const { return knots_; }
  const std::vector<double>& levels() const { return levels_; }

 private:
  std::vector<double> knots_;   // segment start values, ascending
  std::vector<double> levels_;  // fitted probabilities, non-decreasing
};

}  // namespace ml
}  // namespace weber

#endif  // WEBER_ML_ISOTONIC_H_
