// Optimal-threshold learning (Section IV-A): "we have chosen a threshold,
// which — based on the training set — maximizes the number of correct
// decisions".

#ifndef WEBER_ML_THRESHOLD_H_
#define WEBER_ML_THRESHOLD_H_

#include <vector>

#include "common/result.h"
#include "ml/region_model.h"

namespace weber {
namespace ml {

struct ThresholdFit {
  /// Decision rule: link iff similarity >= threshold.
  double threshold = 0.5;
  /// Fraction of training pairs decided correctly at this threshold.
  double train_accuracy = 0.0;
};

/// Scans all candidate cut points (midpoints between adjacent distinct
/// training values, plus the extremes 0 and 1) and returns the threshold
/// maximizing training accuracy. Ties prefer the lowest threshold, which
/// favors recall on unseen pairs. Returns InvalidArgument on empty input or
/// a non-finite value.
Result<ThresholdFit> FitOptimalThreshold(
    const std::vector<LabeledSimilarity>& training);

/// Accuracy of the rule "link iff value >= threshold" on a labeled sample.
double ThresholdAccuracy(const std::vector<LabeledSimilarity>& sample,
                         double threshold);

}  // namespace ml
}  // namespace weber

#endif  // WEBER_ML_THRESHOLD_H_
