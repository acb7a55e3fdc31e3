// RegionModel / RegionAccuracyModel: the paper's core data-engineering
// device (Section IV-A). The similarity value space [0,1] is partitioned
// into regions — either equal-width sub-intervals or 1-D k-means clusters —
// and each region carries an accuracy estimate: the fraction of training
// pairs falling in the region that are true links.

#ifndef WEBER_ML_REGION_MODEL_H_
#define WEBER_ML_REGION_MODEL_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace weber {
namespace ml {

/// One labeled training observation: a similarity value and whether the pair
/// is a true link ("link existence").
struct LabeledSimilarity {
  double value = 0.0;
  bool link = false;
};

/// InvalidArgument naming `fitter` when any training value is NaN or
/// infinite, OK otherwise. Fitters call it before sorting: a NaN makes a
/// `<` comparator inconsistent, which std::sort does not tolerate.
Status CheckFiniteTraining(const std::vector<LabeledSimilarity>& training,
                           const char* fitter);

/// How the value space is partitioned.
enum class RegionScheme : int {
  kEqualWidth = 0,  ///< [0,0.1), [0.1,0.2), ..., [0.9,1]
  kKMeans = 1,      ///< 1-D k-means cluster heads with midpoint boundaries
};

std::string RegionSchemeToString(RegionScheme scheme);

/// Partition of [0,1] into contiguous regions.
class RegionModel {
 public:
  /// `bins` equal-width sub-intervals of [0, 1].
  static RegionModel EqualWidth(int bins);

  /// Regions induced by 1-D k-means on training values: region r spans the
  /// midpoints around center r. Returns InvalidArgument on empty input or
  /// k < 1.
  static Result<RegionModel> KMeansRegions(const std::vector<double>& values,
                                           int k, Rng* rng);

  int num_regions() const { return static_cast<int>(centers_.size()); }

  /// Region index for a value (values are clamped into [0,1]).
  int RegionOf(double value) const;

  /// Representative value (center) of a region.
  double center(int region) const { return centers_[region]; }

  /// Upper boundaries of each region except the last (ascending). The
  /// figure-1 style "dotted lines".
  const std::vector<double>& boundaries() const { return boundaries_; }

 private:
  std::vector<double> centers_;     // ascending
  std::vector<double> boundaries_;  // size = centers_.size() - 1
};

/// RegionModel plus per-region accuracy estimates learned from a training
/// sample.
class RegionAccuracyModel {
 public:
  /// Fits per-region accuracies. Regions that receive no training samples
  /// fall back to the global link rate of the training set (the prior).
  /// Returns InvalidArgument when `training` is empty or holds a
  /// non-finite value.
  static Result<RegionAccuracyModel> Fit(
      RegionModel regions, const std::vector<LabeledSimilarity>& training);

  /// Convenience: equal-width regions fitted in one call.
  static Result<RegionAccuracyModel> FitEqualWidth(
      const std::vector<LabeledSimilarity>& training, int bins);

  /// Convenience: k-means regions derived from the training values and
  /// fitted in one call.
  static Result<RegionAccuracyModel> FitKMeans(
      const std::vector<LabeledSimilarity>& training, int k, Rng* rng);

  /// Estimated probability that a pair with this similarity value is a true
  /// link (the region's accuracy-of-link-existence).
  double LinkProbability(double value) const {
    return accuracy_[regions_.RegionOf(value)];
  }

  /// The paper's region decision rule: link iff the region's link rate is at
  /// least 0.5 ("if this value is lower than 0.5 then ... the majority pairs
  /// should not be considered as a link").
  bool Decide(double value) const { return LinkProbability(value) >= 0.5; }

  /// Accuracy of the *decision* made in this value's region: the majority
  /// rate max(p, 1-p). Used when ranking decision graphs.
  double DecisionAccuracy(double value) const {
    double p = LinkProbability(value);
    return p >= 0.5 ? p : 1.0 - p;
  }

  const RegionModel& regions() const { return regions_; }
  const std::vector<double>& region_accuracies() const { return accuracy_; }
  const std::vector<int>& region_sample_counts() const { return counts_; }
  double prior_link_rate() const { return prior_; }

 private:
  RegionModel regions_;
  std::vector<double> accuracy_;  // per region: fraction of links
  std::vector<int> counts_;       // per region: training sample count
  double prior_ = 0.0;
};

}  // namespace ml
}  // namespace weber

#endif  // WEBER_ML_REGION_MODEL_H_
