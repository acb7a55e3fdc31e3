#include "ml/region_model.h"

#include <algorithm>
#include <cmath>

#include "ml/kmeans1d.h"

namespace weber {
namespace ml {

std::string RegionSchemeToString(RegionScheme scheme) {
  switch (scheme) {
    case RegionScheme::kEqualWidth:
      return "equal-width";
    case RegionScheme::kKMeans:
      return "k-means";
  }
  return "unknown";
}

RegionModel RegionModel::EqualWidth(int bins) {
  bins = std::max(1, bins);
  RegionModel m;
  m.centers_.reserve(bins);
  m.boundaries_.reserve(bins - 1);
  const double width = 1.0 / bins;
  for (int b = 0; b < bins; ++b) {
    m.centers_.push_back((b + 0.5) * width);
    if (b + 1 < bins) m.boundaries_.push_back((b + 1) * width);
  }
  return m;
}

Result<RegionModel> RegionModel::KMeansRegions(
    const std::vector<double>& values, int k, Rng* rng) {
  WEBER_ASSIGN_OR_RETURN(KMeans1DResult result, KMeans1D(values, k, rng));
  RegionModel m;
  m.centers_ = std::move(result.centers);
  for (size_t i = 0; i + 1 < m.centers_.size(); ++i) {
    m.boundaries_.push_back((m.centers_[i] + m.centers_[i + 1]) / 2.0);
  }
  return m;
}

int RegionModel::RegionOf(double value) const {
  value = std::clamp(value, 0.0, 1.0);
  // First boundary strictly greater than value gives the region index.
  auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), value);
  return static_cast<int>(it - boundaries_.begin());
}

Status CheckFiniteTraining(const std::vector<LabeledSimilarity>& training,
                           const char* fitter) {
  for (const LabeledSimilarity& s : training) {
    if (!std::isfinite(s.value)) {
      return Status::InvalidArgument(fitter, ": non-finite training value ",
                                     s.value);
    }
  }
  return Status::OK();
}

Result<RegionAccuracyModel> RegionAccuracyModel::Fit(
    RegionModel regions, const std::vector<LabeledSimilarity>& training) {
  if (training.empty()) {
    return Status::InvalidArgument("RegionAccuracyModel: empty training set");
  }
  WEBER_RETURN_NOT_OK(CheckFiniteTraining(training, "RegionAccuracyModel"));
  RegionAccuracyModel model;
  model.regions_ = std::move(regions);
  const int r = model.regions_.num_regions();
  model.counts_.assign(r, 0);
  std::vector<int> links(r, 0);
  int total_links = 0;
  for (const LabeledSimilarity& s : training) {
    int region = model.regions_.RegionOf(s.value);
    model.counts_[region] += 1;
    if (s.link) {
      links[region] += 1;
      ++total_links;
    }
  }
  model.prior_ =
      static_cast<double>(total_links) / static_cast<double>(training.size());
  model.accuracy_.assign(r, model.prior_);
  for (int i = 0; i < r; ++i) {
    if (model.counts_[i] > 0) {
      model.accuracy_[i] =
          static_cast<double>(links[i]) / static_cast<double>(model.counts_[i]);
    }
  }
  return model;
}

Result<RegionAccuracyModel> RegionAccuracyModel::FitEqualWidth(
    const std::vector<LabeledSimilarity>& training, int bins) {
  return Fit(RegionModel::EqualWidth(bins), training);
}

Result<RegionAccuracyModel> RegionAccuracyModel::FitKMeans(
    const std::vector<LabeledSimilarity>& training, int k, Rng* rng) {
  std::vector<double> values;
  values.reserve(training.size());
  for (const LabeledSimilarity& s : training) values.push_back(s.value);
  WEBER_ASSIGN_OR_RETURN(RegionModel regions,
                         RegionModel::KMeansRegions(values, k, rng));
  return Fit(std::move(regions), training);
}

}  // namespace ml
}  // namespace weber
