#include "core/decision.h"

#include <algorithm>

namespace weber {
namespace core {

Status ThresholdCriterion::Fit(
    const std::vector<ml::LabeledSimilarity>& training, Rng* /*rng*/) {
  WEBER_ASSIGN_OR_RETURN(fit_, ml::FitOptimalThreshold(training));
  // Calibrate the two-sided link rates.
  int above = 0, above_links = 0, below = 0, below_links = 0;
  for (const ml::LabeledSimilarity& s : training) {
    if (s.value >= fit_.threshold) {
      ++above;
      above_links += s.link ? 1 : 0;
    } else {
      ++below;
      below_links += s.link ? 1 : 0;
    }
  }
  link_rate_above_ = above > 0 ? static_cast<double>(above_links) / above : 1.0;
  link_rate_below_ = below > 0 ? static_cast<double>(below_links) / below : 0.0;
  fitted_ = true;
  return Status::OK();
}

bool ThresholdCriterion::Compile(CompiledDecision* out) const {
  if (!fitted_) return false;
  out->boundaries = {fit_.threshold};
  out->probs = {link_rate_below_, link_rate_above_};
  out->clamp_input = false;
  // Decide is `value >= threshold` (NaN compares below), independent of the
  // link rates — the upper rate may itself sit below 0.5.
  out->nan_in_top_region = false;
  out->decide_region = 1;
  return true;
}

std::unique_ptr<RegionCriterion> RegionCriterion::EqualWidth(int bins) {
  return std::unique_ptr<RegionCriterion>(
      new RegionCriterion(ml::RegionScheme::kEqualWidth, bins,
                          "regions-eq" + std::to_string(bins)));
}

std::unique_ptr<RegionCriterion> RegionCriterion::KMeans(int k) {
  return std::unique_ptr<RegionCriterion>(
      new RegionCriterion(ml::RegionScheme::kKMeans, k,
                          "regions-km" + std::to_string(k)));
}

Status RegionCriterion::Fit(const std::vector<ml::LabeledSimilarity>& training,
                            Rng* rng) {
  Result<ml::RegionAccuracyModel> fitted =
      scheme_ == ml::RegionScheme::kEqualWidth
          ? ml::RegionAccuracyModel::FitEqualWidth(training, param_)
          : ml::RegionAccuracyModel::FitKMeans(training, param_, rng);
  if (!fitted.ok()) return fitted.status();
  model_ = std::make_unique<ml::RegionAccuracyModel>(std::move(*fitted));
  int correct = 0;
  for (const ml::LabeledSimilarity& s : training) {
    if (model_->Decide(s.value) == s.link) ++correct;
  }
  train_accuracy_ = training.empty()
                        ? 0.0
                        : static_cast<double>(correct) / training.size();
  return Status::OK();
}

bool RegionCriterion::Compile(CompiledDecision* out) const {
  if (model_ == nullptr) return false;
  out->boundaries = model_->regions().boundaries();
  out->probs = model_->region_accuracies();
  // RegionModel::RegionOf clamps into [0, 1] and then upper_bounds the
  // boundaries (NaN survives the clamp and lands in the top region).
  out->clamp_input = true;
  out->nan_in_top_region = true;
  out->decide_region = -1;
  return true;
}

Status IsotonicCriterion::Fit(
    const std::vector<ml::LabeledSimilarity>& training, Rng* /*rng*/) {
  WEBER_ASSIGN_OR_RETURN(ml::IsotonicModel fitted,
                         ml::IsotonicModel::Fit(training));
  model_ = std::make_unique<ml::IsotonicModel>(std::move(fitted));
  int correct = 0;
  for (const ml::LabeledSimilarity& s : training) {
    if (Decide(s.value) == s.link) ++correct;
  }
  train_accuracy_ = training.empty()
                        ? 0.0
                        : static_cast<double>(correct) / training.size();
  return Status::OK();
}

bool IsotonicCriterion::Compile(CompiledDecision* out) const {
  if (model_ == nullptr) return false;
  // IsotonicModel::LinkProbability upper_bounds the knots and takes the
  // preceding level (values below the first knot get the first level), so
  // the compiled regions are delimited by knots[1:]: region 0 covers both
  // "below knots[0]" and segment 0, which share levels[0].
  const std::vector<double>& knots = model_->knots();
  out->boundaries.assign(knots.begin() + (knots.empty() ? 0 : 1), knots.end());
  out->probs = model_->levels();
  out->clamp_input = false;
  out->nan_in_top_region = true;
  out->decide_region = -1;
  return true;
}

void EvalCriterion(const DecisionCriterion& criterion,
                   const graph::SimilarityMatrix& sims, char* decisions,
                   double* link_probs) {
  const std::vector<double>& values = sims.data();
  CompiledDecision table;
  if (criterion.Compile(&table)) {
    table.EvalBlock(values.data(), values.size(), decisions, link_probs);
    return;
  }
  for (size_t k = 0; k < values.size(); ++k) {
    if (decisions != nullptr) {
      decisions[k] = criterion.Decide(values[k]) ? 1 : 0;
    }
    if (link_probs != nullptr) {
      link_probs[k] = criterion.LinkProbability(values[k]);
    }
  }
}

std::vector<std::unique_ptr<DecisionCriterion>> MakeStandardCriteria(
    int equal_width_bins, int kmeans_k) {
  std::vector<std::unique_ptr<DecisionCriterion>> criteria;
  criteria.push_back(std::make_unique<ThresholdCriterion>());
  criteria.push_back(RegionCriterion::EqualWidth(equal_width_bins));
  criteria.push_back(RegionCriterion::KMeans(kmeans_k));
  return criteria;
}

std::vector<std::unique_ptr<DecisionCriterion>> MakeThresholdOnlyCriteria() {
  std::vector<std::unique_ptr<DecisionCriterion>> criteria;
  criteria.push_back(std::make_unique<ThresholdCriterion>());
  return criteria;
}

std::vector<CriterionFactory> MakeStandardCriterionFactories(
    int equal_width_bins, int kmeans_k) {
  return {
      [] { return std::unique_ptr<DecisionCriterion>(
               std::make_unique<ThresholdCriterion>()); },
      [equal_width_bins] {
        return std::unique_ptr<DecisionCriterion>(
            RegionCriterion::EqualWidth(equal_width_bins));
      },
      [kmeans_k] {
        return std::unique_ptr<DecisionCriterion>(
            RegionCriterion::KMeans(kmeans_k));
      },
  };
}

std::vector<CriterionFactory> MakeThresholdOnlyCriterionFactories() {
  return {[] {
    return std::unique_ptr<DecisionCriterion>(
        std::make_unique<ThresholdCriterion>());
  }};
}

Result<double> CrossValidatedAccuracy(
    const CriterionFactory& factory,
    const std::vector<ml::LabeledSimilarity>& training, int folds,
    Rng* rng) {
  if (training.empty()) {
    return Status::InvalidArgument("CrossValidatedAccuracy: empty sample");
  }
  folds = std::max(2, folds);
  if (static_cast<int>(training.size()) < 2 * folds) {
    // Too small to hold anything out; fall back to in-sample accuracy.
    auto criterion = factory();
    WEBER_RETURN_NOT_OK(criterion->Fit(training, rng));
    return criterion->train_accuracy();
  }
  std::vector<int> order(training.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng->Shuffle(&order);

  int correct = 0, total = 0;
  for (int f = 0; f < folds; ++f) {
    std::vector<ml::LabeledSimilarity> fit_part, held_out;
    for (size_t i = 0; i < order.size(); ++i) {
      if (static_cast<int>(i) % folds == f) {
        held_out.push_back(training[order[i]]);
      } else {
        fit_part.push_back(training[order[i]]);
      }
    }
    if (fit_part.empty() || held_out.empty()) continue;
    auto criterion = factory();
    WEBER_RETURN_NOT_OK(criterion->Fit(fit_part, rng));
    for (const ml::LabeledSimilarity& s : held_out) {
      if (criterion->Decide(s.value) == s.link) ++correct;
      ++total;
    }
  }
  if (total == 0) {
    auto criterion = factory();
    WEBER_RETURN_NOT_OK(criterion->Fit(training, rng));
    return criterion->train_accuracy();
  }
  return static_cast<double>(correct) / total;
}

}  // namespace core
}  // namespace weber
