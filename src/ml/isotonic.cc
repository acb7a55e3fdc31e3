#include "ml/isotonic.h"

#include <algorithm>

namespace weber {
namespace ml {

Result<IsotonicModel> IsotonicModel::Fit(
    const std::vector<LabeledSimilarity>& training) {
  if (training.empty()) {
    return Status::InvalidArgument("IsotonicModel: empty training set");
  }
  WEBER_RETURN_NOT_OK(CheckFiniteTraining(training, "IsotonicModel"));
  std::vector<LabeledSimilarity> sorted = training;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const LabeledSimilarity& a, const LabeledSimilarity& b) {
                     return a.value < b.value;
                   });

  // Pool-adjacent-violators over blocks of (sum, count, start_value).
  struct Block {
    double sum;
    int count;
    double start;
    double mean() const { return sum / count; }
  };
  std::vector<Block> blocks;
  blocks.reserve(sorted.size());
  for (const LabeledSimilarity& s : sorted) {
    blocks.push_back({s.link ? 1.0 : 0.0, 1, s.value});
    // Merge while the monotonicity constraint is violated.
    while (blocks.size() >= 2 &&
           blocks[blocks.size() - 2].mean() >= blocks.back().mean()) {
      Block last = blocks.back();
      blocks.pop_back();
      blocks.back().sum += last.sum;
      blocks.back().count += last.count;
    }
  }

  IsotonicModel model;
  model.knots_.reserve(blocks.size());
  model.levels_.reserve(blocks.size());
  for (const Block& b : blocks) {
    model.knots_.push_back(b.start);
    model.levels_.push_back(b.mean());
  }
  return model;
}

double IsotonicModel::LinkProbability(double value) const {
  // Greatest knot <= value.
  auto it = std::upper_bound(knots_.begin(), knots_.end(), value);
  if (it == knots_.begin()) return levels_.front();
  return levels_[static_cast<size_t>(it - knots_.begin()) - 1];
}

}  // namespace ml
}  // namespace weber
