#include "ml/threshold.h"

#include <algorithm>
#include <cmath>

namespace weber {
namespace ml {

double ThresholdAccuracy(const std::vector<LabeledSimilarity>& sample,
                         double threshold) {
  if (sample.empty()) return 0.0;
  int correct = 0;
  for (const LabeledSimilarity& s : sample) {
    bool decision = s.value >= threshold;
    if (decision == s.link) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(sample.size());
}

Result<ThresholdFit> FitOptimalThreshold(
    const std::vector<LabeledSimilarity>& training) {
  if (training.empty()) {
    return Status::InvalidArgument("FitOptimalThreshold: empty training set");
  }
  WEBER_RETURN_NOT_OK(CheckFiniteTraining(training, "FitOptimalThreshold"));
  std::vector<LabeledSimilarity> sorted = training;
  std::sort(sorted.begin(), sorted.end(),
            [](const LabeledSimilarity& a, const LabeledSimilarity& b) {
              return a.value < b.value;
            });
  const int n = static_cast<int>(sorted.size());
  int total_links = 0;
  for (const LabeledSimilarity& s : sorted) total_links += s.link ? 1 : 0;

  // Sweep the cut from below the minimum upward. With the cut before index
  // i (i.e. the first i samples are decided "no link"):
  //   correct(i) = (non-links among first i) + (links among the rest).
  // Candidate thresholds are midpoints between adjacent distinct values;
  // cut at i=0 corresponds to threshold 0 (everything linked).
  ThresholdFit best;
  best.threshold = 0.0;
  int links_below = 0;   // links among the first i samples
  int correct0 = total_links;  // i = 0: all decided "link"
  best.train_accuracy = static_cast<double>(correct0) / n;

  for (int i = 1; i <= n; ++i) {
    links_below += sorted[i - 1].link ? 1 : 0;
    const int nonlinks_below = i - links_below;
    const int links_above = total_links - links_below;
    const int correct = nonlinks_below + links_above;
    // The threshold realizing this cut must be > value[i-1] and
    // <= value[i]. Skip cuts that fall between equal values.
    double cut;
    if (i == n) {
      cut = std::nextafter(sorted[n - 1].value, 2.0);
      if (cut > 1.0) cut = 1.0 + 1e-12;
    } else {
      if (sorted[i].value <= sorted[i - 1].value) continue;
      cut = (sorted[i - 1].value + sorted[i].value) / 2.0;
    }
    double acc = static_cast<double>(correct) / n;
    if (acc > best.train_accuracy + 1e-12) {
      best.train_accuracy = acc;
      best.threshold = cut;
    }
  }
  return best;
}

}  // namespace ml
}  // namespace weber
