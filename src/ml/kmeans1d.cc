#include "ml/kmeans1d.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace weber {
namespace ml {

namespace {

// k-means++ seeding. d2[i] is a running minimum of the squared distance from
// values[i] to the chosen centers, updated against the newest center only:
// each round costs O(n) instead of O(n * centers). std::min is exact, so
// every d2[i] and the running total match a full rescan bit for bit.
// Seeding stops without a draw once every distinct value is a center
// (total == 0), so k needs no cap at the number of distinct values.
std::vector<double> KMeansPlusPlusSeed(const std::vector<double>& values,
                                       int k, Rng* rng) {
  std::vector<double> centers;
  centers.reserve(std::min<size_t>(k, values.size()));
  centers.push_back(values[rng->UniformUint64(values.size())]);
  std::vector<double> d2(values.size(),
                         std::numeric_limits<double>::infinity());
  while (static_cast<int>(centers.size()) < k) {
    const double c = centers.back();
    double total = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      d2[i] = std::min(d2[i], (values[i] - c) * (values[i] - c));
      total += d2[i];
    }
    if (total <= 0.0) break;  // all points coincide with some center
    int pick = rng->Categorical(d2);
    if (pick < 0) break;
    centers.push_back(values[pick]);
  }
  return centers;
}

// Writes NearestCenter(centers, sorted[j]) to label[j] for every j.
// NearestCenter is non-decreasing in the value over strictly ascending
// centers, so each center owns one contiguous run of `sorted`; the run
// ends are found by binary search with NearestCenter itself, which keeps
// its lower-index tie rule. Also returns each center's run length.
void LabelSortedRuns(const std::vector<double>& sorted,
                     const std::vector<double>& centers,
                     std::vector<int>* label, std::vector<int>* count) {
  const int k = static_cast<int>(centers.size());
  count->resize(k);
  auto begin = sorted.begin();
  for (int c = 0; c < k; ++c) {
    auto end = c + 1 == k ? sorted.end()
                          : std::partition_point(
                                begin, sorted.end(), [&](double v) {
                                  return NearestCenter(centers, v) <= c;
                                });
    std::fill(label->begin() + (begin - sorted.begin()),
              label->begin() + (end - sorted.begin()), c);
    (*count)[c] = static_cast<int>(end - begin);
    begin = end;
  }
}

}  // namespace

int NearestCenter(const std::vector<double>& centers, double value) {
  // Binary search over ascending centers, then compare the two candidates.
  auto it = std::lower_bound(centers.begin(), centers.end(), value);
  if (it == centers.begin()) return 0;
  if (it == centers.end()) return static_cast<int>(centers.size()) - 1;
  int hi = static_cast<int>(it - centers.begin());
  int lo = hi - 1;
  return (value - centers[lo]) <= (centers[hi] - value) ? lo : hi;
}

Result<KMeans1DResult> KMeans1D(const std::vector<double>& values, int k,
                                Rng* rng, const KMeans1DOptions& options) {
  if (k < 1) return Status::InvalidArgument("KMeans1D: k must be >= 1, got ", k);
  if (values.empty()) return Status::InvalidArgument("KMeans1D: empty input");
  for (double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("KMeans1D: non-finite input value ", v);
    }
  }

  // One argsort shared by every restart: sorted[rank[i]] == values[i].
  const size_t n = values.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return values[a] < values[b]; });
  std::vector<double> sorted(n);
  std::vector<int> rank(n);
  for (size_t j = 0; j < n; ++j) {
    sorted[j] = values[order[j]];
    rank[order[j]] = static_cast<int>(j);
  }
  // The nonzero values with their ranks, in input order. A sum that starts
  // at +0.0 never becomes -0.0 under round-to-nearest, and adding a zero
  // to any other double returns it unchanged, so the Lloyd sums skip the
  // zeros (most training values of the sparse overlap functions) without
  // changing a bit.
  std::vector<int> nonzero_rank;
  std::vector<double> nonzero_value;
  for (size_t i = 0; i < n; ++i) {
    if (values[i] == 0.0) continue;
    nonzero_rank.push_back(rank[i]);
    nonzero_value.push_back(values[i]);
  }

  KMeans1DResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  std::vector<int> label(n);
  std::vector<int> count;
  std::vector<double> sum;

  for (int restart = 0; restart < std::max(1, options.restarts); ++restart) {
    std::vector<double> centers = KMeansPlusPlusSeed(values, k, rng);
    std::sort(centers.begin(), centers.end());
    centers.erase(std::unique(centers.begin(), centers.end()), centers.end());

    int iter = 0;
    for (; iter < options.max_iterations; ++iter) {
      // Assignment + update: per-center sums added in input order, so each
      // sum carries the same roundings as a plain pass over `values`.
      LabelSortedRuns(sorted, centers, &label, &count);
      sum.assign(centers.size(), 0.0);
      for (size_t i = 0; i < nonzero_rank.size(); ++i) {
        sum[label[nonzero_rank[i]]] += nonzero_value[i];
      }
      double max_shift = 0.0;
      std::vector<double> updated;
      updated.reserve(centers.size());
      for (size_t c = 0; c < centers.size(); ++c) {
        if (count[c] == 0) continue;  // drop empty cluster
        double nc = sum[c] / count[c];
        max_shift = std::max(max_shift, std::fabs(nc - centers[c]));
        updated.push_back(nc);
      }
      std::sort(updated.begin(), updated.end());
      updated.erase(std::unique(updated.begin(), updated.end()), updated.end());
      centers = std::move(updated);
      if (max_shift <= options.tolerance) break;
    }

    LabelSortedRuns(sorted, centers, &label, &count);
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double c = centers[label[rank[i]]];
      inertia += (values[i] - c) * (values[i] - c);
    }
    if (inertia < best.inertia) {
      best.centers = centers;
      best.inertia = inertia;
      best.iterations = iter;
    }
  }
  return best;
}

}  // namespace ml
}  // namespace weber
