// One-dimensional k-means, used to derive value-space regions from training
// similarity values (Section IV-A, method 2).

#ifndef WEBER_ML_KMEANS1D_H_
#define WEBER_ML_KMEANS1D_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace weber {
namespace ml {

struct KMeans1DOptions {
  int max_iterations = 100;
  /// Convergence: stop when no center moves by more than this.
  double tolerance = 1e-9;
  /// Number of k-means++ restarts; best inertia wins.
  int restarts = 4;
};

struct KMeans1DResult {
  /// Cluster centers in ascending order. May hold fewer than the requested
  /// k when the data has fewer distinct values.
  std::vector<double> centers;
  /// Sum of squared distances to the assigned centers.
  double inertia = 0.0;
  int iterations = 0;
};

/// Runs Lloyd's algorithm with k-means++ seeding on scalar data.
/// Returns InvalidArgument when k < 1, `values` is empty or holds a
/// non-finite value.
Result<KMeans1DResult> KMeans1D(const std::vector<double>& values, int k,
                                Rng* rng, const KMeans1DOptions& options = {});

/// Index of the center nearest to `value` (centers must be non-empty and
/// ascending; ties break toward the lower index).
int NearestCenter(const std::vector<double>& centers, double value);

}  // namespace ml
}  // namespace weber

#endif  // WEBER_ML_KMEANS1D_H_
