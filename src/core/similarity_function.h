// SimilarityFunction: the pairwise page-similarity abstraction of Section
// III. A similarity function maps two extracted page representations
// (FeatureBundles) to a value in [0, 1].

#ifndef WEBER_CORE_SIMILARITY_FUNCTION_H_
#define WEBER_CORE_SIMILARITY_FUNCTION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "extract/feature_bundle.h"
#include "graph/pair_matrix.h"

namespace weber {
namespace core {

/// Declares that a similarity function is one of the measures the compiled
/// hot path (compiled_path.h) scores in batches: a sparse-vector measure
/// over one vector field (text kernels over the block's frozen vectors), or
/// a string measure over one string field (per-block interned ids plus a
/// memoised Jaro-Winkler table). kNone means "no batch form; always call
/// Compute".
struct BatchSpec {
  enum class Measure : int {
    kNone = 0,
    kCosine = 1,
    kSaturatingOverlap = 2,
    kPearson = 3,
    kExtendedJaccard = 4,
    /// extract::UrlSimilarity over a URL field.
    kUrl = 5,
    /// 0 when either string is empty, else text::JaroWinklerSimilarity.
    kJaroWinkler = 6,
  };
  enum class Field : int {
    // Sparse-vector fields.
    kWeightedConcepts = 0,
    kConcepts = 1,
    kOrganizations = 2,
    kOtherPersons = 3,
    kTfidf = 4,
    // String fields.
    kUrl = 5,
    kMostFrequentName = 6,
    kClosestName = 7,
  };

  Measure measure = Measure::kNone;
  Field field = Field::kTfidf;
  /// kSaturatingOverlap only: the damping constant.
  double damping = 0.0;

  bool batchable() const { return measure != Measure::kNone; }
};

/// Interface for pairwise similarity functions. Implementations must be
/// symmetric (Compute(a,b) == Compute(b,a)), return values in [0,1], and be
/// stateless/thread-compatible. They need NOT be transitive — the framework
/// exists precisely because they are not (Section III).
class SimilarityFunction {
 public:
  virtual ~SimilarityFunction() = default;

  /// Short identifier, e.g. "F3".
  virtual std::string_view name() const = 0;

  /// Human-readable description: feature + measure, as in Table I.
  virtual std::string_view description() const = 0;

  /// The similarity of two pages, in [0, 1].
  virtual double Compute(const extract::FeatureBundle& a,
                         const extract::FeatureBundle& b) const = 0;

  /// Batch form of this function, if any. A non-kNone spec promises that
  /// Compute(a, b) is EXACTLY the declared measure applied to the declared
  /// field (the compiled path asserts bit-identical results in
  /// its equivalence tests). The default is "not batchable", which is
  /// always safe: the compiled path falls back to per-pair Compute.
  virtual BatchSpec batch_spec() const { return BatchSpec{}; }
};

/// Computes the complete weighted graph G_w^{f} of one block (Section IV-C):
/// the dense matrix of pairwise similarities under one function.
graph::SimilarityMatrix ComputeSimilarityMatrix(
    const SimilarityFunction& fn,
    const std::vector<extract::FeatureBundle>& bundles);

/// The ten standard functions of Table I, in order F1..F10.
std::vector<std::unique_ptr<SimilarityFunction>> MakeStandardFunctions();

/// A subset of the standard functions selected by name ("F1".."F10").
/// Returns NotFound for an unknown name.
Result<std::vector<std::unique_ptr<SimilarityFunction>>> MakeFunctions(
    const std::vector<std::string>& names);

/// The paper's Table II subsets.
extern const std::vector<std::string> kSubsetI4;   // {F4, F5, F7, F9}
extern const std::vector<std::string> kSubsetI7;   // {F3,F4,F5,F7,F8,F9,F10}
extern const std::vector<std::string> kSubsetI10;  // {F1..F10}

}  // namespace core
}  // namespace weber

#endif  // WEBER_CORE_SIMILARITY_FUNCTION_H_
