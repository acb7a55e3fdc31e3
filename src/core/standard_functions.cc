// The ten similarity functions of Table I.

#include <algorithm>

#include "core/composed_functions.h"
#include "core/similarity_function.h"
#include "extract/url.h"
#include "text/string_similarity.h"
#include "text/vector_similarity.h"

namespace weber {
namespace core {

namespace {

using extract::FeatureBundle;

/// F1: cosine similarity of the weighted concept vectors.
class F1WeightedConceptCosine final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F1"; }
  std::string_view description() const override {
    return "Weighted concept vector / cosine similarity";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    return text::CosineSimilarity(a.weighted_concepts, b.weighted_concepts);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kCosine, BatchSpec::Field::kWeightedConcepts,
            0.0};
  }
};

/// F2: string similarity of the page URLs (domain-aware).
class F2UrlSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F2"; }
  std::string_view description() const override {
    return "URL of the page / string similarity";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    return extract::UrlSimilarity(a.url, b.url);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kUrl, BatchSpec::Field::kUrl, 0.0};
  }
};

/// F3: string similarity of the most frequent person name on each page.
class F3MostFrequentName final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F3"; }
  std::string_view description() const override {
    return "Most frequent name on the page / string similarity";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    if (a.most_frequent_name.empty() || b.most_frequent_name.empty()) {
      return 0.0;
    }
    return text::JaroWinklerSimilarity(a.most_frequent_name,
                                       b.most_frequent_name);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kJaroWinkler,
            BatchSpec::Field::kMostFrequentName, 0.0};
  }
};

/// F4: number of overlapping concepts (squashed into [0,1]).
class F4ConceptOverlap final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F4"; }
  std::string_view description() const override {
    return "Concepts vector / number of overlapping concepts";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    return text::SaturatingOverlap(a.concepts, b.concepts);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kSaturatingOverlap, BatchSpec::Field::kConcepts,
            2.0};
  }
};

/// F5: number of overlapping organization entities.
class F5OrganizationOverlap final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F5"; }
  std::string_view description() const override {
    return "Organization entities on the page / number of overlapping "
           "organizations";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    return text::SaturatingOverlap(a.organizations, b.organizations, 1.5);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kSaturatingOverlap,
            BatchSpec::Field::kOrganizations, 1.5};
  }
};

/// F6: number of overlapping other person names.
class F6PersonOverlap final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F6"; }
  std::string_view description() const override {
    return "Other person-names on the page / number of overlapping persons";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    return text::SaturatingOverlap(a.other_persons, b.other_persons, 1.5);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kSaturatingOverlap,
            BatchSpec::Field::kOtherPersons, 1.5};
  }
};

/// F7: string similarity of the name closest to the search keyword.
class F7ClosestName final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F7"; }
  std::string_view description() const override {
    return "The name closest to the search keyword / string similarity";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    if (a.closest_name.empty() || b.closest_name.empty()) return 0.0;
    return text::JaroWinklerSimilarity(a.closest_name, b.closest_name);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kJaroWinkler, BatchSpec::Field::kClosestName,
            0.0};
  }
};

/// F8: cosine similarity of the TF-IDF word vectors.
class F8TfIdfCosine final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F8"; }
  std::string_view description() const override {
    return "TF-IDF words vector / cosine similarity";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    return text::CosineSimilarity(a.tfidf, b.tfidf);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kCosine, BatchSpec::Field::kTfidf, 0.0};
  }
};

/// F9: Pearson correlation of the TF-IDF word vectors.
class F9TfIdfPearson final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F9"; }
  std::string_view description() const override {
    return "TF-IDF words vector / Pearson correlation similarity";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    // A stale (too small) dimension is clamped to the union size inside
    // PearsonSimilarity, where the correction is counted — the resolver
    // surfaces that count as RunHealth::dimension_corrections.
    const int dim = std::max(a.tfidf_dimension, b.tfidf_dimension);
    return text::PearsonSimilarity(a.tfidf, b.tfidf, dim);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kPearson, BatchSpec::Field::kTfidf, 0.0};
  }
};

/// F10: extended Jaccard similarity of the TF-IDF word vectors.
class F10TfIdfExtendedJaccard final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "F10"; }
  std::string_view description() const override {
    return "TF-IDF words vector / extended Jaccard similarity";
  }
  double Compute(const FeatureBundle& a, const FeatureBundle& b) const override {
    return text::ExtendedJaccardSimilarity(a.tfidf, b.tfidf);
  }
  BatchSpec batch_spec() const override {
    return {BatchSpec::Measure::kExtendedJaccard, BatchSpec::Field::kTfidf,
            0.0};
  }
};

}  // namespace

graph::SimilarityMatrix ComputeSimilarityMatrix(
    const SimilarityFunction& fn,
    const std::vector<extract::FeatureBundle>& bundles) {
  const int n = static_cast<int>(bundles.size());
  graph::SimilarityMatrix m(n, 0.0, 1.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double v = fn.Compute(bundles[i], bundles[j]);
      m.Set(i, j, std::clamp(v, 0.0, 1.0));
    }
  }
  return m;
}

std::vector<std::unique_ptr<SimilarityFunction>> MakeStandardFunctions() {
  std::vector<std::unique_ptr<SimilarityFunction>> fns;
  fns.push_back(std::make_unique<F1WeightedConceptCosine>());
  fns.push_back(std::make_unique<F2UrlSimilarity>());
  fns.push_back(std::make_unique<F3MostFrequentName>());
  fns.push_back(std::make_unique<F4ConceptOverlap>());
  fns.push_back(std::make_unique<F5OrganizationOverlap>());
  fns.push_back(std::make_unique<F6PersonOverlap>());
  fns.push_back(std::make_unique<F7ClosestName>());
  fns.push_back(std::make_unique<F8TfIdfCosine>());
  fns.push_back(std::make_unique<F9TfIdfPearson>());
  fns.push_back(std::make_unique<F10TfIdfExtendedJaccard>());
  return fns;
}

Result<std::vector<std::unique_ptr<SimilarityFunction>>> MakeFunctions(
    const std::vector<std::string>& names) {
  // The catalog is the extended set (F1..F16); selecting only F1..F10
  // reproduces the paper's configuration.
  std::vector<std::unique_ptr<SimilarityFunction>> all =
      MakeExtendedFunctions();
  std::vector<std::unique_ptr<SimilarityFunction>> selected;
  for (const std::string& name : names) {
    bool found = false;
    for (auto& fn : all) {
      if (fn && fn->name() == name) {
        selected.push_back(std::move(fn));
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound("unknown similarity function: ", name);
    }
  }
  return selected;
}

const std::vector<std::string> kSubsetI4 = {"F4", "F5", "F7", "F9"};
const std::vector<std::string> kSubsetI7 = {"F3", "F4", "F5", "F7",
                                            "F8", "F9", "F10"};
const std::vector<std::string> kSubsetI10 = {"F1", "F2", "F3", "F4", "F5",
                                             "F6", "F7", "F8", "F9", "F10"};

}  // namespace core
}  // namespace weber
