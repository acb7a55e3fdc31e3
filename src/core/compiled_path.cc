#include "core/compiled_path.h"

#include <cassert>
#include <string>
#include <unordered_map>

#include "text/string_similarity.h"

namespace weber {
namespace core {

namespace {

using InternIndex = std::unordered_map<std::string_view, int>;

/// Each distinct non-empty string gets the next id in first-seen order; the
/// empty string gets -1. The viewed string must outlive the index.
int Intern(std::string_view value, InternIndex* index) {
  if (value.empty()) return -1;
  return index->try_emplace(value, static_cast<int>(index->size()))
      .first->second;
}

std::vector<std::string_view> ValuesById(const InternIndex& index) {
  std::vector<std::string_view> values(index.size());
  for (const auto& [value, id] : index) values[id] = value;
  return values;
}

bool IsStringField(BatchSpec::Field field) {
  return static_cast<int>(field) >= static_cast<int>(BatchSpec::Field::kUrl);
}

}  // namespace

void CompiledDecision::EvalBlock(const double* values, size_t count,
                                 char* decisions, double* link_probs) const {
  for (size_t k = 0; k < count; ++k) {
    const int r = RegionOf(values[k]);
    if (decisions != nullptr) {
      decisions[k] =
          (decide_region >= 0 ? r >= decide_region : probs[r] >= 0.5) ? 1 : 0;
    }
    if (link_probs != nullptr) link_probs[k] = probs[r];
  }
}

CompiledCombineWeights BakeCombineWeights(
    const std::vector<double>& train_accuracies) {
  CompiledCombineWeights baked;
  baked.weights.reserve(train_accuracies.size());
  double best_score = 0.0;
  for (double acc : train_accuracies) best_score = std::max(best_score, acc);
  double total_weight = 0.0;
  for (double acc : train_accuracies) {
    const double rel = best_score > 0.0 ? acc / best_score : 1.0;
    const double w = rel * rel * rel * rel + 0.01;
    total_weight += w;
    baked.weights.push_back(w);
  }
  baked.inv_total = total_weight > 0.0 ? 1.0 / total_weight : 0.0;
  return baked;
}

void FusedWeightedAverage(const std::vector<const double*>& source_probs,
                          const CompiledCombineWeights& baked,
                          size_t num_pairs, double* out) {
  assert(source_probs.size() == baked.weights.size());
  const size_t num_sources = source_probs.size();
  for (size_t k = 0; k < num_pairs; ++k) {
    // Accumulate in source order, then normalize: the same per-pair
    // addition sequence as the interpreted source-major double loop.
    double acc = 0.0;
    for (size_t s = 0; s < num_sources; ++s) {
      acc += baked.weights[s] * source_probs[s][k];
    }
    out[k] = acc * baked.inv_total;
  }
}

BlockScorer::BlockScorer(const std::vector<extract::FeatureBundle>* bundles)
    : bundles_(bundles) {
  assert(bundles != nullptr);
}

BlockScorer::Field& BlockScorer::GetField(BatchSpec::Field field) {
  Field& f = fields_[static_cast<int>(field)];
  if (f.ready) return f;
  std::vector<const text::SparseVector*> vectors;
  vectors.reserve(bundles_->size());
  for (const extract::FeatureBundle& b : *bundles_) {
    switch (field) {
      case BatchSpec::Field::kWeightedConcepts:
        vectors.push_back(&b.weighted_concepts);
        break;
      case BatchSpec::Field::kConcepts:
        vectors.push_back(&b.concepts);
        break;
      case BatchSpec::Field::kOrganizations:
        vectors.push_back(&b.organizations);
        break;
      case BatchSpec::Field::kOtherPersons:
        vectors.push_back(&b.other_persons);
        break;
      case BatchSpec::Field::kTfidf:
        vectors.push_back(&b.tfidf);
        break;
      default:
        assert(false && "string fields are interned, not frozen");
        break;
    }
  }
  f.frozen = text::FrozenVectors::Freeze(vectors);
  f.scorer = std::make_unique<text::BatchScorer>(&f.frozen);
  f.ready = true;
  return f;
}

void BlockScorer::JaroWinklerMemo::Reset(
    std::vector<std::string_view> distinct) {
  values = std::move(distinct);
  memo.assign(values.size(), {});
}

double BlockScorer::JaroWinklerMemo::Get(int a, int b) {
  std::vector<double>& row = memo[a];
  if (row.empty()) row.assign(values.size(), -1.0);
  double& jw = row[b];
  if (jw < 0.0) jw = text::JaroWinklerSimilarity(values[a], values[b]);
  return jw;
}

BlockScorer::NameField& BlockScorer::GetNames(BatchSpec::Field field) {
  const bool closest = field == BatchSpec::Field::kClosestName;
  NameField& f = names_[closest ? 1 : 0];
  if (f.ready) return f;
  InternIndex index;
  f.ids.reserve(bundles_->size());
  for (const extract::FeatureBundle& b : *bundles_) {
    f.ids.push_back(
        Intern(closest ? b.closest_name : b.most_frequent_name, &index));
  }
  f.jw.Reset(ValuesById(index));
  f.ready = true;
  return f;
}

void BlockScorer::PrepareUrls() {
  if (urls_ready_) return;
  url_keys_.reserve(bundles_->size());
  for (const extract::FeatureBundle& b : *bundles_) {
    url_keys_.push_back(extract::MakeUrlKey(b.url));
  }
  // url_keys_ is complete and never grows again, so views into its strings
  // stay valid for the scorer's lifetime.
  InternIndex hosts, paths, first_dirs, domains;
  urls_.reserve(url_keys_.size());
  for (const extract::UrlKey& key : url_keys_) {
    urls_.push_back({Intern(key.host, &hosts), Intern(key.path, &paths),
                     Intern(key.first_dir, &first_dirs),
                     Intern(key.registrable_domain, &domains)});
  }
  hosts_.Reset(ValuesById(hosts));
  urls_ready_ = true;
}

bool BlockScorer::CanBatch(const BatchSpec& spec) {
  switch (spec.measure) {
    case BatchSpec::Measure::kNone:
      return false;
    case BatchSpec::Measure::kUrl:
      return spec.field == BatchSpec::Field::kUrl;
    case BatchSpec::Measure::kJaroWinkler:
      return spec.field == BatchSpec::Field::kMostFrequentName ||
             spec.field == BatchSpec::Field::kClosestName;
    default:
      if (IsStringField(spec.field)) return false;
      if (spec.measure != BatchSpec::Measure::kPearson) return true;
      break;
  }

  if (pearson_state_ == 0) {
    // Pearson batches only when the interpreted per-pair ambient dimension
    // max(a.dim, b.dim, union(a, b)) is the same constant D for every pair:
    // all bundles must share one tfidf_dimension D >= 2 that strictly
    // bounds every term id (then union <= max_id + 1 <= D for all pairs).
    pearson_state_ = -1;
    if (!bundles_->empty()) {
      const int dim = bundles_->front().tfidf_dimension;
      bool uniform = dim >= 2;
      for (const extract::FeatureBundle& b : *bundles_) {
        if (b.tfidf_dimension != dim) {
          uniform = false;
          break;
        }
      }
      if (uniform) {
        Field& f = GetField(BatchSpec::Field::kTfidf);
        if (f.frozen.max_id() < dim) {
          pearson_state_ = 1;
          pearson_dim_ = dim;
          f.scorer->PreparePearson(dim);
        }
      }
    }
  }
  return pearson_state_ == 1;
}

void BlockScorer::ScoreStrip(const BatchSpec& spec, int anchor, int begin,
                             int end, double* out) {
  if (spec.measure == BatchSpec::Measure::kUrl) {
    PrepareUrls();
    const InternedUrl& a = urls_[anchor];
    for (int j = begin; j < end; ++j) {
      const InternedUrl& b = urls_[j];
      out[j - begin] = extract::UrlSimilarityLadder(
          a, b, [&] { return hosts_.Get(a.host, b.host); });
    }
    return;
  }
  if (spec.measure == BatchSpec::Measure::kJaroWinkler) {
    NameField& f = GetNames(spec.field);
    const int a = f.ids[anchor];
    for (int j = begin; j < end; ++j) {
      const int b = f.ids[j];
      // The per-pair functions score a pair with an empty name at 0.
      out[j - begin] = a < 0 || b < 0 ? 0.0 : f.jw.Get(a, b);
    }
    return;
  }
  Field& f = GetField(spec.field);
  f.scorer->SetAnchor(anchor);
  switch (spec.measure) {
    case BatchSpec::Measure::kCosine:
      f.scorer->Cosine(begin, end, out);
      break;
    case BatchSpec::Measure::kSaturatingOverlap:
      f.scorer->SaturatingOverlap(spec.damping, begin, end, out);
      break;
    case BatchSpec::Measure::kPearson:
      assert(pearson_state_ == 1 && "CanBatch(spec) must be checked first");
      f.scorer->Pearson(begin, end, out);
      break;
    case BatchSpec::Measure::kExtendedJaccard:
      f.scorer->ExtendedJaccard(begin, end, out);
      break;
    default:
      assert(false && "ScoreStrip on a spec CanBatch refuses");
      break;
  }
}

graph::SimilarityMatrix BlockScorer::ScoreMatrix(const BatchSpec& spec) {
  const int n = size();
  graph::SimilarityMatrix m(n, 0.0, 1.0);
  auto& data = m.data();
  for (int i = 0; i + 1 < n; ++i) {
    // Row i of the upper triangle is contiguous: pairs (i, i+1) .. (i, n-1).
    double* row = data.data() + m.Index(i, i + 1);
    ScoreStrip(spec, i, i + 1, n, row);
    // Same final clamp as ComputeSimilarityMatrix applies per value.
    for (int j = i + 1; j < n; ++j) {
      row[j - i - 1] = std::clamp(row[j - i - 1], 0.0, 1.0);
    }
  }
  return m;
}

}  // namespace core
}  // namespace weber
