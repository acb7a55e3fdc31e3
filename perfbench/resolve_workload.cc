// resolve_www05 / resolve_large: the `weber resolve` loop (ResolveBlock per
// block in order with one Rng, then eval::Evaluate) over a generated
// corpus, repeated for the run's time budget. With --trace=1 one more pass
// records a span around every public call of each layer, and one
// in-process serving round gives the serve.* layer metrics.

#include <algorithm>
#include <optional>

#include "core/combiner.h"
#include "core/compiled_path.h"
#include "core/decision.h"
#include "core/guarded_function.h"
#include "core/resolver.h"
#include "eval/metrics.h"
#include "graph/components.h"
#include "ml/splitter.h"
#include "serve/resolution_service.h"
#include "workloads.h"

namespace perfbench {

using namespace weber;

namespace {

/// The in-process serving round's slice: www05-sized shards on both
/// resolve workloads.
constexpr int kServeSlicePages = 300;
constexpr size_t kServeShardPages = 100;

/// Set-ups timed before the first pass; every cycle times one more.
constexpr int kInitialSetUps = 3;

struct PassOutcome {
  double wall_ms = 0.0;
  double mean_fp = 0.0;
  std::vector<std::vector<int>> labels;  // per block
  long long degraded_blocks = 0;
};

/// One `weber resolve` pass. Timed from the first extraction to the last
/// Evaluate; file load is not part of it.
Result<PassOutcome> ResolvePass(const core::EntityResolver& resolver,
                                const corpus::Dataset& dataset,
                                uint64_t pass_seed, CpuRotor* rotor) {
  PassOutcome out;
  const double start = WallNowMs();
  Rng rng(pass_seed);
  double fp_sum = 0.0;
  rotor->Next();
  for (const corpus::Block& block : dataset.blocks) {
    WEBER_ASSIGN_OR_RETURN(core::BlockResolution resolution,
                           resolver.ResolveBlock(block, &rng));
    WEBER_ASSIGN_OR_RETURN(
        eval::MetricReport report,
        eval::Evaluate(block.GroundTruth(), resolution.clustering));
    fp_sum += report.fp_measure;
    out.labels.push_back(resolution.clustering.labels());
    out.degraded_blocks += resolution.health.degraded_blocks;
  }
  out.wall_ms = WallNowMs() - start;
  out.mean_fp = fp_sum / static_cast<double>(dataset.blocks.size());
  return out;
}

/// A labeled training pair, as the resolver's cross-validation sees it.
struct LabeledPair {
  int a;
  int b;
  bool link;
};

/// Mirrors the resolver's file-local cross-validated graph score
/// (CvGraphScore in core/resolver.cc) step for step, drawing the same
/// random numbers, with a span around each public call: criterion fit,
/// compiled evaluation of the block, transitive closure.
Result<double> ReplayCvGraphScore(const core::CriterionFactory& factory,
                                  const graph::SimilarityMatrix& sims,
                                  const std::vector<LabeledPair>& training,
                                  int folds, Rng* rng, Ledger* ledger) {
  if (training.empty()) return Status::InvalidArgument("empty training");
  folds = std::max(2, folds);
  const int n = sims.size();
  std::vector<int> order(training.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng->Shuffle(&order);
  const bool tiny = static_cast<int>(training.size()) < 2 * folds;
  long long tp = 0, fp = 0, fn = 0;
  const int fold_count = tiny ? 1 : folds;
  for (int f = 0; f < fold_count; ++f) {
    std::vector<ml::LabeledSimilarity> fit_part;
    std::vector<const LabeledPair*> held_out;
    for (size_t i = 0; i < order.size(); ++i) {
      const LabeledPair& p = training[order[i]];
      if (!tiny && static_cast<int>(i) % folds == f) {
        held_out.push_back(&p);
      } else {
        fit_part.push_back({sims.Get(p.a, p.b), p.link});
      }
    }
    if (tiny) {
      for (const LabeledPair& p : training) held_out.push_back(&p);
    }
    if (fit_part.empty() || held_out.empty()) continue;

    std::unique_ptr<core::DecisionCriterion> criterion = factory();
    {
      Span span(ledger, "core.decision.fit");
      WEBER_RETURN_NOT_OK(criterion->Fit(fit_part, rng));
    }
    graph::DecisionGraph decisions(n, 0, 1);
    {
      Span span(ledger, "core.decision.eval");
      const auto& values = sims.data();
      auto& dec = decisions.data();
      core::CompiledDecision table;
      if (criterion->Compile(&table)) {
        table.EvalBlock(values.data(), values.size(), dec.data(), nullptr);
      } else {
        for (size_t k = 0; k < values.size(); ++k) {
          dec[k] = criterion->Decide(values[k]) ? 1 : 0;
        }
      }
    }
    graph::Clustering closed;
    {
      Span span(ledger, "core.decision.closure");
      closed = graph::TransitiveClosure(decisions);
    }
    for (const LabeledPair* p : held_out) {
      const bool predicted = closed.SameCluster(p->a, p->b);
      if (predicted && p->link) ++tp;
      else if (predicted && !p->link) ++fp;
      else if (!predicted && p->link) ++fn;
    }
  }
  if (tp + fp + fn == 0) return 1.0;
  return 2.0 * tp / static_cast<double>(2 * tp + fp + fn);
}

/// Replays ResolveExtracted's stages on identical inputs (same bundles,
/// training pairs and Rng state) with the default ResolverOptions: one
/// similarity matrix per function through the call the resolver picks,
/// then decision, combine and cluster. Returns the final clustering so the
/// caller can check the replay reproduced the resolver's answer.
Result<graph::Clustering> ReplayBlock(
    const core::ResolverOptions& options,
    const std::vector<std::unique_ptr<core::SimilarityFunction>>& functions,
    const std::vector<extract::FeatureBundle>& bundles,
    const std::vector<int>& labels,
    const std::vector<std::pair<int, int>>& train_pairs, Rng rng,
    Ledger* ledger, long long* batched_functions) {
  const int n = static_cast<int>(bundles.size());

  std::vector<graph::SimilarityMatrix> matrices;
  {
    Span similarity(ledger, "core.similarity");
    core::BlockScorer scorer(&bundles);
    for (const auto& fn : functions) {
      Span span(ledger, "core.similarity." + std::string(fn->name()));
      const core::BatchSpec spec = fn->batch_spec();
      if (spec.batchable() && scorer.CanBatch(spec)) {
        matrices.push_back(scorer.ScoreMatrix(spec));
        ++*batched_functions;
      } else {
        core::GuardedSimilarityFunction guarded(fn.get(), options.guard);
        matrices.push_back(core::ComputeSimilarityMatrix(guarded, bundles));
      }
    }
  }

  std::vector<core::DecisionSource> sources;
  std::vector<core::TrainingPair> training_offsets;
  {
    Span decision(ledger, "core.decision.replay");
    for (const auto& [a, b] : train_pairs) {
      training_offsets.push_back(
          {a, b, matrices.front().Index(a, b), labels[a] == labels[b]});
    }
    std::vector<LabeledPair> labeled_pairs;
    for (const auto& [a, b] : train_pairs) {
      labeled_pairs.push_back({a, b, labels[a] == labels[b]});
    }
    for (size_t f = 0; f < functions.size(); ++f) {
      const graph::SimilarityMatrix& sims = matrices[f];
      std::vector<ml::LabeledSimilarity> training;
      for (const auto& [a, b] : train_pairs) {
        training.push_back({sims.Get(a, b), labels[a] == labels[b]});
      }
      for (const core::CriterionFactory& factory :
           core::MakeStandardCriterionFactories(options.equal_width_bins,
                                                options.kmeans_k)) {
        std::unique_ptr<core::DecisionCriterion> criterion = factory();
        ledger->Add("core.decision.criteria", 0.0, 0.0);
        Status fit;
        {
          Span span(ledger, "core.decision.fit");
          fit = criterion->Fit(training, &rng);
        }
        if (!fit.ok()) continue;
        Result<double> score = ReplayCvGraphScore(
            factory, sims, labeled_pairs, /*folds=*/3, &rng, ledger);
        if (!score.ok()) continue;
        core::DecisionSource source;
        source.function_name = std::string(functions[f]->name());
        source.criterion_name = criterion->name();
        source.train_accuracy = *score;
        source.decisions = graph::DecisionGraph(n, 0, 1);
        source.link_probs = graph::SimilarityMatrix(n, 0.0, 1.0);
        {
          Span span(ledger, "core.decision.eval");
          const auto& values = sims.data();
          auto& dec = source.decisions.data();
          auto& probs = source.link_probs.data();
          core::CompiledDecision table;
          if (criterion->Compile(&table)) {
            table.EvalBlock(values.data(), values.size(), dec.data(),
                            probs.data());
          } else {
            for (size_t k = 0; k < values.size(); ++k) {
              dec[k] = criterion->Decide(values[k]) ? 1 : 0;
              probs[k] = criterion->LinkProbability(values[k]);
            }
          }
        }
        sources.push_back(std::move(source));
      }
    }
  }
  if (sources.empty()) return Status::Internal("replay fitted no criterion");

  core::CombinedGraph combined;
  {
    Span span(ledger, "core.combine");
    WEBER_ASSIGN_OR_RETURN(
        combined, core::CombineDecisionGraphs(sources, training_offsets,
                                              options.combination));
  }
  Span span(ledger, "graph.cluster");
  return graph::TransitiveClosure(combined.decisions);
}

/// One in-process serving round for the serve.* per-layer metrics: a
/// ResolutionService over the corpus's leading blocks, each cut to its
/// first kServeShardPages pages, up to kServeSlicePages pages. Every page
/// is assigned once in `rng` order, then compact-all, a check of every
/// shard against the batch reference, then kQueries queries and kMatches
/// matches of three documents. Returns the service's own stats.
serve::ServiceStats ServingRound(const Corpus& corpus, Rng* rng,
                                 RunResult* result) {
  constexpr int kQueries = 450;
  constexpr int kMatches = 150;
  corpus::Dataset dataset;
  for (const corpus::Block& block : corpus.dataset.blocks) {
    if (dataset.TotalDocuments() >= kServeSlicePages) break;
    corpus::Block& part = dataset.blocks.emplace_back(block);
    const size_t keep =
        std::min<size_t>(kServeShardPages, part.documents.size());
    part.documents.resize(keep);
    part.entity_labels.resize(keep);
  }
  ++result->attempted;
  auto created = serve::ResolutionService::Create(
      dataset, corpus.gazetteer.get(), serve::ServiceOptions{});
  if (!created.ok()) {
    result->Fail("service create: " + created.status().ToString());
    return {};
  }
  serve::ResolutionService& service = **created;
  std::vector<std::pair<int, int>> work;
  for (size_t b = 0; b < dataset.blocks.size(); ++b) {
    for (int d = 0; d < dataset.blocks[b].num_documents(); ++d) {
      work.emplace_back(static_cast<int>(b), d);
    }
  }
  rng->Shuffle(&work);
  for (const auto& [b, d] : work) {
    ++result->attempted;
    auto r = service.Assign(dataset.blocks[b].query, d);
    if (!r.ok()) result->Fail("assign: " + r.status().ToString());
  }
  ++result->attempted;
  if (Status st = service.CompactAll(); !st.ok()) {
    result->Fail("compact: " + st.ToString());
  }
  auto reference = ReferencePartitions(dataset, corpus.gazetteer.get());
  if (!reference.ok()) {
    result->Fail("reference: " + reference.status().ToString());
  } else {
    for (size_t b = 0; b < dataset.blocks.size(); ++b) {
      ++result->attempted;
      auto dump = service.DumpPartition(dataset.blocks[b].query);
      if (!dump.ok() ||
          graph::Clustering::FromLabels(*dump) != (*reference)[b]) {
        result->Fail("in-process shard '" + dataset.blocks[b].query +
                     "' differs from the batch reference");
      }
    }
  }
  for (int i = 0; i < kQueries; ++i) {
    const auto& [b, d] = work[rng->UniformUint64(work.size())];
    ++result->attempted;
    auto r = service.Query(dataset.blocks[b].query, d);
    if (!r.ok()) result->Fail("query: " + r.status().ToString());
  }
  for (int i = 0; i < kMatches; ++i) {
    const corpus::Block& block =
        dataset.blocks[rng->UniformUint64(dataset.blocks.size())];
    const std::vector<int> docs = rng->SampleWithoutReplacement(
        block.num_documents(), std::min(3, block.num_documents()));
    ++result->attempted;
    auto r = service.Match(block.query, docs);
    if (!r.ok() || r->clusters.size() != docs.size()) {
      result->Fail("match on '" + block.query + "' failed");
    }
  }
  return service.Stats();
}

/// serve.* per-layer metrics from the service's own stats.
void SetServiceStatsMetrics(const serve::ServiceStats& stats,
                            RunResult* result) {
  MetricSet& m = result->metrics;
  const std::pair<const char*, const serve::EndpointLatency*> endpoints[] = {
      {"assign", &stats.assign},
      {"query", &stats.query},
      {"compact", &stats.compact},
      {"match", &stats.match}};
  for (const auto& [verb, latency] : endpoints) {
    m.Set(std::string("serve.") + verb + "_ms", latency->p50_ms, "ms");
    m.Set(std::string("serve.") + verb + "_ms.p99", latency->p99_ms, "ms");
  }
  m.Set("serve.cache.hit_rate", stats.cache.HitRate(), "ratio");
  m.Set("serve.cache.hits", static_cast<double>(stats.cache.hits), "count");
  m.Set("serve.cache.misses", static_cast<double>(stats.cache.misses),
        "count");
  m.Set("serve.cache.entries", static_cast<double>(stats.cache.entries),
        "count");
  m.Set("serve.compactions", static_cast<double>(stats.compactions), "count");
  m.Set("serve.snapshot_swaps", static_cast<double>(stats.snapshot_swaps),
        "count");
}

/// Times ResolutionService::Create on `corpus` (serve.create_ms).
void TimeServiceCreate(const Corpus& corpus, RunResult* result) {
  Ledger ledger;
  {
    Span span(&ledger, "serve.create");
    auto created = serve::ResolutionService::Create(
        corpus.dataset, corpus.gazetteer.get(), serve::ServiceOptions{});
    if (!created.ok()) result->Fail("service create failed");
  }
  const SpanTotal t = ledger.Get("serve.create");
  result->metrics.Set("serve.create_ms", t.wall_ms, "ms");
  result->metrics.Set("serve.create_cpu_ms", t.cpu_ms, "ms");
}

/// One pass with a span around every public call of each layer; the
/// partitions must equal `expected_labels` (an untraced pass of the same
/// seed) and each block's replay must reproduce the resolver's answer.
void TracedResolvePass(const Corpus& corpus, uint64_t pass_seed,
                       const std::vector<std::vector<int>>& expected_labels,
                       double untraced_pass_ms, CpuRotor* rotor,
                       RunResult* result) {
  const core::ResolverOptions options;
  auto resolver = core::EntityResolver::Create(corpus.gazetteer.get(), options);
  auto functions = core::MakeFunctions(options.function_names);
  if (!resolver.ok() || !functions.ok()) {
    result->Fail("traced pass: resolver setup failed");
    return;
  }
  const extract::FeatureExtractor extractor(corpus.gazetteer.get(),
                                            options.extractor);
  Ledger ledger;
  Rng rng(pass_seed);
  double traced_pass_ms = 0.0;
  long long pairs = 0;
  long long batched_functions = 0;
  const corpus::Dataset& dataset = corpus.dataset;
  rotor->Next();
  for (size_t b = 0; b < dataset.blocks.size(); ++b) {
    const corpus::Block& block = dataset.blocks[b];
    const double block_start = WallNowMs();
    std::vector<extract::PageInput> pages;
    for (const corpus::Document& d : block.documents) {
      pages.push_back({d.url, d.text});
    }
    Result<std::vector<extract::FeatureBundle>> bundles =
        Status::Internal("not extracted");
    {
      Span span(&ledger, "extract");
      bundles = extractor.ExtractBlock(pages, block.query);
    }
    ++result->attempted;
    if (!bundles.ok()) {
      result->Fail("extract: " + bundles.status().ToString());
      return;
    }
    const auto train_pairs = ml::SampleTrainingPairs(
        block.num_documents(), options.train_fraction, &rng,
        options.min_train_size);
    const Rng replay_rng = rng;
    Result<core::BlockResolution> resolution =
        Status::Internal("not resolved");
    {
      Span span(&ledger, "core.resolve_extracted");
      resolution = resolver->ResolveExtracted(*bundles, block.entity_labels,
                                              train_pairs, &rng);
    }
    if (!resolution.ok()) {
      result->Fail("resolve: " + resolution.status().ToString());
      return;
    }
    {
      Span span(&ledger, "eval");
      auto report =
          eval::Evaluate(block.GroundTruth(), resolution->clustering);
      if (!report.ok()) result->Fail("evaluate failed");
    }
    traced_pass_ms += WallNowMs() - block_start;
    if (b >= expected_labels.size() ||
        resolution->clustering.labels() != expected_labels[b]) {
      result->Fail("traced pass diverged on '" + block.query + "'");
    }

    const int n = block.num_documents();
    if (n < 2) continue;
    pairs += static_cast<long long>(n) * (n - 1) / 2 *
             static_cast<long long>(functions->size());
    auto replayed = ReplayBlock(options, *functions, *bundles,
                                block.entity_labels, train_pairs, replay_rng,
                                &ledger, &batched_functions);
    if (!replayed.ok() || !(*replayed == resolution->clustering)) {
      result->Fail("layer replay diverged on '" + block.query + "'");
    }
  }

  MetricSet& m = result->metrics;
  const SpanTotal extract = ledger.Get("extract");
  const SpanTotal resolve = ledger.Get("core.resolve_extracted");
  const SpanTotal similarity = ledger.Get("core.similarity");
  const SpanTotal replay = ledger.Get("core.decision.replay");
  const SpanTotal combine = ledger.Get("core.combine");
  const SpanTotal cluster = ledger.Get("graph.cluster");
  const SpanTotal evaluate = ledger.Get("eval");
  m.Set("extract.ms", extract.wall_ms, "ms");
  m.Set("extract.cpu_ms", extract.cpu_ms, "ms");
  m.Set("extract.us_per_page",
        extract.wall_ms * 1e3 / std::max(1, dataset.TotalDocuments()), "us");
  m.Set("core.resolve_extracted.ms", resolve.wall_ms, "ms");
  m.Set("core.resolve_extracted.cpu_ms", resolve.cpu_ms, "ms");
  m.Set("core.similarity.ms", similarity.wall_ms, "ms");
  m.Set("core.similarity.cpu_ms", similarity.cpu_ms, "ms");
  m.Set("core.similarity.pairs", static_cast<double>(pairs), "count");
  m.Set("core.similarity.batched_functions",
        static_cast<double>(batched_functions), "count");
  for (const auto& fn : *functions) {
    const std::string name(fn->name());
    const SpanTotal t = ledger.Get("core.similarity." + name);
    m.Set("core.similarity." + name + "_ms", t.wall_ms, "ms");
    m.Set("core.similarity." + name + "_cpu_ms", t.cpu_ms, "ms");
  }
  // Decision self time: the resolver's traced time minus the replayed
  // layers around it (CvGraphScore is file-local, so the decision stage
  // cannot be timed as one call from outside).
  m.Set("core.decision.ms",
        resolve.wall_ms - similarity.wall_ms - combine.wall_ms -
            cluster.wall_ms,
        "ms");
  m.Set("core.decision.cpu_ms",
        resolve.cpu_ms - similarity.cpu_ms - combine.cpu_ms - cluster.cpu_ms,
        "ms");
  m.Set("core.decision.replay_ms", replay.wall_ms, "ms");
  for (const char* part : {"fit", "eval", "closure"}) {
    const SpanTotal t = ledger.Get(std::string("core.decision.") + part);
    m.Set(std::string("core.decision.") + part + "_ms", t.wall_ms, "ms");
    m.Set(std::string("core.decision.") + part + "_cpu_ms", t.cpu_ms, "ms");
  }
  m.Set("core.decision.criteria",
        static_cast<double>(ledger.Get("core.decision.criteria").count),
        "count");
  m.Set("core.decision.closures",
        static_cast<double>(ledger.Get("core.decision.closure").count),
        "count");
  m.Set("core.combine.ms", combine.wall_ms, "ms");
  m.Set("core.combine.cpu_ms", combine.cpu_ms, "ms");
  m.Set("graph.cluster_ms", cluster.wall_ms, "ms");
  m.Set("graph.cluster_cpu_ms", cluster.cpu_ms, "ms");
  m.Set("eval.ms", evaluate.wall_ms, "ms");
  m.Set("eval.cpu_ms", evaluate.cpu_ms, "ms");
  // How far the directly timed layers fall short of (or exceed) the traced
  // ResolveExtracted time; near 0 when the replay accounts for it.
  const double layers = similarity.wall_ms + replay.wall_ms +
                        combine.wall_ms + cluster.wall_ms;
  m.Set("trace.residual_pct",
        resolve.wall_ms > 0.0
            ? 100.0 * (resolve.wall_ms - layers) / resolve.wall_ms
            : 0.0,
        "%");
  m.Set("trace.overhead_pct",
        untraced_pass_ms > 0.0
            ? 100.0 * (traced_pass_ms - untraced_pass_ms) / untraced_pass_ms
            : 0.0,
        "%");
}

/// The correctness gate of the resolve workloads: a clean pass whose
/// per-block partitions and Fp equal those of the run's first pass.
void CheckPass(const PassOutcome& pass, const std::vector<PassOutcome>& earlier,
               const corpus::Dataset& dataset, RunResult* result) {
  if (pass.degraded_blocks > 0) {
    result->Fail(std::to_string(pass.degraded_blocks) + " degraded blocks");
  }
  if (earlier.empty()) return;
  for (size_t b = 0; b < pass.labels.size(); ++b) {
    if (pass.labels[b] != earlier.front().labels[b]) {
      result->Fail("pass " + std::to_string(earlier.size()) +
                   " changed the partition of '" + dataset.blocks[b].query +
                   "'");
    }
  }
  if (pass.mean_fp != earlier.front().mean_fp) {
    result->Fail("fp differs between passes");
  }
}

/// `count` untraced passes, each checked against the first.
std::vector<PassOutcome> UntracedPasses(const core::EntityResolver& resolver,
                                        const corpus::Dataset& dataset,
                                        uint64_t pass_seed, int count,
                                        CpuRotor* rotor, RunResult* result) {
  std::vector<PassOutcome> passes;
  for (int i = 0; i < count; ++i) {
    auto pass = ResolvePass(resolver, dataset, pass_seed, rotor);
    result->attempted += dataset.num_blocks();
    if (!pass.ok()) {
      result->Fail("resolve pass: " + pass.status().ToString());
      return {};
    }
    CheckPass(*pass, passes, dataset, result);
    passes.push_back(std::move(pass).ValueOrDie());
  }
  return passes;
}

uint64_t PassSeed(uint64_t workload_seed) {
  return workload_seed * 0x9E3779B97F4A7C15ULL + 1;
}

/// The per-layer ledger of a `weber resolve` pass over `corpus`: two
/// untraced passes (which must agree), then TracedResolvePass. Each pass
/// runs on the next CPU of `rotor`.
void TraceResolveLayers(const Corpus& corpus, uint64_t seed,
                        CpuRotor* rotor, RunResult* result) {
  auto resolver = core::EntityResolver::Create(corpus.gazetteer.get(),
                                               core::ResolverOptions{});
  if (!resolver.ok()) {
    result->Fail("create: " + resolver.status().ToString());
    return;
  }
  const std::vector<PassOutcome> passes = UntracedPasses(
      *resolver, corpus.dataset, PassSeed(seed), /*count=*/2, rotor, result);
  if (passes.empty()) return;
  std::vector<double> pass_ms;
  for (const PassOutcome& p : passes) pass_ms.push_back(p.wall_ms);
  TracedResolvePass(corpus, PassSeed(seed), passes.front().labels,
                    Median(pass_ms), rotor, result);
}

/// One set-up of the resolve workloads: file load plus
/// EntityResolver::Create. The resolver keeps the address of the corpus's
/// gazetteer, which stays put when a SetUp moves.
struct SetUp {
  Corpus corpus;
  std::optional<core::EntityResolver> resolver;
  double seconds = 0.0;
  double load_ms = 0.0;
  double load_cpu_ms = 0.0;
};

Result<SetUp> RunSetUp(const std::string& dir) {
  SetUp out;
  const double t0 = WallNowMs();
  const double c0 = ThreadCpuNowMs();
  WEBER_ASSIGN_OR_RETURN(
      out.corpus, LoadCorpus(dir + "/dataset.txt", dir + "/gazetteer.txt"));
  out.load_ms = WallNowMs() - t0;
  out.load_cpu_ms = ThreadCpuNowMs() - c0;
  WEBER_ASSIGN_OR_RETURN(
      core::EntityResolver resolver,
      core::EntityResolver::Create(out.corpus.gazetteer.get(),
                                   core::ResolverOptions{}));
  out.resolver.emplace(std::move(resolver));
  out.seconds = (WallNowMs() - t0) / 1e3;
  return out;
}

}  // namespace

RunResult RunResolve(const ResolveArgs& args) {
  RunResult result;
  CpuRotor rotor;
  std::vector<double> setup_s, load_ms, load_cpu_ms;
  auto set_up = [&]() -> std::optional<SetUp> {
    rotor.Next();
    ++result.attempted;
    auto done = RunSetUp(args.dir);
    if (!done.ok()) {
      result.Fail("set-up: " + done.status().ToString());
      return std::nullopt;
    }
    setup_s.push_back(done->seconds);
    load_ms.push_back(done->load_ms);
    load_cpu_ms.push_back(done->load_cpu_ms);
    return std::move(done).ValueOrDie();
  };
  std::optional<SetUp> state;
  for (int rep = 0; rep < kInitialSetUps; ++rep) {
    state.reset();
    state = set_up();
    if (!state.has_value()) return result;
  }
  const Corpus& corpus = state->corpus;
  const core::EntityResolver& resolver = *state->resolver;

  if (args.trace) {
    result.metrics.Set("corpus.load_ms", Median(load_ms), "ms");
    result.metrics.Set("corpus.load_cpu_ms", Median(load_cpu_ms), "ms");
    TraceResolveLayers(corpus, args.seed, &rotor, &result);
    rotor.Release();
    TimeServiceCreate(corpus, &result);
    Rng rng(args.seed);
    SetServiceStatsMetrics(ServingRound(corpus, &rng, &result), &result);
    return result;
  }

  // Cycles of a resolve pass and one more set-up fill the budget, so both
  // sample the whole run; at least two passes, for the determinism gate.
  std::vector<PassOutcome> passes;
  const double start = WallNowMs();
  double cycle_ms = 0.0;
  while (passes.size() < 2 ||
         WallNowMs() - start + cycle_ms <= args.seconds * 1e3) {
    const double cycle_start = WallNowMs();
    auto pass =
        ResolvePass(resolver, corpus.dataset, PassSeed(args.seed), &rotor);
    result.attempted += corpus.dataset.num_blocks();
    if (!pass.ok()) {
      result.Fail("resolve pass: " + pass.status().ToString());
      return result;
    }
    CheckPass(*pass, passes, corpus.dataset, &result);
    passes.push_back(std::move(pass).ValueOrDie());
    set_up();
    cycle_ms = WallNowMs() - cycle_start;
  }
  std::vector<double> pass_ms;
  for (const PassOutcome& p : passes) pass_ms.push_back(p.wall_ms);
  MetricSet& m = result.metrics;
  m.Set("pages_per_s",
        corpus.dataset.TotalDocuments() / (Median(pass_ms) / 1e3), "pages/s");
  m.Set("fp", passes.front().mean_fp, "ratio");
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
