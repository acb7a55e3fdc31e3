#include "serve/resolution_service.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/fault_injection.h"
#include "common/json_writer.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/compiled_path.h"
#include "extract/feature_extractor.h"
#include "graph/components.h"
#include "match/matcher.h"
#include "ml/splitter.h"

namespace weber {
namespace serve {

// ---------------------------------------------------------------------------
// Internal types

/// PairScoreCache adapter handed to a shard's IncrementalResolver:
/// translates arrival indices to canonical document ids and keys the shared
/// SimilarityCache. Only called under the shard lock (the resolver is
/// single-writer), so reading arrival_canonical is safe.
class ResolutionService::ShardScoreCache : public core::PairScoreCache {
 public:
  ShardScoreCache(Shard* shard, SimilarityCache* cache)
      : shard_(shard), cache_(cache) {}

  bool Lookup(int function_index, int a, int b, double* value) override;
  void Insert(int function_index, int a, int b, double value) override;

 private:
  CacheKey KeyFor(int function_index, int a, int b) const;

  Shard* shard_;
  SimilarityCache* cache_;
};

struct ResolutionService::Shard {
  std::string name;
  uint32_t id = 0;

  /// Canonical block documents (immutable after Create).
  std::vector<extract::FeatureBundle> bundles;
  std::vector<int> entity_labels;

  /// Guards the live resolver and arrival bookkeeping (the write path).
  mutable std::mutex mu;
  std::unique_ptr<core::IncrementalResolver> resolver;
  std::unique_ptr<ShardScoreCache> score_cache;
  /// Arrival index -> canonical document id.
  std::vector<int> arrival_canonical;
  /// Canonical document id -> assigned yet?
  std::vector<char> assigned;

  /// RCU-published read view; never null (starts at the empty snapshot).
  std::atomic<std::shared_ptr<const ResolverSnapshot>> snapshot;

  uint64_t next_version = 1;  // guarded by mu
  std::atomic<int> assigns_since_compact{0};
  std::atomic<bool> compaction_inflight{false};

  /// Writes admitted but not yet finished (only maintained when a
  /// max_pending_per_shard budget is configured).
  std::atomic<int> pending{0};
  /// Write-path gate; configured (or left disabled) in Create.
  CircuitBreaker breaker;

  /// Durable storage (WAL + snapshots); null when durability is disabled.
  /// Appends happen under `mu`; ShardLog is itself thread-safe, so Sync()
  /// may be called without it.
  std::unique_ptr<durability::ShardLog> log;
};

struct ResolutionService::PendingAssign {
  Shard* shard = nullptr;
  int doc = -1;
  RequestDeadline deadline;
  std::promise<Result<AssignResult>> promise;
  /// Trace context captured at submission; restored on the flush thread so
  /// spans recorded there attribute to the originating request. Both are
  /// only populated when a trace collector is configured.
  uint64_t request_id = 0;
  double submitted_at_ms = 0.0;
};

CacheKey ResolutionService::ShardScoreCache::KeyFor(int function_index, int a,
                                                    int b) const {
  const int ca = shard_->arrival_canonical[a];
  const int cb = shard_->arrival_canonical[b];
  CacheKey key;
  key.shard = shard_->id;
  key.function = static_cast<uint32_t>(function_index);
  key.a = static_cast<uint32_t>(std::min(ca, cb));
  key.b = static_cast<uint32_t>(std::max(ca, cb));
  return key;
}

bool ResolutionService::ShardScoreCache::Lookup(int function_index, int a,
                                                int b, double* value) {
  return cache_->Lookup(KeyFor(function_index, a, b), value);
}

void ResolutionService::ShardScoreCache::Insert(int function_index, int a,
                                                int b, double value) {
  cache_->Insert(KeyFor(function_index, a, b), value);
}

// ---------------------------------------------------------------------------
// Construction

ResolutionService::ResolutionService(ServiceOptions options)
    : options_(std::move(options)) {
  assigns_ = registry_.GetCounter(
      "weber_assigns_total", "Documents assigned to a live partition");
  queries_ = registry_.GetCounter(
      "weber_queries_total", "Documents resolved against a snapshot");
  compactions_ = registry_.GetCounter(
      "weber_compactions_total", "Shard compactions completed");
  failed_compactions_ = registry_.GetCounter(
      "weber_failed_compactions_total",
      "Shard compactions abandoned before publication");
  failed_assigns_ = registry_.GetCounter(
      "weber_failed_assigns_total",
      "Assignments rejected by faults or WAL append failures");
  snapshot_swaps_ = registry_.GetCounter(
      "weber_snapshot_swaps_total", "Snapshots atomically published");
  failed_publishes_ = registry_.GetCounter(
      "weber_failed_publishes_total",
      "Compactions whose durable snapshot publication failed");
  deadline_exceeded_ = registry_.GetCounter(
      "weber_deadline_exceeded_total",
      "Requests answered DEADLINE_EXCEEDED");
  const char* sheds_help = "Requests shed by overload protection, by kind";
  budget_sheds_ = registry_.GetCounter("weber_sheds_total", sheds_help,
                                       "kind", "budget");
  compaction_sheds_ = registry_.GetCounter("weber_sheds_total", sheds_help,
                                           "kind", "compaction");
  breaker_sheds_ = registry_.GetCounter("weber_sheds_total", sheds_help,
                                        "kind", "breaker");
  const char* latency_help = "Request latency by endpoint (milliseconds)";
  assign_hist_ = registry_.GetHistogram(
      "weber_request_latency_ms", latency_help,
      obs::DefaultLatencyBucketsMs(), "endpoint", "assign");
  query_hist_ = registry_.GetHistogram(
      "weber_request_latency_ms", latency_help,
      obs::DefaultLatencyBucketsMs(), "endpoint", "query");
  compact_hist_ = registry_.GetHistogram(
      "weber_request_latency_ms", latency_help,
      obs::DefaultLatencyBucketsMs(), "endpoint", "compact");
  batch_size_hist_ = registry_.GetHistogram(
      "weber_batch_size", "Assignments per micro-batch flush",
      {1, 2, 4, 8, 16, 32, 64, 128, 256});
}

void ResolutionService::RegisterPulledMetrics() {
  // Pull-style bridges to subsystems that keep their own counters; invoked
  // at export time, so the hot paths stay untouched. `this` outlives the
  // registry's callers (the registry is a member).
  auto pull = [this](const char* name, const char* help,
                     obs::MetricType type, std::function<double()> fn,
                     const char* label_key = "",
                     const char* label_value = "") {
    registry_.RegisterCallback(name, help, type, std::move(fn), label_key,
                               label_value);
  };
  pull("weber_cache_hits_total", "Similarity cache hits",
       obs::MetricType::kCounter,
       [this] { return static_cast<double>(cache_->Stats().hits); });
  pull("weber_cache_misses_total", "Similarity cache misses",
       obs::MetricType::kCounter,
       [this] { return static_cast<double>(cache_->Stats().misses); });
  pull("weber_cache_evictions_total", "Similarity cache evictions",
       obs::MetricType::kCounter,
       [this] { return static_cast<double>(cache_->Stats().evictions); });
  pull("weber_cache_entries", "Similarity cache resident entries",
       obs::MetricType::kGauge,
       [this] { return static_cast<double>(cache_->Stats().entries); });
  pull("weber_cache_hit_rate", "Similarity cache hit rate (0 when unused)",
       obs::MetricType::kGauge, [this] { return cache_->Stats().HitRate(); });
  pull("weber_batches_flushed_total", "Micro-batcher flushes",
       obs::MetricType::kCounter,
       [this] { return static_cast<double>(batcher_->batches_flushed()); });
  pull("weber_batched_requests_total",
       "Assignments that went through the micro-batcher",
       obs::MetricType::kCounter,
       [this] { return static_cast<double>(batcher_->requests_flushed()); });
  pull("weber_batcher_pending", "Assignments currently parked in the batcher",
       obs::MetricType::kGauge,
       [this] { return static_cast<double>(batcher_->pending()); });
  pull("weber_sheds_total", "Requests shed by overload protection, by kind",
       obs::MetricType::kCounter,
       [this] { return static_cast<double>(batcher_->rejected()); }, "kind",
       "batcher");
  pull("weber_breaker_trips_total", "Circuit breaker trips across shards",
       obs::MetricType::kCounter, [this] {
         double total = 0;
         for (const auto& shard : shards_) total += shard->breaker.trips();
         return total;
       });
  pull("weber_breakers_open", "Shards whose circuit breaker is open",
       obs::MetricType::kGauge, [this] {
         double open = 0;
         for (const auto& shard : shards_) {
           if (shard->breaker.state() == CircuitBreaker::State::kOpen) ++open;
         }
         return open;
       });
  pull("weber_shards", "Shards served", obs::MetricType::kGauge,
       [this] { return static_cast<double>(shards_.size()); });
  if (!options_.durability.data_dir.empty()) {
    auto sum_logs = [this](auto member) {
      double total = 0;
      for (const auto& shard : shards_) {
        if (shard->log != nullptr) total += (shard->log.get()->*member)();
      }
      return total;
    };
    pull("weber_wal_appends_total", "WAL records appended",
         obs::MetricType::kCounter,
         [sum_logs] { return sum_logs(&durability::ShardLog::wal_appends); });
    pull("weber_wal_syncs_total", "WAL fsync batches",
         obs::MetricType::kCounter,
         [sum_logs] { return sum_logs(&durability::ShardLog::wal_syncs); });
    pull("weber_snapshots_written_total", "Durable snapshots written",
         obs::MetricType::kCounter, [sum_logs] {
           return sum_logs(&durability::ShardLog::snapshots_written);
         });
  }
}

ResolutionService::~ResolutionService() {
  // The batcher's destructor flushes pending assigns (which append WAL
  // records) and the compaction pool may still publish snapshots, so both
  // must stop before the final group-commit sync makes everything durable.
  batcher_.reset();
  compaction_pool_.reset();
  (void)SyncDurable();
}

Status ResolutionService::SyncDurable() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    if (shard->log == nullptr) continue;
    if (Status st = shard->log->Sync(); !st.ok() && first.ok()) {
      first = st;
    }
  }
  return first;
}

Result<std::unique_ptr<ResolutionService>> ResolutionService::Create(
    const corpus::Dataset& dataset, const extract::Gazetteer* gazetteer,
    ServiceOptions options) {
  if (gazetteer == nullptr) {
    return Status::InvalidArgument("ResolutionService: null gazetteer");
  }
  if (dataset.blocks.empty()) {
    return Status::InvalidArgument("ResolutionService: empty dataset");
  }
  auto service =
      std::unique_ptr<ResolutionService>(new ResolutionService(options));
  WEBER_ASSIGN_OR_RETURN(
      service->functions_,
      core::MakeFunctions(options.incremental.function_names));
  service->cache_ = std::make_unique<SimilarityCache>(options.cache);

  extract::FeatureExtractor extractor(gazetteer);
  Rng calibration_rng(options.calibration_seed);
  for (size_t b = 0; b < dataset.blocks.size(); ++b) {
    const corpus::Block& block = dataset.blocks[b];
    auto shard = std::make_unique<Shard>();
    shard->name = block.query;
    shard->id = static_cast<uint32_t>(b);
    std::vector<extract::PageInput> pages;
    pages.reserve(block.documents.size());
    for (const corpus::Document& d : block.documents) {
      pages.push_back({d.url, d.text});
    }
    WEBER_ASSIGN_OR_RETURN(shard->bundles,
                           extractor.ExtractBlock(pages, block.query));
    shard->entity_labels = block.entity_labels;
    for (int label : block.entity_labels) {
      if (label < 0) {
        return Status::InvalidArgument(
            "ResolutionService: block '", block.query,
            "' lacks ground-truth labels (needed for threshold calibration)");
      }
    }
    shard->assigned.assign(shard->bundles.size(), 0);
    shard->breaker.Configure({options.overload.breaker_failure_threshold,
                              options.overload.breaker_cooldown_ms});

    WEBER_ASSIGN_OR_RETURN(auto resolver, core::IncrementalResolver::Create(
                                              options.incremental));
    shard->resolver =
        std::make_unique<core::IncrementalResolver>(std::move(resolver));
    Rng rng = calibration_rng.Fork(b);
    auto pairs = ml::SampleTrainingPairs(block.num_documents(),
                                         options.train_fraction, &rng);
    WEBER_RETURN_NOT_OK(shard->resolver->CalibrateThreshold(
        shard->bundles, shard->entity_labels, pairs));

    shard->score_cache =
        std::make_unique<ShardScoreCache>(shard.get(), service->cache_.get());
    shard->resolver->set_score_cache(shard->score_cache.get());

    auto empty = std::make_shared<ResolverSnapshot>();
    empty->version = 0;
    empty->threshold = shard->resolver->threshold();
    shard->snapshot.store(std::move(empty));

    if (!options.durability.data_dir.empty()) {
      durability::ShardLogOptions log_options;
      log_options.fsync = options.durability.fsync;
      log_options.wal_truncate_bytes = options.durability.wal_truncate_bytes;
      durability::RecoveredShard recovered;
      WEBER_ASSIGN_OR_RETURN(
          shard->log,
          durability::ShardLog::Open(options.durability.data_dir + "/" +
                                         ShardDirName(shard->id, shard->name),
                                     log_options, &recovered));
      WEBER_RETURN_NOT_OK(
          service->RestoreShard(shard.get(), std::move(recovered)));
    }

    service->shard_index_[block.query] =
        static_cast<int>(service->shards_.size());
    service->block_names_.push_back(block.query);
    service->shards_.push_back(std::move(shard));
  }

  service->compaction_pool_ = std::make_unique<Executor>(
      options.compaction_threads, options.overload.executor_queue_cap);
  BatcherOptions batcher_options = options.batcher;
  if (options.overload.batcher_queue_cap > 0) {
    batcher_options.max_pending = options.overload.batcher_queue_cap;
  }
  ResolutionService* raw = service.get();
  service->batcher_ = std::make_unique<MicroBatcher<PendingAssign>>(
      batcher_options, [raw](std::vector<PendingAssign> batch) {
        raw->ProcessAssignBatch(std::move(batch));
      });
  service->RegisterPulledMetrics();
  return service;
}

// ---------------------------------------------------------------------------
// Crash recovery (runs inside Create, before any concurrency exists)

std::string ResolutionService::ShardDirName(uint32_t id,
                                            const std::string& name) {
  char prefix[24];
  std::snprintf(prefix, sizeof(prefix), "shard-%04u-", id);
  std::string dir = prefix;
  for (char c : name) {
    dir.push_back(
        std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return dir;
}

Status ResolutionService::VerifyRecoveredPartition(
    const Shard& shard, const durability::ShardSnapshotData& snap) const {
  // The snapshot stores a batch-computed partition, and batch resolution is
  // invariant to arrival order — so re-resolving the stored document set
  // must reproduce the stored labels exactly. Any divergence means the
  // snapshot (or the feature pipeline under it) is not to be trusted.
  const int n = static_cast<int>(snap.canonical_ids.size());
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (ScorePairCached(shard, snap.canonical_ids[a],
                          snap.canonical_ids[b]) >= snap.threshold) {
        edges.push_back({a, b});
      }
    }
  }
  const graph::Clustering reference = graph::ConnectedComponents(n, edges);
  const std::vector<int> stored(snap.labels.begin(), snap.labels.end());
  if (!(graph::Clustering::FromLabels(stored) == reference)) {
    return Status::Corruption(
        "recovery: snapshot v", static_cast<long long>(snap.version),
        " of shard '", shard.name,
        "' does not match batch re-resolution of its document set");
  }
  return Status::OK();
}

Status ResolutionService::RestoreShard(Shard* shard,
                                       durability::RecoveredShard recovered) {
  const int block_size = static_cast<int>(shard->bundles.size());
  auto clusters_from_labels = [](const std::vector<int32_t>& labels) {
    const std::vector<int> as_int(labels.begin(), labels.end());
    return graph::Clustering::FromLabels(as_int).Groups();
  };

  uint64_t max_version = 0;
  if (recovered.snapshot_loaded) {
    const durability::ShardSnapshotData& snap = recovered.snapshot;
    max_version = snap.version;
    if (std::abs(snap.threshold - shard->resolver->threshold()) > 1e-9) {
      return Status::FailedPrecondition(
          "recovery: shard '", shard->name, "' was persisted at threshold ",
          snap.threshold, " but recalibrated to ",
          shard->resolver->threshold(),
          " — the dataset or calibration changed; refusing to mix them");
    }
    std::vector<extract::FeatureBundle> docs;
    docs.reserve(snap.canonical_ids.size());
    for (int32_t id : snap.canonical_ids) {
      if (id < 0 || id >= block_size || shard->assigned[id]) {
        return Status::Corruption("recovery: snapshot of shard '",
                                  shard->name,
                                  "' references invalid or repeated document ",
                                  id);
      }
      shard->assigned[id] = 1;
      shard->arrival_canonical.push_back(id);
      docs.push_back(shard->bundles[id]);
    }
    WEBER_RETURN_NOT_OK(shard->resolver->Restore(
        std::move(docs), clusters_from_labels(snap.labels)));
    if (options_.durability.verify_recovery) {
      WEBER_RETURN_NOT_OK(VerifyRecoveredPartition(*shard, snap));
    }
    ++recovered_snapshots_;
  }

  for (const durability::WalRecord& record : recovered.records) {
    switch (record.type) {
      case durability::WalRecord::Type::kAssign: {
        const int doc = record.doc;
        if (doc < 0 || doc >= block_size) {
          return Status::Corruption("recovery: WAL of shard '", shard->name,
                                    "' assigns out-of-range document ", doc);
        }
        if (shard->assigned[doc]) break;  // already inside the snapshot
        shard->assigned[doc] = 1;
        shard->arrival_canonical.push_back(doc);
        if (shard->resolver->Add(shard->bundles[doc]) < 0) {
          return Status::Internal("recovery: resolver rejected replayed ",
                                  "document ", doc);
        }
        break;
      }
      case durability::WalRecord::Type::kAdoptPartition: {
        const int n = static_cast<int>(record.labels.size());
        if (n == shard->resolver->num_documents()) {
          WEBER_RETURN_NOT_OK(shard->resolver->AdoptPartition(
              clusters_from_labels(record.labels)));
        } else if (n > shard->resolver->num_documents()) {
          // A partition over documents we failed to rebuild: some Assign
          // records were lost ahead of it. Keep the greedy replay result
          // and let the next compaction re-converge, but surface it.
          ++recovery_health_.degraded_blocks;
        }
        // n < num_documents: a stale partition superseded by later logged
        // arrivals — skipping it silently is the normal case.
        max_version = std::max(max_version, record.version);
        break;
      }
      case durability::WalRecord::Type::kSnapshotPublished: {
        if (record.version > max_version) {
          // The log says this snapshot was durable, yet no usable file or
          // partition record with that version survived.
          ++recovery_health_.corrupt_snapshots;
        }
        max_version = std::max(max_version, record.version);
        break;
      }
    }
  }

  if (recovered.stats.wal_torn_tail) ++recovery_health_.torn_wal_tails;
  if (recovered.stats.wal_corrupt) ++recovery_health_.corrupt_wal_records;
  recovery_health_.corrupt_snapshots += recovered.stats.corrupt_snapshots;
  recovered_docs_ += static_cast<long long>(shard->arrival_canonical.size());

  shard->next_version = max_version + 1;
  if (!shard->arrival_canonical.empty()) {
    // Publish the recovered live partition so recovered documents are
    // immediately queryable; the next compaction replaces it with a fresh
    // batch result (and makes that one durable).
    auto snapshot = std::make_shared<ResolverSnapshot>();
    snapshot->version = shard->next_version++;
    snapshot->threshold = shard->resolver->threshold();
    snapshot->clustering = shard->resolver->CurrentClustering();
    snapshot->clusters = snapshot->clustering.Groups();
    snapshot->canonical_ids = shard->arrival_canonical;
    snapshot->documents.reserve(shard->arrival_canonical.size());
    for (int id : shard->arrival_canonical) {
      snapshot->documents.push_back(shard->bundles[id]);
    }
    shard->snapshot.store(std::move(snapshot), std::memory_order_release);
  }
  return Status::OK();
}

Result<ResolutionService::Shard*> ResolutionService::FindShard(
    const std::string& block) const {
  auto it = shard_index_.find(block);
  if (it == shard_index_.end()) {
    return Status::NotFound("no shard for block '", block, "'");
  }
  return shards_[it->second].get();
}

Result<int> ResolutionService::BlockSize(const std::string& block) const {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  return static_cast<int>(shard->bundles.size());
}

Result<double> ResolutionService::ShardThreshold(
    const std::string& block) const {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  return shard->resolver->threshold();
}

// ---------------------------------------------------------------------------
// Overload admission (see DESIGN.md, "Overload & admission control")

RequestDeadline ResolutionService::EffectiveDeadline(
    RequestDeadline deadline) const {
  if (!deadline.has_deadline() && options_.overload.default_deadline_ms > 0) {
    return RequestDeadline::In(options_.overload.default_deadline_ms);
  }
  return deadline;
}

Status ResolutionService::AdmitWrite(Shard* shard,
                                     const RequestDeadline& deadline) {
  if (deadline.Expired()) {
    // Answered without doing the work, but still a deadline blowout the
    // breaker must see — that keeps breaker behavior identical whether the
    // budget dies before admission or after fault-injected latency.
    deadline_exceeded_->Increment();
    shard->breaker.RecordFailure();
    return Status::DeadlineExceeded("deadline expired before admission to ",
                                    "shard '", shard->name, "'");
  }
  const int cap = options_.overload.max_pending_per_shard;
  if (cap > 0) {
    int current = shard->pending.load(std::memory_order_relaxed);
    for (;;) {
      if (current >= cap) {
        budget_sheds_->Increment();
        return Status::Unavailable("shard '", shard->name, "' already has ",
                                   current, " pending writes (cap ", cap, ")");
      }
      if (shard->pending.compare_exchange_weak(current, current + 1,
                                               std::memory_order_relaxed)) {
        break;
      }
    }
  }
  if (Status st = shard->breaker.Admit(); !st.ok()) {
    if (cap > 0) shard->pending.fetch_sub(1, std::memory_order_relaxed);
    breaker_sheds_->Increment();
    return st;
  }
  return Status::OK();
}

void ResolutionService::FinishWrite(Shard* shard, const Status& outcome) {
  if (options_.overload.max_pending_per_shard > 0) {
    shard->pending.fetch_sub(1, std::memory_order_relaxed);
  }
  if (outcome.ok()) {
    shard->breaker.RecordSuccess();
    return;
  }
  if (outcome.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_->Increment();
  }
  // Every admitted write must resolve the breaker's bookkeeping (a
  // half-open probe in particular), so any failure — including a shed
  // between admission and parking — counts as a breaker failure.
  shard->breaker.RecordFailure();
}

bool ResolutionService::OverloadConfigured() const {
  const ServiceOptions::Overload& o = options_.overload;
  return o.executor_queue_cap > 0 || o.batcher_queue_cap > 0 ||
         o.max_pending_per_shard > 0 || o.default_deadline_ms > 0 ||
         o.breaker_failure_threshold > 0;
}

// ---------------------------------------------------------------------------
// Assignment (hot write path)

Result<AssignResult> ResolutionService::AssignLocked(
    Shard* shard, int doc, const RequestDeadline& deadline) {
  // Covers the WAL append plus the greedy resolver step, i.e. the work done
  // while holding the shard lock for this one document.
  obs::ScopedSpan span(options_.trace, "serve.resolver");
  if (doc < 0 || doc >= static_cast<int>(shard->bundles.size())) {
    return Status::InvalidArgument("Assign: document ", doc,
                                   " out of range for block '", shard->name,
                                   "'");
  }
  if (deadline.Expired()) {
    // Typically a request that expired while parked in the micro-batcher
    // or waiting on the shard lock: answer before any work or mutation.
    return Status::DeadlineExceeded("Assign: deadline expired while queued ",
                                    "for shard '", shard->name, "'");
  }
  if (Status st = faults::MaybeFail("serve.assign"); !st.ok()) {
    failed_assigns_->Increment();
    return st;
  }
  AssignResult result;
  result.snapshot_version =
      shard->snapshot.load(std::memory_order_acquire)->version;
  if (shard->assigned[doc]) {
    // Idempotent repeat: report the document's current live cluster.
    int arrival = -1;
    for (size_t i = 0; i < shard->arrival_canonical.size(); ++i) {
      if (shard->arrival_canonical[i] == doc) {
        arrival = static_cast<int>(i);
        break;
      }
    }
    const auto& clusters = shard->resolver->clusters();
    for (size_t c = 0; c < clusters.size(); ++c) {
      for (int member : clusters[c]) {
        if (member == arrival) {
          if (deadline.Expired()) {
            // Fault-injected latency (or real stall) blew the budget after
            // the lookup; the answer is stale by the client's own measure.
            return Status::DeadlineExceeded(
                "Assign: completed past the deadline on shard '", shard->name,
                "' (idempotent; retrying is safe)");
          }
          result.cluster = static_cast<int>(c);
          return result;
        }
      }
    }
    return Status::Internal("Assign: assigned document missing from partition");
  }
  // Write-ahead: the assignment is logged before any in-memory mutation, so
  // a crash after the ack can always be replayed and a failed append leaves
  // the shard exactly as it was.
  if (shard->log != nullptr) {
    if (Status st = shard->log->Append(durability::WalRecord::Assign(doc));
        !st.ok()) {
      failed_assigns_->Increment();
      return st;
    }
  }
  shard->assigned[doc] = 1;
  shard->arrival_canonical.push_back(doc);
  result.cluster = shard->resolver->Add(shard->bundles[doc]);
  if (result.cluster < 0) {
    return Status::FailedPrecondition("Assign: shard '", shard->name,
                                      "' is not calibrated");
  }
  assigns_->Increment();
  shard->assigns_since_compact.fetch_add(1, std::memory_order_relaxed);
  if (deadline.Expired()) {
    // The work ran past the client's budget (e.g. fault-injected latency).
    // The assignment stands — it is WAL-logged and idempotent — but the
    // client is told the truth so it can retry with a fresh deadline.
    return Status::DeadlineExceeded(
        "Assign: completed past the deadline on shard '", shard->name,
        "' (the assignment stands; retrying is safe)");
  }
  return result;
}

Result<AssignResult> ResolutionService::Assign(const std::string& block,
                                               int doc,
                                               RequestDeadline deadline) {
  obs::ScopedSpan span(options_.trace, "serve.assign");
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  deadline = EffectiveDeadline(deadline);
  WEBER_RETURN_NOT_OK(AdmitWrite(shard, deadline));
  WallTimer timer;
  Result<AssignResult> result = Status::Internal("unset");
  {
    obs::ScopedSpan shard_span(options_.trace, "serve.shard");
    std::lock_guard<std::mutex> lock(shard->mu);
    result = AssignLocked(shard, doc, deadline);
  }
  const double elapsed = timer.ElapsedMillis();
  assign_latency_.Record(elapsed);
  assign_hist_->Observe(elapsed);
  FinishWrite(shard, result.status());
  if (result.ok() && options_.compact_every > 0 &&
      shard->assigns_since_compact.load(std::memory_order_relaxed) >=
          options_.compact_every) {
    (void)CompactInBackground(block);
  }
  return result;
}

std::future<Result<AssignResult>> ResolutionService::AssignAsync(
    const std::string& block, int doc, RequestDeadline deadline) {
  PendingAssign pending;
  pending.doc = doc;
  if (options_.trace != nullptr) {
    pending.request_id = obs::CurrentRequestId();
    pending.submitted_at_ms = options_.trace->NowMs();
  }
  std::future<Result<AssignResult>> future = pending.promise.get_future();
  auto shard = FindShard(block);
  if (!shard.ok()) {
    pending.promise.set_value(shard.status());
    return future;
  }
  pending.shard = *shard;
  pending.deadline = EffectiveDeadline(deadline);
  if (Status st = AdmitWrite(*shard, pending.deadline); !st.ok()) {
    pending.promise.set_value(st);
    return future;
  }
  if (options_.overload.batcher_queue_cap > 0) {
    if (!batcher_->TrySubmit(pending)) {
      Status shed = Status::Unavailable(
          "assign queue full (", batcher_->pending(), " parked)");
      FinishWrite(*shard, shed);
      pending.promise.set_value(shed);
      return future;
    }
  } else {
    batcher_->Submit(std::move(pending));
  }
  return future;
}

void ResolutionService::ProcessAssignBatch(std::vector<PendingAssign> batch) {
  batch_size_hist_->Observe(static_cast<double>(batch.size()));
  if (options_.trace != nullptr) {
    // Park spans: how long each request waited in the batcher before its
    // flush, attributed to the submitting request's ID.
    const double now = options_.trace->NowMs();
    for (const PendingAssign& pending : batch) {
      options_.trace->Record("serve.batcher.park", pending.request_id,
                             pending.submitted_at_ms,
                             now - pending.submitted_at_ms);
    }
  }
  // Group by shard, preserving submission order within each group, so one
  // lock acquisition covers a run of same-shard requests.
  std::vector<Shard*> maybe_compact;
  std::vector<std::pair<size_t, Result<AssignResult>>> results;
  size_t i = 0;
  while (i < batch.size()) {
    Shard* shard = batch[i].shard;
    results.clear();
    {
      obs::ScopedSpan flush_span(options_.trace, "serve.batch_flush");
      std::lock_guard<std::mutex> lock(shard->mu);
      WallTimer timer;
      for (size_t j = i; j < batch.size(); ++j) {
        if (batch[j].shard != shard) continue;
        // Restore the submitter's request ID for the spans recorded under
        // AssignLocked on this flush thread.
        obs::RequestIdScope id_scope(batch[j].request_id);
        // AssignLocked re-checks the deadline on entry, so a request that
        // expired while parked in the batcher is answered without work.
        results.emplace_back(j,
                             AssignLocked(shard, batch[j].doc,
                                          batch[j].deadline));
        batch[j].shard = nullptr;  // mark handled
      }
      const double elapsed = timer.ElapsedMillis();
      assign_latency_.Record(elapsed);
      assign_hist_->Observe(elapsed);
    }
    // Group commit: under the kBatch fsync policy the whole group becomes
    // durable with one sync before any acknowledgement leaves the service.
    // A failed sync downgrades the group's successes to that error — the
    // in-memory assignment already happened, so a client retry lands on the
    // idempotent path and re-acks once durability is restored.
    Status synced =
        shard->log != nullptr ? shard->log->Sync() : Status::OK();
    for (auto& [j, result] : results) {
      if (!synced.ok() && result.ok()) {
        failed_assigns_->Increment();
        FinishWrite(shard, synced);
        batch[j].promise.set_value(synced);
      } else {
        FinishWrite(shard, result.status());
        batch[j].promise.set_value(std::move(result));
      }
    }
    if (options_.compact_every > 0 &&
        shard->assigns_since_compact.load(std::memory_order_relaxed) >=
            options_.compact_every) {
      maybe_compact.push_back(shard);
    }
    while (i < batch.size() && batch[i].shard == nullptr) ++i;
  }
  for (Shard* shard : maybe_compact) {
    (void)CompactInBackground(shard->name);
  }
}

// ---------------------------------------------------------------------------
// Query (lock-free read path)

double ResolutionService::ScorePairCached(const Shard& shard, int canon_a,
                                          int canon_b) const {
  CacheKey key;
  key.shard = shard.id;
  key.a = static_cast<uint32_t>(std::min(canon_a, canon_b));
  key.b = static_cast<uint32_t>(std::max(canon_a, canon_b));
  double sum = 0.0;
  const extract::FeatureBundle& a = shard.bundles[key.a];
  const extract::FeatureBundle& b = shard.bundles[key.b];
  for (size_t f = 0; f < functions_.size(); ++f) {
    key.function = static_cast<uint32_t>(f);
    double value;
    if (!cache_->Lookup(key, &value)) {
      value = functions_[f]->Compute(a, b);
      cache_->Insert(key, value);
    }
    sum += value;
  }
  return sum / static_cast<double>(functions_.size());
}

Result<QueryResult> ResolutionService::Query(const std::string& block,
                                             int doc,
                                             RequestDeadline deadline) const {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  if (doc < 0 || doc >= static_cast<int>(shard->bundles.size())) {
    return Status::InvalidArgument("Query: document ", doc,
                                   " out of range for block '", block, "'");
  }
  deadline = EffectiveDeadline(deadline);
  if (deadline.Expired()) {
    // Reads skip the breaker and the budget — they are lock-free and cheap
    // — but an already-dead request is not worth even that much.
    deadline_exceeded_->Increment();
    return Status::DeadlineExceeded("Query: deadline expired before ",
                                    "execution on shard '", block, "'");
  }
  obs::ScopedSpan span(options_.trace, "serve.query");
  WallTimer timer;
  std::shared_ptr<const ResolverSnapshot> snap =
      shard->snapshot.load(std::memory_order_acquire);
  QueryResult result;
  result.snapshot_version = snap->version;
  const bool best_max = options_.incremental.assignment ==
                        core::IncrementalOptions::Assignment::kBestMax;
  // A document the snapshot already contains resolves to its published
  // label: membership can come from transitive closure, where the mean
  // similarity to the full cluster may sit below the link threshold.
  int own_cluster = -1;
  for (int pos = 0; pos < snap->num_documents(); ++pos) {
    if (snap->canonical_ids[pos] == doc) {
      own_cluster = snap->clustering.label(pos);
      break;
    }
  }
  double best_score = snap->threshold;
  for (size_t c = 0; c < snap->clusters.size(); ++c) {
    if (own_cluster >= 0 && static_cast<int>(c) != own_cluster) continue;
    const std::vector<int>& members = snap->clusters[c];
    if (members.empty()) continue;
    double agg = 0.0;
    for (int member : members) {
      double s = ScorePairCached(*shard, doc, snap->canonical_ids[member]);
      agg = best_max ? std::max(agg, s) : agg + s;
    }
    if (!best_max) agg /= static_cast<double>(members.size());
    if (own_cluster >= 0 || agg >= best_score) {
      best_score = agg;
      result.cluster = static_cast<int>(c);
      result.score = agg;
    }
  }
  queries_->Increment();
  const double elapsed = timer.ElapsedMillis();
  query_latency_.Record(elapsed);
  query_hist_->Observe(elapsed);
  return result;
}

Result<MatchResult> ResolutionService::Match(const std::string& block,
                                             const std::vector<int>& docs,
                                             RequestDeadline deadline) const {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  if (docs.empty()) {
    return Status::InvalidArgument("Match: no documents given for block '",
                                   block, "'");
  }
  std::vector<char> seen(shard->bundles.size(), 0);
  for (int doc : docs) {
    if (doc < 0 || doc >= static_cast<int>(shard->bundles.size())) {
      return Status::InvalidArgument("Match: document ", doc,
                                     " out of range for block '", block, "'");
    }
    if (seen[doc]) {
      return Status::InvalidArgument("Match: duplicate document ", doc,
                                     " (the mapping is one-to-one)");
    }
    seen[doc] = 1;
  }
  deadline = EffectiveDeadline(deadline);
  if (deadline.Expired()) {
    deadline_exceeded_->Increment();
    return Status::DeadlineExceeded("Match: deadline expired before ",
                                    "execution on shard '", block, "'");
  }
  // Lazy registration keeps the metrics exposition byte-identical for
  // deployments that never issue a match.
  std::call_once(match_metrics_once_, [this] {
    matches_.store(
        registry_.GetCounter("weber_matches_total",
                             "Match requests answered (one-to-one linkage)"),
        std::memory_order_release);
    match_hist_.store(
        registry_.GetHistogram("weber_request_latency_ms",
                               "Request latency by endpoint (milliseconds)",
                               obs::DefaultLatencyBucketsMs(), "endpoint",
                               "match"),
        std::memory_order_release);
  });
  obs::ScopedSpan span(options_.trace, "serve.match");
  WallTimer timer;
  std::shared_ptr<const ResolverSnapshot> snap =
      shard->snapshot.load(std::memory_order_acquire);
  MatchResult result;
  result.snapshot_version = snap->version;
  const bool best_max = options_.incremental.assignment ==
                        core::IncrementalOptions::Assignment::kBestMax;
  // Score every requested document against every snapshot cluster with the
  // same aggregate Query uses, then solve the bipartite matching at the
  // shard threshold: greedy best-first is one-to-one and cheap enough for
  // the read path.
  //
  // The batchable functions are scored as one strip per (document,
  // function) over the shard's bundles and looked up per member; the
  // remaining functions stay on the per-pair cache path with
  // ScorePairCached's exact key order, so every aggregate is bit-identical
  // to the per-pair walk (see core/compiled_path.h). Armed fault injection
  // forces the fully per-pair path so the `similarity.compute` chaos point
  // keeps observing every pair.
  const size_t num_functions = functions_.size();
  core::BlockScorer strip_scorer(&shard->bundles);
  std::vector<core::BatchSpec> specs(num_functions);
  std::vector<char> batchable(num_functions, 0);
  bool any_batchable = false;
  if (!faults::FaultInjector::Instance().AnyArmed()) {
    for (size_t f = 0; f < num_functions; ++f) {
      specs[f] = functions_[f]->batch_spec();
      // The cache keys pairs lowest-id-first, Compute(min_id, max_id),
      // while a strip fixes the requested document as the anchor, so only
      // measures that are bitwise-commutative by construction may be
      // stripped here (the resolver paths always score the lower index
      // first). Excluded: Pearson, whose covariance expression is not
      // commutative, and the two string measures, whose Jaro-Winkler step
      // has been found symmetric by brute force but not proven so.
      const core::BatchSpec::Measure m = specs[f].measure;
      batchable[f] = specs[f].batchable() &&
                             m != core::BatchSpec::Measure::kPearson &&
                             m != core::BatchSpec::Measure::kUrl &&
                             m != core::BatchSpec::Measure::kJaroWinkler &&
                             strip_scorer.CanBatch(specs[f])
                         ? 1
                         : 0;
      any_batchable = any_batchable || batchable[f];
    }
  }
  const int num_bundles = static_cast<int>(shard->bundles.size());
  std::vector<std::vector<double>> strips(num_functions);
  auto score_pair_stripped = [&](int doc, int canon) {
    CacheKey key;
    key.shard = shard->id;
    key.a = static_cast<uint32_t>(std::min(doc, canon));
    key.b = static_cast<uint32_t>(std::max(doc, canon));
    const extract::FeatureBundle& a = shard->bundles[key.a];
    const extract::FeatureBundle& b = shard->bundles[key.b];
    double sum = 0.0;
    for (size_t f = 0; f < num_functions; ++f) {
      if (batchable[f]) {
        sum += strips[f][canon];
        continue;
      }
      key.function = static_cast<uint32_t>(f);
      double value;
      if (!cache_->Lookup(key, &value)) {
        value = functions_[f]->Compute(a, b);
        cache_->Insert(key, value);
      }
      sum += value;
    }
    return sum / static_cast<double>(num_functions);
  };
  match::ScoreMatrix scores(static_cast<int>(docs.size()),
                            static_cast<int>(snap->clusters.size()));
  for (size_t i = 0; i < docs.size(); ++i) {
    if (any_batchable) {
      for (size_t f = 0; f < num_functions; ++f) {
        if (!batchable[f]) continue;
        strips[f].resize(num_bundles);
        strip_scorer.ScoreStrip(specs[f], docs[i], 0, num_bundles,
                                strips[f].data());
      }
    }
    for (size_t c = 0; c < snap->clusters.size(); ++c) {
      const std::vector<int>& members = snap->clusters[c];
      if (members.empty()) continue;
      double agg = 0.0;
      for (int member : members) {
        const int canon = snap->canonical_ids[member];
        const double s = any_batchable
                             ? score_pair_stripped(docs[i], canon)
                             : ScorePairCached(*shard, docs[i], canon);
        agg = best_max ? std::max(agg, s) : agg + s;
      }
      if (!best_max) agg /= static_cast<double>(members.size());
      scores.set(static_cast<int>(i), static_cast<int>(c), agg);
    }
  }
  match::MatcherOptions match_options;
  match_options.threshold = snap->threshold;
  const match::Matching matching =
      match::MakeGreedyMatcher(match_options)->Match(scores);
  result.clusters = matching.LeftAssignment(scores.rows());
  matches_.load(std::memory_order_acquire)->Increment();
  const double elapsed = timer.ElapsedMillis();
  match_latency_.Record(elapsed);
  match_hist_.load(std::memory_order_acquire)->Observe(elapsed);
  return result;
}

// ---------------------------------------------------------------------------
// Compaction (background batch re-resolution + snapshot swap)

Status ResolutionService::CompactShard(Shard* shard,
                                       const RequestDeadline& deadline) {
  obs::ScopedSpan span(options_.trace, "serve.compact");
  WallTimer timer;
  auto record_latency = [this, &timer] {
    const double elapsed = timer.ElapsedMillis();
    compact_latency_.Record(elapsed);
    compact_hist_->Observe(elapsed);
  };
  // Phase 1 — copy the live arrival state under the lock. Bundles are
  // immutable, so only the id mapping and threshold need the lock.
  std::vector<int> canonical;
  double threshold;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    canonical = shard->arrival_canonical;
    threshold = shard->resolver->threshold();
  }
  const int n = static_cast<int>(canonical.size());

  // Phase 2 — batch re-resolution outside any lock: score every pair
  // (cache-backed), link at the calibrated threshold, transitive closure.
  // Identical semantics to IncrementalResolver::BatchResolve, and
  // order-invariant, so any arrival interleaving converges here.
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < n; ++a) {
    // Cooperative deadline check per row, mirroring BatchResolve: a
    // compaction that cannot finish in budget is abandoned before it
    // publishes anything, so the shard keeps its previous snapshot.
    if (deadline.Expired()) {
      failed_compactions_->Increment();
      record_latency();
      return Status::DeadlineExceeded("Compact: deadline hit after ", a,
                                      " of ", n, " rows on shard '",
                                      shard->name, "'");
    }
    for (int b = a + 1; b < n; ++b) {
      if (ScorePairCached(*shard, canonical[a], canonical[b]) >= threshold) {
        edges.push_back({a, b});
      }
    }
  }

  // The chaos hook sits after the expensive work and before publication:
  // a failing compaction has cost time but must not have changed what the
  // shard serves.
  if (Status st = faults::MaybeFail("serve.compact"); !st.ok()) {
    failed_compactions_->Increment();
    record_latency();
    return st;
  }
  if (deadline.Expired()) {
    // Injected latency (or a real stall) ran the budget out after the
    // scoring pass; publishing a result the client has given up on would
    // still be correct, but answering the truth keeps deadline semantics
    // uniform: nothing a DEADLINE_EXCEEDED response covers was published.
    failed_compactions_->Increment();
    record_latency();
    return Status::DeadlineExceeded(
        "Compact: deadline passed before publication on shard '", shard->name,
        "'");
  }

  auto snapshot = std::make_shared<ResolverSnapshot>();
  snapshot->clustering = graph::ConnectedComponents(n, edges);
  snapshot->clusters = snapshot->clustering.Groups();
  snapshot->canonical_ids = canonical;
  snapshot->threshold = threshold;
  snapshot->documents.reserve(n);
  for (int id : canonical) snapshot->documents.push_back(shard->bundles[id]);

  // Phase 3 — publish. If no new documents arrived meanwhile, the live
  // greedy partition also adopts the batch result, so subsequent greedy
  // assignments extend the compacted partition instead of the drifted one.
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    snapshot->version = shard->next_version++;
    const bool covers_all = shard->resolver->num_documents() == n;
    if (shard->log != nullptr) {
      // Durable publication happens under the shard lock so the WAL's
      // AdoptPartition record is ordered against concurrent Assign appends
      // — replay must see the partition before any later arrival.
      durability::ShardSnapshotData data;
      data.version = snapshot->version;
      data.threshold = threshold;
      data.canonical_ids.assign(canonical.begin(), canonical.end());
      const std::vector<int>& labels = snapshot->clustering.labels();
      data.labels.assign(labels.begin(), labels.end());
      if (Status st = shard->log->PublishSnapshot(data, covers_all);
          !st.ok()) {
        // Nothing acked is lost: every Assign is still in the WAL, so the
        // shard serves the new partition from memory and the next
        // compaction retries durable publication.
        failed_publishes_->Increment();
      }
    }
    if (covers_all) {
      (void)shard->resolver->AdoptPartition(snapshot->clusters);
      shard->assigns_since_compact.store(0, std::memory_order_relaxed);
    }
    shard->snapshot.store(snapshot, std::memory_order_release);
  }
  snapshot_swaps_->Increment();
  compactions_->Increment();
  record_latency();
  return Status::OK();
}

Status ResolutionService::Compact(const std::string& block,
                                  RequestDeadline deadline) {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  deadline = EffectiveDeadline(deadline);
  WEBER_RETURN_NOT_OK(AdmitWrite(shard, deadline));
  Status st = CompactShard(shard, deadline);
  FinishWrite(shard, st);
  return st;
}

Status ResolutionService::CompactAll() {
  for (const auto& shard : shards_) {
    WEBER_RETURN_NOT_OK(CompactShard(shard.get()));
  }
  return Status::OK();
}

Status ResolutionService::CompactInBackground(const std::string& block) {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  bool expected = false;
  if (!shard->compaction_inflight.compare_exchange_strong(expected, true)) {
    return Status::OK();  // already scheduled or running
  }
  auto task = [this, shard] {
    (void)CompactShard(shard);
    shard->compaction_inflight.store(false);
  };
  if (options_.overload.executor_queue_cap > 0) {
    // Bounded scheduling: a full compaction queue sheds this round rather
    // than queueing without bound. The inflight flag is released so the
    // next trigger (more assigns) retries once the pool drains.
    Result<std::future<void>> submitted = compaction_pool_->TrySubmit(task);
    if (!submitted.ok()) {
      shard->compaction_inflight.store(false);
      compaction_sheds_->Increment();
      return submitted.status();
    }
  } else {
    compaction_pool_->Submit(std::move(task));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection

Result<std::shared_ptr<const ResolverSnapshot>> ResolutionService::Snapshot(
    const std::string& block) const {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  return shard->snapshot.load(std::memory_order_acquire);
}

Result<std::vector<int>> ResolutionService::DumpPartition(
    const std::string& block) const {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  std::shared_ptr<const ResolverSnapshot> snap =
      shard->snapshot.load(std::memory_order_acquire);
  std::vector<int> labels(shard->bundles.size(), -1);
  for (int pos = 0; pos < snap->num_documents(); ++pos) {
    labels[snap->canonical_ids[pos]] = snap->clustering.label(pos);
  }
  return labels;
}

// ---------------------------------------------------------------------------
// Shard migration (export / import)

void ResolutionService::RegisterMigrateMetrics() const {
  // Lazy registration keeps the metrics exposition byte-identical for
  // deployments that never migrate a shard (same pattern as `match`).
  std::call_once(migrate_metrics_once_, [this] {
    exports_.store(
        registry_.GetCounter("weber_shard_exports_total",
                             "Shard states streamed out for migration"),
        std::memory_order_release);
    imports_.store(
        registry_.GetCounter("weber_shard_imports_total",
                             "Shard states installed from a migration"),
        std::memory_order_release);
    rejected_imports_.store(
        registry_.GetCounter(
            "weber_rejected_shard_imports_total",
            "Imports refused by validation (shard state unchanged)"),
        std::memory_order_release);
  });
}

Result<ShardExport> ResolutionService::ExportShard(
    const std::string& block) const {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  WEBER_RETURN_NOT_OK(faults::MaybeFail("migrate.export"));
  RegisterMigrateMetrics();
  ShardExport out;
  // The shard lock makes (published snapshot, arrival tail) a consistent
  // cut: no assign can slip between reading the two.
  std::lock_guard<std::mutex> lock(shard->mu);
  std::shared_ptr<const ResolverSnapshot> snap =
      shard->snapshot.load(std::memory_order_acquire);
  out.snapshot.version = snap->version;
  out.snapshot.threshold = snap->threshold;
  out.snapshot.canonical_ids.assign(snap->canonical_ids.begin(),
                                    snap->canonical_ids.end());
  const std::vector<int>& labels = snap->clustering.labels();
  out.snapshot.labels.assign(labels.begin(), labels.end());
  std::vector<char> in_snapshot(shard->bundles.size(), 0);
  for (int id : snap->canonical_ids) in_snapshot[id] = 1;
  for (int id : shard->arrival_canonical) {
    if (!in_snapshot[id]) out.tail.push_back(id);
  }
  exports_.load(std::memory_order_acquire)->Increment();
  return out;
}

Result<ImportOutcome> ResolutionService::ImportShard(
    const std::string& block, const ShardExport& exported) {
  WEBER_ASSIGN_OR_RETURN(Shard * shard, FindShard(block));
  RegisterMigrateMetrics();
  auto reject = [this](Status st) -> Status {
    rejected_imports_.load(std::memory_order_acquire)->Increment();
    return st;
  };
  if (Status st = faults::MaybeFail("migrate.import"); !st.ok()) {
    return reject(st);
  }
  const durability::ShardSnapshotData& snap = exported.snapshot;
  const int block_size = static_cast<int>(shard->bundles.size());
  // Validate everything before touching any state: a refused import must
  // leave the shard exactly as it was.
  if (snap.canonical_ids.size() != snap.labels.size()) {
    return reject(Status::Corruption(
        "import: snapshot has ", snap.canonical_ids.size(),
        " canonical ids but ", snap.labels.size(), " labels"));
  }
  if (std::abs(snap.threshold - shard->resolver->threshold()) > 1e-9) {
    return reject(Status::FailedPrecondition(
        "import: shard '", shard->name, "' is calibrated at threshold ",
        shard->resolver->threshold(), " but the exported state carries ",
        snap.threshold, " — refusing to mix calibrations"));
  }
  std::vector<char> seen(static_cast<size_t>(block_size), 0);
  for (int32_t id : snap.canonical_ids) {
    if (id < 0 || id >= block_size || seen[id]) {
      return reject(Status::Corruption(
          "import: snapshot of shard '", shard->name,
          "' references invalid or repeated document ", id));
    }
    seen[id] = 1;
  }
  for (int32_t doc : exported.tail) {
    if (doc < 0 || doc >= block_size || seen[doc]) {
      return reject(Status::Corruption(
          "import: tail of shard '", shard->name,
          "' references invalid or repeated document ", doc));
    }
    seen[doc] = 1;
  }
  const std::vector<int> label_ints(snap.labels.begin(), snap.labels.end());
  const graph::Clustering clustering =
      graph::Clustering::FromLabels(label_ints);

  std::lock_guard<std::mutex> lock(shard->mu);
  // Mutation starts here. Reset keeps the calibrated threshold, so the
  // rebuilt resolver scores exactly as before.
  shard->resolver->Reset();
  shard->assigned.assign(static_cast<size_t>(block_size), 0);
  shard->arrival_canonical.clear();
  std::vector<extract::FeatureBundle> docs;
  docs.reserve(snap.canonical_ids.size());
  for (int32_t id : snap.canonical_ids) {
    shard->assigned[id] = 1;
    shard->arrival_canonical.push_back(id);
    docs.push_back(shard->bundles[id]);
  }
  WEBER_RETURN_NOT_OK(
      shard->resolver->Restore(std::move(docs), clustering.Groups()));
  for (int32_t doc : exported.tail) {
    shard->assigned[doc] = 1;
    shard->arrival_canonical.push_back(doc);
    if (shard->resolver->Add(shard->bundles[doc]) < 0) {
      return Status::Internal("import: resolver rejected tail document ",
                              doc, " on shard '", shard->name, "'");
    }
  }

  // Publish the imported snapshot at its ORIGINAL version (unlike crash
  // recovery, which mints a new one): assigns never touch a published
  // snapshot, so the destination's dump is byte-identical to the dump the
  // source would have produced before the migration.
  auto published = std::make_shared<ResolverSnapshot>();
  published->version = snap.version;
  published->threshold = snap.threshold;
  published->clustering = clustering;
  published->clusters = clustering.Groups();
  published->canonical_ids.assign(snap.canonical_ids.begin(),
                                  snap.canonical_ids.end());
  published->documents.reserve(snap.canonical_ids.size());
  for (int32_t id : snap.canonical_ids) {
    published->documents.push_back(shard->bundles[id]);
  }
  shard->snapshot.store(std::move(published), std::memory_order_release);
  shard->next_version = std::max(shard->next_version, snap.version + 1);
  shard->assigns_since_compact.store(0, std::memory_order_relaxed);

  if (shard->log != nullptr) {
    std::vector<durability::WalRecord> tail_records;
    tail_records.reserve(exported.tail.size());
    for (int32_t doc : exported.tail) {
      tail_records.push_back(durability::WalRecord::Assign(doc));
    }
    if (Status st = shard->log->ResetToImport(snap, tail_records); !st.ok()) {
      // The in-memory import stands (it is what the router will flip to);
      // surface the durability failure so the caller can decide whether a
      // non-durable destination is acceptable.
      return Status::IOError("import: shard '", shard->name,
                             "' installed in memory but durable reset ",
                             "failed: ", st.message());
    }
  }
  imports_.load(std::memory_order_acquire)->Increment();
  ImportOutcome outcome;
  outcome.version = snap.version;
  outcome.documents = static_cast<int>(shard->arrival_canonical.size());
  return outcome;
}

ServiceStats ResolutionService::Stats() const {
  ServiceStats stats;
  stats.assign = assign_latency_.Summary();
  stats.query = query_latency_.Summary();
  stats.compact = compact_latency_.Summary();
  stats.match = match_latency_.Summary();
  stats.cache = cache_->Stats();
  stats.assigns = assigns_->Value();
  stats.queries = queries_->Value();
  if (obs::Counter* matches = matches_.load(std::memory_order_acquire)) {
    stats.matches = matches->Value();
  }
  stats.compactions = compactions_->Value();
  stats.failed_compactions = failed_compactions_->Value();
  stats.failed_assigns = failed_assigns_->Value();
  stats.snapshot_swaps = snapshot_swaps_->Value();
  stats.batches_flushed = batcher_->batches_flushed();
  stats.batched_requests = batcher_->requests_flushed();
  stats.durability.enabled = !options_.durability.data_dir.empty();
  for (const auto& shard : shards_) {
    if (shard->log == nullptr) continue;
    stats.durability.wal_appends += shard->log->wal_appends();
    stats.durability.wal_syncs += shard->log->wal_syncs();
    stats.durability.wal_bytes +=
        static_cast<long long>(shard->log->wal_bytes());
    stats.durability.snapshots_written += shard->log->snapshots_written();
    stats.durability.wal_truncations += shard->log->wal_truncations();
  }
  stats.durability.failed_publishes = failed_publishes_->Value();
  stats.durability.recovered_docs = recovered_docs_;
  stats.durability.recovered_snapshots = recovered_snapshots_;
  stats.overload.configured = OverloadConfigured();
  stats.overload.batcher_sheds = batcher_->rejected();
  stats.overload.budget_sheds = budget_sheds_->Value();
  stats.overload.compaction_sheds = compaction_sheds_->Value();
  stats.overload.breaker_sheds = breaker_sheds_->Value();
  stats.overload.deadline_exceeded = deadline_exceeded_->Value();
  for (const auto& shard : shards_) {
    stats.overload.breaker_trips += shard->breaker.trips();
    stats.overload.breaker_recoveries += shard->breaker.recoveries();
    if (shard->breaker.state() == CircuitBreaker::State::kOpen) {
      ++stats.overload.breakers_open;
    }
  }
  // Degradation ledger: keep the serialized RunHealth shape stable (no new
  // fields) by folding overload events into the existing counters —
  // deadline blowouts are deadline hits; a breaker trip means the shard
  // serves stale snapshots, i.e. degraded, just like a failed compaction.
  stats.health.degraded_blocks =
      stats.failed_compactions + stats.overload.breaker_trips;
  stats.health.deadline_hits = stats.overload.deadline_exceeded;
  stats.health.Merge(recovery_health_);
  return stats;
}

void ResolutionService::WriteStatsJson(std::ostream& os) const {
  WriteStatsJson(os, nullptr);
}

void ResolutionService::WriteStatsJson(
    std::ostream& os, const std::function<void(JsonWriter&)>& extra) const {
  WriteStatsJson(os, extra, /*shard_detail=*/false);
}

void ResolutionService::WriteStatsJson(
    std::ostream& os, const std::function<void(JsonWriter&)>& extra,
    bool shard_detail) const {
  const ServiceStats stats = Stats();
  JsonWriter json(os);
  json.BeginObject();
  auto endpoint = [&json](const char* name, const EndpointLatency& e) {
    json.Key(name).BeginObject();
    json.Key("count").Number(e.count);
    json.Key("mean_ms").Number(e.mean_ms);
    json.Key("p50_ms").Number(e.p50_ms);
    json.Key("p95_ms").Number(e.p95_ms);
    json.Key("p99_ms").Number(e.p99_ms);
    json.EndObject();
  };
  json.Key("endpoints").BeginObject();
  endpoint("assign", stats.assign);
  endpoint("query", stats.query);
  endpoint("compact", stats.compact);
  // Gated on use so the stats line is byte-identical for deployments that
  // never issue a match (mirrors the overload section below).
  if (stats.matches > 0) endpoint("match", stats.match);
  json.EndObject();
  json.Key("cache").BeginObject();
  json.Key("hits").Number(stats.cache.hits);
  json.Key("misses").Number(stats.cache.misses);
  json.Key("evictions").Number(stats.cache.evictions);
  json.Key("entries").Number(stats.cache.entries);
  json.Key("hit_rate").Number(stats.cache.HitRate());
  json.EndObject();
  json.Key("counters").BeginObject();
  json.Key("assigns").Number(stats.assigns);
  json.Key("queries").Number(stats.queries);
  if (stats.matches > 0) json.Key("matches").Number(stats.matches);
  json.Key("compactions").Number(stats.compactions);
  json.Key("failed_compactions").Number(stats.failed_compactions);
  json.Key("failed_assigns").Number(stats.failed_assigns);
  json.Key("snapshot_swaps").Number(stats.snapshot_swaps);
  json.Key("batches_flushed").Number(stats.batches_flushed);
  json.Key("batched_requests").Number(stats.batched_requests);
  json.EndObject();
  json.Key("durability").BeginObject();
  json.Key("enabled").Bool(stats.durability.enabled);
  json.Key("fsync").String(
      durability::FsyncPolicyName(options_.durability.fsync));
  json.Key("wal_appends").Number(stats.durability.wal_appends);
  json.Key("wal_syncs").Number(stats.durability.wal_syncs);
  json.Key("wal_bytes").Number(stats.durability.wal_bytes);
  json.Key("snapshots_written").Number(stats.durability.snapshots_written);
  json.Key("wal_truncations").Number(stats.durability.wal_truncations);
  json.Key("failed_publishes").Number(stats.durability.failed_publishes);
  json.Key("recovered_docs").Number(stats.durability.recovered_docs);
  json.Key("recovered_snapshots")
      .Number(stats.durability.recovered_snapshots);
  json.EndObject();
  // Gated so the stats line stays byte-identical to an overload-free build
  // when no overload feature is configured and none has fired.
  if (stats.overload.configured || stats.overload.Any()) {
    json.Key("overload").BeginObject();
    json.Key("batcher_sheds").Number(stats.overload.batcher_sheds);
    json.Key("budget_sheds").Number(stats.overload.budget_sheds);
    json.Key("compaction_sheds").Number(stats.overload.compaction_sheds);
    json.Key("breaker_sheds").Number(stats.overload.breaker_sheds);
    json.Key("total_sheds").Number(stats.overload.TotalSheds());
    json.Key("deadline_exceeded").Number(stats.overload.deadline_exceeded);
    json.Key("breaker_trips").Number(stats.overload.breaker_trips);
    json.Key("breaker_recoveries").Number(stats.overload.breaker_recoveries);
    json.Key("breakers_open").Number(stats.overload.breakers_open);
    json.EndObject();
  }
  json.Key("shards").BeginArray();
  const bool breakers_enabled =
      options_.overload.breaker_failure_threshold > 0;
  for (const auto& shard : shards_) {
    std::shared_ptr<const ResolverSnapshot> snap =
        shard->snapshot.load(std::memory_order_acquire);
    json.BeginObject();
    json.Key("name").String(shard->name);
    json.Key("documents").Number(static_cast<int>(shard->bundles.size()));
    json.Key("served").Number(snap->num_documents());
    json.Key("clusters").Number(snap->clustering.num_clusters());
    json.Key("snapshot_version").Number(
        static_cast<long long>(snap->version));
    // Planner input, emitted only on request (`stats shards`) so the plain
    // stats line stays byte-identical.
    if (shard_detail) {
      json.Key("wal_bytes").Number(static_cast<long long>(
          shard->log ? shard->log->wal_bytes() : 0));
    }
    if (breakers_enabled) {
      json.Key("breaker").String(BreakerStateName(shard->breaker.state()));
    }
    json.EndObject();
  }
  json.EndArray();
  if (extra) extra(json);
  json.Key("health");
  core::WriteRunHealthJson(json, stats.health);
  json.EndObject();
}

}  // namespace serve
}  // namespace weber
