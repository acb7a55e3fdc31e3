// weber_serve: the concurrent resolution service behind a line protocol.
//
//   weber_serve --dataset=corpus/dataset.txt --gazetteer=corpus/gazetteer.txt
//   weber_serve --dataset=... --gazetteer=... --port=0        # + TCP
//
// Requests arrive newline-delimited on stdin and (with --port) on TCP
// connections to 127.0.0.1; see src/serve/protocol.h for the grammar. With
// --port=0 an ephemeral port is chosen and announced on stdout as
// "listening on 127.0.0.1:<port>" before serving begins. The stdio loop
// runs until EOF or `quit`; pass --nostdio to serve TCP only (stop with a
// signal). Fault points serve.assign / serve.compact / serve.wal.* /
// serve.snapshot.write honor --faults and WEBER_FAULTS for chaos drills.
//
// Overload protection (all off by default): --queue-cap bounds the assign
// and compaction queues, --max-pending-per-shard bounds per-shard admitted
// writes, --max-connections / --listen-backlog / --read-timeout-ms /
// --write-timeout-ms bound the TCP layer, --default-deadline-ms applies a
// deadline to requests that carry none, and --breaker-failures /
// --breaker-cooldown-ms arm per-shard circuit breakers. Shed requests are
// answered "OVERLOADED <retry-after-ms>" (see --retry-after-ms) and blown
// deadlines "DEADLINE_EXCEEDED".
//
// Observability: the `metrics` verb answers with the service's metrics
// registry as Prometheus text exposition ("ok <n>" plus n payload lines);
// `stats` stays the one-line JSON summary. --trace records per-request
// spans in a bounded ring buffer and --slow-request-ms logs a WARNING for
// any request (or inner span) at or over the threshold.
//
// With --data-dir every shard keeps a write-ahead log and checksummed
// snapshots there and recovers from them on startup; --fsync picks the
// group-commit policy (never | batch | always). SIGINT/SIGTERM shut the
// server down gracefully: in-flight requests are answered, the micro-batch
// and WALs are flushed, and the process exits 0.

#include <csignal>
#include <cstring>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "corpus/dataset_io.h"
#include "durability/wal.h"
#include "serve/resolution_service.h"
#include "serve/server.h"

using namespace weber;

namespace {

int g_stop_pipe[2] = {-1, -1};

// Async-signal-safe: a byte on the self-pipe wakes whichever blocking loop
// the main thread is in (ServeFd poll or the --nostdio wait).
void HandleStopSignal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_stop_pipe[1], &byte, 1);
}

Status InstallStopHandlers() {
  if (::pipe(g_stop_pipe) != 0) {
    return Status::IOError("pipe(): ", std::strerror(errno));
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGINT, &sa, nullptr) != 0 ||
      ::sigaction(SIGTERM, &sa, nullptr) != 0) {
    return Status::IOError("sigaction(): ", std::strerror(errno));
  }
  return Status::OK();
}

void AddFlags(FlagParser* flags) {
  flags->AddString("dataset", "", "path to a labeled WEBER dataset file");
  flags->AddString("gazetteer", "", "path to a WEBER gazetteer file");
  flags->AddInt("port", -1,
                "TCP port on 127.0.0.1 (-1 = stdio only, 0 = ephemeral)");
  flags->AddString("port-file", "",
                   "also write the bound TCP port to this file once "
                   "listening (fleet scripts read it instead of scraping "
                   "stdout)");
  flags->AddBool("stdio", true, "serve the stdin/stdout request loop");
  flags->AddInt("compaction_threads", 1, "background compaction workers");
  flags->AddInt("cache_capacity", 1 << 20, "similarity cache entries");
  flags->AddInt("cache_shards", 16, "similarity cache lock stripes");
  flags->AddInt("max_batch_size", 16, "assign micro-batch size");
  flags->AddDouble("max_delay_ms", 2.0, "assign micro-batch flush deadline");
  flags->AddInt("compact_every", 0,
                "auto-compact a shard after N assigns (0 = on request only)");
  flags->AddString("assignment", "mean",
                   "cluster scoring: mean (avg linkage) | max (single)");
  flags->AddDouble("train_fraction", 0.10,
                   "labeled pair fraction for threshold calibration");
  flags->AddInt("seed", 0x5E21E, "calibration sampling seed");
  flags->AddBool("lenient", false,
                 "skip corrupt dataset blocks instead of failing the file");
  flags->AddString("faults", "",
                   "fault spec point=kind[:prob[:param[:max]]];... "
                   "(or WEBER_FAULTS env)");
  flags->AddInt("fault_seed", 0, "seed for fault trigger streams");
  flags->AddString("data-dir", "",
                   "directory for per-shard WALs + snapshots with crash "
                   "recovery (empty = in-memory only)");
  flags->AddString("fsync", "batch",
                   "WAL fsync policy: never | batch | always");
  flags->AddInt("wal-truncate-bytes", 1 << 20,
                "restart a shard's WAL at a fully-covering snapshot once it "
                "exceeds this many bytes");
  flags->AddBool("verify-recovery", true,
                 "cross-check recovered partitions against a fresh batch "
                 "re-resolution on startup");
  flags->AddInt("queue-cap", 0,
                "bound the assign micro-batch queue and the background "
                "compaction queue; excess requests answer OVERLOADED "
                "(0 = unbounded)");
  flags->AddInt("max-pending-per-shard", 0,
                "bound on writes admitted but unfinished per shard "
                "(0 = unbounded)");
  flags->AddDouble("default-deadline-ms", 0.0,
                   "deadline applied to requests without a 'deadline <ms>' "
                   "suffix (0 = none)");
  flags->AddInt("breaker-failures", 0,
                "consecutive write failures that trip a shard's circuit "
                "breaker (0 = breakers off)");
  flags->AddDouble("breaker-cooldown-ms", 1000.0,
                   "how long a tripped breaker rejects writes before "
                   "admitting a probe");
  flags->AddInt("listen-backlog", 64, "listen(2) backlog for --port");
  flags->AddInt("max-connections", 0,
                "concurrent TCP connections; excess accepts answer "
                "OVERLOADED and close (0 = unlimited)");
  flags->AddDouble("read-timeout-ms", 0.0,
                   "close a TCP connection idle longer than this "
                   "(0 = never)");
  flags->AddDouble("write-timeout-ms", 0.0,
                   "give up on a TCP client that cannot absorb a response "
                   "within this (0 = block)");
  flags->AddDouble("retry-after-ms", 50.0,
                   "retry hint carried by OVERLOADED responses");
  flags->AddBool("trace", false,
                 "record per-request trace spans (accept -> parse -> "
                 "batcher -> shard -> resolver) in a bounded ring buffer");
  flags->AddDouble("slow-request-ms", 0.0,
                   "log a WARNING line for any span at or over this many "
                   "milliseconds (implies --trace; 0 = off)");
  flags->AddInt("trace-capacity", 4096,
                "trace spans retained in the ring buffer");
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return ExitCodeForStatus(status.code());
}

int Run(int argc, char** argv) {
  FlagParser flags;
  AddFlags(&flags);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      std::cout << flags.Usage(
          "weber_serve — concurrent entity-resolution service "
          "(newline-delimited protocol on stdio and/or TCP)");
      return 0;
    }
  }
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);

  faults::FaultInjector& injector = faults::FaultInjector::Instance();
  if (flags.WasSet("fault_seed")) {
    injector.Seed(static_cast<uint64_t>(flags.GetInt("fault_seed")));
  }
  std::string fault_spec = flags.GetString("faults");
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("WEBER_FAULTS")) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    if (auto st = injector.ArmFromSpec(fault_spec); !st.ok()) return Fail(st);
    std::cerr << "fault injection armed: " << fault_spec << "\n";
  }

  corpus::LoadOptions load_options;
  load_options.lenient = flags.GetBool("lenient");
  auto dataset =
      corpus::LoadDatasetFromFile(flags.GetString("dataset"), load_options,
                                  nullptr);
  if (!dataset.ok()) return Fail(dataset.status());
  std::ifstream gz(flags.GetString("gazetteer"));
  if (!gz) {
    return Fail(Status::IOError("cannot read ", flags.GetString("gazetteer")));
  }
  auto gazetteer = corpus::LoadGazetteer(gz);
  if (!gazetteer.ok()) return Fail(gazetteer.status());

  serve::ServiceOptions options;
  options.compaction_threads = flags.GetInt("compaction_threads");
  options.cache.capacity =
      static_cast<size_t>(std::max(1, flags.GetInt("cache_capacity")));
  options.cache.num_shards = flags.GetInt("cache_shards");
  options.batcher.max_batch_size = flags.GetInt("max_batch_size");
  options.batcher.max_delay_ms = flags.GetDouble("max_delay_ms");
  options.compact_every = flags.GetInt("compact_every");
  options.train_fraction = flags.GetDouble("train_fraction");
  options.calibration_seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const std::string assignment = flags.GetString("assignment");
  if (assignment == "mean") {
    options.incremental.assignment =
        core::IncrementalOptions::Assignment::kBestMean;
  } else if (assignment == "max") {
    options.incremental.assignment =
        core::IncrementalOptions::Assignment::kBestMax;
  } else {
    return Fail(Status::InvalidArgument("unknown --assignment '", assignment,
                                        "' (mean | max)"));
  }
  options.durability.data_dir = flags.GetString("data-dir");
  auto fsync = durability::ParseFsyncPolicy(flags.GetString("fsync"));
  if (!fsync.ok()) return Fail(fsync.status());
  options.durability.fsync = fsync.ValueOrDie();
  options.durability.wal_truncate_bytes =
      static_cast<uint64_t>(std::max(0, flags.GetInt("wal-truncate-bytes")));
  options.durability.verify_recovery = flags.GetBool("verify-recovery");
  const int queue_cap = std::max(0, flags.GetInt("queue-cap"));
  options.overload.executor_queue_cap = static_cast<size_t>(queue_cap);
  options.overload.batcher_queue_cap = static_cast<size_t>(queue_cap);
  options.overload.max_pending_per_shard =
      std::max(0, flags.GetInt("max-pending-per-shard"));
  options.overload.default_deadline_ms =
      flags.GetDouble("default-deadline-ms");
  options.overload.breaker_failure_threshold =
      std::max(0, flags.GetInt("breaker-failures"));
  options.overload.breaker_cooldown_ms =
      flags.GetDouble("breaker-cooldown-ms");

  // The collector must outlive the service (the service holds a raw
  // pointer); with neither --trace nor --slow-request-ms the pointer stays
  // null and every span in the serving path is a no-op.
  const double slow_request_ms =
      std::max(0.0, flags.GetDouble("slow-request-ms"));
  std::unique_ptr<obs::TraceCollector> trace;
  if (flags.GetBool("trace") || slow_request_ms > 0.0) {
    obs::TraceOptions trace_options;
    trace_options.capacity =
        static_cast<size_t>(std::max(1, flags.GetInt("trace-capacity")));
    trace_options.slow_ms = slow_request_ms;
    trace = std::make_unique<obs::TraceCollector>(trace_options);
    options.trace = trace.get();
    if (slow_request_ms > 0.0) {
      std::cerr << "slow-request logging armed at " << slow_request_ms
                << " ms\n";
    }
  }

  auto service =
      serve::ResolutionService::Create(*dataset, &*gazetteer, options);
  if (!service.ok()) return Fail(service.status());
  std::cerr << "serving " << (*service)->block_names().size() << " shards\n";

  if (auto st = InstallStopHandlers(); !st.ok()) return Fail(st);

  serve::ServerOptions server_options;
  server_options.listen_backlog = std::max(1, flags.GetInt("listen-backlog"));
  server_options.max_connections =
      std::max(0, flags.GetInt("max-connections"));
  server_options.read_timeout_ms = flags.GetDouble("read-timeout-ms");
  server_options.write_timeout_ms = flags.GetDouble("write-timeout-ms");
  server_options.retry_after_ms =
      std::max(1.0, flags.GetDouble("retry-after-ms"));
  serve::LineServer server(service->get(), server_options);
  const int port = flags.GetInt("port");
  if (port >= 0) {
    if (auto st = server.StartTcp(port); !st.ok()) return Fail(st);
    std::cout << "listening on 127.0.0.1:" << server.tcp_port() << std::endl;
    const std::string port_file = flags.GetString("port-file");
    if (!port_file.empty()) {
      std::ofstream pf(port_file, std::ios::trunc);
      pf << server.tcp_port() << "\n";
      if (!pf) {
        return Fail(Status::IOError("cannot write --port-file ", port_file));
      }
    }
  }
  if (flags.GetBool("stdio")) {
    if (auto st = server.ServeFd(STDIN_FILENO, std::cout, g_stop_pipe[0]);
        !st.ok()) {
      return Fail(st);
    }
  } else if (port >= 0) {
    // Block until SIGINT/SIGTERM taps the self-pipe.
    char byte;
    while (::read(g_stop_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
  } else {
    return Fail(Status::InvalidArgument(
        "--nostdio without --port leaves nothing to serve"));
  }
  // Graceful drain: answer in-flight TCP requests, then flush the batcher
  // and make everything in the WALs durable before exiting 0.
  server.StopTcp();
  if (auto st = (*service)->SyncDurable(); !st.ok()) {
    std::cerr << "warning: final WAL sync failed: " << st << "\n";
  }
  std::cerr << "shutdown complete\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
