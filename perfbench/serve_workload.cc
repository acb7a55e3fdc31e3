// The fleet session of resolve_www05's traced run: drives a running
// weber_router (in front of weber_serve backends) over loopback TCP.
//
//   ingest   every page assigned once in seeded order, open loop at a
//            fixed rate over two connections;
//   compact  compact-all through the router, then every shard dumped and
//            checked against the batch reference, and its Fp scored
//            against the truth;
//   read     cycles of open-loop `query` at a fixed rate, open-loop
//            `match` requests of a few documents each, a closed-loop
//            `query` window on two connections, and a compact-all;
//   paired   identical queries direct to the owning backend and through
//            the router, for the router hop and the transport cost.
//
// Open-loop latency runs from each request's due time, so a stall also
// charges the requests queued behind it; the generator's own lateness is
// kept. Every response goes through serve::ParseResponse; anything but
// "ok" (or an ok whose body does not check out) is a failed operation.
// The client-side figures are printed for a reader running it by hand;
// the benchmark keeps the per-layer ones.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "eval/metrics.h"
#include "router/router.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using namespace weber;

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kHost[] = "127.0.0.1";
constexpr int kConnections = 2;

/// Read-phase cycle length, and the share of each cycle spent in the
/// open-loop query window, the open-loop match window and the closed-loop
/// capacity window (the rest is one compact-all).
constexpr double kCycleMs = 4000.0;
constexpr double kQueryShare = 0.4;
constexpr double kMatchShare = 0.25;
constexpr double kClosedShare = 0.1;

/// The ingest runs in this many consecutive open-loop windows; assign
/// percentiles are medians over them.
constexpr size_t kIngestChunks = 5;

/// Fixed open-loop rates (requests/s), well below the fleet's capacity of
/// about 700 query/s, and the documents per `match` request.
constexpr double kAssignRate = 150.0;
constexpr double kQueryRate = 150.0;
constexpr double kMatchRate = 100.0;
constexpr int kMatchDocs = 3;

/// Returns an error message for a bad response to `request`, "" when fine.
using Checker = std::function<std::string(const std::string& request,
                                          const serve::Response& response)>;

std::string CheckOk(const std::string&, const serve::Response&) { return ""; }

struct Outcome {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  long long attempted = 0;
  std::vector<std::string> failures;

  void Merge(Outcome&& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    lateness_ms.insert(lateness_ms.end(), other.lateness_ms.begin(),
                       other.lateness_ms.end());
    attempted += other.attempted;
    for (std::string& f : other.failures) failures.push_back(std::move(f));
  }
};

void Record(const std::string& request, const std::string& line,
            const Checker& check, Outcome* out) {
  Result<serve::Response> parsed = serve::ParseResponse(line);
  if (!parsed.ok()) {
    out->failures.push_back("'" + request + "': unparsable response");
  } else if (!parsed->ok()) {
    out->failures.push_back("'" + request + "': " + line.substr(0, 120));
  } else if (std::string why = check(request, *parsed); !why.empty()) {
    out->failures.push_back("'" + request + "': " + why);
  }
}

/// Sends `requests` on one connection at their due times (`due[i]`) while a
/// reader thread matches responses in order.
Outcome OpenLoopConnection(int port, const std::vector<std::string>& requests,
                           const std::vector<Clock::time_point>& due,
                           const Checker& check) {
  Outcome out;
  serve::LineConnection conn;
  if (Status st = conn.Connect(kHost, port); !st.ok()) {
    out.attempted = static_cast<long long>(requests.size());
    out.failures.push_back("connect: " + st.ToString());
    return out;
  }
  std::mutex mu;
  std::deque<size_t> inflight;  // request indices awaiting a response
  bool sender_done = false;
  std::atomic<bool> broken{false};

  std::thread reader([&] {
    while (true) {
      Result<std::string> line = conn.ReadLine();
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      if (!line.ok()) {
        if (!inflight.empty()) {
          out.failures.push_back(std::to_string(inflight.size()) +
                                 " requests unanswered: " +
                                 line.status().ToString());
        }
        broken.store(true);
        return;
      }
      if (inflight.empty()) {
        out.failures.push_back("response with nothing in flight");
        broken.store(true);
        return;
      }
      const size_t i = inflight.front();
      inflight.pop_front();
      out.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due[i]).count());
      Record(requests[i], *line, check, &out);
      if (sender_done && inflight.empty()) return;
    }
  });

  for (size_t i = 0; i < requests.size() && !broken.load(); ++i) {
    std::this_thread::sleep_until(due[i]);
    const Clock::time_point sent = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(i);
      out.lateness_ms.push_back(
          std::chrono::duration<double, std::milli>(sent - due[i]).count());
      ++out.attempted;
    }
    if (!conn.SendLine(requests[i]).ok()) {
      std::lock_guard<std::mutex> lock(mu);
      inflight.pop_back();
      out.failures.push_back("send failed");
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  }
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < give_up && !broken.load()) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (inflight.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  conn.Shutdown();  // wakes a reader still blocked in ReadLine
  reader.join();
  return out;
}

/// Open loop at `rate` requests/s: request i is due at start + i / rate and
/// goes out on connection i % kConnections.
Outcome OpenLoop(int port, const std::vector<std::string>& requests,
                 double rate, const Checker& check) {
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::vector<std::string>> plans(kConnections);
  std::vector<std::vector<Clock::time_point>> dues(kConnections);
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto offset = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(i) / rate));
    plans[i % kConnections].push_back(requests[i]);
    dues[i % kConnections].push_back(start + offset);
  }
  std::vector<Outcome> parts(kConnections);
  std::vector<std::thread> threads;
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      parts[k] = OpenLoopConnection(port, plans[k], dues[k], check);
    });
  }
  for (std::thread& t : threads) t.join();
  Outcome merged;
  for (Outcome& part : parts) merged.Merge(std::move(part));
  return merged;
}

/// Closed loop: kConnections clients each send their next request only
/// after the previous answer, cycling through `requests`, for `seconds`.
/// Returns completions per second.
double ClosedLoop(int port, const std::vector<std::string>& requests,
                  double seconds, Outcome* out) {
  std::vector<Outcome> parts(kConnections);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      Outcome& part = parts[k];
      serve::LineConnection conn;
      if (Status st = conn.Connect(kHost, port); !st.ok()) {
        ++part.attempted;
        part.failures.push_back("connect: " + st.ToString());
        return;
      }
      for (size_t i = static_cast<size_t>(k); Clock::now() < end;
           i += kConnections) {
        const std::string& request = requests[i % requests.size()];
        const Clock::time_point sent = Clock::now();
        Result<std::string> line = conn.Call(request);
        ++part.attempted;
        if (!line.ok()) {
          part.failures.push_back("'" + request + "': " +
                                  line.status().ToString());
          return;
        }
        part.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count());
        Record(request, *line, CheckOk, &part);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  long long completed = 0;
  for (Outcome& part : parts) {
    completed += static_cast<long long>(part.latency_ms.size());
    out->Merge(std::move(part));
  }
  return static_cast<double>(completed) / elapsed;
}

/// One request/response on a fresh connection; the body of an "ok" line.
Result<std::string> CallOnce(int port, const std::string& request) {
  serve::LineConnection conn;
  WEBER_RETURN_NOT_OK(conn.Connect(kHost, port));
  WEBER_ASSIGN_OR_RETURN(std::string line, conn.Call(request));
  WEBER_ASSIGN_OR_RETURN(serve::Response response,
                         serve::ParseResponse(line));
  if (!response.ok()) {
    return Status::Internal("'", request, "' answered ", line.substr(0, 200));
  }
  return response.body;
}

void Absorb(Outcome&& outcome, RunResult* result) {
  result->attempted += outcome.attempted;
  for (const std::string& f : outcome.failures) result->Fail(f);
}

}  // namespace

RunResult RunServeClient(const ServeArgs& args) {
  RunResult result;
  const double client_start = WallNowMs();
  auto full =
      LoadCorpus(args.dir + "/dataset.txt", args.dir + "/gazetteer.txt");
  if (!full.ok()) {
    result.attempted = 1;
    result.Fail("load: " + full.status().ToString());
    return result;
  }
  const corpus::Dataset& dataset = full->dataset;
  const int backends = static_cast<int>(args.backend_ports.size());
  const double pages = dataset.TotalDocuments();

  // Ingest: every (block, doc) once, in seeded order.
  std::vector<std::string> assigns;
  for (const corpus::Block& block : dataset.blocks) {
    for (int d = 0; d < block.num_documents(); ++d) {
      assigns.push_back("assign " + block.query + " " + std::to_string(d));
    }
  }
  Rng rng(args.seed ^ 0x5E7E5EEDULL);
  rng.Shuffle(&assigns);
  std::vector<std::vector<double>> assign_windows;
  std::vector<double> lateness;
  const size_t chunk = (assigns.size() + kIngestChunks - 1) / kIngestChunks;
  for (size_t begin = 0; begin < assigns.size(); begin += chunk) {
    const std::vector<std::string> part(
        assigns.begin() + begin,
        assigns.begin() + std::min(assigns.size(), begin + chunk));
    Outcome ingest = OpenLoop(args.router_port, part, kAssignRate,
                              CheckOk);
    assign_windows.push_back(ingest.latency_ms);
    lateness.insert(lateness.end(), ingest.lateness_ms.begin(),
                    ingest.lateness_ms.end());
    Absorb(std::move(ingest), &result);
  }
  MetricSet& m = result.metrics;
  m.Set("assign_p50_ms", MedianOfWindows(assign_windows, 0.50), "ms");
  m.Set("assign_p99_ms",
        MedianOfWindows(assign_windows, 0.99, kP99Samples), "ms");

  // Compact-all through the router, twice before the verify: a background
  // compaction the ingest scheduled may still publish a snapshot of fewer
  // documents after the first one. Every read cycle below compacts again
  // (a compacted shard re-resolves to the same partition).
  std::vector<double> compact_s;
  auto compact_all = [&] {
    const double t = WallNowMs();
    auto body = CallOnce(args.router_port, "compact");
    compact_s.push_back((WallNowMs() - t) / 1e3);
    ++result.attempted;
    if (!body.ok()) result.Fail("compact: " + body.status().ToString());
  };
  compact_all();
  compact_all();

  // Verify every shard against the reference of its owner's dataset, and
  // score the served partitions against the truth.
  double fp_sum = 0.0;
  for (int i = 0; i < backends; ++i) {
    auto part = LoadCorpus(args.dir + "/backend" + std::to_string(i) + ".txt",
                           args.dir + "/gazetteer.txt");
    auto reference = part.ok() ? ReferencePartitions(part->dataset,
                                                     part->gazetteer.get())
                               : Result<std::vector<graph::Clustering>>(
                                     part.status());
    if (!reference.ok()) {
      result.Fail("reference: " + reference.status().ToString());
      continue;
    }
    for (size_t b = 0; b < part->dataset.blocks.size(); ++b) {
      const corpus::Block& block = part->dataset.blocks[b];
      ++result.attempted;
      auto body = CallOnce(args.router_port, "dump " + block.query);
      auto served = body.ok() ? serve::ParseDumpResponse("ok " + *body)
                              : Result<std::vector<int>>(body.status());
      if (!served.ok()) {
        result.Fail("dump " + block.query + ": " + served.status().ToString());
        continue;
      }
      const graph::Clustering partition =
          graph::Clustering::FromLabels(*served);
      if (partition != (*reference)[b]) {
        result.Fail("shard '" + block.query +
                    "' differs from the batch reference");
      }
      auto report = eval::Evaluate(block.GroundTruth(), partition);
      if (report.ok()) fp_sum += report->fp_measure;
    }
  }
  m.Set("fp", fp_sum / dataset.num_blocks(), "ratio");

  // Read phase. Query targets are drawn from the seeded stream.
  auto random_targets = [&](size_t count, const char* verb, int docs) {
    std::vector<std::string> requests;
    for (size_t i = 0; i < count; ++i) {
      const corpus::Block& block =
          dataset.blocks[rng.UniformUint64(dataset.blocks.size())];
      std::string line = std::string(verb) + " " + block.query;
      for (int d : rng.SampleWithoutReplacement(
               block.num_documents(), std::min(docs, block.num_documents()))) {
        line += ' ';
        line += std::to_string(d);
      }
      requests.push_back(std::move(line));
    }
    return requests;
  };
  const Checker match_check = [](const std::string& request,
                                 const serve::Response& response) {
    auto pairs = serve::ParseMatchResponse("ok " + response.body);
    const size_t asked =
        static_cast<size_t>(std::count(request.begin(), request.end(), ' ')) -
        1;
    if (!pairs.ok() || pairs->size() != asked) {
      return std::string("match answer does not cover the request");
    }
    return std::string();
  };

  // Read cycles fill the rest of the budget, each with an open-loop query
  // window, an open-loop match window, a closed-loop capacity window and
  // one compact-all, so every read metric samples the whole phase; each is
  // reported as the median over cycles.
  const double read_ms = std::max(
      2000.0, args.seconds * 1e3 - (WallNowMs() - client_start));
  const int cycles = std::max(1, static_cast<int>(read_ms / kCycleMs + 0.5));
  const double cycle_s = read_ms / cycles / 1e3;
  std::vector<std::vector<double>> query_windows, match_windows;
  std::vector<double> capacity_qps;
  for (int c = 0; c < cycles; ++c) {
    Outcome query = OpenLoop(
        args.router_port,
        random_targets(
            static_cast<size_t>(kQueryRate * cycle_s * kQueryShare),
            "query", 1),
        kQueryRate, CheckOk);
    Outcome match = OpenLoop(
        args.router_port,
        random_targets(
            static_cast<size_t>(kMatchRate * cycle_s * kMatchShare),
            "match", kMatchDocs),
        kMatchRate, match_check);
    Outcome capacity;
    capacity_qps.push_back(ClosedLoop(args.router_port,
                                      random_targets(4096, "query", 1),
                                      cycle_s * kClosedShare, &capacity));
    compact_all();
    for (Outcome* o : {&query, &match}) {
      lateness.insert(lateness.end(), o->lateness_ms.begin(),
                      o->lateness_ms.end());
    }
    query_windows.push_back(query.latency_ms);
    match_windows.push_back(match.latency_ms);
    for (Outcome* o : {&query, &match, &capacity}) {
      Absorb(std::move(*o), &result);
    }
  }
  m.Set("compact_s", Median(compact_s), "s");
  m.Set("pages_per_s", pages / Median(compact_s), "pages/s");
  m.Set("query_p50_ms", MedianOfWindows(query_windows, 0.50), "ms");
  m.Set("query_p99_ms",
        MedianOfWindows(query_windows, 0.99, kP99Samples), "ms");
  m.Set("query_qps", Median(capacity_qps), "req/s");
  m.Set("match_p50_ms", MedianOfWindows(match_windows, 0.50), "ms");
  m.Set("match_p99_ms",
        MedianOfWindows(match_windows, 0.99, kP99Samples), "ms");


  // Server-side views, parsed by the caller: each backend's `stats` JSON
  // before and after the paired round trips below.
  auto scrape_backends = [&](const std::string& prefix) {
    for (int i = 0; i < backends; ++i) {
      auto body = CallOnce(args.backend_ports[i], "stats");
      if (!body.ok()) {
        result.Fail("stats: " + body.status().ToString());
        continue;
      }
      result.raw_sections.push_back({prefix + std::to_string(i), *body});
    }
  };

  // Paired round trips of identical queries on an idle fleet, direct to
  // the owning backend and through the router, alternating which goes
  // first.
  m.Set("loadgen.lateness_ms", Quantile(lateness, 0.99), "ms");
  scrape_backends("stats_before_backend");
  {
    serve::LineConnection via_router;
    std::vector<serve::LineConnection> direct(backends);
    Status st = via_router.Connect(kHost, args.router_port);
    for (int i = 0; i < backends && st.ok(); ++i) {
      st = direct[i].Connect(kHost, args.backend_ports[i]);
    }
    if (!st.ok()) result.Fail("paired connect: " + st.ToString());
    std::vector<double> direct_ms, hop_ms;
    const std::vector<std::string> paired = random_targets(600, "query", 1);
    for (size_t p = 0; p < paired.size() && st.ok(); ++p) {
      const std::string& request = paired[p];
      const std::string block = request.substr(6, request.find(' ', 6) - 6);
      const size_t owner =
          router::Router::RouteOrder(block, static_cast<size_t>(backends))
              .front();
      double rtt_ms[2] = {0.0, 0.0};  // [direct, through the router]
      bool ok = true;
      for (int leg = 0; leg < 2; ++leg) {
        const bool through_router = (leg == 0) == (p % 2 == 0);
        serve::LineConnection& conn =
            through_router ? via_router : direct[owner];
        const double t = WallNowMs();
        Result<std::string> line = conn.Call(request);
        rtt_ms[through_router ? 1 : 0] = WallNowMs() - t;
        ++result.attempted;
        Outcome one;
        if (line.ok()) Record(request, *line, CheckOk, &one);
        if (!line.ok() || !one.failures.empty()) {
          result.Fail("paired '" + request + "' failed");
          ok = false;
        }
      }
      if (!ok) continue;
      direct_ms.push_back(rtt_ms[0]);
      hop_ms.push_back(rtt_ms[1] - rtt_ms[0]);
    }
    double direct_sum = 0.0;
    for (double v : direct_ms) direct_sum += v;
    m.Set("serve.direct_rtt_ms",
          direct_ms.empty() ? 0.0 : direct_sum / direct_ms.size(), "ms");
    m.Set("router.hop_ms", Median(hop_ms), "ms");
  }
  scrape_backends("stats_backend");
  auto router_stats = CallOnce(args.router_port, "stats");
  if (router_stats.ok()) {
    result.raw_sections.push_back({"stats_router", *router_stats});
  } else {
    result.Fail("router stats: " + router_stats.status().ToString());
  }
  return result;
}

}  // namespace perfbench
