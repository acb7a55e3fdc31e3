// The `match` verb end to end: protocol parse/format round-trips,
// ParseMatchResponse, ResolutionService::Match semantics (one-to-one
// output, validation, deadline, stats gating), concurrent matches against
// a compacting service, and LineServer dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "corpus/generator.h"
#include "corpus/presets.h"
#include "serve/protocol.h"
#include "serve/resolution_service.h"
#include "serve/server.h"

namespace weber {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol layer.

TEST(MatchProtocol, ParsesBlockAndDocumentList) {
  auto request = ParseRequest("match cohen 0 3 1");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->op, Request::Op::kMatch);
  EXPECT_EQ(request->block, "cohen");
  EXPECT_EQ(request->docs, (std::vector<int>{0, 3, 1}));
  EXPECT_EQ(request->deadline_ms, 0.0);
}

TEST(MatchProtocol, ParsesTrailingDeadline) {
  auto request = ParseRequest("match cohen 2 5 deadline 40");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->op, Request::Op::kMatch);
  EXPECT_EQ(request->docs, (std::vector<int>{2, 5}));
  EXPECT_EQ(request->deadline_ms, 40.0);
}

TEST(MatchProtocol, RejectsMissingDocumentsAndBadIds) {
  EXPECT_FALSE(ParseRequest("match").ok());
  EXPECT_FALSE(ParseRequest("match cohen").ok());
  EXPECT_FALSE(ParseRequest("match cohen abc").ok());
  // A lone deadline suffix leaves no documents behind.
  EXPECT_FALSE(ParseRequest("match cohen deadline 40").ok());
}

TEST(MatchProtocol, FormatRoundTripsThroughParse) {
  Request request;
  request.op = Request::Op::kMatch;
  request.block = "cohen";
  request.docs = {4, 0, 7};
  EXPECT_EQ(FormatRequest(request), "match cohen 4 0 7");

  request.deadline_ms = 25.0;
  auto reparsed = ParseRequest(FormatRequest(request));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->op, Request::Op::kMatch);
  EXPECT_EQ(reparsed->block, request.block);
  EXPECT_EQ(reparsed->docs, request.docs);
  EXPECT_EQ(reparsed->deadline_ms, 25.0);
}

TEST(MatchProtocol, ParsesMatchResponsePairsInOrder) {
  auto pairs = ParseMatchResponse("ok 3 4:1 0:-1 2:0");
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  EXPECT_EQ(*pairs, (std::vector<std::pair<int, int>>{{4, 1},
                                                      {0, -1},
                                                      {2, 0}}));
}

TEST(MatchProtocol, RejectsMalformedMatchResponses) {
  EXPECT_FALSE(ParseMatchResponse("err internal boom").ok());
  EXPECT_FALSE(ParseMatchResponse("ok").ok());
  EXPECT_FALSE(ParseMatchResponse("ok 2 1:1").ok());      // count mismatch
  EXPECT_FALSE(ParseMatchResponse("ok 1 11").ok());       // no colon
  EXPECT_FALSE(ParseMatchResponse("ok 1 a:1").ok());      // bad doc
  EXPECT_FALSE(ParseMatchResponse("ok 1 1:b").ok());      // bad cluster
  EXPECT_FALSE(ParseMatchResponse("ok 1 -1:0").ok());     // negative doc
  EXPECT_FALSE(ParseMatchResponse("ok 1 1:-2").ok());     // cluster < -1
}

// ---------------------------------------------------------------------------
// Service layer.

class ResolutionServiceMatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = corpus::SyntheticWebGenerator(corpus::TinyConfig()).Generate();
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = new corpus::SyntheticData(std::move(data).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static std::unique_ptr<ResolutionService> MakeService() {
    auto service = ResolutionService::Create(data_->dataset,
                                             &data_->gazetteer, {});
    EXPECT_TRUE(service.ok()) << service.status();
    return std::move(service).ValueOrDie();
  }

  static const corpus::Block& Block(int i) { return data_->dataset.blocks[i]; }

  static std::vector<int> AllDocs(const corpus::Block& block) {
    std::vector<int> docs(block.num_documents());
    for (int d = 0; d < block.num_documents(); ++d) docs[d] = d;
    return docs;
  }

  static void Fill(ResolutionService* service) {
    for (const corpus::Block& block : data_->dataset.blocks) {
      for (int d = 0; d < block.num_documents(); ++d) {
        ASSERT_TRUE(service->Assign(block.query, d).ok());
      }
    }
    ASSERT_TRUE(service->CompactAll().ok());
  }

  static corpus::SyntheticData* data_;
};

corpus::SyntheticData* ResolutionServiceMatchTest::data_ = nullptr;

TEST_F(ResolutionServiceMatchTest, EmptySnapshotLeavesEverythingUnmatched) {
  auto service = MakeService();
  auto result = service->Match(Block(0).query, AllDocs(Block(0)));
  ASSERT_TRUE(result.ok()) << result.status();
  for (int cluster : result->clusters) EXPECT_EQ(cluster, -1);
}

TEST_F(ResolutionServiceMatchTest, MatchIsOneToOneOverSnapshotClusters) {
  auto service = MakeService();
  Fill(service.get());
  const corpus::Block& block = Block(0);
  auto result = service->Match(block.query, AllDocs(block));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->clusters.size(), AllDocs(block).size());
  EXPECT_GT(result->snapshot_version, 0u);

  std::set<int> used;
  int matched = 0;
  for (int cluster : result->clusters) {
    if (cluster < 0) continue;
    ++matched;
    EXPECT_TRUE(used.insert(cluster).second)
        << "cluster " << cluster << " assigned to two documents";
  }
  // Every page of the block is in the compacted snapshot, so at least its
  // own cluster clears the shard threshold for some document.
  EXPECT_GT(matched, 0);
}

TEST_F(ResolutionServiceMatchTest, ResultsArriveInRequestOrder) {
  auto service = MakeService();
  Fill(service.get());
  const corpus::Block& block = Block(0);
  std::vector<int> forward = AllDocs(block);
  std::vector<int> reversed(forward.rbegin(), forward.rend());
  auto a = service->Match(block.query, forward);
  auto b = service->Match(block.query, reversed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->clusters.size(), b->clusters.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(a->clusters[i], b->clusters[b->clusters.size() - 1 - i]);
  }
}

TEST_F(ResolutionServiceMatchTest, ValidatesBlockAndDocuments) {
  auto service = MakeService();
  EXPECT_EQ(service->Match("nonesuch", {0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->Match(Block(0).query, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Match(Block(0).query, {-1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service->Match(Block(0).query, {Block(0).num_documents()}).status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Match(Block(0).query, {0, 1, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ResolutionServiceMatchTest, ExpiredDeadlineIsRejected) {
  auto service = MakeService();
  RequestDeadline deadline = RequestDeadline::In(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto result = service->Match(Block(0).query, {0}, deadline);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ResolutionServiceMatchTest, StatsAreGatedUntilFirstMatch) {
  auto service = MakeService();
  Fill(service.get());
  // Unused verb: no match counter, no match endpoint, no trace of the
  // subsystem in the serialized stats (the byte-compatibility guarantee).
  EXPECT_EQ(service->Stats().matches, 0);
  std::ostringstream before;
  service->WriteStatsJson(before);
  EXPECT_EQ(before.str().find("match"), std::string::npos);

  ASSERT_TRUE(service->Match(Block(0).query, {0, 1}).ok());
  EXPECT_EQ(service->Stats().matches, 1);
  EXPECT_GT(service->Stats().match.count, 0);
  std::ostringstream after;
  service->WriteStatsJson(after);
  EXPECT_NE(after.str().find("\"matches\""), std::string::npos);
  EXPECT_NE(after.str().find("\"match\""), std::string::npos);
}

TEST_F(ResolutionServiceMatchTest, CompiledPathMatchIsBitIdenticalToInterpreted) {
  // Match scores through the compiled strip kernels unless a fault point is
  // armed; arming `similarity.compute` at probability 0 (it never fires)
  // forces the per-pair walk, which must produce identical pairings (the
  // kernels are bit-identical, so this is equality, not tolerance).
  auto service = MakeService();
  Fill(service.get());
  faults::ScopedFaultClearance clearance;
  faults::FaultConfig never;
  never.kind = faults::FaultKind::kNaN;
  never.probability = 0.0;
  for (const corpus::Block& block : data_->dataset.blocks) {
    auto a = service->Match(block.query, AllDocs(block));
    faults::FaultInjector::Instance().Arm("similarity.compute", never);
    auto b = service->Match(block.query, AllDocs(block));
    faults::FaultInjector::Instance().DisarmAll();
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->clusters, b->clusters) << "block " << block.query;
  }
}

TEST_F(ResolutionServiceMatchTest, ConcurrentMatchesAndCompactionsAreSafe) {
  auto service = MakeService();
  Fill(service.get());
  const corpus::Block& block = Block(0);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = service->Match(block.query, {0, 1, 2});
        if (!result.ok() || result->clusters.size() != 3) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service->Compact(block.query).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Server dispatch.

class LineServerMatchTest : public ResolutionServiceMatchTest {};

TEST_F(LineServerMatchTest, DispatchesMatchAndFormatsPairs) {
  auto service = MakeService();
  Fill(service.get());
  LineServer server(service.get(), {});
  bool quit = false;
  const corpus::Block& block = Block(0);
  const std::string line = "match " + block.query + " 2 0";
  const std::string response = server.HandleLine(line, &quit);
  EXPECT_FALSE(quit);
  auto pairs = ParseMatchResponse(response);
  ASSERT_TRUE(pairs.ok()) << response;
  ASSERT_EQ(pairs->size(), 2u);
  // Pairs echo the requested documents in request order.
  EXPECT_EQ((*pairs)[0].first, 2);
  EXPECT_EQ((*pairs)[1].first, 0);
}

TEST_F(LineServerMatchTest, SurfacesServiceErrorsOnTheWire) {
  auto service = MakeService();
  LineServer server(service.get(), {});
  bool quit = false;
  const std::string response = server.HandleLine("match nonesuch 0", &quit);
  EXPECT_EQ(response.rfind("err ", 0), 0u) << response;
  auto parsed = ParseResponse(response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, Response::Kind::kError);
  EXPECT_EQ(parsed->code, StatusCode::kNotFound);
}

}  // namespace
}  // namespace serve
}  // namespace weber
