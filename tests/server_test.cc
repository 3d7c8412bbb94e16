// Serving-layer tests: interleaved scheduler jobs must be byte-identical
// to standalone engine runs (across scheduling modes), repeated requests
// must be served from the ResultCache without re-running supersteps, the
// bounded admission queue must reject deterministically, and both wire
// fronts (TCP and stream) must speak the protocol end to end.
#include "server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "testutil.h"
#include "util/mutex.h"

namespace graphite {
namespace {

QueryRequest MustParse(const std::string& line) {
  auto req = QueryService::Parse(line);
  GRAPHITE_CHECK(req.ok());
  return *req;
}

/// The standalone expectation: the canonical fragment rendered against a
/// fresh single-use Workload, no server anywhere in sight.
std::string Standalone(const QueryRequest& req, const TemporalGraph& g) {
  Workload w{TemporalGraph(g)};
  auto fragment = QueryService::RenderFragment(req, w);
  GRAPHITE_CHECK(fragment.ok());
  return *fragment;
}

/// The mixed request set the concurrency tests replay over each graph.
std::vector<std::string> MixedRequests(const std::string& graph) {
  const std::string g = "\"graph\":\"" + graph + "\"";
  return {
      "{\"op\":\"run\"," + g + ",\"alg\":\"bfs\",\"source\":0}",
      "{\"op\":\"run\"," + g + ",\"alg\":\"wcc\",\"platform\":\"msb\"}",
      "{\"op\":\"run\"," + g + ",\"alg\":\"pr\"}",
      "{\"op\":\"run\"," + g + ",\"alg\":\"sssp\",\"source\":0}",
      "{\"op\":\"run\"," + g + ",\"alg\":\"eat\",\"source\":0,"
          "\"platform\":\"tgb\"}",
      "{\"op\":\"run\"," + g + ",\"alg\":\"bfs\",\"source\":0,"
          "\"window\":[1,8]}",
      "{\"op\":\"path\"," + g + ",\"kind\":\"eat\",\"source\":0,"
          "\"target\":4}",
      "{\"op\":\"reach_at\"," + g + ",\"source\":0,\"at\":6}",
      "{\"op\":\"bfs_at\"," + g + ",\"source\":0,\"at\":6}",
      "{\"op\":\"stats\"," + g + "}",
  };
}

TEST(QueryServiceTest, ExecuteMatchesStandaloneRender) {
  GraphRegistry registry;
  ResultCache cache(64);
  QueryService service(&registry, &cache);
  registry.Add("t", testutil::MakeTransitGraph());

  const TemporalGraph standalone_graph = testutil::MakeTransitGraph();
  for (const std::string& line : MixedRequests("t")) {
    const QueryRequest req = MustParse(line);
    const std::string expected = Standalone(req, standalone_graph);
    const std::string response = service.Execute(req);
    EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
    // Byte-identity: the response embeds the standalone fragment verbatim.
    EXPECT_NE(response.find(expected), std::string::npos)
        << line << "\n" << response;
  }
}

TEST(QueryServiceTest, ResultFragmentIdenticalAcrossSchedulingModes) {
  GraphRegistry registry;
  QueryService service(&registry, /*cache=*/nullptr);
  registry.Add("t", testutil::MakeTransitGraph());
  const TemporalGraph standalone_graph = testutil::MakeTransitGraph();

  for (const std::string& line : MixedRequests("t")) {
    QueryRequest req = MustParse(line);
    const std::string expected = Standalone(req, standalone_graph);
    for (const char* mode : {"sequential", "stealing"}) {
      req.mode = mode;
      req.workers = 4;
      const std::string response = service.Execute(req);
      EXPECT_NE(response.find(expected), std::string::npos)
          << line << " mode=" << mode << "\n" << response;
    }
  }
}

TEST(QueryServiceTest, RepeatedRequestServedFromCache) {
  GraphRegistry registry;
  ResultCache cache(64);
  QueryService service(&registry, &cache);
  registry.Add("t", testutil::MakeTransitGraph());

  const QueryRequest req = MustParse(
      "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\",\"source\":0}");
  ExecStats first, second;
  const std::string cold = service.Execute(req, 0, &first);
  const std::string warm = service.Execute(req, 0, &second);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.supersteps, 0);  // no supersteps re-run on a hit
  EXPECT_EQ(cache.stats().hits, 1);
  // Identical result fragment on hit and miss.
  const std::string expected =
      Standalone(req, testutil::MakeTransitGraph());
  EXPECT_NE(cold.find(expected), std::string::npos);
  EXPECT_NE(warm.find(expected), std::string::npos);
  EXPECT_NE(cold.find("\"cached\": false"), std::string::npos);
  EXPECT_NE(warm.find("\"cached\": true"), std::string::npos);
}

TEST(QueryServiceTest, ReloadBumpsEpochAndMissesCache) {
  GraphRegistry registry;
  ResultCache cache(64);
  QueryService service(&registry, &cache);
  registry.Add("t", testutil::MakeTransitGraph());

  const QueryRequest req = MustParse(
      "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"bfs\",\"source\":0}");
  ExecStats stats;
  service.Execute(req, 0, &stats);
  registry.Add("t", testutil::MakeTransitGraph());  // reload: new epoch
  service.Execute(req, 0, &stats);
  EXPECT_FALSE(stats.cached);  // epoch in the key -> no stale hit
}

TEST(QueryServiceTest, ErrorsBecomeErrorResponses) {
  GraphRegistry registry;
  QueryService service(&registry, nullptr);
  registry.Add("t", testutil::MakeTransitGraph());

  const std::string missing_graph = service.Execute(
      MustParse("{\"op\":\"run\",\"graph\":\"nope\",\"alg\":\"bfs\"}"));
  EXPECT_NE(missing_graph.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(missing_graph.find("NotFound"), std::string::npos);

  const std::string bad_alg = service.Execute(
      MustParse("{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"nope\"}"));
  EXPECT_NE(bad_alg.find("InvalidArgument"), std::string::npos);

  const std::string bad_combo = service.Execute(MustParse(
      "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\","
      "\"platform\":\"msb\"}"));
  EXPECT_NE(bad_combo.find("InvalidArgument"), std::string::npos);
}

// Only "sequential" and "stealing" name a scheduling mode; the retired
// "spawn" and "pool" are rejected like any other unknown name.
TEST(QueryServiceTest, UnknownModeIsInvalidArgument) {
  GraphRegistry registry;
  QueryService service(&registry, nullptr);
  registry.Add("t", testutil::MakeTransitGraph());
  for (const char* mode : {"spawn", "pool", "warp-speed"}) {
    const std::string response = service.Execute(MustParse(
        std::string("{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"bfs\","
                    "\"mode\":\"") +
        mode + "\"}"));
    EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << mode;
    EXPECT_NE(response.find("InvalidArgument"), std::string::npos) << mode;
    EXPECT_NE(response.find(std::string("unknown mode: ") + mode),
              std::string::npos)
        << response;
  }
}

// The acceptance scenario: >= 64 concurrent mixed requests over >= 2
// resident graphs, every response byte-identical to a standalone run.
// --- The append control op (ISSUE 10, DESIGN.md §4l) -----------------

// The wire batch the append tests send, mirrored as a typed EdgeBatch so
// the expected post-append fragment can be computed standalone.
EdgeBatch WireExtension() {
  EdgeBatch batch;
  batch.vertices.push_back({6, Interval(0, kTimeMax)});
  batch.edges.push_back({50, 0, 6, Interval(2, 5)});
  batch.edges.push_back({51, 6, 4, Interval(4, 8)});
  batch.props.push_back({50, kTravelTimeLabel, Interval(2, 5), 1});
  batch.props.push_back({50, kTravelCostLabel, Interval(2, 5), 2});
  batch.props.push_back({51, kTravelTimeLabel, Interval(4, 8), 1});
  batch.props.push_back({51, kTravelCostLabel, Interval(4, 8), 2});
  return batch;
}

const char kWireAppendLine[] =
    "{\"id\":7,\"op\":\"append\",\"graph\":\"t\","
    "\"vertices\":[[6,0,-1]],"
    "\"edges\":[[50,0,6,2,5],[51,6,4,4,8]],"
    "\"props\":[[50,\"travel-time\",2,5,1],[50,\"travel-cost\",2,5,2],"
    "[51,\"travel-time\",4,8,1],[51,\"travel-cost\",4,8,2]]}";

// Appending to a resident graph publishes a new epoch and erases the
// graph's cached fragments: a fragment computed against the pre-append
// head must NEVER be served once the head moves, while a handle taken
// before the append keeps the pinned old view.
TEST(ServerAppendTest, AppendInvalidatesCacheAndPinsOldView) {
  ServerOptions options;
  options.scheduler.num_threads = 2;
  Server server(options);
  server.registry().Add("t", testutil::MakeTransitGraph());

  Mutex mu;
  std::vector<std::string> responses;
  auto respond = [&](std::string line) {
    MutexLock lock(mu);
    responses.push_back(std::move(line));
  };
  const std::string query =
      "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\",\"source\":0}";
  const QueryRequest req = MustParse(query);
  const std::string pre_fragment =
      Standalone(req, testutil::MakeTransitGraph());

  // Warm the cache against the pre-append head.
  server.HandleLine(query, respond);
  server.scheduler().Drain();
  server.HandleLine(query, respond);
  server.scheduler().Drain();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].find(pre_fragment), std::string::npos);
  EXPECT_NE(responses[0].find("\"cached\": false"), std::string::npos);
  EXPECT_NE(responses[1].find("\"cached\": true"), std::string::npos);

  // An in-flight job's handle, taken before the append.
  auto pinned = server.registry().Get("t");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  const size_t pre_edges = pinned->workload.graph().num_edges();

  std::string append_response;
  server.HandleLine(kWireAppendLine, [&](std::string line) {
    append_response = std::move(line);
  });
  EXPECT_NE(append_response.find("\"ok\": true"), std::string::npos)
      << append_response;
  EXPECT_NE(append_response.find("\"epoch\": 2"), std::string::npos)
      << append_response;
  // 1 vertex + 2 edges + 4 props advanced the watermark by 7.
  EXPECT_NE(append_response.find("\"delta_watermark\": 7"), std::string::npos)
      << append_response;
  EXPECT_NE(append_response.find("\"invalidated\": 1"), std::string::npos)
      << append_response;

  // The pinned handle still sees the pre-append graph; the registry's
  // current entry is the grown copy under the new epoch.
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->workload.graph().num_edges(), pre_edges);
  EXPECT_EQ(pinned->workload.graph().head(), (GraphHead{0, 0}));
  auto current = server.registry().Get("t");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->epoch, 2u);
  EXPECT_EQ(current->workload.graph().num_edges(), pre_edges + 2);

  // The same query now misses the cache and returns the merged graph's
  // fragment — the pre-append bytes are gone, not served.
  TemporalGraph merged = testutil::MakeTransitGraph();
  ASSERT_TRUE(merged.Append(WireExtension()).ok());
  const std::string post_fragment = Standalone(req, merged);
  ASSERT_NE(post_fragment, pre_fragment);  // the new path changes SSSP

  responses.clear();
  server.HandleLine(query, respond);
  server.scheduler().Drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"cached\": false"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find(post_fragment), std::string::npos)
      << responses[0];
  EXPECT_EQ(responses[0].find(pre_fragment), std::string::npos)
      << responses[0];

  // A repeat is a cache hit again — on the NEW epoch's key.
  responses.clear();
  server.HandleLine(query, respond);
  server.scheduler().Drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"cached\": true"), std::string::npos);
  EXPECT_NE(responses[0].find(post_fragment), std::string::npos);
}

TEST(ServerAppendTest, AppendWithCompactResealsTheBase) {
  ServerOptions options;
  Server server(options);
  server.registry().Add("t", testutil::MakeTransitGraph());

  std::string response;
  const std::string line = std::string(kWireAppendLine);
  // Splice a compact flag into the request.
  const std::string with_compact =
      line.substr(0, line.size() - 1) + ",\"compact\":true}";
  server.HandleLine(with_compact,
                    [&](std::string l) { response = std::move(l); });
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"base_epoch\": 1"), std::string::npos) << response;
  EXPECT_NE(response.find("\"delta_watermark\": 0"), std::string::npos)
      << response;
  auto entry = server.registry().Get("t");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->workload.graph().num_delta_edges(), 0u);
  EXPECT_EQ(entry->workload.graph().head(), (GraphHead{1, 0}));
}

TEST(ServerAppendTest, AppendErrorsAreResponsesNotCrashes) {
  ServerOptions options;
  Server server(options);
  server.registry().Add("t", testutil::MakeTransitGraph());
  std::string response;
  auto respond = [&](std::string line) { response = std::move(line); };

  // Unknown graph.
  server.HandleLine(
      "{\"op\":\"append\",\"graph\":\"nope\",\"edges\":[[50,0,1,1,2]]}",
      respond);
  EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;
  EXPECT_NE(response.find("not resident"), std::string::npos) << response;

  // Malformed rows.
  server.HandleLine("{\"op\":\"append\",\"graph\":\"t\",\"edges\":[[50,0]]}",
                    respond);
  EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;

  // Empty batch.
  server.HandleLine("{\"op\":\"append\",\"graph\":\"t\"}", respond);
  EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;

  // Constraint violation (duplicate sealed eid) leaves the graph alone.
  server.HandleLine(
      "{\"op\":\"append\",\"graph\":\"t\",\"edges\":[[10,0,1,3,5]]}",
      respond);
  EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;
  auto entry = server.registry().Get("t");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, 1u);
  EXPECT_EQ(entry->workload.graph().head(), (GraphHead{0, 0}));
}

// An append whose property label the text format cannot carry is
// rejected before anything applies: the graph keeps its head and its
// text still re-reads.
TEST(ServerAppendTest, AppendRejectsLabelsTheTextFormatCannotCarry) {
  ServerOptions options;
  Server server(options);
  server.registry().Add("t", testutil::MakeTransitGraph());
  std::string response;
  auto respond = [&](std::string line) { response = std::move(line); };
  for (const char* label : {"a b", "", "a\\tb"}) {
    SCOPED_TRACE(label);
    server.HandleLine(
        std::string("{\"op\":\"append\",\"graph\":\"t\","
                    "\"vertices\":[[6,0,-1]],\"edges\":[[50,0,6,2,5]],"
                    "\"props\":[[50,\"travel-time\",2,5,1],[50,\"") +
            label + "\",2,5,2]]}",
        respond);
    EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;
    EXPECT_NE(response.find("empty or contains whitespace"), std::string::npos)
        << response;
    auto entry = server.registry().Get("t");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->epoch, 1u);
    EXPECT_EQ(entry->workload.graph().head(), (GraphHead{0, 0}));
    EXPECT_EQ(entry->workload.graph().num_vertices(), 6u);
  }
  // Catalog labels still append.
  server.HandleLine(kWireAppendLine, respond);
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
}

// A `load` of a path that is not a readable text graph (here a
// directory, which fopen opens but cannot read) fails and registers
// nothing, rather than publishing an empty graph.
TEST(ServerLoadTest, LoadOfDirectoryFails) {
  ServerOptions options;
  Server server(options);
  std::string response;
  server.HandleLine("{\"id\":1,\"op\":\"load\",\"graph\":\"d\",\"file\":\"" +
                        ::testing::TempDir() + "\"}",
                    [&](std::string line) { response = std::move(line); });
  EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;
  EXPECT_EQ(server.registry().Get("d"), nullptr);
}

// A job that pinned the resident entry before an append and finishes
// after it must answer from its pinned view but must NOT cache under the
// superseded epoch: the append already erased the graph's prefix, so such
// an entry could never be hit and would only evict live ones.
TEST(ServerAppendTest, JobFinishingAfterAppendSkipsSupersededEpochPut) {
  ServerOptions options;
  options.scheduler.num_threads = 1;
  Server server(options);
  server.registry().Add("t", testutil::MakeTransitGraph());
  const QueryRequest req = MustParse(
      "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\",\"source\":0}");

  // The job pins the resident entry, as a scheduler worker does.
  std::shared_ptr<ResidentGraph> pinned = server.registry().Get("t");
  ASSERT_NE(pinned, nullptr);
  const std::string stale_key = QueryService::CacheKey(req, *pinned);

  std::string append_response;
  server.HandleLine(kWireAppendLine, [&](std::string line) {
    append_response = std::move(line);
  });
  ASSERT_NE(append_response.find("\"ok\": true"), std::string::npos)
      << append_response;
  EXPECT_TRUE(pinned->superseded.load());

  // The job finishes after the append.
  ExecStats stats;
  const std::string response =
      server.service().ExecuteOn(req, *pinned, 0, &stats);
  EXPECT_FALSE(stats.cached);
  EXPECT_NE(response.find(Standalone(req, testutil::MakeTransitGraph())),
            std::string::npos);
  EXPECT_FALSE(server.cache().GetIfPresent(stale_key).has_value());
  EXPECT_EQ(server.cache().stats().entries, 0);
  EXPECT_EQ(server.cache().stats().inserts, 0);

  // A job on the resident version still fills the cache.
  server.service().Execute(req);
  auto current = server.registry().Get("t");
  ASSERT_NE(current, nullptr);
  EXPECT_FALSE(current->superseded.load());
  EXPECT_TRUE(server.cache()
                  .GetIfPresent(QueryService::CacheKey(req, *current))
                  .has_value());
  EXPECT_EQ(server.cache().stats().entries, 1);
}

// Readers pin versions while two writers append (compacting every 5th
// batch) to two graphs. A pinned version never changes under its reader,
// and the final heads account for every batch. Runs under the tsan preset
// through server_matrix.
TEST(ServerRegistryTest, PinnedVersionsStayFixedUnderConcurrentAppends) {
  constexpr int kBatches = 22;
  constexpr int kCompactEvery = 5;
  constexpr int kReaders = 4;
  testutil::RandomGraphOptions ropt;
  ropt.full_lifespan_prob = 1.0;
  GraphRegistry registry;
  const std::vector<std::string> names = {"a", "b"};
  std::vector<size_t> base_edges;
  for (size_t i = 0; i < names.size(); ++i) {
    TemporalGraph g = testutil::MakeRandomGraph(31 + i, ropt);
    base_edges.push_back(g.num_edges());
    registry.Add(names[i], std::move(g));
  }

  // Batch k: one fresh vertex, two edges from it into the base, one prop.
  const auto make_batch = [&ropt](int k) {
    EdgeBatch batch;
    const VertexId fresh = 5000 + k;
    const Interval span(0, ropt.horizon);
    batch.vertices.push_back({fresh, span});
    batch.edges.push_back({50000 + 2 * k, fresh, k % ropt.num_vertices, span});
    batch.edges.push_back(
        {50001 + 2 * k, fresh, (k + 7) % ropt.num_vertices, span});
    batch.props.push_back({50000 + 2 * k, kTravelTimeLabel, span, 1});
    return batch;
  };

  std::atomic<int> writers_left{static_cast<int>(names.size())};
  std::atomic<int64_t> violations{0};
  std::atomic<int64_t> pins{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&, i] {
      // Start once every reader holds a version, so reads overlap writes.
      while (pins.load() < kReaders) std::this_thread::yield();
      for (int k = 1; k <= kBatches; ++k) {
        auto info = registry.Append(names[i], make_batch(k),
                                    /*compact=*/k % kCompactEvery == 0);
        if (!info.ok()) violations.fetch_add(1);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::map<std::string, uint64_t> last_epoch;
      bool pinned_once = false;
      while (!pinned_once || writers_left.load() > 0) {
        for (const ResidentGraphInfo& info : registry.List()) {
          if (info.epoch < last_epoch[info.name]) violations.fetch_add(1);
          last_epoch[info.name] = info.epoch;
        }
        auto entry = registry.Get(names[static_cast<size_t>(r) % 2]);
        if (entry == nullptr) {  // Never dropped: null is a registry bug.
          violations.fetch_add(1);
          if (!pinned_once) pins.fetch_add(1);
          return;
        }
        const TemporalGraph& g = entry->workload.graph();
        const size_t edges = g.num_edges();
        const GraphHead head = g.head();
        size_t seen = 0;
        for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
          for (const StoredEdge& e : g.OutEdges(v)) {
            if (e.src != v) violations.fetch_add(1);
            ++seen;
          }
        }
        if (seen != edges || g.num_edges() != edges || g.head() != head) {
          violations.fetch_add(1);
        }
        if (!pinned_once) pins.fetch_add(1);
        pinned_once = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Batches after the last compaction (k = 21, 22) sit in the delta, each
  // advancing the watermark by its 4 elements.
  const EdgeBatch sample = make_batch(1);
  for (size_t i = 0; i < names.size(); ++i) {
    auto entry = registry.Get(names[i]);
    ASSERT_NE(entry, nullptr);
    const TemporalGraph& g = entry->workload.graph();
    EXPECT_EQ(entry->epoch, 1u + kBatches) << names[i];
    EXPECT_EQ(g.num_edges(), base_edges[i] + 2 * kBatches) << names[i];
    EXPECT_EQ(g.head().base_epoch,
              static_cast<uint64_t>(kBatches / kCompactEvery))
        << names[i];
    EXPECT_EQ(g.head().delta_watermark,
              (kBatches % kCompactEvery) * sample.size())
        << names[i];
  }
}

TEST(ServerConcurrencyTest, InterleavedJobsMatchStandalone) {
  ServerOptions options;
  options.scheduler.num_threads = 4;
  Server server(options);
  // Full-lifespan vertices so every request shape (windowed runs, source
  // vertex 0) is valid on the random graph too.
  testutil::RandomGraphOptions ropt;
  ropt.full_lifespan_prob = 1.0;
  server.registry().Add("t", testutil::MakeTransitGraph());
  server.registry().Add("r", testutil::MakeRandomGraph(77, ropt));

  const TemporalGraph transit = testutil::MakeTransitGraph();
  const TemporalGraph random = testutil::MakeRandomGraph(77, ropt);

  // 2 graphs x 10 request shapes x 4 repeats = 80 requests. Repeats make
  // the cache and the pipelining path work; expectations are computed
  // once, standalone, before the server sees anything.
  struct Item {
    std::string line;
    std::string expected;
  };
  std::vector<Item> items;
  std::map<int64_t, std::string> expected_by_id;
  int64_t next_id = 1;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& [name, graph] :
         std::vector<std::pair<std::string, const TemporalGraph*>>{
             {"t", &transit}, {"r", &random}}) {
      for (const std::string& line : MixedRequests(name)) {
        QueryRequest req = MustParse(line);
        req.id = next_id;
        const std::string expected = Standalone(req, *graph);
        std::string with_id = "{\"id\":" + std::to_string(next_id) + "," +
                              line.substr(1);
        expected_by_id[next_id] = expected;
        items.push_back({std::move(with_id), expected});
        ++next_id;
      }
    }
  }
  ASSERT_GE(items.size(), 64u);

  Mutex mu;
  std::vector<std::string> responses;
  auto respond = [&](std::string line) {
    MutexLock lock(mu);
    responses.push_back(std::move(line));
  };

  // Fire from 8 submitter threads to interleave admissions.
  std::vector<std::thread> submitters;
  std::atomic<size_t> cursor{0};
  for (int s = 0; s < 8; ++s) {
    submitters.emplace_back([&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1);
        if (i >= items.size()) return;
        server.HandleLine(items[i].line, respond);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  server.scheduler().Drain();

  ASSERT_EQ(responses.size(), items.size());
  for (const std::string& response : responses) {
    auto doc = ParseJson(response);
    ASSERT_TRUE(doc.ok()) << response;
    ASSERT_TRUE(doc->GetBool("ok")) << response;
    const int64_t id = doc->GetInt("id", -1);
    ASSERT_TRUE(expected_by_id.count(id)) << response;
    EXPECT_NE(response.find(expected_by_id[id]), std::string::npos)
        << response;
  }
  // Repeats hit the cache: 80 accepted, 20 distinct results.
  const ResultCacheStats cs = server.cache().stats();
  EXPECT_GE(cs.hits, 1);
  EXPECT_EQ(server.scheduler().stats().submitted,
            static_cast<int64_t>(items.size()));
}

TEST(SchedulerTest, BoundedAdmissionRejectsWhenFull) {
  GraphRegistry registry;
  ResultCache cache(16);
  QueryService service(&registry, &cache);
  registry.Add("t", testutil::MakeTransitGraph());

  SchedulerOptions options;
  options.num_threads = 0;  // admission-only: nothing runs until we say so
  options.max_queue = 2;
  JobScheduler scheduler(&service, options);

  const QueryRequest req = MustParse(
      "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"bfs\",\"source\":0}");
  std::vector<std::string> responses;
  auto respond = [&](std::string line) {
    responses.push_back(std::move(line));
  };
  EXPECT_TRUE(scheduler.Submit(req, respond).ok());
  EXPECT_TRUE(scheduler.Submit(req, respond).ok());
  const Status third = scheduler.Submit(req, respond);
  EXPECT_EQ(third.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(scheduler.stats().rejected, 1);

  // Drain by hand; the duplicate second job becomes a cache hit.
  EXPECT_TRUE(scheduler.RunOneForTest());
  EXPECT_TRUE(scheduler.RunOneForTest());
  EXPECT_FALSE(scheduler.RunOneForTest());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].find("\"cached\": false"), std::string::npos);
  EXPECT_NE(responses[1].find("\"cached\": true"), std::string::npos);

  // Control op through the scheduler is a usage error, not a crash.
  EXPECT_EQ(scheduler
                .Submit(MustParse("{\"op\":\"list\"}"),
                        [](std::string) {})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SchedulerTest, StopFailsQueuedJobs) {
  GraphRegistry registry;
  QueryService service(&registry, nullptr);
  registry.Add("t", testutil::MakeTransitGraph());

  SchedulerOptions options;
  options.num_threads = 0;
  JobScheduler scheduler(&service, options);
  std::vector<std::string> responses;
  const QueryRequest req = MustParse(
      "{\"id\":9,\"op\":\"run\",\"graph\":\"t\",\"alg\":\"bfs\"}");
  ASSERT_TRUE(scheduler
                  .Submit(req,
                          [&](std::string line) {
                            responses.push_back(std::move(line));
                          })
                  .ok());
  scheduler.Stop();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"ok\": false"), std::string::npos);
  EXPECT_NE(responses[0].find("shutting down"), std::string::npos);
  // Post-stop submissions are refused.
  EXPECT_FALSE(scheduler.Submit(req, [](std::string) {}).ok());
}

TEST(SchedulerTest, FastPathHitBypassesQueue) {
  GraphRegistry registry;
  ResultCache cache(16);
  QueryService service(&registry, &cache);
  registry.Add("t", testutil::MakeTransitGraph());

  SchedulerOptions options;
  options.num_threads = 0;  // queue never drains on its own...
  JobScheduler scheduler(&service, options);
  const QueryRequest req = MustParse(
      "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"bfs\",\"source\":0}");
  std::string inline_response;
  ASSERT_TRUE(scheduler.Submit(req, [](std::string) {}).ok());
  ASSERT_TRUE(scheduler.RunOneForTest());  // warm the cache
  // ...yet a warm submit answers inline, without a worker.
  ASSERT_TRUE(scheduler
                  .Submit(req,
                          [&](std::string line) {
                            inline_response = std::move(line);
                          })
                  .ok());
  EXPECT_NE(inline_response.find("\"cached\": true"), std::string::npos);
  EXPECT_EQ(scheduler.stats().fastpath_hits, 1);
  EXPECT_EQ(scheduler.stats().queued, 0u);
}

TEST(ServerStreamTest, StdioProtocolEndToEnd) {
  ServerOptions options;
  options.scheduler.num_threads = 2;
  Server server(options);
  server.registry().Add("t", testutil::MakeTransitGraph());

  std::istringstream in(
      "{\"id\":1,\"op\":\"ping\"}\n"
      "{\"id\":2,\"op\":\"list\"}\n"
      "{\"id\":3,\"op\":\"run\",\"graph\":\"t\",\"alg\":\"bfs\","
      "\"source\":0,\"metrics\":true}\n"
      "{\"id\":4,\"op\":\"metrics\"}\n"
      "not json\n");
  std::ostringstream out;
  const int64_t handled = server.ServeStream(in, out);
  EXPECT_EQ(handled, 5);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"op\": \"ping\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"t\""), std::string::npos);
  EXPECT_NE(text.find("\"supersteps\""), std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(text.find("\"ok\": false"), std::string::npos);  // bad line
}

// Minimal line-oriented TCP client for the end-to-end test.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    GRAPHITE_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    GRAPHITE_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0);
  }
  ~LineClient() { ::close(fd_); }

  void Send(const std::string& line) { SendRaw(line + "\n"); }

  /// Writes `bytes` as they are; MSG_NOSIGNAL turns a server that closed
  /// early into a failed check instead of a SIGPIPE.
  void SendRaw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      GRAPHITE_CHECK(n > 0 || errno == EINTR);
      if (n > 0) off += static_cast<size_t>(n);
    }
  }

  /// Sends each write as its own segment, so 1-byte writes reach the
  /// server as 1-byte reads where the scheduler allows.
  void DisableNagle() {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  /// True when the server has closed the connection with nothing unread.
  bool AtEof() {
    char c;
    for (;;) {
      const ssize_t n = ::read(fd_, &c, 1);
      if (n < 0 && errno == EINTR) continue;
      return buffer_.empty() && n == 0;
    }
  }

  std::string ReadLine() {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      GRAPHITE_CHECK(n > 0);
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServerTcpTest, ProtocolOverLoopback) {
  ServerOptions options;
  options.scheduler.num_threads = 2;
  Server server(options);
  server.registry().Add("t", testutil::MakeTransitGraph());
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread serve([&] { server.ServeTcp(); });

  {
    LineClient client(*port);
    client.Send("{\"id\":1,\"op\":\"ping\"}");
    client.Send(
        "{\"id\":2,\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\","
        "\"source\":0}");
    std::map<int64_t, std::string> by_id;
    for (int i = 0; i < 2; ++i) {
      const std::string line = client.ReadLine();
      auto doc = ParseJson(line);
      ASSERT_TRUE(doc.ok()) << line;
      by_id[doc->GetInt("id", -1)] = line;
    }
    EXPECT_NE(by_id[1].find("\"op\": \"ping\""), std::string::npos);
    const QueryRequest req = MustParse(
        "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\",\"source\":0}");
    const std::string expected =
        Standalone(req, testutil::MakeTransitGraph());
    EXPECT_NE(by_id[2].find(expected), std::string::npos) << by_id[2];

    client.Send("{\"id\":3,\"op\":\"shutdown\"}");
    EXPECT_NE(client.ReadLine().find("\"op\": \"shutdown\""),
              std::string::npos);
  }
  serve.join();
}

// A line past kMaxRequestLineBytes with no newline gets one error reply
// and EOF; the server keeps serving other connections.
TEST(ServerTcpTest, OverlongLineGetsErrorThenEof) {
  Server server;
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread serve([&] { server.ServeTcp(); });

  {
    LineClient client(*port);
    client.SendRaw(std::string(kMaxRequestLineBytes + 1, 'x'));
    const std::string line = client.ReadLine();
    EXPECT_NE(line.find("\"ok\": false"), std::string::npos) << line;
    EXPECT_NE(line.find("request line exceeds"), std::string::npos) << line;
    EXPECT_TRUE(client.AtEof());
  }
  {
    LineClient client(*port);
    client.Send("{\"id\":1,\"op\":\"ping\"}");
    EXPECT_NE(client.ReadLine().find("\"op\": \"ping\""),
              std::string::npos);
    client.Send("{\"id\":2,\"op\":\"shutdown\"}");
    client.ReadLine();
  }
  serve.join();
}

// A request written one byte at a time is answered as if sent whole.
TEST(ServerTcpTest, TrickledRequestGetsNormalAnswer) {
  Server server;
  server.registry().Add("t", testutil::MakeTransitGraph());
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread serve([&] { server.ServeTcp(); });

  {
    LineClient client(*port);
    client.DisableNagle();
    const std::string request =
        "{\"id\":5,\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\","
        "\"source\":0}\r\n";
    for (const char c : request) client.SendRaw(std::string(1, c));
    const std::string line = client.ReadLine();
    const QueryRequest req = MustParse(
        "{\"op\":\"run\",\"graph\":\"t\",\"alg\":\"sssp\",\"source\":0}");
    EXPECT_NE(line.find(Standalone(req, testutil::MakeTransitGraph())),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"id\": 5"), std::string::npos) << line;

    client.Send("{\"id\":6,\"op\":\"shutdown\"}");
    client.ReadLine();
  }
  serve.join();
}

}  // namespace
}  // namespace graphite
