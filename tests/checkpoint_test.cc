// Checkpoint/recovery subsystem tests (src/ckpt/): store envelope and
// retention semantics, frame codec robustness, policy arithmetic, and the
// acceptance matrix — a run killed deterministically mid-superstep and
// resumed from its latest checkpoint must produce byte-identical final
// states and model-intrinsic counter totals versus an uninterrupted run,
// for both engines, across worker counts and every scheduling mode; a
// corrupted latest checkpoint must fall back to the previous valid one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "algorithms/icm_path.h"
#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_policy.h"
#include "ckpt/checkpoint_store.h"
#include "ckpt/fault_injector.h"
#include "icm/icm_engine.h"
#include "testutil.h"
#include "vcm/vcm_engine.h"

namespace graphite {
namespace {

/// Fresh scratch directory under the test temp root.
std::string NewDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "graphite_ckpt_" + tag + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

// --- CRC and store envelope ---

TEST(Crc32Test, KnownAnswer) {
  // The ISO-HDLC check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(CheckpointStoreTest, CommitLoadRoundTrip) {
  CheckpointStore store(NewDir("roundtrip"));
  const std::string payload = "superstep four's frame bytes \x01\x02\xff";
  ASSERT_TRUE(store.Commit(4, payload).ok());
  EXPECT_GT(store.last_commit_bytes(),
            static_cast<int64_t>(payload.size()));  // envelope adds a header

  const auto blob = store.Load(4);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(blob.value().superstep, 4);
  EXPECT_EQ(blob.value().payload, payload);
  EXPECT_EQ(store.ListCheckpoints(), std::vector<int>{4});
  // No stray .tmp left behind by the atomic commit.
  for (const auto& e : std::filesystem::directory_iterator(store.dir())) {
    EXPECT_EQ(e.path().extension(), ".gck") << e.path();
  }
}

TEST(CheckpointStoreTest, MissingCheckpointIsNotFound) {
  CheckpointStore store(NewDir("missing"));
  const auto blob = store.Load(7);
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.LoadLatestValid().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, RetentionPrunesOldest) {
  CheckpointStore store(NewDir("retain"), /*retain=*/2);
  for (int s : {1, 2, 3, 4}) {
    ASSERT_TRUE(store.Commit(s, "frame-" + std::to_string(s)).ok());
  }
  EXPECT_EQ(store.ListCheckpoints(), (std::vector<int>{3, 4}));
  // Pruned checkpoints are really gone, survivors still validate.
  EXPECT_FALSE(store.Load(1).ok());
  EXPECT_TRUE(store.Load(3).ok());
  const auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().superstep, 4);
}

TEST(CheckpointStoreTest, RecommitReplaces) {
  CheckpointStore store(NewDir("recommit"));
  ASSERT_TRUE(store.Commit(2, "old").ok());
  ASSERT_TRUE(store.Commit(2, "new").ok());
  const auto blob = store.Load(2);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob.value().payload, "new");
  EXPECT_EQ(store.ListCheckpoints(), std::vector<int>{2});
}

TEST(CheckpointStoreTest, CorruptByteIsDataLossWithChecksumMessage) {
  CheckpointStore store(NewDir("corrupt"));
  ASSERT_TRUE(store.Commit(3, "some payload to damage").ok());
  ASSERT_TRUE(FaultInjector::CorruptByte(store, 3, /*offset=*/9).ok());
  const auto blob = store.Load(3);
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(blob.status().message().find("checksum"), std::string::npos)
      << blob.status().ToString();
}

TEST(CheckpointStoreTest, TruncatedFileIsDataLoss) {
  CheckpointStore store(NewDir("trunc"));
  ASSERT_TRUE(store.Commit(5, "a payload that will lose its tail").ok());
  ASSERT_TRUE(FaultInjector::Truncate(store, 5, /*keep_bytes=*/8).ok());
  const auto blob = store.Load(5);
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointStoreTest, ForeignAndGarbageFilesAreIgnoredOrRejected) {
  CheckpointStore store(NewDir("foreign"));
  ASSERT_TRUE(store.Commit(1, "good").ok());
  // A foreign file in the directory is not listed as a checkpoint.
  {
    std::FILE* f =
        std::fopen((store.dir() + "/README.txt").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  // A checkpoint-named file with a bogus envelope is DataLoss, and
  // LoadLatestValid skips over it to the good one.
  {
    std::FILE* f = std::fopen(store.PathFor(9).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("BAD!garbage", f);
    std::fclose(f);
  }
  EXPECT_EQ(store.ListCheckpoints(), (std::vector<int>{1, 9}));
  EXPECT_EQ(store.Load(9).status().code(), StatusCode::kDataLoss);
  const auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().superstep, 1);
}

TEST(CheckpointStoreTest, LatestValidFallsBackPastCorruption) {
  CheckpointStore store(NewDir("fallback"), /*retain=*/3);
  for (int s : {1, 2, 3}) {
    ASSERT_TRUE(store.Commit(s, "frame-" + std::to_string(s)).ok());
  }
  ASSERT_TRUE(FaultInjector::CorruptByte(store, 3, 11).ok());
  auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().superstep, 2);

  ASSERT_TRUE(FaultInjector::Truncate(store, 2, 6).ok());
  latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().superstep, 1);

  ASSERT_TRUE(FaultInjector::CorruptByte(store, 1, 0).ok());
  EXPECT_EQ(store.LoadLatestValid().status().code(), StatusCode::kNotFound);
}

// --- Frame codec ---

CheckpointFrame SampleFrame() {
  CheckpointFrame frame;
  frame.superstep = 12;
  frame.num_units = 345;
  frame.counters = {12, 3456, 789, 1011, 121314, 555, 7};
  frame.sections = {"worker zero bytes", "", std::string(300, '\x7f'),
                    std::string("\x00\x01\x02", 3)};
  return frame;
}

TEST(CheckpointFrameTest, RoundTrip) {
  const CheckpointFrame frame = SampleFrame();
  const auto got = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const CheckpointFrame& f = got.value();
  EXPECT_EQ(f.superstep, frame.superstep);
  EXPECT_EQ(f.num_units, frame.num_units);
  EXPECT_EQ(f.counters.supersteps, frame.counters.supersteps);
  EXPECT_EQ(f.counters.compute_calls, frame.counters.compute_calls);
  EXPECT_EQ(f.counters.scatter_calls, frame.counters.scatter_calls);
  EXPECT_EQ(f.counters.messages, frame.counters.messages);
  EXPECT_EQ(f.counters.message_bytes, frame.counters.message_bytes);
  EXPECT_EQ(f.counters.active_compute_calls,
            frame.counters.active_compute_calls);
  EXPECT_EQ(f.counters.suppressed_vertices, frame.counters.suppressed_vertices);
  EXPECT_EQ(f.sections, frame.sections);
}

TEST(CheckpointFrameTest, EveryTruncationIsRejectedWithoutAborting) {
  const std::string bytes = EncodeFrame(SampleFrame());
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    const auto got = DecodeFrame(bytes.substr(0, keep));
    ASSERT_FALSE(got.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss) << keep;
  }
}

TEST(CheckpointFrameTest, TrailingBytesRejected) {
  const std::string bytes = EncodeFrame(SampleFrame()) + "x";
  const auto got = DecodeFrame(bytes);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("trailing"), std::string::npos);
}

// --- Policy ---

TEST(CheckpointPolicyTest, ModesDecideBarriers) {
  EXPECT_FALSE(CheckpointPolicy::None().enabled());
  EXPECT_FALSE(CheckpointPolicy::None().ShouldCheckpoint(0));

  const CheckpointPolicy k3 = CheckpointPolicy::EveryK(3);
  ASSERT_TRUE(k3.enabled());
  std::vector<int> hits;
  for (int s = 0; s < 9; ++s) {
    if (k3.ShouldCheckpoint(s)) hits.push_back(s);
  }
  EXPECT_EQ(hits, (std::vector<int>{2, 5, 8}));
  EXPECT_EQ(CheckpointPolicy::EveryK(0).every_k, 1);
}

// --- Recovery exactness: ICM ---

struct ModeSpec {
  const char* name;
  int num_threads;
  int chunk_size;
};

// The container may expose a single core; explicit thread counts keep the
// threaded modes honest (and the matrix identical everywhere).
const ModeSpec kModes[] = {
    {"steal2", 2, 64},
    {"stealing", 4, 4},
};

IcmOptions MakeIcmOptions(const ModeSpec& mode, int workers) {
  IcmOptions options;
  options.num_workers = workers;
  options.use_threads = true;
  options.runtime.num_threads = mode.num_threads;
  options.runtime.chunk_size = mode.chunk_size;
  return options;
}

template <typename P>
void ExpectSameOutcome(const IcmResult<P>& want, const IcmResult<P>& got,
                       const std::string& what) {
  ASSERT_EQ(want.states.size(), got.states.size()) << what;
  for (size_t v = 0; v < want.states.size(); ++v) {
    ASSERT_EQ(want.states[v], got.states[v])
        << what << " v=" << v;
  }
  EXPECT_EQ(want.metrics.supersteps, got.metrics.supersteps) << what;
  EXPECT_EQ(want.metrics.compute_calls, got.metrics.compute_calls) << what;
  EXPECT_EQ(want.metrics.scatter_calls, got.metrics.scatter_calls) << what;
  EXPECT_EQ(want.metrics.messages, got.metrics.messages) << what;
  EXPECT_EQ(want.metrics.message_bytes, got.metrics.message_bytes) << what;
  EXPECT_EQ(want.active_compute_calls, got.active_compute_calls) << what;
  EXPECT_EQ(want.suppressed_vertices, got.suppressed_vertices) << what;
}

TemporalGraph RecoveryGraph() {
  testutil::RandomGraphOptions opt;
  opt.num_vertices = 60;
  opt.num_edges = 220;
  return testutil::MakeRandomGraph(7, opt);
}

// A run killed mid-superstep and resumed from its latest checkpoint must
// be indistinguishable — final interval states and cumulative counters —
// from one that never died, in every scheduling mode and worker count.
TEST(CheckpointRecoveryIcmTest, KilledAndResumedMatchesUninterrupted) {
  const TemporalGraph g = RecoveryGraph();
  for (int workers : {1, 3, 7}) {
    for (const ModeSpec& mode : kModes) {
      const std::string what =
          std::string(mode.name) + " w=" + std::to_string(workers);
      IcmOptions options = MakeIcmOptions(mode, workers);
      options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

      IcmSssp baseline_program(g, g.vertex_id(0));
      const auto baseline =
          IcmEngine<IcmSssp>::Run(g, baseline_program, options);
      ASSERT_GE(baseline.metrics.supersteps, 3) << what;
      ASSERT_FALSE(baseline.metrics.interrupted) << what;

      CheckpointStore store(NewDir("icm_kill"));
      FaultInjector fault;
      fault.ScheduleKill(/*superstep=*/2, /*worker=*/0);
      RecoveryContext crash;
      crash.store = &store;
      crash.fault = &fault;
      IcmSssp killed_program(g, g.vertex_id(0));
      const auto killed =
          IcmEngine<IcmSssp>::Run(g, killed_program, options, crash);
      ASSERT_TRUE(fault.triggered()) << what;
      ASSERT_TRUE(killed.metrics.interrupted) << what;
      // The kill predates the run's end: supersteps 0 and 1 checkpointed.
      ASSERT_FALSE(store.ListCheckpoints().empty()) << what;

      RecoveryContext resume;
      resume.store = &store;
      resume.resume = true;
      IcmSssp resumed_program(g, g.vertex_id(0));
      const auto resumed =
          IcmEngine<IcmSssp>::Run(g, resumed_program, options, resume);
      EXPECT_EQ(resumed.metrics.resumed_from, 2) << what;
      EXPECT_FALSE(resumed.metrics.interrupted) << what;
      ExpectSameOutcome(baseline, resumed, what);
    }
  }
}

// The scoped point-query programs (DESIGN.md §4i) prune by a target bound
// their MasterCompute derives from the states; no frame carries it. A run
// killed at any superstep and resumed must rebuild the bound from the
// restored states and report the target's answer and every counter as an
// uninterrupted run does.
TEST(CheckpointRecoveryScopedTest, KilledAtEachSuperstepRebuildsTheBound) {
  const TemporalGraph g = RecoveryGraph();
  const VertexId source = g.vertex_id(0);
  // The target the full run reaches last, so the bound prunes for long.
  IcmEat full(g, source);
  const auto unscoped = IcmEngine<IcmEat>::Run(g, full);
  VertexIdx tgt = 0;
  int64_t latest = kNegInf;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const auto& e : unscoped.states[v].entries()) {
      if (e.value != kInfCost && e.value > latest) {
        latest = e.value;
        tgt = v;
      }
    }
  }
  const VertexId target = g.vertex_id(tgt);
  IcmOptions options = MakeIcmOptions(kModes[1], 3);
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

  const auto check = [&](auto make_program, int64_t unscoped_messages,
                         const std::string& what) {
    using Program = decltype(make_program());
    Program baseline_program = make_program();
    const auto baseline =
        IcmEngine<Program>::Run(g, baseline_program, options);
    ASSERT_GE(baseline.metrics.supersteps, 3) << what;
    // The bound has to bite for the resume to prove anything.
    ASSERT_LT(baseline.metrics.messages, unscoped_messages) << what;
    for (int kill = 0; kill < baseline.metrics.supersteps; ++kill) {
      const std::string at = what + " kill=" + std::to_string(kill);
      CheckpointStore store(NewDir("scoped_kill"));
      FaultInjector fault;
      fault.ScheduleKill(kill, /*worker=*/0);
      RecoveryContext crash;
      crash.store = &store;
      crash.fault = &fault;
      Program killed_program = make_program();
      const auto killed =
          IcmEngine<Program>::Run(g, killed_program, options, crash);
      ASSERT_TRUE(killed.metrics.interrupted) << at;

      RecoveryContext resume;
      resume.store = &store;
      resume.resume = true;
      Program resumed_program = make_program();
      const auto resumed =
          IcmEngine<Program>::Run(g, resumed_program, options, resume);
      EXPECT_EQ(resumed.metrics.resumed_from, kill == 0 ? -1 : kill) << at;
      EXPECT_EQ(baseline.states[tgt], resumed.states[tgt])
          << at;
      ExpectSameOutcome(baseline, resumed, at);
    }
  };
  IcmReach reach_all(g, source);
  const int64_t reach_messages =
      IcmEngine<IcmReach>::Run(g, reach_all).metrics.messages;
  check([&] { return IcmEat(g, source, target); }, unscoped.metrics.messages,
        "eat");
  check([&] { return IcmReach(g, source, target); }, reach_messages, "reach");
}

// A corrupted latest checkpoint is detected by its checksum and recovery
// silently falls back to the previous valid snapshot.
TEST(CheckpointRecoveryIcmTest, CorruptLatestFallsBackToPreviousValid) {
  const TemporalGraph g = RecoveryGraph();
  IcmOptions options = MakeIcmOptions(kModes[1], 3);
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

  IcmSssp baseline_program(g, g.vertex_id(0));
  const auto baseline = IcmEngine<IcmSssp>::Run(g, baseline_program, options);
  ASSERT_GE(baseline.metrics.supersteps, 3);

  CheckpointStore store(NewDir("icm_corrupt"), /*retain=*/3);
  FaultInjector fault;
  fault.ScheduleKill(/*superstep=*/baseline.metrics.supersteps - 1,
                     /*worker=*/0);
  RecoveryContext crash;
  crash.store = &store;
  crash.fault = &fault;
  IcmSssp killed_program(g, g.vertex_id(0));
  const auto killed =
      IcmEngine<IcmSssp>::Run(g, killed_program, options, crash);
  ASSERT_TRUE(killed.metrics.interrupted);
  const std::vector<int> ckpts = store.ListCheckpoints();
  ASSERT_GE(ckpts.size(), 2u);

  // Damage the newest snapshot; resume must land on the one before it.
  ASSERT_TRUE(FaultInjector::CorruptByte(store, ckpts.back(), 23).ok());
  RecoveryContext resume;
  resume.store = &store;
  resume.resume = true;
  IcmSssp resumed_program(g, g.vertex_id(0));
  const auto resumed =
      IcmEngine<IcmSssp>::Run(g, resumed_program, options, resume);
  EXPECT_EQ(resumed.metrics.resumed_from, ckpts[ckpts.size() - 2]);
  ExpectSameOutcome(baseline, resumed, "corrupt-fallback");
}

TEST(CheckpointRecoveryIcmTest, ResumeOnEmptyStoreIsColdStart) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmOptions options;
  options.num_workers = 3;
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

  IcmSssp baseline_program(g, testutil::kA);
  const auto baseline = IcmEngine<IcmSssp>::Run(g, baseline_program, options);

  CheckpointStore store(NewDir("icm_cold"));
  RecoveryContext resume;
  resume.store = &store;
  resume.resume = true;
  IcmSssp program(g, testutil::kA);
  const auto got = IcmEngine<IcmSssp>::Run(g, program, options, resume);
  EXPECT_EQ(got.metrics.resumed_from, -1);
  ExpectSameOutcome(baseline, got, "cold-start");
  // The run itself wrote checkpoints: every barrier but the halting one.
  const std::vector<int> ckpts = store.ListCheckpoints();
  ASSERT_FALSE(ckpts.empty());
  EXPECT_EQ(ckpts.back(),
            static_cast<int>(baseline.metrics.supersteps) - 1);
  EXPECT_EQ(got.metrics.checkpoints,
            baseline.metrics.supersteps - 1);
}

TEST(CheckpointRecoveryIcmTest, ResumeFromSpecificSuperstep) {
  const TemporalGraph g = RecoveryGraph();
  IcmOptions options = MakeIcmOptions(kModes[0], 3);
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);

  IcmSssp baseline_program(g, g.vertex_id(0));
  const auto baseline = IcmEngine<IcmSssp>::Run(g, baseline_program, options);
  ASSERT_GE(baseline.metrics.supersteps, 3);

  CheckpointStore store(NewDir("icm_pick"), /*retain=*/64);
  RecoveryContext save;
  save.store = &store;
  IcmSssp run_program(g, g.vertex_id(0));
  IcmEngine<IcmSssp>::Run(g, run_program, options, save);
  ASSERT_GE(store.ListCheckpoints().size(), 2u);

  RecoveryContext resume;
  resume.store = &store;
  resume.resume = true;
  resume.resume_from = 1;  // replay everything from superstep 1
  IcmSssp resumed_program(g, g.vertex_id(0));
  const auto resumed =
      IcmEngine<IcmSssp>::Run(g, resumed_program, options, resume);
  EXPECT_EQ(resumed.metrics.resumed_from, 1);
  ExpectSameOutcome(baseline, resumed, "resume-from-1");
}

TEST(CheckpointRecoveryIcmTest, EveryKPolicyBounds) {
  const TemporalGraph g = testutil::MakeTransitGraph();
  IcmOptions options;
  options.num_workers = 2;

  // k = 1: every barrier except the halting one checkpoints.
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);
  CheckpointStore every(NewDir("icm_every1"));
  RecoveryContext ctx_every;
  ctx_every.store = &every;
  IcmSssp p1(g, testutil::kA);
  const auto r1 = IcmEngine<IcmSssp>::Run(g, p1, options, ctx_every);
  EXPECT_EQ(r1.metrics.checkpoints, r1.metrics.supersteps - 1);
  EXPECT_GT(r1.metrics.checkpoint_bytes, 0);

  // A period longer than the run: no barrier qualifies.
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1 << 30);
  CheckpointStore never(NewDir("icm_everymax"));
  RecoveryContext ctx_never;
  ctx_never.store = &never;
  IcmSssp p2(g, testutil::kA);
  const auto r2 = IcmEngine<IcmSssp>::Run(g, p2, options, ctx_never);
  EXPECT_EQ(r2.metrics.checkpoints, 0);
  EXPECT_TRUE(never.ListCheckpoints().empty());

  // No store: the policy alone must not checkpoint anything.
  options.runtime.checkpoint = CheckpointPolicy::EveryK(1);
  IcmSssp p3(g, testutil::kA);
  const auto r3 = IcmEngine<IcmSssp>::Run(g, p3, options);
  EXPECT_EQ(r3.metrics.checkpoints, 0);
}

// --- Recovery exactness: VCM ---

/// Trivial adapter: n always-existing units, partitioned by unit id.
struct LineAdapter {
  size_t n;
  size_t NumUnits() const { return n; }
  bool UnitExists(uint32_t) const { return true; }
  int64_t PartitionId(uint32_t u) const { return u; }
};

/// A token relay: unit 0 fires in superstep 0, each message wakes the
/// next unit. Runs exactly n supersteps with one message per superstep —
/// long enough to kill anywhere, deterministic everywhere.
class RelayProgram {
 public:
  using Value = int64_t;
  using Message = int64_t;

  explicit RelayProgram(uint32_t n) : n_(n) {}

  Value Init(uint32_t u) const { return u == 0 ? 1 : 0; }

  template <typename Ctx>
  void Compute(Ctx& ctx, uint32_t u, Value& value,
               std::span<const Message> msgs) {
    for (const Message& m : msgs) value += m;
    const bool holds_token = (ctx.superstep() == 0 && u == 0) || !msgs.empty();
    if (holds_token && u + 1 < n_) ctx.Send(u + 1, value + 1);
  }

 private:
  uint32_t n_;
};

VcmOptions MakeVcmOptions(const ModeSpec& mode, int workers) {
  VcmOptions options;
  options.num_workers = workers;
  options.use_threads = true;
  options.runtime.num_threads = mode.num_threads;
  options.runtime.chunk_size = mode.chunk_size;
  return options;
}

void ExpectSameVcmOutcome(const RunMetrics& want_m,
                          const std::vector<int64_t>& want_v,
                          const RunMetrics& got_m,
                          const std::vector<int64_t>& got_v,
                          const std::string& what) {
  ASSERT_EQ(want_v, got_v) << what;
  EXPECT_EQ(want_m.supersteps, got_m.supersteps) << what;
  EXPECT_EQ(want_m.compute_calls, got_m.compute_calls) << what;
  EXPECT_EQ(want_m.messages, got_m.messages) << what;
  EXPECT_EQ(want_m.message_bytes, got_m.message_bytes) << what;
}

TEST(CheckpointRecoveryVcmTest, KilledAndResumedMatchesUninterrupted) {
  constexpr uint32_t kUnits = 40;
  const LineAdapter adapter{kUnits};
  for (int workers : {1, 3, 7}) {
    for (const ModeSpec& mode : kModes) {
      const std::string what =
          std::string(mode.name) + " w=" + std::to_string(workers);
      VcmOptions options = MakeVcmOptions(mode, workers);
      options.runtime.checkpoint = CheckpointPolicy::EveryK(3);

      RelayProgram baseline_program(kUnits);
      std::vector<int64_t> baseline_values;
      const RunMetrics baseline =
          RunVcm(adapter, baseline_program, options, &baseline_values);
      ASSERT_EQ(baseline.supersteps, kUnits) << what;

      CheckpointStore store(NewDir("vcm_kill"));
      FaultInjector fault;
      fault.ScheduleKill(/*superstep=*/10, /*worker=*/0);
      RecoveryContext crash;
      crash.store = &store;
      crash.fault = &fault;
      RelayProgram killed_program(kUnits);
      std::vector<int64_t> killed_values;
      const RunMetrics killed = RunVcm(adapter, killed_program, options,
                                       &killed_values, crash);
      ASSERT_TRUE(fault.triggered()) << what;
      ASSERT_TRUE(killed.interrupted) << what;
      ASSERT_FALSE(store.ListCheckpoints().empty()) << what;

      RecoveryContext resume;
      resume.store = &store;
      resume.resume = true;
      RelayProgram resumed_program(kUnits);
      std::vector<int64_t> resumed_values;
      const RunMetrics resumed = RunVcm(adapter, resumed_program, options,
                                        &resumed_values, resume);
      // EveryK(3) commits after supersteps 2, 5, 8, ... — the newest
      // barrier at or before the kill point is superstep 9's.
      EXPECT_EQ(resumed.resumed_from, 9) << what;
      ExpectSameVcmOutcome(baseline, baseline_values, resumed, resumed_values,
                           what);
    }
  }
}

TEST(CheckpointRecoveryVcmTest, CorruptLatestFallsBackToPreviousValid) {
  constexpr uint32_t kUnits = 24;
  const LineAdapter adapter{kUnits};
  VcmOptions options = MakeVcmOptions(kModes[1], 3);
  options.runtime.checkpoint = CheckpointPolicy::EveryK(2);

  RelayProgram baseline_program(kUnits);
  std::vector<int64_t> baseline_values;
  const RunMetrics baseline =
      RunVcm(adapter, baseline_program, options, &baseline_values);

  CheckpointStore store(NewDir("vcm_corrupt"), /*retain=*/4);
  RecoveryContext save;
  save.store = &store;
  RelayProgram run_program(kUnits);
  RunVcm(adapter, run_program, options, nullptr, save);
  const std::vector<int> ckpts = store.ListCheckpoints();
  ASSERT_GE(ckpts.size(), 2u);

  ASSERT_TRUE(FaultInjector::Truncate(store, ckpts.back(), 10).ok());
  RecoveryContext resume;
  resume.store = &store;
  resume.resume = true;
  RelayProgram resumed_program(kUnits);
  std::vector<int64_t> resumed_values;
  const RunMetrics resumed =
      RunVcm(adapter, resumed_program, options, &resumed_values, resume);
  EXPECT_EQ(resumed.resumed_from, ckpts[ckpts.size() - 2]);
  ExpectSameVcmOutcome(baseline, baseline_values, resumed, resumed_values,
                       "vcm-corrupt-fallback");
}

}  // namespace
}  // namespace graphite
