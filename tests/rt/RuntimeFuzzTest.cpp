//===- tests/rt/RuntimeFuzzTest.cpp -------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential fuzzing of the whole stack: generate random (but
// verifier-valid, type-consistent) modules with events, threads, RPC,
// listeners, heap traffic and tasks blocked on joins, the lock and the
// pipe (RandomScenario.h); then assert that every run produces a
// well-formed trace, runs every task to its end, schedules
// deterministically, and that the offline analyzer accepts the result
// with its reachability oracles agreeing with the reference closure
// (ReferenceClosure.h).
//
//===----------------------------------------------------------------------===//

#include "cafa/Cafa.h"
#include "support/Rng.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include "RandomScenario.h"
#include "ReferenceClosure.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

class RuntimeFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RuntimeFuzzTest, RandomProgramsProduceValidDeterministicTraces) {
  Scenario S = randomScenario(GetParam());

  RuntimeOptions Opt;
  Opt.MaxInstructions = 2'000'000;
  Runtime Rt1(S, Opt);
  ASSERT_TRUE(Rt1.run().ok());
  Trace T1 = Rt1.takeTrace();

  // No NPEs: every generated use is null-guarded.
  EXPECT_EQ(Rt1.stats().NullPointerExceptions, 0u);
  // No deadlock: every joiner, lock contender and pipe reader was woken.
  EXPECT_EQ(Rt1.stats().BlockedAtQuiescence, 0u);

  // The trace is structurally valid.
  Status V = validateTrace(T1);
  ASSERT_TRUE(V.ok()) << V.message();

  // Determinism: byte-identical serialization across runs.
  Runtime Rt2(S, Opt);
  ASSERT_TRUE(Rt2.run().ok());
  Trace T2 = Rt2.takeTrace();
  EXPECT_EQ(serializeTrace(T1), serializeTrace(T2));

  // The analyzer accepts it and the detector completes.
  AnalysisResult R = analyzeTrace(T1, DetectorOptions());
  (void)R;
}

TEST_P(RuntimeFuzzTest, OraclesAgreeOnRandomPrograms) {
  Scenario S = randomScenario(GetParam() ^ 0xF00D);
  RuntimeOptions Opt;
  Opt.MaxInstructions = 2'000'000;
  Trace T = runScenario(S, Opt);

  TaskIndex Index(T);
  HbOptions BfsOpt;
  BfsOpt.Reach = ReachMode::Bfs;
  HbIndex HbBfs(T, Index, BfsOpt);
  ReferenceHappensBefore Expected(T, HbBfs.graph());
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  HbIndex HbChain(T, Index, ChainOpt);

  Rng R(GetParam());
  uint32_t N = static_cast<uint32_t>(T.numRecords());
  ASSERT_GT(N, 0u);
  for (int I = 0; I != 1500; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    bool Want = Expected(A, B);
    ASSERT_EQ(Want, HbBfs.happensBefore(A, B))
        << "seed " << GetParam() << " records " << A << "->" << B;
    ASSERT_EQ(Want, HbChain.happensBefore(A, B))
        << "seed " << GetParam() << " records " << A << "->" << B;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeFuzzTest,
                         testing::ValuesIn(FuzzSeeds));

} // namespace
