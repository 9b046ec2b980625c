//===- tests/hb/ReachabilityTest.cpp ------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Property tests: both reachability oracles must agree with the
// reference closure (ReferenceClosure.h) on every query over randomly
// generated (but structurally valid) traces -- both through the full
// HbIndex derivation and under raw random DAGs grown by edge batches,
// rebuilt by the clocks-only forward pass after each -- and the
// happens-before relation must be a strict partial order.
//
//===----------------------------------------------------------------------===//

#include "hb/HbIndex.h"

#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "trace/Validate.h"

#include "ReferenceClosure.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

/// Generates a random structurally valid trace: several queues and
/// threads, events sent with random delays / at-front flags, random
/// fork/join, notify/wait, listener and IPC traffic, and memory accesses
/// sprinkled throughout.
Trace randomTrace(uint64_t Seed, size_t Steps) {
  Rng R(Seed);
  TraceBuilder TB;

  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I)
    Queues.push_back(TB.addQueue("q" + std::to_string(I)));
  std::vector<ListenerId> Listeners;
  for (int I = 0; I != 2; ++I)
    Listeners.push_back(TB.addListener("l" + std::to_string(I)));

  struct LiveTask {
    TaskId Id;
    bool IsEvent;
    QueueId Queue;
  };
  std::vector<LiveTask> Running;   // begun, not ended
  std::vector<LiveTask> Pending;   // events sent, not begun
  std::vector<TaskId> EndedThreads;
  std::vector<TaskId> ActivePerQueue(Queues.size(), TaskId::invalid());
  std::vector<bool> Registered(Listeners.size(), false);
  uint32_t NextTxn = 1;
  std::vector<uint32_t> SentTxns;

  // Root threads.
  for (int I = 0, E = 2 + static_cast<int>(R.below(3)); I != E; ++I) {
    TaskId T = TB.addThread("thread" + std::to_string(I));
    TB.begin(T);
    Running.push_back({T, false, QueueId()});
  }

  size_t EventCounter = 0;
  for (size_t Step = 0; Step != Steps; ++Step) {
    // Pick a running task to perform the next operation.
    LiveTask &Actor = Running[R.below(Running.size())];
    switch (R.below(12)) {
    case 0: { // send a new event
      QueueId Q = Queues[R.below(Queues.size())];
      bool AtFront = R.chance(1, 5);
      uint64_t Delay = AtFront ? 0 : R.below(4);
      TaskId E = TB.addEvent("event" + std::to_string(EventCounter++), Q,
                             Delay, AtFront, false);
      if (AtFront)
        TB.sendAtFront(Actor.Id, E);
      else
        TB.send(Actor.Id, E, Delay);
      Pending.push_back({E, true, Q});
      break;
    }
    case 1: { // begin a pending event whose queue is idle
      for (size_t I = 0; I != Pending.size(); ++I) {
        LiveTask &P = Pending[I];
        if (ActivePerQueue[P.Queue.index()].isValid())
          continue;
        TB.begin(P.Id);
        if (R.chance(1, 4) && Registered[0])
          TB.performListener(P.Id, Listeners[0]);
        ActivePerQueue[P.Queue.index()] = P.Id;
        Running.push_back(P);
        Pending.erase(Pending.begin() + static_cast<long>(I));
        break;
      }
      break;
    }
    case 2: { // end an event (frees its queue)
      if (Actor.IsEvent) {
        ActivePerQueue[Actor.Queue.index()] = TaskId::invalid();
        TB.end(Actor.Id);
        Running.erase(Running.begin() + (&Actor - Running.data()));
      }
      break;
    }
    case 3: { // fork a thread
      TaskId T = TB.addThread("forked" + std::to_string(Step));
      TB.fork(Actor.Id, T);
      TB.begin(T);
      Running.push_back({T, false, QueueId()});
      break;
    }
    case 4: { // end + join an old thread
      if (!Actor.IsEvent && Running.size() > 2 && R.chance(1, 2)) {
        // End the actor so someone can join it later.
        TB.end(Actor.Id);
        EndedThreads.push_back(Actor.Id);
        Running.erase(Running.begin() + (&Actor - Running.data()));
      } else if (!EndedThreads.empty()) {
        TB.join(Actor.Id, EndedThreads[R.below(EndedThreads.size())]);
      }
      break;
    }
    case 5:
      TB.notify(Actor.Id, static_cast<uint32_t>(R.below(2)));
      break;
    case 6:
      TB.wait(Actor.Id, static_cast<uint32_t>(R.below(2)));
      break;
    case 7: {
      size_t L = R.below(Listeners.size());
      TB.registerListener(Actor.Id, Listeners[L]);
      Registered[L] = true;
      break;
    }
    case 8: { // ipc send / recv pairing
      if (R.chance(1, 2) || SentTxns.empty()) {
        TB.ipcSend(Actor.Id, NextTxn);
        SentTxns.push_back(NextTxn++);
      } else {
        TB.ipcRecv(Actor.Id, SentTxns.back());
        SentTxns.pop_back();
      }
      break;
    }
    default:
      if (R.chance(1, 2))
        TB.read(Actor.Id, static_cast<uint32_t>(R.below(8)));
      else
        TB.write(Actor.Id, static_cast<uint32_t>(R.below(8)));
      break;
    }
    if (Running.empty())
      break;
  }
  // Close everything still running.
  for (const LiveTask &L : Running)
    TB.end(L.Id);
  return TB.take();
}

class ReachabilityPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReachabilityPropertyTest, AllOraclesAgreeOnRandomTraces) {
  Trace T = randomTrace(GetParam(), 400);
  ASSERT_TRUE(validateTrace(T).ok()) << validateTrace(T).message();
  TaskIndex Index(T);

  HbOptions BfsOpt;
  BfsOpt.Reach = ReachMode::Bfs;
  HbIndex HbBfs(T, Index, BfsOpt);
  // The expected side: the reference closure of the BFS-built graph (the
  // oracle that reads live edges and caches nothing).
  ReferenceHappensBefore Expected(T, HbBfs.graph());
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  HbIndex HbChain(T, Index, ChainOpt);

  Rng R(GetParam() ^ 0xABCDEF);
  uint32_t N = static_cast<uint32_t>(T.numRecords());
  ASSERT_GT(N, 0u);
  for (int I = 0; I != 3000; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    bool Want = Expected(A, B);
    EXPECT_EQ(Want, HbBfs.happensBefore(A, B))
        << "records " << A << " -> " << B;
    EXPECT_EQ(Want, HbChain.happensBefore(A, B))
        << "records " << A << " -> " << B;
  }
}

TEST_P(ReachabilityPropertyTest, HappensBeforeIsStrictPartialOrder) {
  Trace T = randomTrace(GetParam() + 77, 300);
  ASSERT_TRUE(validateTrace(T).ok());
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());

  Rng R(GetParam());
  uint32_t N = static_cast<uint32_t>(T.numRecords());
  for (int I = 0; I != 500; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    uint32_t C = static_cast<uint32_t>(R.below(N));
    // Irreflexivity.
    EXPECT_FALSE(Hb.happensBefore(A, A));
    // Antisymmetry.
    if (Hb.happensBefore(A, B)) {
      EXPECT_FALSE(Hb.happensBefore(B, A));
    }
    // Transitivity.
    if (Hb.happensBefore(A, B) && Hb.happensBefore(B, C)) {
      EXPECT_TRUE(Hb.happensBefore(A, C));
    }
    // Consistency with trace order: HB never points backward.
    if (Hb.happensBefore(A, B)) {
      EXPECT_LT(T.record(A).Time, T.record(B).Time + 1);
    }
  }
}

TEST_P(ReachabilityPropertyTest, ProjectionAgreesWithReachesUnderEveryOracle) {
  // BfsReachability::project, the one projection (the BFS rounds sweep
  // with it), must answer exactly what per-member reaches() answers
  // under every oracle, for member ids ascending and out of order with
  // invalid members.
  Trace T = randomTrace(GetParam() + 311, 400);
  TaskIndex Index(T);
  HbOptions Opt;
  Opt.Threads = 1;
  HbIndex Hb(T, Index, Opt);
  const HbGraph &G = Hb.graph();
  const uint32_t N = static_cast<uint32_t>(G.numNodes());

  Rng R(GetParam() * 31 + 7);
  std::vector<NodeId> Ascending;
  for (uint32_t I = 0; I != N; ++I)
    if (R.chance(1, 3))
      Ascending.push_back(NodeId(I));
  std::vector<NodeId> Mixed = Ascending;
  for (size_t I = Mixed.size(); I > 1; --I)
    std::swap(Mixed[I - 1], Mixed[R.below(I)]);
  for (size_t I = 0; I < Mixed.size(); I += 5)
    Mixed.insert(Mixed.begin() + static_cast<long>(I), NodeId::invalid());

  BfsReachability Bfs(G);
  ChainReachability Chain(G);
  ASSERT_EQ(Chain.overflow(), ChainReachability::Overflow::None);
  for (const std::vector<NodeId> *Members : {&Ascending, &Mixed}) {
    const size_t K = Members->size(), NW = (K + 63) / 64;
    std::vector<uint64_t> Out(NW), Want(NW);
    for (uint32_t From = 0; From < N; From += 3) {
      size_t Lo = R.below(K + 1);
      bool UseWant = R.chance(1, 2);
      for (uint64_t &W : Want)
        W = R.next();
      Bfs.project(NodeId(From), *Members, Lo,
                  UseWant ? Want.data() : nullptr, Out.data());
      for (size_t M = 0; M != K; ++M) {
        const NodeId To = (*Members)[M];
        bool Wanted = !UseWant || ((Want[M / 64] >> (M % 64)) & 1);
        bool Expect = M >= Lo && Wanted && To.isValid() &&
                      Bfs.reaches(NodeId(From), To);
        ASSERT_EQ(((Out[M / 64] >> (M % 64)) & 1) != 0, Expect)
            << "from " << From << " member " << M
            << (Members == &Mixed ? " (mixed)" : " (ascending)");
        if (To.isValid()) {
          ASSERT_EQ(Chain.reaches(NodeId(From), To),
                    Bfs.reaches(NodeId(From), To))
              << "from " << From << " member " << M;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                         89));

/// Differential test of the oracle layer itself: random DAGs (the
/// program-order skeleton of a random trace) grown by random batches of
/// forward edges.  After every batch the chain oracle's clocks-only
/// pass rebuilds its cover and clocks, and both oracles must agree with
/// the reference closure on reaches(u, v) -- the chain clocks
/// exhaustively, the BFS on a sample.
class IncrementalDifferentialTest : public testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalDifferentialTest, OraclesAgreeUnderIncrementalBatches) {
  uint64_t Seed = GetParam();
  Trace T = randomTrace(Seed * 7919 + 17, 150);
  ASSERT_TRUE(validateTrace(T).ok());
  HbGraph G(T); // program-order chains only

  ClosureReachability Closure(G);
  BfsReachability Bfs(G);

  Rng R(Seed ^ 0x5EED5EEDull);
  uint32_t N = static_cast<uint32_t>(G.numNodes());
  ASSERT_GT(N, 1u);

  for (int Batch = 0; Batch != 4; ++Batch) {
    // Grow the DAG by a random batch of forward edges (node ids ascend
    // in record order, so A < B keeps every edge forward / acyclic).
    for (size_t I = 0, E = 1 + R.below(8); I != E; ++I) {
      uint32_t A = static_cast<uint32_t>(R.below(N));
      uint32_t B = static_cast<uint32_t>(R.below(N));
      if (A == B)
        continue;
      if (A > B)
        std::swap(A, B);
      G.addEdge(NodeId(A), NodeId(B));
    }
    G.foldEdges();
    Closure.refresh();
    ChainReachability Chain(G);
    ASSERT_EQ(Chain.overflow(), ChainReachability::Overflow::None) << "seed " << Seed << " batch " << Batch;

    if (N <= 160) {
      for (uint32_t U = 0; U != N; ++U)
        for (uint32_t V = 0; V != N; ++V)
          ASSERT_EQ(Closure.reaches(NodeId(U), NodeId(V)),
                    Chain.reaches(NodeId(U), NodeId(V)))
              << "seed " << Seed << " batch " << Batch << " " << U << "->"
              << V;
    } else {
      for (int Q = 0; Q != 4000; ++Q) {
        uint32_t U = static_cast<uint32_t>(R.below(N));
        uint32_t V = static_cast<uint32_t>(R.below(N));
        ASSERT_EQ(Closure.reaches(NodeId(U), NodeId(V)),
                  Chain.reaches(NodeId(U), NodeId(V)))
            << "seed " << Seed << " batch " << Batch << " " << U << "->"
            << V;
      }
    }
    // The search oracle agrees on a sample (per-query cost is higher).
    for (int Q = 0; Q != 250; ++Q) {
      uint32_t U = static_cast<uint32_t>(R.below(N));
      uint32_t V = static_cast<uint32_t>(R.below(N));
      ASSERT_EQ(Closure.reaches(NodeId(U), NodeId(V)),
                Bfs.reaches(NodeId(U), NodeId(V)))
          << "seed " << Seed << " batch " << Batch << " " << U << "->" << V;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds100, IncrementalDifferentialTest,
                         testing::Range<uint64_t>(0, 100));

/// Cross-chain edge storm: many parallel task chains with interleaved
/// node ids, then dense batches of cross-chain edges.  Every batch
/// widens clock rows across most chains at once -- a node joins the
/// clocks of many lanes, and a lane's tail is taken over by another
/// lane's node -- and the chain oracle's answers must still match the
/// reference closure's.
TEST(ChainEdgeStormTest, CrossChainBatchesWidenClocksConsistently) {
  constexpr uint32_t NumThreads = 12, ReadsPerThread = 40;
  TraceBuilder TB;
  std::vector<TaskId> Threads;
  for (uint32_t I = 0; I != NumThreads; ++I)
    Threads.push_back(TB.addThread("lane" + std::to_string(I)));
  for (TaskId T : Threads)
    TB.begin(T);
  // Round-robin so consecutive node ids belong to different chains.
  for (uint32_t P = 0; P != ReadsPerThread; ++P)
    for (TaskId T : Threads)
      TB.read(T, P % 8);
  for (TaskId T : Threads)
    TB.end(T);
  Trace T = TB.take();
  ASSERT_TRUE(validateTrace(T).ok());
  HbGraph G(T);
  {
    ChainReachability Chain(G);
    ASSERT_GE(Chain.chainCount(), size_t(NumThreads));
  }

  uint32_t N = static_cast<uint32_t>(G.numNodes());
  Rng R(0xC4A1Full);
  for (int Batch = 0; Batch != 8; ++Batch) {
    for (int I = 0; I != 64; ++I) {
      // Bias sources early and targets late so a single edge often
      // improves an entire row of chain clocks at once.
      uint32_t A = static_cast<uint32_t>(R.below(N / 2));
      uint32_t B = A + 1 +
                   static_cast<uint32_t>(R.below(N - A - 1));
      G.addEdge(NodeId(A), NodeId(B));
    }
    G.foldEdges();
    ClosureReachability Closure(G);
    ChainReachability Chain(G);
    ASSERT_EQ(Chain.overflow(), ChainReachability::Overflow::None) << "batch " << Batch;

    for (uint32_t U = 0; U != N; ++U)
      for (uint32_t V = 0; V != N; ++V)
        ASSERT_EQ(Closure.reaches(NodeId(U), NodeId(V)),
                  Chain.reaches(NodeId(U), NodeId(V)))
            << "batch " << Batch << " " << U << "->" << V;
  }
}

} // namespace
