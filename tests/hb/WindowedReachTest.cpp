//===- tests/hb/WindowedReachTest.cpp -----------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The windowed frontier oracle must answer every cross-task ordering
// query -- issued with the later record at the admission cursor, the
// only shape the windowed scan produces -- exactly like the batch
// HbIndex over the same saturated graph.  Pinned over randomized traces
// by querying *every* cross-task record pair at its admission point
// while the cursor sweeps forward, so retirement timing bugs (a row
// freed while still the query target) cannot hide.
//
//===----------------------------------------------------------------------===//

#include "hb/WindowedReach.h"

#include "hb/HbIndex.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "trace/Validate.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

/// Random structurally valid trace with send/fork/join/notify traffic
/// (cross-task edges in every rule family the fixpoint derives).
Trace randomTrace(uint64_t Seed, size_t Steps) {
  Rng R(Seed);
  TraceBuilder TB;

  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I)
    Queues.push_back(TB.addQueue("q" + std::to_string(I)));

  struct LiveTask {
    TaskId Id;
    bool IsEvent;
    QueueId Queue;
  };
  std::vector<LiveTask> Running, Pending;
  std::vector<TaskId> EndedThreads;
  std::vector<TaskId> ActivePerQueue(Queues.size(), TaskId::invalid());
  for (int I = 0, E = 2 + static_cast<int>(R.below(3)); I != E; ++I) {
    TaskId T = TB.addThread("thread" + std::to_string(I));
    TB.begin(T);
    Running.push_back({T, false, QueueId()});
  }

  size_t EventCounter = 0;
  for (size_t Step = 0; Step != Steps && !Running.empty(); ++Step) {
    LiveTask &Actor = Running[R.below(Running.size())];
    switch (R.below(10)) {
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
    case 1: { // begin a pending event on an idle queue
      for (size_t I = 0; I != Pending.size(); ++I) {
        LiveTask &P = Pending[I];
        if (ActivePerQueue[P.Queue.index()].isValid())
          continue;
        TB.begin(P.Id);
        ActivePerQueue[P.Queue.index()] = P.Id;
        Running.push_back(P);
        Pending.erase(Pending.begin() + static_cast<long>(I));
        break;
      }
      break;
    }
    case 2: { // end an event
      if (Actor.IsEvent && Running.size() > 1) {
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
    default:
      if (R.chance(1, 2))
        TB.read(Actor.Id, static_cast<uint32_t>(R.below(8)));
      else
        TB.write(Actor.Id, static_cast<uint32_t>(R.below(8)));
      break;
    }
  }
  for (const LiveTask &L : Running)
    TB.end(L.Id);
  return TB.take();
}

class WindowedReachPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(WindowedReachPropertyTest, MatchesBatchOracleAtEveryCursor) {
  Trace T = randomTrace(GetParam() * 0x9E3779B9u + 7, 300);
  ASSERT_TRUE(validateTrace(T).ok()) << validateTrace(T).message();
  TaskIndex Index(T);
  HbOptions Opt;
  Opt.Reach = ReachMode::Chain; // pinned: CI reach legs must not skew
  HbIndex Hb(T, Index, Opt);

  const uint32_t N = static_cast<uint32_t>(T.numRecords());
  ASSERT_GT(N, 0u);
  WindowedReach WR(Hb.graph(), N - 1);
  for (uint32_t B = 0; B != N; ++B) {
    WR.advanceTo(B);
    for (uint32_t A = 0; A != B; ++A) {
      if (T.record(A).Task == T.record(B).Task)
        continue; // the windowed scan answers same-task pairs elsewhere
      ASSERT_EQ(WR.orderedCrossTask(A, B), Hb.ordered(A, B))
          << "seed " << GetParam() << " pair (" << A << ", " << B << ")";
    }
  }
  EXPECT_GT(WR.numChains(), 0u);
  EXPECT_LE(WR.liveRows(), WR.highWaterRows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedReachPropertyTest,
                         testing::Range<uint64_t>(0, 25));

TEST(WindowedReachTest, RetiresRowsBehindTheCursor) {
  // A long two-task ping-pong: the frontier stays narrow, so rows must
  // turn over instead of accumulating -- the bounded-memory claim.
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1"), T2 = TB.addThread("t2");
  TB.begin(T1);
  TB.begin(T2);
  for (int I = 0; I != 200; ++I) {
    TB.notify(T1, 0);
    TB.wait(T2, 0);
    TB.notify(T2, 1);
    TB.wait(T1, 1);
  }
  TB.end(T1);
  TB.end(T2);
  Trace T = TB.take();
  ASSERT_TRUE(validateTrace(T).ok());

  TaskIndex Index(T);
  HbOptions Opt;
  Opt.Reach = ReachMode::Chain;
  HbIndex Hb(T, Index, Opt);
  const uint32_t N = static_cast<uint32_t>(T.numRecords());
  WindowedReach WR(Hb.graph(), N - 1);
  // Advance record by record, the way the scan drives it; a single
  // giant jump would admit everything before retiring anything.
  for (uint32_t R = 0; R != N; ++R)
    WR.advanceTo(R);
  // The graph has ~4 nodes per iteration; a frontier that retires keeps
  // far fewer rows live than the node count.
  EXPECT_LT(WR.highWaterRows(), Hb.graph().numNodes() / 4);
}

} // namespace
