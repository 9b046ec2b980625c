//===- tests/hb/ReferenceEngineTest.cpp ---------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential pin of HbIndex's rule engine against the naive reference
// fixpoint of ReferenceHb.h: every round rebuilds the transitive closure
// from scratch and re-evaluates every atomicity and event-queue pair,
// with no round cap, covered runs or row sweeps.  The relations must
// agree on every pair of task begin/end nodes, under the Incremental and
// Chain oracles at 1 and 4 analysis threads, over the Figure 4
// scenarios, the ten app models, the salvage fuzz corpus, 100 random
// traces that put waits, joins, listener performs and IPC receives
// inside looper events, and traces shaped for the sweeps' edge paths:
// events begun out of send order, front sends among delayed sends, and
// looper chains long enough to fill the round cap.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "cafa/Fig4.h"
#include "hb/HbIndex.h"
#include "rt/Runtime.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"

#include "HbTestTraces.h"
#include "ReferenceClosure.h"
#include "ReferenceHb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace cafa;

namespace {

const ReachMode Modes[] = {ReachMode::Incremental, ReachMode::Chain};
const unsigned ThreadCounts[] = {1, 4};

/// Builds HbIndex under every mode and thread count and compares it with
/// the reference on every (begin/end, begin/end) node pair.  Small
/// traces are compared query by query through HbIndex::happensBefore;
/// past ExhaustiveNodes boundary nodes the built graph's closure is
/// compared row by row instead, plus a strided sample of oracle queries.
void expectMatchesReference(const Trace &T, const std::string &What) {
  constexpr size_t ExhaustiveNodes = 3000;
  TaskIndex Index(T);
  ReferenceHb Ref(T, Index);
  std::vector<NodeId> Nodes = boundaryNodes(Ref.graph(), T);
  BitVec Boundary(Ref.graph().numNodes());
  for (NodeId N : Nodes)
    Boundary.set(N.index());
  for (ReachMode Mode : Modes) {
    for (unsigned Threads : ThreadCounts) {
      SCOPED_TRACE(What + " under " + reachModeName(Mode) + " at " +
                   std::to_string(Threads) + " threads");
      HbOptions Opt;
      Opt.Reach = Mode;
      Opt.Threads = Threads;
      HbIndex Hb(T, Index, Opt);
      ASSERT_TRUE(Hb.saturated());
      ASSERT_EQ(Hb.graph().numNodes(), Ref.graph().numNodes());
      const HbGraph &G = Hb.graph();
      size_t Mismatches = 0;
      auto check = [&](NodeId U, NodeId V) {
        bool Want = Ref.closure().reaches(U, V);
        bool Got = Hb.happensBefore(G.recordOfNode(U), G.recordOfNode(V));
        if (Want != Got && ++Mismatches <= 5)
          ADD_FAILURE() << "node " << U.value() << " -> " << V.value()
                        << ": reference " << Want << ", HbIndex " << Got;
      };
      if (Nodes.size() <= ExhaustiveNodes) {
        for (NodeId U : Nodes)
          for (NodeId V : Nodes)
            if (U != V)
              check(U, V);
      } else {
        ClosureReachability Built(G);
        for (NodeId U : Nodes) {
          const BitVec &Mine = Built.row(U), &Theirs = Ref.closure().row(U);
          for (size_t W = 0; W != Mine.numWords(); ++W)
            if ((Mine.word(W) ^ Theirs.word(W)) & Boundary.word(W) &&
                ++Mismatches <= 5)
              ADD_FAILURE() << "row of node " << U.value() << " differs in word "
                            << W;
        }
        for (size_t I = 0; I < Nodes.size(); I += 7)
          for (size_t J = I % 13; J < Nodes.size(); J += 97)
            if (I != J)
              check(Nodes[I], Nodes[J]);
      }
      EXPECT_EQ(Mismatches, 0u);
    }
  }
}

TEST(ReferenceEngineTest, Fig4ScenariosMatch) {
  for (const Fig4Scenario &S : buildFig4Scenarios())
    expectMatchesReference(S.T, S.Name);
}

class ReferenceAppTest : public testing::TestWithParam<std::string> {};

TEST_P(ReferenceAppTest, AppModelMatches) {
  apps::AppModel Model = apps::buildApp(GetParam());
  Trace T = runScenario(Model.S, RuntimeOptions());
  expectMatchesReference(T, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllApps, ReferenceAppTest,
                         testing::ValuesIn(apps::appNames()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(ReferenceEngineTest, SalvageCorpusMatches) {
  std::vector<std::pair<std::string, Trace>> Corpus = salvageCorpus();
  ASSERT_FALSE(Corpus.empty());
  for (const auto &[Name, T] : Corpus)
    expectMatchesReference(T, Name);
}

class ReferenceRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceRandomTest, RandomLooperTraceMatches) {
  Trace T = randomLooperTrace(GetParam() * 2654435761u + 7, 900);
  expectMatchesReference(T, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceRandomTest, testing::Range<uint64_t>(0, 100));

/// One looper fed through a simulated message queue: two threads and the
/// running event post \p Posts events with delays of 0-3 ticks and, one
/// post in \p FrontOneIn (0 = never), at front.  The looper runs the
/// newest front post first, else the earliest due post, so delays make
/// events begin out of send order.  Threads notify after posting and
/// running events wait, which orders a later post before an earlier
/// pending event's begin -- the premise shape of rules 2/4.  The last
/// few posts never run.
Trace queueDisciplineTrace(uint64_t Seed, size_t Posts, unsigned FrontOneIn) {
  Rng R(Seed);
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  std::vector<TaskId> Threads;
  for (int I = 0; I != 2; ++I) {
    Threads.push_back(TB.addThread("t" + std::to_string(I)));
    TB.begin(Threads.back());
  }
  struct Pending {
    TaskId Event;
    uint64_t Due;
    bool Front;
  };
  std::vector<Pending> Queue; // post order
  TaskId Running = TaskId::invalid();
  uint64_t Now = 0;
  for (size_t Posted = 0; Posted != Posts || Queue.size() > 3; ++Now) {
    if (Posted != Posts && (Queue.empty() || R.chance(1, 2))) {
      TaskId From = Running.isValid() && R.chance(1, 3)
                        ? Running
                        : Threads[R.below(Threads.size())];
      bool Front = FrontOneIn && R.chance(1, FrontOneIn);
      uint64_t Delay = Front ? 0 : R.below(4);
      TaskId E = TB.addEvent("e" + std::to_string(Posted++), Q, Delay, Front,
                             false);
      if (Front)
        TB.sendAtFront(From, E);
      else
        TB.send(From, E, Delay);
      Queue.push_back({E, Now + Delay, Front});
      if (From != Running && R.chance(1, 3))
        TB.notify(From, 0);
      continue;
    }
    if (Running.isValid()) {
      if (R.chance(1, 3))
        TB.wait(Running, 0);
      TB.end(Running);
      Running = TaskId::invalid();
      continue;
    }
    size_t Next = 0; // the newest front post, else the earliest due
    for (size_t I = 1; I != Queue.size(); ++I) {
      const Pending &A = Queue[I], &B = Queue[Next];
      if (A.Front || (!B.Front && A.Due < B.Due))
        Next = I;
    }
    Running = Queue[Next].Event;
    Queue.erase(Queue.begin() + static_cast<long>(Next));
    TB.begin(Running);
  }
  if (Running.isValid())
    TB.end(Running);
  for (TaskId T : Threads)
    TB.end(T);
  return TB.take();
}

/// Do the events of the trace's first queue begin out of send order?
/// Then the queue-rule sweep projects onto begin nodes through the rank
/// table rather than pext.
bool beginsOutOfSendOrder(const Trace &T) {
  std::vector<uint32_t> BeginRecord(T.numTasks(), UINT32_MAX);
  for (uint32_t I = 0; I != T.numRecords(); ++I)
    if (T.record(I).Kind == OpKind::TaskBegin)
      BeginRecord[T.record(I).Task.index()] = I;
  uint32_t Last = 0;
  for (uint32_t I = 0; I != T.numRecords(); ++I) {
    const TraceRecord &Rec = T.record(I);
    if (Rec.Kind != OpKind::Send && Rec.Kind != OpKind::SendAtFront)
      continue;
    uint32_t Begin = BeginRecord[Rec.targetTask().index()];
    if (Begin == UINT32_MAX)
      continue;
    if (Begin < Last)
      return true;
    Last = Begin;
  }
  return false;
}

class ReferenceQueueTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceQueueTest, DelayedSendsBeginningOutOfSendOrderMatch) {
  Trace T = queueDisciplineTrace(GetParam() * 7919 + 3, 300, 0);
  ASSERT_TRUE(beginsOutOfSendOrder(T));
  expectMatchesReference(T, "delayed seed " + std::to_string(GetParam()));
}

TEST_P(ReferenceQueueTest, FrontSendsAmongDelayedSendsMatch) {
  Trace T = queueDisciplineTrace(GetParam() * 104729 + 5, 300, 4);
  expectMatchesReference(T, "front seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceQueueTest,
                         testing::Range<uint64_t>(0, 10));

TEST(ReferenceEngineTest, FrontSendsReachTheReverseRules) {
  // The front-send traces above are only a pin of rules 2/4 if those
  // rules fire on them.
  uint64_t Reverse = 0, Forward = 0;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    Trace T = queueDisciplineTrace(Seed * 104729 + 5, 300, 4);
    TaskIndex Index(T);
    HbIndex Hb(T, Index, HbOptions());
    const HbRuleStats &S = Hb.ruleStats();
    Reverse += S.QueueRule2Edges + S.QueueRule4Edges;
    Forward += S.QueueRule1Edges + S.QueueRule3Edges;
  }
  EXPECT_GT(Reverse, 0u);
  EXPECT_GT(Forward, 0u);
}

/// A looper whose every event posts the next (the chainable single-poster
/// shape), plus \p Side events a thread posts with falling delays so that
/// only the queue rules order them.  With \p Overlap each event ends only
/// after the next has begun, so every adjacent atomicity link points
/// backward and the graph refuses it.
Trace chainedLooperTrace(size_t Events, size_t Side, bool Overlap) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId Poster = TB.addThread("poster");
  TB.begin(Poster);
  std::vector<TaskId> Chain;
  for (size_t I = 0; I != Events; ++I)
    Chain.push_back(TB.addEvent("c" + std::to_string(I), Q));
  TB.send(Poster, Chain[0]);
  for (size_t I = 0; I != Events; ++I) {
    TB.begin(Chain[I]);
    if (I + 1 != Events)
      TB.send(Chain[I], Chain[I + 1]);
    if (!Overlap)
      TB.end(Chain[I]);
    else if (I)
      TB.end(Chain[I - 1]);
  }
  if (Overlap)
    TB.end(Chain.back());
  // Side events run in send order, so rule 1 orders each before the next
  // whenever its delay is not larger; no event posts another, so neither
  // atomicity nor a send edge does.
  std::vector<TaskId> Posted;
  for (size_t I = 0; I != Side; ++I) {
    uint64_t Delay = I % 3 == 2 ? 0 : 1;
    Posted.push_back(TB.addEvent("s" + std::to_string(I), Q, Delay));
    TB.send(Poster, Posted.back(), Delay);
  }
  for (TaskId E : Posted) {
    TB.begin(E);
    TB.end(E);
  }
  TB.end(Poster);
  return TB.take();
}

TEST(ReferenceEngineTest, QueueRulesDeferWhileAtomicityLinksFillTheRound) {
  // 3000 chained events make ~9000 nodes: the atomicity gap-1 pass
  // proposes 2999 accepted links in round 0, past the round cap of
  // nodes / 8 + 1024.  The queue rules sit that round out -- their
  // adjacent links are the same edges -- and close the side events in a
  // later round.
  Trace T = chainedLooperTrace(3000, 40, /*Overlap=*/false);
  TaskIndex Index(T);
  HbOptions OneRound;
  OneRound.MaxFixpointRounds = 1;
  for (unsigned Threads : ThreadCounts) {
    OneRound.Threads = Threads;
    HbIndex Hb(T, Index, OneRound);
    ASSERT_GE(Hb.ruleStats().AtomicityEdges,
              Hb.graph().numNodes() / 8 + 1024);
    EXPECT_EQ(Hb.ruleStats().QueueRule1Edges, 0u) << Threads << " threads";
    EXPECT_FALSE(Hb.saturated());
  }
  HbIndex Full(T, Index, HbOptions());
  EXPECT_GT(Full.ruleStats().QueueRule1Edges, 0u);
  expectMatchesReference(T, "deferring chain");
}

TEST(ReferenceEngineTest, RefusedAtomicityLinksNeverDeferTheQueueRules) {
  // Overlapping events: every adjacent atomicity link points backward,
  // in numbers past the round cap, and the graph refuses them all.  A
  // refused proposal does not count toward the cap -- counted, it would
  // defer the queue rules every round, and a deferring round is never
  // the converged one -- so the fixpoint still closes the queue rules
  // and converges to the reference relation.
  Trace T = chainedLooperTrace(3000, 40, /*Overlap=*/true);
  TaskIndex Index(T);
  HbOptions OneRound;
  OneRound.MaxFixpointRounds = 1;
  HbIndex First(T, Index, OneRound);
  EXPECT_GT(First.ruleStats().QueueRule1Edges, 0u);
  expectMatchesReference(T, "overlapping chain");
}

} // namespace
