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
// agree on every pair of task begin/end nodes -- under the chain
// oracle's forward pass, and on traces of up to BfsMaxRecords records
// under the BFS oracle's fixpoint rounds too -- over the Figure 4
// scenarios, the ten app models, the salvage fuzz corpus, 100 random
// traces that put waits, joins, listener performs and IPC receives
// inside looper events, and traces shaped for the pass's shortcuts:
// events begun out of send order, front sends among delayed sends,
// refused FIFO conclusions, overlapping looper events, and conclusions
// that point back past the pass.
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

const ReachMode Modes[] = {ReachMode::Chain, ReachMode::Bfs};

/// The BFS rounds pay a search per query (minutes on an app trace), so
/// their leg runs on traces up to this size.
constexpr size_t BfsMaxRecords = 4096;

/// Builds HbIndex under every mode and compares it with the reference
/// on every (begin/end, begin/end) node pair.  Small traces are
/// compared query by query through HbIndex::happensBefore; past
/// ExhaustiveNodes boundary nodes the built graph's closure is compared
/// row by row instead, plus a strided sample of oracle queries.
void expectMatchesReference(const Trace &T, const std::string &What) {
  constexpr size_t ExhaustiveNodes = 3000;
  TaskIndex Index(T);
  ReferenceHb Ref(T, Index);
  std::vector<NodeId> Nodes = boundaryNodes(Ref.graph(), T);
  BitVec Boundary(Ref.graph().numNodes());
  for (NodeId N : Nodes)
    Boundary.set(N.index());
  for (ReachMode Mode : Modes) {
    if (Mode == ReachMode::Bfs && T.numRecords() > BfsMaxRecords)
      continue;
    SCOPED_TRACE(What + " under " + reachModeName(Mode));
    HbOptions Opt;
    Opt.Reach = Mode;
    HbIndex Hb(T, Index, Opt);
    ASSERT_TRUE(Hb.saturated());
    ASSERT_EQ(Hb.degradation().UsedReach, Mode);
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

/// The chain oracle pinned: CI's BFS leg must not turn the pass's own
/// tests into round-engine runs.
HbOptions chainOptions() {
  HbOptions Opt;
  Opt.Reach = ReachMode::Chain;
  return Opt;
}

/// Asserts that the default build saturates \p T in one pass under the
/// chain oracle with a narrow cover: a weaker chain choice would widen
/// the cover and, past MaxChainsForClocks, send the build to the BFS
/// rounds without changing a report.
void expectOnePassOnNarrowCover(const Trace &T, const std::string &What) {
  SCOPED_TRACE(What);
  TaskIndex Index(T);
  HbIndex Hb(T, Index, chainOptions());
  EXPECT_TRUE(Hb.saturated());
  EXPECT_EQ(Hb.ruleStats().FixpointRounds, 1u);
  EXPECT_EQ(Hb.degradation().UsedReach, ReachMode::Chain);
  EXPECT_GT(Hb.degradation().ChainCount, 0u);
  EXPECT_LE(Hb.degradation().ChainCount, 64u);
}

TEST_P(ReferenceAppTest, AppModelSaturatesInOnePass) {
  apps::AppModel Model = apps::buildApp(GetParam());
  expectOnePassOnNarrowCover(runScenario(Model.S, RuntimeOptions()),
                             GetParam());
}

TEST(ReferenceEngineTest, WideCoverKeepsSparseClocksOrStepsToTheRounds) {
  // Without the event-queue rules (bench/ablation_ordering's no-queue
  // model) nothing orders most of a looper's events, and the cover
  // holds thousands of chains.  On vlc each node's clock sets few of
  // them: the rows stay sparse and the chain oracle is kept.  On
  // connectbot later nodes are reached by hundreds of them, the rows pass
  // 4 * MaxChainsForClocks bytes per node, and the BFS rounds finish
  // what the pass derived -- clocks past their bound, not a memory
  // downgrade.  Either way the relation is the one the BFS rounds derive
  // from scratch, and the kept sparse clocks answer it.
  for (auto [App, Kept] : {std::pair<const char *, bool>{"vlc", true},
                           {"connectbot", false}}) {
    SCOPED_TRACE(App);
    apps::AppModel Model = apps::buildApp(App);
    Trace T = runScenario(Model.S, RuntimeOptions());
    TaskIndex Index(T);
    HbOptions Opt = chainOptions();
    Opt.EnableQueueRules = false;
    HbIndex Hb(T, Index, Opt);
    EXPECT_TRUE(Hb.saturated());
    EXPECT_FALSE(Hb.degradation().DowngradedForMemory);
    if (Kept) {
      EXPECT_EQ(Hb.degradation().UsedReach, ReachMode::Chain);
      EXPECT_GT(Hb.degradation().ChainCount,
                size_t(ChainReachability::MaxChainsForClocks));
      EXPECT_LT(Hb.degradation().MeasuredReachBytes,
                Hb.graph().numNodes() * 4 *
                    size_t(ChainReachability::MaxChainsForClocks));
    } else {
      EXPECT_EQ(Hb.degradation().UsedReach, ReachMode::Bfs);
    }

    HbOptions RoundsOpt = Opt;
    RoundsOpt.Reach = ReachMode::Bfs;
    HbIndex Rounds(T, Index, RoundsOpt);
    ASSERT_TRUE(Rounds.saturated());
    std::vector<NodeId> Nodes = boundaryNodes(Hb.graph(), T);
    BitVec Boundary(Hb.graph().numNodes());
    for (NodeId N : Nodes)
      Boundary.set(N.index());
    ClosureReachability Mine(Hb.graph()), Theirs(Rounds.graph());
    size_t Mismatches = 0;
    for (NodeId U : Nodes)
      for (size_t W = 0; W != Boundary.numWords(); ++W)
        if ((Mine.row(U).word(W) ^ Theirs.row(U).word(W)) &
                Boundary.word(W) &&
            ++Mismatches <= 5)
          ADD_FAILURE() << "row of node " << U.value() << " differs in word "
                        << W;
    const HbGraph &G = Hb.graph();
    for (size_t I = 0; Kept && I < Nodes.size(); I += 7)
      for (size_t J = I % 13; J < Nodes.size(); J += 97)
        if (I != J &&
            Theirs.reaches(Nodes[I], Nodes[J]) !=
                Hb.happensBefore(G.recordOfNode(Nodes[I]),
                                 G.recordOfNode(Nodes[J])) &&
            ++Mismatches <= 5)
          ADD_FAILURE() << "query " << Nodes[I].value() << " -> "
                        << Nodes[J].value();
    EXPECT_EQ(Mismatches, 0u);
  }
}

TEST(ReferenceEngineTest, LongChainedLooperSaturatesInOnePass) {
  // 3000 chained events make ~9000 nodes, each event's begin joining the
  // end of the one before it: the looper's events share one chain, and
  // the side events close under rule 1 in the same pass.
  Trace T = chainedLooperTrace(3000, 40, /*Overlap=*/false);
  expectOnePassOnNarrowCover(T, "chained looper");
  TaskIndex Index(T);
  HbIndex Hb(T, Index, chainOptions());
  EXPECT_GT(Hb.ruleStats().QueueRule1Edges, 0u);
  expectMatchesReference(T, "chained looper");
}

TEST(ReferenceEngineTest, RefusedAtomicityLinksNeverDeferTheQueueRules) {
  // Overlapping events: every adjacent atomicity and FIFO conclusion
  // points backward and the graph refuses it.  A walk must not stop at
  // an event whose own walk refused a conclusion -- the events before
  // it still need theirs -- so the pass still closes the queue rules
  // and converges to the reference relation.
  Trace T = chainedLooperTrace(3000, 40, /*Overlap=*/true);
  TaskIndex Index(T);
  HbIndex First(T, Index, chainOptions());
  EXPECT_GT(First.ruleStats().QueueRule1Edges, 0u);
  expectMatchesReference(T, "overlapping chain");
}

TEST(ReferenceEngineTest, RefusedFifoConclusionDoesNotStopTheWalk) {
  // One poster sends e1..e4 in order; the looper runs e1, e3, e2, e4, as
  // a salvaged log may show.  FIFO wants end(e2) -> begin(e3), which
  // points backward and is refused.  At begin(e4) the walk meets e3
  // first: its conclusion is accepted, but e3's own walk refused one, so
  // the walk goes on to e2, whose conclusion end(e2) -> begin(e4) no
  // other edge implies.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId Poster = TB.addThread("poster");
  TB.begin(Poster);
  std::vector<TaskId> E;
  for (int I = 0; I != 4; ++I) {
    E.push_back(TB.addEvent("e" + std::to_string(I + 1), Q));
    TB.send(Poster, E.back());
  }
  TB.end(Poster);
  for (int I : {0, 2, 1, 3}) {
    TB.begin(E[I]);
    TB.end(E[I]);
  }
  Trace T = TB.take();
  TaskIndex Index(T);
  for (ReachMode Mode : Modes) {
    HbOptions Opt;
    Opt.Reach = Mode;
    HbIndex Hb(T, Index, Opt);
    EXPECT_TRUE(Hb.taskOrdered(E[1], E[3])) << reachModeName(Mode);
    EXPECT_TRUE(Hb.taskOrdered(E[0], E[2])) << reachModeName(Mode);
    EXPECT_FALSE(Hb.taskOrdered(E[1], E[2])) << reachModeName(Mode);
    EXPECT_FALSE(Hb.taskOrdered(E[2], E[1])) << reachModeName(Mode);
  }
  expectMatchesReference(T, "events begun out of send order");
}

TEST(ReferenceEngineTest, LateSendConcludesIntoItsPlacedBegin) {
  // A salvaged log may record a send after the begin of the event it
  // posts; the graph refuses that send edge.  FIFO still orders e1 before
  // e2 (both sent by one poster, e1 first), but the pass only learns it
  // at the late send, past begin(e2): it collects end(e1) -> begin(e2)
  // and a second pass seeds it.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId Poster = TB.addThread("poster");
  TaskId E1 = TB.addEvent("e1", Q), E2 = TB.addEvent("e2", Q);
  TB.begin(Poster);
  TB.send(Poster, E1);
  TB.begin(E1);
  TB.end(E1);
  TB.begin(E2);
  TB.send(Poster, E2);
  TB.end(E2);
  TB.end(Poster);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb(T, Index, chainOptions());
  EXPECT_TRUE(Hb.taskOrdered(E1, E2));
  EXPECT_EQ(Hb.ruleStats().FixpointRounds, 2u);
  expectMatchesReference(T, "late send");
}

TEST(ReferenceEngineTest, RetroactiveAtomicityTakesASecondPass) {
  // looper_derived_order.trace holds an event that joins a thread and
  // events whose posters notify and wait: atomicity premises that enter
  // an event after its begin.  Their conclusions point back past the
  // first pass, which collects them; the second pass, seeded with them,
  // collects none.
  bool Saw = false;
  for (const auto &[Name, T] : salvageCorpus()) {
    if (Name != "looper_derived_order.trace")
      continue;
    Saw = true;
    TaskIndex Index(T);
    HbIndex Hb(T, Index, chainOptions());
    EXPECT_TRUE(Hb.saturated());
    EXPECT_EQ(Hb.ruleStats().FixpointRounds, 2u);
    EXPECT_EQ(Hb.degradation().UsedReach, ReachMode::Chain);
    expectMatchesReference(T, Name);

    // Capped at one pass, the build is cut short: what it derived is
    // sound and resumable, and the resume saturates.
    HbOptions OnePass = chainOptions();
    OnePass.MaxFixpointRounds = 1;
    HbIndex Cut(T, Index, OnePass);
    EXPECT_FALSE(Cut.saturated());
    HbFrontier F = Cut.exportFrontier();
    HbCheckpointing Ck;
    Ck.Resume = &F;
    HbIndex Resumed(T, Index, chainOptions(), &Ck);
    EXPECT_TRUE(Resumed.saturated());
    for (uint32_t A = 0; A != T.numTasks(); ++A)
      for (uint32_t B = 0; B != T.numTasks(); ++B)
        EXPECT_EQ(Resumed.taskOrdered(TaskId(A), TaskId(B)),
                  Hb.taskOrdered(TaskId(A), TaskId(B)))
            << A << " before " << B;
  }
  EXPECT_TRUE(Saw);
}

} // namespace
