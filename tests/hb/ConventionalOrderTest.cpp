//===- tests/hb/ConventionalOrderTest.cpp -------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential pin of ConventionalOrder -- the conventional thread-based
// order searched over the CAFA index's own graph -- against HbIndex built
// under OrderingModel::Conventional.  The two must agree on every pair of
// task begin/end nodes and on every committed race's (use, free) records,
// and the detector's (b)/(c) split must be the reference's, over the
// Figure 4 scenarios, the ten app models, the salvage fuzz corpus, random
// looper traces with external events on every queue, and a looper whose
// events overlap.
//
//===----------------------------------------------------------------------===//

#include "hb/ConventionalOrder.h"

#include "apps/Apps.h"
#include "cafa/Fig4.h"
#include "detect/Accesses.h"
#include "detect/UseFreeDetector.h"
#include "hb/HbIndex.h"
#include "rt/Runtime.h"
#include "trace/TraceBuilder.h"

#include "HbTestTraces.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cafa;

namespace {

/// Compares ConventionalOrder over a CAFA index's graph with the
/// conventional HbIndex on every (begin/end, begin/end) node pair --
/// past ExhaustiveNodes boundary nodes, on a strided sample -- and on
/// every race the detector commits, whose (b)/(c) category must be the
/// reference's answer.  Returns the report.
RaceReport expectMatchesConventional(const Trace &T, const std::string &What) {
  constexpr size_t ExhaustiveNodes = 3000;
  SCOPED_TRACE(What);
  TaskIndex Index(T);
  HbIndex Cafa(T, Index, HbOptions());
  HbOptions ConvOpt;
  ConvOpt.Model = OrderingModel::Conventional;
  HbIndex Ref(T, Index, ConvOpt);
  EXPECT_TRUE(Cafa.saturated());
  ConventionalOrder Search(Cafa.graph());

  const HbGraph &G = Cafa.graph();
  std::vector<NodeId> Nodes = boundaryNodes(G, T);
  size_t Mismatches = 0;
  auto check = [&](NodeId U, NodeId V) {
    uint32_t A = G.recordOfNode(U), B = G.recordOfNode(V);
    bool Want = Ref.happensBefore(A, B);
    bool Got = Search.happensBefore(A, B);
    if (Want != Got && ++Mismatches <= 5)
      ADD_FAILURE() << "record " << A << " -> " << B << ": reference "
                    << Want << ", search " << Got;
  };
  if (Nodes.size() <= ExhaustiveNodes) {
    for (NodeId U : Nodes)
      for (NodeId V : Nodes)
        if (U != V)
          check(U, V);
  } else {
    // About SampleRows x SampleRows pairs: each query is a search, not
    // a closure row lookup.
    constexpr size_t SampleRows = 150;
    size_t Stride = Nodes.size() / SampleRows;
    for (size_t I = 0; I < Nodes.size(); I += Stride)
      for (size_t J = I % 13; J < Nodes.size(); J += Stride)
        if (I != J)
          check(Nodes[I], Nodes[J]);
  }
  EXPECT_EQ(Mismatches, 0u);

  AccessDb Db = extractAccesses(T, Index);
  RaceReport Report = detectUseFreeRaces(T, Index, Db, Cafa, DetectorOptions());
  for (const UseFreeRace &Race : Report.Races) {
    uint32_t Use = Race.Use.Record, Free = Race.Free.Record;
    bool Want = Ref.ordered(Use, Free);
    EXPECT_EQ(Search.ordered(Use, Free), Want)
        << "race (use " << Use << ", free " << Free << ")";
    if (Race.Category != RaceCategory::IntraThread) {
      EXPECT_EQ(Race.Category, Want ? RaceCategory::InterThread
                                    : RaceCategory::Conventional)
          << "race (use " << Use << ", free " << Free << ")";
    }
  }
  return Report;
}

TEST(ConventionalOrderTest, Fig4ScenariosMatch) {
  for (const Fig4Scenario &S : buildFig4Scenarios())
    expectMatchesConventional(S.T, S.Name);
}

class ConventionalAppTest : public testing::TestWithParam<std::string> {};

TEST_P(ConventionalAppTest, AppModelMatches) {
  apps::AppModel Model = apps::buildApp(GetParam());
  Trace T = runScenario(Model.S, RuntimeOptions());
  expectMatchesConventional(T, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllApps, ConventionalAppTest,
                         testing::ValuesIn(apps::appNames()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(ConventionalOrderTest, SalvageCorpusMatches) {
  std::vector<std::pair<std::string, Trace>> Corpus = salvageCorpus();
  ASSERT_FALSE(Corpus.empty());
  for (const auto &[Name, T] : Corpus)
    expectMatchesConventional(T, Name);
}

class ConventionalRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ConventionalRandomTest, ExternalEventsOnEveryQueueMatch) {
  // Listener performs land inside looper events, and external events on
  // both queues chain across them: the two CAFA-only edge kinds.
  Trace T = randomLooperTrace(GetParam() * 2654435761u + 11, 900,
                              /*External=*/true);
  expectMatchesConventional(T, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConventionalRandomTest,
                         testing::Range<uint64_t>(0, 100));

TEST(ConventionalOrderTest, OverlappingEventsKeepTheirLinkRefused) {
  // Event e2 begins before e1 ends, as a salvaged trace can have it.
  // The conventional link end(e1) -> begin(e2) points backward and the
  // graph refuses it; e2 -> e3 is an ordinary link.  A worker frees
  // after waiting on e2's notify, so only the refused link would order
  // e1's use before the free: the race is unordered conventionally, (c).
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId UseM = TB.addMethod("useM", 40), FreeM = TB.addMethod("freeM", 40);
  TaskId Poster = TB.addThread("poster"), Worker = TB.addThread("worker");
  TaskId E1 = TB.addEvent("e1", Q), E2 = TB.addEvent("e2", Q),
         E3 = TB.addEvent("e3", Q);
  TB.begin(Poster).send(Poster, E1).send(Poster, E2).send(Poster, E3);
  TB.end(Poster);
  TB.begin(Worker);
  TB.begin(E1).methodEnter(E1, UseM, 1);
  TB.ptrRead(E1, 5, 9, UseM, 3).deref(E1, 9, DerefKind::Invoke, UseM, 4);
  TB.methodExit(E1, UseM, 1);
  TB.begin(E2);
  TB.end(E1);
  uint32_t EndE1 = TB.lastRecord();
  TB.notify(E2, 0);
  uint32_t Notify = TB.lastRecord();
  TB.end(E2);
  uint32_t EndE2 = TB.lastRecord();
  TB.begin(E3);
  uint32_t BeginE3 = TB.lastRecord();
  TB.end(E3);
  TB.wait(Worker, 0);
  TB.methodEnter(Worker, FreeM, 2).ptrWrite(Worker, 5, 0, FreeM, 7);
  TB.methodExit(Worker, FreeM, 2).end(Worker);
  Trace T = TB.take();

  RaceReport Report = expectMatchesConventional(T, "overlapping events");
  ASSERT_EQ(Report.Races.size(), 1u);
  EXPECT_EQ(Report.Races[0].Category, RaceCategory::Conventional);

  TaskIndex Index(T);
  HbIndex Cafa(T, Index, HbOptions());
  ConventionalOrder Search(Cafa.graph());
  EXPECT_FALSE(Search.happensBefore(EndE1, Notify));
  EXPECT_TRUE(Search.happensBefore(EndE2, BeginE3));
}

} // namespace
