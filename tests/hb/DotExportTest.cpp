//===- tests/hb/DotExportTest.cpp ---------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/DotExport.h"

#include "apps/Apps.h"
#include "cafa/Fig4.h"
#include "rt/Runtime.h"
#include "support/Format.h"
#include "support/Snapshot.h"
#include "trace/TraceBuilder.h"

#include "HbTestTraces.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace cafa;

namespace {

/// The task digest's edges as the reduction was first written: ask
/// taskOrdered for every pair of begun tasks, then drop an edge a->b when
/// any middle task m has a->m->b.  Cubic in the tasks, obviously right.
/// \p OrderedPairs receives the number of ordered pairs before reduction.
std::string cubicReductionEdges(const HbIndex &Hb, const Trace &T,
                                size_t &OrderedPairs) {
  std::vector<TaskId> Tasks;
  for (uint32_t I = 0; I != T.numTasks(); ++I)
    if (Hb.graph().beginNode(TaskId(I)).isValid())
      Tasks.push_back(TaskId(I));
  size_t N = Tasks.size();
  std::vector<std::vector<bool>> Ord(N, std::vector<bool>(N, false));
  for (size_t A = 0; A != N; ++A)
    for (size_t B = 0; B != N; ++B)
      if (A != B && Hb.taskOrdered(Tasks[A], Tasks[B])) {
        Ord[A][B] = true;
        ++OrderedPairs;
      }
  std::string Edges;
  for (size_t A = 0; A != N; ++A)
    for (size_t B = 0; B != N; ++B) {
      if (!Ord[A][B])
        continue;
      bool Redundant = false;
      for (size_t Mid = 0; Mid != N && !Redundant; ++Mid)
        Redundant = Mid != A && Mid != B && Ord[A][Mid] && Ord[Mid][B];
      if (!Redundant)
        Edges += formatString("  t%u -> t%u;\n", Tasks[A].value(),
                              Tasks[B].value());
    }
  return Edges;
}

/// The edge lines of a rendered digest, in output order.
std::string edgeLines(const std::string &Dot) {
  std::istringstream In(Dot);
  std::string Edges;
  for (std::string Line; std::getline(In, Line);)
    if (Line.find(" -> ") != std::string::npos)
      Edges += Line + "\n";
  return Edges;
}

/// FNV-1a of the node graph's rendering, which prints every node's
/// successors in the order the graph keeps them, derived edges included.
uint64_t nodeGraphDigest(const Trace &T) {
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  std::string Dot = exportHbGraphDot(Hb, T);
  return fnv1a64(Dot.data(), Dot.size());
}

TEST(DotExportTest, NodeGraphKeepsSuccessorOrder) {
  // Pinned renderings: a node's successors are program order first,
  // then the base rules' edges, then each derivation pass's, each batch
  // in the order it was added.  A change to that order shows here; a
  // deliberate change to the runtime's schedules or the rules re-pins.
  // The digests cover the derived edges, not just the relation they
  // imply, so a rule engine that derives the same relation through
  // other redundant edges re-pins them too.
  bool SawLooper = false;
  for (const auto &[Name, T] : salvageCorpus())
    if (Name == "looper_derived_order.trace") {
      SawLooper = true;
      EXPECT_EQ(nodeGraphDigest(T), 0x560b760d449e7b50ull) << Name;
    }
  EXPECT_TRUE(SawLooper);
  for (auto [App, Want] :
       {std::pair<const char *, uint64_t>{"vlc", 0x2544e987b315c956ull},
        {"mytracks", 0x9174d683406adc91ull}}) {
    apps::AppModel Model = apps::buildApp(App);
    EXPECT_EQ(nodeGraphDigest(runScenario(Model.S, RuntimeOptions())), Want)
        << App;
  }
}

TEST(DotExportTest, NodeGraphContainsTasksOpsAndEdges) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId T1 = TB.addThread("sender");
  TaskId E1 = TB.addEvent("onPause", Q);
  TB.begin(T1).send(T1, E1, 0).end(T1);
  TB.begin(E1).end(E1);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());

  std::string Dot = exportHbGraphDot(Hb, T);
  EXPECT_NE(Dot.find("digraph cafa_hb"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"sender\""), std::string::npos);
  EXPECT_NE(Dot.find("label=\"onPause\""), std::string::npos);
  EXPECT_NE(Dot.find("label=\"send\""), std::string::npos);
  // Cross-task send edge plus dotted program-order edges.
  EXPECT_NE(Dot.find("->"), std::string::npos);
  EXPECT_NE(Dot.find("style=dotted"), std::string::npos);
}

TEST(DotExportTest, TaskDigestIsTransitivelyReduced) {
  // Three chained external events: a->b->c must not include the
  // redundant a->c edge.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId A = TB.addEvent("a", Q, 0, false, true);
  TaskId B = TB.addEvent("b", Q, 0, false, true);
  TaskId C = TB.addEvent("c", Q, 0, false, true);
  TB.begin(A).end(A);
  TB.begin(B).end(B);
  TB.begin(C).end(C);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());

  std::string Dot = exportTaskOrderDot(Hb, T);
  std::string EdgeAB = formatString("t%u -> t%u", A.value(), B.value());
  std::string EdgeBC = formatString("t%u -> t%u", B.value(), C.value());
  std::string EdgeAC = formatString("t%u -> t%u", A.value(), C.value());
  EXPECT_NE(Dot.find(EdgeAB), std::string::npos);
  EXPECT_NE(Dot.find(EdgeBC), std::string::npos);
  EXPECT_EQ(Dot.find(EdgeAC), std::string::npos);
  // External events are rendered filled.
  EXPECT_NE(Dot.find("fillcolor=lightgrey"), std::string::npos);
}

TEST(DotExportTest, TaskDigestMatchesTheCubicReduction) {
  // Random looper traces: waits, joins, listener performs and IPC
  // receives inside events, front and delayed sends, some external
  // events.  The digest must keep exactly the cubic reduction's edges,
  // in its order.
  size_t OrderedPairs = 0, Kept = 0;
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    Trace T = randomLooperTrace(Seed * 2654435761u + 11, 300, Seed % 2);
    TaskIndex Index(T);
    HbIndex Hb(T, Index, HbOptions());
    std::string Want = cubicReductionEdges(Hb, T, OrderedPairs);
    EXPECT_EQ(edgeLines(exportTaskOrderDot(Hb, T)), Want) << "seed " << Seed;
    Kept += static_cast<size_t>(std::count(Want.begin(), Want.end(), '\n'));
  }
  // The traces order tasks, and the reduction drops some of the pairs.
  EXPECT_GT(Kept, 0u);
  EXPECT_LT(Kept, OrderedPairs);
}

TEST(DotExportTest, Fig4ScenariosExportCleanly) {
  for (Fig4Scenario &S : buildFig4Scenarios()) {
    TaskIndex Index(S.T);
    HbIndex Hb(S.T, Index, HbOptions());
    std::string Dot = exportTaskOrderDot(Hb, S.T);
    EXPECT_NE(Dot.find("digraph"), std::string::npos) << S.Name;
    // Both protagonists appear.
    EXPECT_NE(Dot.find("\"A\""), std::string::npos) << S.Name;
    EXPECT_NE(Dot.find("\"B\""), std::string::npos) << S.Name;
  }
}

TEST(DotExportTest, LabelsAreEscaped) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("we\"ird\\name");
  TB.begin(T1).end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  std::string Dot = exportTaskOrderDot(Hb, T);
  EXPECT_NE(Dot.find("we\\\"ird\\\\name"), std::string::npos);
}

} // namespace
