//===- tests/integration/PipelineTest.cpp -------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Cross-module integration: trace files round-trip through the full
// analyzer unchanged; a predicted race manifests as a real crash when
// the schedule flips; the conventional model is consistent end to end.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "ir/IrBuilder.h"
#include "trace/IngestSession.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include "ReferenceClosure.h"
#include "TestScratch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

using namespace cafa;
using namespace cafa::apps;

namespace {

TEST(PipelineTest, TraceFileRoundTripPreservesAnalysis) {
  AppModel Model = buildZXing();
  Trace Original = runScenario(Model.S, RuntimeOptions());
  AnalysisResult Before = analyzeTrace(Original, DetectorOptions());

  std::string Path = uniqueScratchDir() + "/roundtrip.trace";
  ASSERT_TRUE(writeTraceFile(Original, Path).ok());
  Trace Reloaded;
  IngestOptions Strict;
  Strict.Salvage.Strict = true;
  IngestReport Report;
  ASSERT_TRUE(ingestTraceFile(Path, Reloaded, Report, Strict).ok());
  std::remove(Path.c_str());
  ASSERT_TRUE(validateTrace(Reloaded).ok());

  AnalysisResult After = analyzeTrace(Reloaded, DetectorOptions());
  ASSERT_EQ(Before.Report.Races.size(), After.Report.Races.size());
  for (size_t I = 0; I != Before.Report.Races.size(); ++I) {
    EXPECT_EQ(Before.Report.Races[I].Use.Pc, After.Report.Races[I].Use.Pc);
    EXPECT_EQ(Before.Report.Races[I].Free.Pc,
              After.Report.Races[I].Free.Pc);
    EXPECT_EQ(Before.Report.Races[I].Category,
              After.Report.Races[I].Category);
  }
}

/// The payoff test: CAFA predicts the race from a crash-free trace; the
/// reversed schedule actually crashes.  This is Figure 1(a) vs 1(b).
TEST(PipelineTest, PredictedRaceManifestsUnderFlippedSchedule) {
  auto build = [](uint64_t UseAtMicros, uint64_t FreeAtMicros,
                  Scenario &S) {
    auto M = std::make_shared<Module>();
    ProcessId App = M->addProcess("app");
    QueueId Main = M->addQueue("main", App);
    FieldId Ptr = M->addStaticField("ptr", true);
    ClassId C = M->addClass("C");
    IrBuilder B(*M);
    B.beginMethod("victim", 1);
    B.work(1);
    MethodId Victim = B.endMethod();
    B.beginMethod("onUse", 2);
    B.sgetObject(1, Ptr);
    B.invokeVirtual(1, Victim); // NPE if ptr was freed first
    MethodId OnUse = B.endMethod();
    B.beginMethod("onFree", 1);
    B.constNull(0);
    B.sputObject(Ptr, 0);
    MethodId OnFree = B.endMethod();
    B.beginMethod("boot", 1);
    B.newInstance(0, C);
    B.sputObject(Ptr, 0);
    B.sendEvent(Main, OnUse,
                static_cast<int32_t>(UseAtMicros / 1000));
    MethodId Boot = B.endMethod();
    S.AppName = "flip";
    S.Program = M;
    S.BootThreads.push_back({0, Boot, App, "boot"});
    S.ExternalEvents.push_back({FreeAtMicros, Main, OnFree, "onFree"});
  };

  // Correct order: use at 10 ms, free at 30 ms -- no crash, race found.
  Scenario Good;
  build(10'000, 30'000, Good);
  RuntimeStats GoodStats;
  Trace T = runScenario(Good, RuntimeOptions(), &GoodStats);
  EXPECT_EQ(GoodStats.NullPointerExceptions, 0u);
  AnalysisResult R = analyzeTrace(T, DetectorOptions());
  ASSERT_EQ(R.Report.Races.size(), 1u);

  // Flipped order: free at 10 ms, use at 30 ms -- the predicted
  // use-after-free actually throws.
  Scenario Bad;
  build(30'000, 10'000, Bad);
  RuntimeStats BadStats;
  runScenario(Bad, RuntimeOptions(), &BadStats);
  EXPECT_EQ(BadStats.NullPointerExceptions, 1u);
}

TEST(PipelineTest, AnalysisResultCarriesPhaseStats) {
  AppModel Model = buildVlc();
  Trace T = runScenario(Model.S, RuntimeOptions());
  AnalysisResult R = analyzeTrace(T, DetectorOptions());
  EXPECT_GT(R.HbStats.ProgramOrderEdges, 0u);
  EXPECT_GT(R.HbStats.SendEdges, 0u);
  EXPECT_GT(R.HbStats.FixpointRounds, 0u);
  EXPECT_GT(R.HbMemoryBytes, 0u);
  EXPECT_EQ(R.TraceStatistics.NumEvents, Model.PaperRow.Events);
  EXPECT_GE(R.HbBuildMillis, 0.0);
}

TEST(PipelineTest, AllOraclesReproduceTheAppReport) {
  // End-to-end agreement of the two oracles on an app-shaped trace.
  // (Small volume: the BFS oracle pays per-query search inside the
  // rule sweeps, which is the point of the ablation bench.)
  AppBuilder App("mini");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.seedAliasMismatchFp("gamma");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(300);
  Table1Row Dummy;
  AppModel Model = App.finish(Dummy);
  Trace T = runScenario(Model.S, RuntimeOptions());
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);

  DetectorOptions Opt;
  std::vector<std::unique_ptr<HbIndex>> Hbs;
  std::vector<RaceReport> Reports;
  for (ReachMode Mode : {ReachMode::Bfs, ReachMode::Chain}) {
    Opt.Hb.Reach = Mode;
    Hbs.push_back(std::make_unique<HbIndex>(T, Index, Opt.Hb));
    Reports.push_back(detectUseFreeRaces(T, Index, Db, *Hbs.back(), Opt));
  }

  // The expected side: the reference closure of the BFS-built graph
  // orders every use/free pair the way each oracle does, so the reports
  // rest on the same verdicts.
  ReferenceHappensBefore Expected(T, Hbs.front()->graph());
  for (const std::unique_ptr<HbIndex> &Hb : Hbs)
    for (const PtrAccess &Use : Db.Uses)
      for (const PtrAccess &Free : Db.Frees)
        ASSERT_EQ(Hb->ordered(Use.Record, Free.Record),
                  Expected(Use.Record, Free.Record) ||
                      Expected(Free.Record, Use.Record))
            << reachModeName(Hb->degradation().UsedReach) << " records "
            << Use.Record << ", " << Free.Record;

  const RaceReport &A = Reports.front();
  EXPECT_FALSE(A.Races.empty());
  for (const RaceReport &B : Reports) {
    ASSERT_EQ(A.Races.size(), B.Races.size());
    for (size_t I = 0; I != A.Races.size(); ++I) {
      EXPECT_EQ(A.Races[I].Use.Record, B.Races[I].Use.Record);
      EXPECT_EQ(A.Races[I].Free.Record, B.Races[I].Free.Record);
    }
  }
}

TEST(PipelineTest, SerializedAppTraceValidates) {
  // Serialization of a large trace stays parseable and valid.
  AppModel Model = buildConnectBot();
  Trace T = runScenario(Model.S, RuntimeOptions());
  std::string Text = serializeTrace(T);
  EXPECT_GT(Text.size(), 100'000u);
  Trace Parsed;
  IngestOptions Strict;
  Strict.Salvage.Strict = true;
  IngestReport Report;
  ASSERT_TRUE(ingestTrace(Text, Parsed, Report, Strict).ok());
  EXPECT_TRUE(validateTrace(Parsed).ok());
  EXPECT_EQ(Parsed.numRecords(), T.numRecords());
}

} // namespace
