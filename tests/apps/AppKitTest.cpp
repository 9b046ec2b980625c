//===- tests/apps/AppKitTest.cpp ----------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Each AppKit seed in isolation: one seed in an otherwise empty app must
// produce exactly its intended detector outcome (category, label, or
// silence for the benign patterns), and the rule-protected pairs must
// flip to reported when their rule is disabled.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"

#include "cafa/Cafa.h"

#include <gtest/gtest.h>

using namespace cafa;
using namespace cafa::apps;

namespace {

/// Builds an app with a single seed (applied by \p Seed) and runs the
/// default pipeline; returns (races, row).
struct SeedResult {
  RaceReport Report;
  Table1Row Row;
  Trace T;
};

template <typename SeedFn>
SeedResult runSeed(SeedFn Seed,
                   DetectorOptions DetOpt = DetectorOptions()) {
  AppBuilder App("isolated");
  Seed(App);
  Table1Row Dummy;
  AppModel Model = App.finish(Dummy);
  SeedResult Out;
  Out.T = runScenario(Model.S, RuntimeOptions());
  Out.Report = analyzeTrace(Out.T, DetOpt).Report;
  Out.Row = evaluateReport(Out.Report, Model.Truth, Out.T, "isolated");
  return Out;
}

TEST(AppKitSeedTest, IntraThreadRaceIsCategoryA) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.seedIntraThreadRace("x"); });
  ASSERT_EQ(R.Report.Races.size(), 1u) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Report.Races[0].Category, RaceCategory::IntraThread);
  EXPECT_EQ(R.Row.TrueA, 1u);
  EXPECT_EQ(R.Row.Unexpected, 0u);
}

TEST(AppKitSeedTest, RpcIntraThreadRaceIsCategoryA) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.seedRpcIntraThreadRace("x"); });
  ASSERT_EQ(R.Report.Races.size(), 1u) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Report.Races[0].Category, RaceCategory::IntraThread);
  EXPECT_EQ(R.Row.TrueA, 1u);
}

TEST(AppKitSeedTest, InterThreadRaceIsCategoryB) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.seedInterThreadRace("x"); });
  ASSERT_EQ(R.Report.Races.size(), 1u) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Report.Races[0].Category, RaceCategory::InterThread);
  EXPECT_EQ(R.Row.TrueB, 1u);
}

TEST(AppKitSeedTest, ConventionalRaceIsCategoryC) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.seedConventionalRace("x"); });
  ASSERT_EQ(R.Report.Races.size(), 1u) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Report.Races[0].Category, RaceCategory::Conventional);
  EXPECT_EQ(R.Row.TrueC, 1u);
}

TEST(AppKitSeedTest, UninstrumentedListenerReported) {
  SeedResult R = runSeed(
      [](AppBuilder &A) { A.seedUninstrumentedListenerFp("x"); });
  ASSERT_EQ(R.Report.Races.size(), 1u) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Row.FpI, 1u);
}

TEST(AppKitSeedTest, InstrumentedListenerSuppressesTheSameSeed) {
  // The defining property of a Type I false positive: tracing the
  // listener package removes the report.
  SeedResult R = runSeed([](AppBuilder &A) {
    A.seedUninstrumentedListenerFp("x", /*Instrumented=*/true);
  });
  EXPECT_TRUE(R.Report.Races.empty()) << renderRaceReport(R.Report, R.T);
}

TEST(AppKitSeedTest, FlagGuardedReportedAsFpII) {
  SeedResult R = runSeed([](AppBuilder &A) { A.seedFlagGuardedFp("x"); });
  ASSERT_EQ(R.Report.Races.size(), 1u) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Row.FpII, 1u);
}

TEST(AppKitSeedTest, AliasMismatchReportedAsFpIII) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.seedAliasMismatchFp("x"); });
  ASSERT_EQ(R.Report.Races.size(), 1u) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Row.FpIII, 1u);
}

TEST(AppKitSeedTest, GuardedCommutativePairSilent) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.addGuardedCommutativePair("x"); });
  EXPECT_TRUE(R.Report.Races.empty()) << renderRaceReport(R.Report, R.T);
  EXPECT_EQ(R.Report.Filters.IfGuardFiltered, 1u);
}

TEST(AppKitSeedTest, GuardedPairReportedWithoutIfGuard) {
  DetectorOptions Opt;
  Opt.IfGuardFilter = false;
  SeedResult R = runSeed(
      [](AppBuilder &A) { A.addGuardedCommutativePair("x"); }, Opt);
  EXPECT_EQ(R.Report.Races.size(), 1u);
}

TEST(AppKitSeedTest, AllocBeforeUsePairSilent) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.addAllocBeforeUsePair("x"); });
  EXPECT_TRUE(R.Report.Races.empty()) << renderRaceReport(R.Report, R.T);
  EXPECT_GE(R.Report.Filters.IntraEventAlloc, 1u);
}

TEST(AppKitSeedTest, FreeThenAllocPairSilent) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.addFreeThenAllocPair("x"); });
  EXPECT_TRUE(R.Report.Races.empty()) << renderRaceReport(R.Report, R.T);
  EXPECT_GE(R.Report.Filters.IntraEventAlloc, 1u);
}

TEST(AppKitSeedTest, LockProtectedPairSilent) {
  SeedResult R =
      runSeed([](AppBuilder &A) { A.addLockProtectedPair("x"); });
  EXPECT_TRUE(R.Report.Races.empty()) << renderRaceReport(R.Report, R.T);
  EXPECT_GE(R.Report.Filters.LocksetProtected, 1u);
}

TEST(AppKitSeedTest, QueueOrderedPairSilentWithRuleReportedWithout) {
  SeedResult With =
      runSeed([](AppBuilder &A) { A.addQueueOrderedPair("x"); });
  EXPECT_TRUE(With.Report.Races.empty())
      << renderRaceReport(With.Report, With.T);

  DetectorOptions Opt;
  Opt.Hb.EnableQueueRules = false;
  SeedResult Without =
      runSeed([](AppBuilder &A) { A.addQueueOrderedPair("x"); }, Opt);
  EXPECT_EQ(Without.Report.Races.size(), 1u);
}

TEST(AppKitSeedTest, AtomicityOrderedPairSilentWithRuleReportedWithout) {
  SeedResult With =
      runSeed([](AppBuilder &A) { A.addAtomicityOrderedPair("x"); });
  EXPECT_TRUE(With.Report.Races.empty())
      << renderRaceReport(With.Report, With.T);

  DetectorOptions Opt;
  Opt.Hb.EnableAtomicityRule = false;
  SeedResult Without =
      runSeed([](AppBuilder &A) { A.addAtomicityOrderedPair("x"); }, Opt);
  EXPECT_EQ(Without.Report.Races.size(), 1u);
}

TEST(AppKitSeedTest, ExternalOrderedPairSilentWithRuleReportedWithout) {
  SeedResult With =
      runSeed([](AppBuilder &A) { A.addExternalOrderedPair("x"); });
  EXPECT_TRUE(With.Report.Races.empty())
      << renderRaceReport(With.Report, With.T);

  DetectorOptions Opt;
  Opt.Hb.EnableExternalInputRule = false;
  SeedResult Without =
      runSeed([](AppBuilder &A) { A.addExternalOrderedPair("x"); }, Opt);
  EXPECT_EQ(Without.Report.Races.size(), 1u);
}

TEST(AppKitTest, VolumeFillHitsExactEventCount) {
  AppBuilder App("vol");
  App.seedIntraThreadRace("x");
  App.fillVolumeTo(500);
  EXPECT_EQ(App.plannedEvents(), 500u);
  Table1Row Dummy;
  AppModel Model = App.finish(Dummy);
  Trace T = runScenario(Model.S, RuntimeOptions());
  EXPECT_EQ(T.numEvents(), 500u);
}

TEST(AppKitTest, NaiveNoiseProducesFourRacesPerField) {
  AppBuilder App("noise");
  App.addNaiveNoise(/*NumFields=*/10, /*ReaderInstances=*/3,
                    /*WriterInstances=*/2);
  Table1Row Dummy;
  AppModel Model = App.finish(Dummy);
  Trace T = runScenario(Model.S, RuntimeOptions());
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  NaiveRaceResult Naive =
      detectLowLevelRaces(T, Hb, NaiveDetectorOptions());
  EXPECT_EQ(Naive.StaticRaces, 40u);
  // And none of it is a use-free race.
  AccessDb Db = extractAccesses(T, Index);
  RaceReport Report =
      detectUseFreeRaces(T, Index, Db, Hb, DetectorOptions());
  EXPECT_TRUE(Report.Races.empty());
}

TEST(AppKitTest, ExtraReadPcsAddTwoRacesEach) {
  AppBuilder App("noise");
  App.addNaiveNoise(10, 3, 2, /*ExtraReadPcs=*/3);
  Table1Row Dummy;
  AppModel Model = App.finish(Dummy);
  Trace T = runScenario(Model.S, RuntimeOptions());
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  NaiveRaceResult Naive =
      detectLowLevelRaces(T, Hb, NaiveDetectorOptions());
  EXPECT_EQ(Naive.StaticRaces, 46u);
}

} // namespace
