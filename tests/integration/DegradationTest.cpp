//===- tests/integration/DegradationTest.cpp ----------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The graceful-degradation ladder end to end: a memory ceiling steps the
// reachability oracle down Chain -> Bfs with
// bit-identical reports, and a blown wall-clock deadline produces a
// partial report flagged with a machine-readable cause.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <tuple>

using namespace cafa;

namespace {

Trace buildAppTrace() {
  apps::AppBuilder App("degrade");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(300);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  return runScenario(Model.S, RuntimeOptions());
}

TEST(DegradationTest, MemoryCeilingFallsBackToBfsBitIdentical) {
  Trace T = buildAppTrace();

  // Pin the request: this test asserts which rung the ladder lands on,
  // so the CAFA_REACH-forced CI legs must not redirect the default.
  DetectorOptions Pinned;
  Pinned.Hb.Reach = ReachMode::Chain;
  AnalysisResult Full = analyzeTrace(T, Pinned);
  EXPECT_EQ(Full.Degradation.UsedReach, ReachMode::Chain);
  EXPECT_FALSE(Full.Degradation.degraded());

  DetectorOptions Tiny = Pinned;
  Tiny.Hb.MemLimitBytes = 1; // not even the cover fits
  AnalysisResult Lim = analyzeTrace(T, Tiny);
  EXPECT_EQ(Lim.Degradation.RequestedReach, ReachMode::Chain);
  EXPECT_EQ(Lim.Degradation.UsedReach, ReachMode::Bfs);
  EXPECT_TRUE(Lim.Degradation.DowngradedForMemory);
  EXPECT_FALSE(Lim.Degradation.DeadlineExceeded);
  EXPECT_FALSE(Lim.Report.Partial);

  // The oracles answer identically, so the entire rendered report --
  // races, categories, dynamic counts, filter counters -- must match
  // byte for byte.
  EXPECT_EQ(renderRaceReportJson(Full.Report, T),
            renderRaceReportJson(Lim.Report, T));
  EXPECT_GT(Full.Report.Races.size(), 0u); // the comparison is not vacuous
}

TEST(DegradationTest, MemoryCeilingKeepsTheChainRungWhenItsClocksFit) {
  // A budget at the chain oracle's measured footprint keeps the chain
  // rung; one byte less steps the ladder to Bfs, whose rounds finish
  // what the cut pass derived.  Neither changes the relation, hence
  // neither changes the report.
  Trace T = buildAppTrace();
  TaskIndex Index(T);
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  HbIndex Free(T, Index, ChainOpt);
  const size_t Bytes = Free.degradation().MeasuredReachBytes;

  HbOptions Fits = ChainOpt;
  Fits.MemLimitBytes = Bytes;
  HbIndex Kept(T, Index, Fits);
  EXPECT_EQ(Kept.degradation().UsedReach, ReachMode::Chain);
  EXPECT_FALSE(Kept.degradation().DowngradedForMemory);
  EXPECT_EQ(Kept.degradation().MeasuredReachBytes, Bytes);

  HbOptions Tight = ChainOpt;
  Tight.MemLimitBytes = Bytes - 1;
  HbIndex Limited(T, Index, Tight);
  EXPECT_EQ(Limited.degradation().UsedReach, ReachMode::Bfs);
  EXPECT_TRUE(Limited.degradation().DowngradedForMemory);
  EXPECT_TRUE(Limited.saturated());

  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions DOpt;
  RaceReport A = detectUseFreeRaces(T, Index, Db, Free, DOpt);
  RaceReport B = detectUseFreeRaces(T, Index, Db, Kept, DOpt);
  RaceReport C = detectUseFreeRaces(T, Index, Db, Limited, DOpt);
  EXPECT_EQ(renderRaceReportJson(A, T), renderRaceReportJson(B, T));
  EXPECT_EQ(renderRaceReportJson(A, T), renderRaceReportJson(C, T));
}

TEST(DegradationTest, DeadlineBeforeThePassIsNotAMemoryDowngrade) {
  // A deadline that passes before the first derivation pass builds the
  // BFS floor directly.  Under a budget the chain oracle would fit, that
  // is no memory downgrade, and it must not shed the detector to the
  // windowed scan that --mem-limit engages.
  Trace T = buildAppTrace();
  DetectorOptions Opt;
  Opt.Hb.Reach = ReachMode::Chain;
  Opt.Hb.MemLimitBytes = size_t(1) << 30;
  Opt.DeadlineMillis = 1e-6;
  AnalysisResult R = analyzeTrace(T, Opt);
  EXPECT_TRUE(R.Degradation.DeadlineExceeded);
  EXPECT_EQ(R.Degradation.UsedReach, ReachMode::Bfs);
  EXPECT_FALSE(R.Degradation.DowngradedForMemory);
  EXPECT_FALSE(R.WindowShedByMemory);
  EXPECT_TRUE(R.Report.Partial);
}

TEST(DegradationTest, BlownHbDeadlineYieldsPartialReport) {
  Trace T = buildAppTrace();

  DetectorOptions Opt;
  Opt.DeadlineMillis = 1e-6; // expires before the first fixpoint round
  AnalysisResult R = analyzeTrace(T, Opt);

  EXPECT_TRUE(R.Degradation.DeadlineExceeded);
  ASSERT_TRUE(R.Report.Partial);
  EXPECT_EQ(R.Report.PartialCause, "hb-deadline");

  std::string Json = renderRaceReportJson(R.Report, T);
  EXPECT_NE(Json.find("\"partial\": true"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"partialCause\": \"hb-deadline\""),
            std::string::npos)
      << Json;
  EXPECT_NE(renderRaceReport(R.Report, T).find("PARTIAL"),
            std::string::npos);

  // A missing-edge relation only ever surfaces *more* candidates.
  AnalysisResult Full = analyzeTrace(T, DetectorOptions());
  EXPECT_GE(R.Report.Filters.CandidatePairs -
                R.Report.Filters.OrderedByHb,
            Full.Report.Filters.CandidatePairs -
                Full.Report.Filters.OrderedByHb);
}

/// Two unordered threads with \p N uses x \p N frees of one pointer
/// cell: N^2 candidate pairs against the detector's ~4096-pair deadline
/// poll cadence.
static Trace buildPairGridTrace(uint32_t N) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 4096);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != N; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != N; ++I)
    TB.ptrWrite(B, 5, 0, M, 2000 + I);
  TB.end(B);
  return TB.take();
}

TEST(DegradationTest, BlownDetectDeadlineShedsFiltersFirst) {
  // 70x70 = 4900 pairs: the first deadline poll (~pair 4096) sheds the
  // lockset/if-guard filters and doubles the budget; the scan then
  // finishes before the next poll (~pair 8192), so every pair is
  // examined and the cause stays "filters-shed".
  Trace T = buildPairGridTrace(70);

  DetectorOptions Fast;
  Fast.DeadlineMillis = 1e-6;
  RaceReport R = detectUseFreeRaces(T, Fast);
  ASSERT_TRUE(R.Partial);
  EXPECT_EQ(R.PartialCause, "filters-shed");
  EXPECT_EQ(R.Filters.CandidatePairs, 4900u); // the scan completed
  EXPECT_FALSE(R.PartialDetail.empty());

  // Without a deadline the same trace scans every pair, cleanly.
  DetectorOptions NoLimit;
  RaceReport FullR = detectUseFreeRaces(T, NoLimit);
  EXPECT_FALSE(FullR.Partial);
  EXPECT_EQ(FullR.Filters.CandidatePairs, 4900u);
}

TEST(DegradationTest, BlownDetectDeadlineCutsTheScanAfterShedding) {
  // 104x104 = 10816 pairs: the first poll sheds the filters (rung 1),
  // and the next poll finds the doubled budget also expired and cuts
  // the scan (rung 2).
  Trace T = buildPairGridTrace(104);

  DetectorOptions Fast;
  Fast.DeadlineMillis = 1e-6;
  RaceReport R = detectUseFreeRaces(T, Fast);
  ASSERT_TRUE(R.Partial);
  EXPECT_EQ(R.PartialCause, "detect-deadline");
  EXPECT_GT(R.Filters.CandidatePairs, 0u);
  EXPECT_LT(R.Filters.CandidatePairs, 10816u); // the scan really stopped
}

TEST(DegradationTest, BlownDetectDeadlineCutsDirectlyWithoutSheddableFilters) {
  // With the lockset and if-guard filters disabled, rung 1 has nothing
  // to shed and the first expiry cuts the scan immediately.
  Trace T = buildPairGridTrace(70);

  DetectorOptions Fast;
  Fast.LocksetFilter = false;
  Fast.IfGuardFilter = false;
  Fast.DeadlineMillis = 1e-6;
  RaceReport R = detectUseFreeRaces(T, Fast);
  ASSERT_TRUE(R.Partial);
  EXPECT_EQ(R.PartialCause, "detect-deadline");
  EXPECT_LT(R.Filters.CandidatePairs, 4900u);
}

TEST(DegradationTest, FilterShedReportsAreASupersetOfCompleteOnes) {
  // A grid trace plus lockset-protected pairs: the complete run
  // suppresses the locked races; the shed run (deadline rung 1) must
  // report every race the complete run reports -- shedding only ever
  // un-suppresses -- and here strictly more.
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 4096);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 70; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  // A second cell touched only under a common lock.
  TB.lockAcquire(A, 77);
  TB.ptrRead(A, 6, 10, M, 500);
  TB.deref(A, 10, DerefKind::Invoke, M, 500);
  TB.lockRelease(A, 77);
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 70; ++I)
    TB.ptrWrite(B, 5, 0, M, 2000 + I);
  TB.lockAcquire(B, 77);
  TB.ptrWrite(B, 6, 0, M, 2500);
  TB.lockRelease(B, 77);
  TB.end(B);
  Trace T = TB.take();

  DetectorOptions NoLimit;
  RaceReport Complete = detectUseFreeRaces(T, NoLimit);
  EXPECT_FALSE(Complete.Partial);
  EXPECT_GT(Complete.Filters.LocksetProtected, 0u);

  DetectorOptions Fast = NoLimit;
  Fast.DeadlineMillis = 1e-6;
  RaceReport Shed = detectUseFreeRaces(T, Fast);
  ASSERT_TRUE(Shed.Partial);
  ASSERT_EQ(Shed.PartialCause, "filters-shed");
  EXPECT_EQ(Shed.Filters.CandidatePairs, Complete.Filters.CandidatePairs);

  auto staticKeys = [](const RaceReport &R) {
    std::set<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>> Keys;
    for (const UseFreeRace &Race : R.Races)
      Keys.insert({Race.Use.Method.value(), Race.Use.Pc,
                   Race.Free.Method.value(), Race.Free.Pc});
    return Keys;
  };
  std::set<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>>
      CompleteKeys = staticKeys(Complete),
      ShedKeys = staticKeys(Shed);
  for (const auto &K : CompleteKeys)
    EXPECT_TRUE(ShedKeys.count(K));
  // The lockset-protected race surfaced: strictly more races.
  EXPECT_GT(ShedKeys.size(), CompleteKeys.size());
}

TEST(DegradationTest, ReachModeNamesAreStable) {
  EXPECT_STREQ(reachModeName(ReachMode::Bfs), "bfs");
  EXPECT_STREQ(reachModeName(ReachMode::Chain), "chain");
  EXPECT_STREQ(reachModeName(ReachMode::Auto), "auto");
}

TEST(DegradationTest, ReachModeResolvesRequestOverEnvOverDefault) {
  // Save whatever the surrounding CI leg exported so this test cannot
  // leak state into its neighbours.
  const char *Old = std::getenv("CAFA_REACH");
  std::string Saved = Old ? Old : "";
  bool Had = Old != nullptr;

  setenv("CAFA_REACH", "chain", 1);
  EXPECT_EQ(resolveReachMode(ReachMode::Auto), ReachMode::Chain);
  // An explicit request always wins over the environment.
  EXPECT_EQ(resolveReachMode(ReachMode::Bfs), ReachMode::Bfs);

  setenv("CAFA_REACH", "bfs", 1);
  EXPECT_EQ(resolveReachMode(ReachMode::Auto), ReachMode::Bfs);
  EXPECT_EQ(resolveReachMode(ReachMode::Chain), ReachMode::Chain);

  // Unknown values (the retired "closure" and "incremental" among them)
  // and an unset variable all fall back to the default.
  setenv("CAFA_REACH", "nonsense", 1);
  EXPECT_EQ(resolveReachMode(ReachMode::Auto), ReachMode::Chain);
  setenv("CAFA_REACH", "closure", 1);
  EXPECT_EQ(resolveReachMode(ReachMode::Auto), ReachMode::Chain);
  setenv("CAFA_REACH", "incremental", 1);
  EXPECT_EQ(resolveReachMode(ReachMode::Auto), ReachMode::Chain);
  unsetenv("CAFA_REACH");
  EXPECT_EQ(resolveReachMode(ReachMode::Auto), ReachMode::Chain);

  if (Had)
    setenv("CAFA_REACH", Saved.c_str(), 1);
  else
    unsetenv("CAFA_REACH");
}

} // namespace
