//===- tests/apps/AppsTest.cpp ------------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The headline reproduction check: every application model regenerates
// its Table 1 row exactly -- same event volume, same race counts per
// category, same false positives per type, nothing unexpected, nothing
// missed.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "trace/Validate.h"

#include "ReferenceScan.h"

#include <gtest/gtest.h>

using namespace cafa;
using namespace cafa::apps;

namespace {

class AppTable1Test : public testing::TestWithParam<std::string> {};

TEST_P(AppTable1Test, ReproducesPaperRowExactly) {
  AppModel Model = buildApp(GetParam());
  RuntimeStats Stats;
  Trace T = runScenario(Model.S, RuntimeOptions(), &Stats);

  // The simulated execution itself is clean.
  EXPECT_EQ(Stats.NullPointerExceptions, 0u);
  EXPECT_EQ(Stats.BlockedAtQuiescence, 0u);
  Status V = validateTrace(T);
  ASSERT_TRUE(V.ok()) << V.message();

  // The Events column is matched exactly, not approximately.
  EXPECT_EQ(T.numEvents(), Model.PaperRow.Events);

  AnalysisResult R = analyzeTrace(T, DetectorOptions());
  Table1Row Row = evaluateReport(R.Report, Model.Truth, T, GetParam());

  EXPECT_EQ(Row.Reported, Model.PaperRow.Reported)
      << renderRaceReport(R.Report, T);
  EXPECT_EQ(Row.TrueA, Model.PaperRow.TrueA);
  EXPECT_EQ(Row.TrueB, Model.PaperRow.TrueB);
  EXPECT_EQ(Row.TrueC, Model.PaperRow.TrueC);
  EXPECT_EQ(Row.FpI, Model.PaperRow.FpI);
  EXPECT_EQ(Row.FpII, Model.PaperRow.FpII);
  EXPECT_EQ(Row.FpIII, Model.PaperRow.FpIII);
  EXPECT_EQ(Row.Unexpected, 0u) << renderRaceReport(R.Report, T);
  EXPECT_EQ(Row.Missed, 0u);
}

TEST_P(AppTable1Test, StreamingScanRendersLikeTheBatchScan) {
  // The labelled apps through the pair scan over both sources -- the
  // extracted AccessDb (window off), and the trace stream at the
  // tightest and a typical retirement cadence -- must render the bytes
  // of the use-major reference scan (tests/ReferenceScan.h).
  AppModel Model = buildApp(GetParam());
  Trace T = runScenario(Model.S, RuntimeOptions());
  RaceReport Ref = referenceScan(T, DetectorOptions());
  std::string RefText = renderRaceReport(Ref, T);
  std::string RefJson = renderRaceReportJson(Ref, T);
  for (uint64_t Window :
       {DetectorOptions::WindowOff, uint64_t(1), uint64_t(4096)}) {
    DetectorOptions Opt;
    Opt.WindowEvents = Window;
    AnalysisResult R = analyzeTrace(T, Opt);
    EXPECT_EQ(R.WindowEventsUsed,
              Window == DetectorOptions::WindowOff ? 0u : Window);
    EXPECT_EQ(renderRaceReport(R.Report, T), RefText) << "window " << Window;
    EXPECT_EQ(renderRaceReportJson(R.Report, T), RefJson)
        << "window " << Window;
  }
}

TEST_P(AppTable1Test, DeterministicAcrossRuns) {
  AppModel Model = buildApp(GetParam());
  Trace T1 = runScenario(Model.S, RuntimeOptions());
  Trace T2 = runScenario(Model.S, RuntimeOptions());
  ASSERT_EQ(T1.numRecords(), T2.numRecords());
  for (uint32_t I = 0; I != T1.numRecords(); ++I) {
    const TraceRecord &A = T1.record(I);
    const TraceRecord &B = T2.record(I);
    ASSERT_TRUE(A.Task == B.Task && A.Kind == B.Kind &&
                A.Arg0 == B.Arg0 && A.Time == B.Time)
        << "record " << I << " differs between runs";
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppTable1Test,
                         testing::ValuesIn(appNames()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(AppsTest, OverallNumbersMatchPaperHeadline) {
  // Section 6.3: 115 reports, 69 harmful (60%), 13/25/31 by category,
  // 9/32/5 false positives by type.
  Table1Row Total;
  for (const std::string &Name : appNames()) {
    AppModel Model = buildApp(Name);
    Table1Row Row;
    analyzeScenario(Model.S, RuntimeOptions(), DetectorOptions(),
                    &Model.Truth, &Row);
    Total.Reported += Row.Reported;
    Total.TrueA += Row.TrueA;
    Total.TrueB += Row.TrueB;
    Total.TrueC += Row.TrueC;
    Total.FpI += Row.FpI;
    Total.FpII += Row.FpII;
    Total.FpIII += Row.FpIII;
  }
  EXPECT_EQ(Total.Reported, 115u);
  EXPECT_EQ(Total.TrueA, 13u);
  EXPECT_EQ(Total.TrueB, 25u);
  EXPECT_EQ(Total.TrueC, 31u);
  EXPECT_EQ(Total.FpI, 9u);
  EXPECT_EQ(Total.FpII, 32u);
  EXPECT_EQ(Total.FpIII, 5u);
  EXPECT_EQ(Total.trueTotal(), 69u);
}

TEST(AppsTest, RegistryKnowsAllTenApps) {
  EXPECT_EQ(appNames().size(), 10u);
  EXPECT_EQ(buildAllApps().size(), 10u);
  for (const std::string &Name : appNames())
    EXPECT_EQ(buildApp(Name).S.AppName, Name);
}

} // namespace
