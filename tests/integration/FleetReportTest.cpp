//===- tests/integration/FleetReportTest.cpp ----------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The fleet aggregation layer against the real analysis pipeline: a
// report rendered by renderRaceReportJson must parse back losslessly
// (the supervisor consumes its own workers' output), and merging
// several parsed reports must deduplicate by static race key, count
// occurrences, cap exemplars, and render deterministically regardless
// of the interner's insertion order.
//
//===----------------------------------------------------------------------===//

#include "cafa/FleetReport.h"

#include "apps/AppKit.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cafa;
using namespace cafa::apps;

namespace {

/// A real single-app analysis, rendered to JSON the way a worker would.
std::string analyzedJson(const char *Name, RaceReport *ReportOut = nullptr) {
  AppBuilder App(Name);
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  Table1Row Dummy;
  AppModel Model = App.finish(Dummy);
  Trace T = runScenario(Model.S, RuntimeOptions());
  AnalysisResult R = analyzeTrace(T, DetectorOptions());
  if (ReportOut)
    *ReportOut = R.Report;
  return renderRaceReportJson(R.Report, T);
}

TEST(FleetReportTest, RoundTripsRenderRaceReportJson) {
  RaceReport Report;
  std::string Json = analyzedJson("roundtrip", &Report);
  RaceDocument Parsed;
  ASSERT_TRUE(parseRaceReportJson(Json, Parsed).ok());
  ASSERT_EQ(Parsed.Races.size(), Report.Races.size());
  EXPECT_FALSE(Parsed.Partial);

  // Every race the analysis reported must come back with its static key
  // intact (method names resolved, pcs exact, category preserved).
  bool SawAlpha = false, SawBeta = false;
  for (const RaceRecord &R : Parsed.Races) {
    EXPECT_FALSE(R.UseMethod.empty());
    EXPECT_FALSE(R.FreeMethod.empty());
    EXPECT_TRUE(R.Category == "a" || R.Category == "b" ||
                R.Category == "c")
        << R.Category;
    EXPECT_GE(R.DynamicCount, 1u);
    SawAlpha |= R.UseMethod.find("alpha") != std::string::npos;
    SawBeta |= R.UseMethod.find("beta") != std::string::npos;
  }
  EXPECT_TRUE(SawAlpha);
  EXPECT_TRUE(SawBeta);
}

TEST(FleetReportTest, ParsesPartialFlagAndCause) {
  RaceDocument Parsed;
  ASSERT_TRUE(parseRaceReportJson("{\n  \"races\": [],\n"
                                  "  \"partial\": true,\n"
                                  "  \"partialCause\": \"hb-deadline\"\n}\n",
                                  Parsed)
                  .ok());
  EXPECT_TRUE(Parsed.Partial);
  EXPECT_EQ(Parsed.PartialCause, "hb-deadline");
  EXPECT_TRUE(Parsed.Races.empty());
}

TEST(FleetReportTest, RejectsMalformedJson) {
  RaceDocument Parsed;
  EXPECT_FALSE(parseRaceReportJson("", Parsed).ok());
  EXPECT_FALSE(parseRaceReportJson("{\"races\": [", Parsed).ok());
  EXPECT_FALSE(parseRaceReportJson("not json at all", Parsed).ok());
  // A race without its static key is unusable for merging.
  EXPECT_FALSE(
      parseRaceReportJson("{\"races\": [{\"category\": \"a\"}]}", Parsed)
          .ok());
  EXPECT_TRUE(Parsed.Races.empty());
}

TEST(FleetReportTest, ToleratesUnknownFields) {
  RaceDocument Parsed;
  ASSERT_TRUE(parseRaceReportJson(
                  "{\"futureField\": {\"nested\": [1, 2.5, true, null]},\n"
                  " \"races\": [{\"category\": \"b\", \"dynamicCount\": 7,\n"
                  "   \"novel\": \"ignored\",\n"
                  "   \"use\": {\"method\": \"m1\", \"pc\": 3, \"task\": \"t\"},\n"
                  "   \"free\": {\"method\": \"m2\", \"pc\": 9, \"task\": \"u\"}}],\n"
                  " \"partial\": false}",
                  Parsed)
                  .ok());
  ASSERT_EQ(Parsed.Races.size(), 1u);
  EXPECT_EQ(Parsed.Races[0].UseMethod, "m1");
  EXPECT_EQ(Parsed.Races[0].UsePc, 3u);
  EXPECT_EQ(Parsed.Races[0].FreeMethod, "m2");
  EXPECT_EQ(Parsed.Races[0].FreePc, 9u);
  EXPECT_EQ(Parsed.Races[0].DynamicCount, 7u);
}

/// Hand-built parsed report with one race keyed (Use, UsePc, Free, FreePc).
RaceDocument oneRace(const char *Use, uint32_t UsePc, const char *Free,
                         uint32_t FreePc, uint32_t Dyn = 1,
                         bool Partial = false) {
  RaceDocument R;
  RaceRecord Race;
  Race.UseMethod = Use;
  Race.UsePc = UsePc;
  Race.FreeMethod = Free;
  Race.FreePc = FreePc;
  Race.Category = "a";
  Race.DynamicCount = Dyn;
  R.Races.push_back(Race);
  R.Partial = Partial;
  return R;
}

FleetJobStatus job(const char *Id, const char *Trace) {
  FleetJobStatus J;
  J.Id = Id;
  J.TracePath = Trace;
  J.State = "done";
  J.Attempts = 1;
  J.ExitCode = 1;
  return J;
}

TEST(FleetReportTest, MergesByStaticKeyAcrossJobs) {
  FleetAggregator Agg;
  // Same static race from four jobs, a distinct one from the second.
  RaceDocument A = oneRace("useM", 1, "freeM", 2, 3);
  RaceDocument B = oneRace("useM", 1, "freeM", 2, 4);
  B.Races.push_back(oneRace("other", 5, "freeM", 2).Races[0]);
  RaceDocument C = oneRace("useM", 1, "freeM", 2);
  RaceDocument D = oneRace("useM", 1, "freeM", 2);
  Agg.addJob(job("j1", "a.trace"), &A);
  Agg.addJob(job("j2", "b.trace"), &B);
  Agg.addJob(job("j3", "c.trace"), &C);
  Agg.addJob(job("j4", "d.trace"), &D);
  EXPECT_EQ(Agg.numDistinctRaces(), 2u);

  std::string Json = Agg.renderJson();
  // The shared race: 4 jobs, summed dynamic count, exemplars capped at
  // FleetAggregator::MaxExemplars (3).
  EXPECT_NE(Json.find("\"jobs\": 4, \"dynamicCount\": 9"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find(
                "\"exemplars\": [\"a.trace\", \"b.trace\", \"c.trace\"]"),
            std::string::npos)
      << Json;
  EXPECT_EQ(Json.find("d.trace\"]"), std::string::npos) << Json;
  // The singleton keeps its single exemplar.
  EXPECT_NE(Json.find("\"jobs\": 1, \"dynamicCount\": 1"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"summary\""), std::string::npos);
  EXPECT_NE(Json.find("\"distinctRaces\": 2"), std::string::npos);
}

TEST(FleetReportTest, AggregatesBestConfirmVerdictAcrossJobs) {
  // The same static race triaged differently by different jobs: one
  // budget-exhausted, one crash-reproduced.  The aggregate must carry
  // the best evidence (the crash), per mergeConfirmVerdicts.
  RaceDocument Unconfirmed = oneRace("useM", 1, "freeM", 2);
  Unconfirmed.Races[0].Verdict = ConfirmVerdict::Unconfirmed;
  RaceDocument Confirmed = oneRace("useM", 1, "freeM", 2);
  Confirmed.Races[0].Verdict = ConfirmVerdict::Confirmed;

  FleetAggregator Agg;
  Agg.addJob(job("j1", "a.trace"), &Unconfirmed);
  Agg.addJob(job("j2", "b.trace"), &Confirmed);
  std::string Json = Agg.renderJson();
  EXPECT_NE(Json.find("\"confirm\": \"confirmed\""), std::string::npos)
      << Json;
  EXPECT_EQ(Json.find("unconfirmed"), std::string::npos) << Json;
  EXPECT_NE(Agg.renderText().find("confirmed"), std::string::npos);

  // Verdict-free aggregates keep their pinned pre-confirmation bytes.
  RaceDocument Plain = oneRace("useM", 1, "freeM", 2);
  FleetAggregator NoVerdicts;
  NoVerdicts.addJob(job("j1", "a.trace"), &Plain);
  EXPECT_EQ(NoVerdicts.renderJson().find("\"confirm\""), std::string::npos);
}

TEST(FleetReportTest, RenderOrderIsKeyOrderNotArrivalOrder) {
  // The same job/report mapping fed twice, with the races inside the
  // report in opposite orders -- so the two interners number the
  // methods differently.  The rendered JSON must be byte-identical:
  // merged races sort by the lexicographic static key, not by the
  // interner ids arrival order happened to assign.
  RaceDocument Fwd = oneRace("zz_use", 1, "zz_free", 1);
  Fwd.Races.push_back(oneRace("aa_use", 1, "aa_free", 1).Races[0]);
  RaceDocument Rev;
  Rev.Races.push_back(Fwd.Races[1]);
  Rev.Races.push_back(Fwd.Races[0]);

  FleetAggregator A, B;
  A.addJob(job("j1", "t1.trace"), &Fwd);
  B.addJob(job("j1", "t1.trace"), &Rev);
  std::string AJson = A.renderJson(), BJson = B.renderJson();
  EXPECT_EQ(AJson, BJson);
  // aa_* sorts before zz_* regardless of which was interned first.
  EXPECT_LT(AJson.find("aa_use"), AJson.find("zz_use"));
}

TEST(FleetReportTest, PartialProvenanceTracksContainingReports) {
  // A race seen *only* in partial reports is flagged; once any complete
  // report contains it, the flag drops.
  RaceDocument P1 = oneRace("useM", 1, "freeM", 2, 1, /*Partial=*/true);
  FleetAggregator OnlyPartial;
  FleetJobStatus J1 = job("j1", "a.trace");
  J1.State = "done:partial";
  J1.Partial = true;
  OnlyPartial.addJob(J1, &P1);
  EXPECT_EQ(OnlyPartial.numPartialJobs(), 1u);
  EXPECT_NE(OnlyPartial.renderJson().find("\"fromPartialOnly\": true"),
            std::string::npos);

  FleetAggregator Mixed;
  RaceDocument Full = oneRace("useM", 1, "freeM", 2);
  Mixed.addJob(J1, &P1);
  Mixed.addJob(job("j2", "b.trace"), &Full);
  EXPECT_EQ(Mixed.renderJson().find("\"fromPartialOnly\""),
            std::string::npos);
}

TEST(FleetReportTest, FailedJobsAppearWithoutContributingRaces) {
  FleetAggregator Agg;
  FleetJobStatus Failed = job("broken", "x.trace");
  Failed.State = "failed:hung";
  Failed.ExitCode = -1;
  Failed.Attempts = 3;
  Agg.addJob(Failed, nullptr); // terminal failure: no report to merge
  RaceDocument Ok = oneRace("useM", 1, "freeM", 2);
  Agg.addJob(job("ok", "y.trace"), &Ok);

  EXPECT_EQ(Agg.numDistinctRaces(), 1u);
  std::string Json = Agg.renderJson();
  EXPECT_NE(Json.find("\"state\": \"failed:hung\""), std::string::npos);
  EXPECT_NE(Json.find("\"failed\": 1"), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));

  std::string Text = Agg.renderText();
  EXPECT_NE(Text.find("failed:hung"), std::string::npos);
  EXPECT_NE(Text.find("1 failed"), std::string::npos);
}

} // namespace
