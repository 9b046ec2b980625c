//===- tests/confirm/ConfirmTest.cpp ------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The confirmation subsystem's contract: a seeded use-free race is
// reproduced as an actual crash at the predicted dereference site by a
// synthesized free-before-use schedule; claims that violate program
// order or happens-before come back infeasible without running a single
// replay; the schedule budget resolves request > environment > default;
// the whole summary is byte-identical at every worker-thread count; and
// it is byte-identical whether confirmation resumed the report's own
// happens-before relation or rebuilt it (FixpointRounds tells which).
//
//===----------------------------------------------------------------------===//

#include "confirm/Confirm.h"

#include "apps/AppKit.h"
#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "hb/HbIndex.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace cafa;
using namespace cafa::apps;

namespace {

/// Renders a summary to bytes so two runs can be diffed with a single
/// string comparison (verdict, evidence, and budget accounting).
std::string serializeSummary(const ConfirmSummary &Sum) {
  std::ostringstream OS;
  OS << Sum.Confirmed << '/' << Sum.Infeasible << '/' << Sum.Unconfirmed
     << '/' << Sum.SchedulesRun << '\n';
  for (const RaceConfirmation &C : Sum.PerRace)
    OS << static_cast<int>(C.Verdict) << ' ' << C.SchedulesTried << ' '
       << C.Detail << '\n';
  return OS.str();
}

/// One seeded intra-thread race, analyzed: the canonical fixture.
struct RacyFixture {
  AppModel Model;
  Trace T;
  AnalysisResult R;
};

RacyFixture makeRacyFixture() {
  AppBuilder App("confirmfix");
  App.seedIntraThreadRace("staleSession");
  Table1Row Dummy;
  RacyFixture F;
  F.Model = App.finish(Dummy);
  F.T = runScenario(F.Model.S, RuntimeOptions());
  F.R = analyzeTrace(F.T, DetectorOptions());
  return F;
}

TEST(ConfirmTest, ResolveBoundPrecedence) {
  const char *Ambient = std::getenv("CAFA_CONFIRM");
  std::string Saved = Ambient ? Ambient : "";
  ::unsetenv("CAFA_CONFIRM");

  EXPECT_EQ(resolveConfirmBound(0), 4u) << "default";
  EXPECT_EQ(resolveConfirmBound(7), 7u) << "explicit request";
  EXPECT_EQ(resolveConfirmBound(100000), 1024u) << "capped";

  ::setenv("CAFA_CONFIRM", "9", 1);
  EXPECT_EQ(resolveConfirmBound(0), 9u) << "environment";
  EXPECT_EQ(resolveConfirmBound(2), 2u) << "request beats environment";
  ::setenv("CAFA_CONFIRM", "0", 1);
  EXPECT_EQ(resolveConfirmBound(0), 4u) << "zero is not a budget";
  ::setenv("CAFA_CONFIRM", "not-a-number", 1);
  EXPECT_EQ(resolveConfirmBound(0), 4u) << "garbage ignored";
  ::setenv("CAFA_CONFIRM", "99999", 1);
  EXPECT_EQ(resolveConfirmBound(0), 1024u) << "environment capped too";

  if (Ambient)
    ::setenv("CAFA_CONFIRM", Saved.c_str(), 1);
  else
    ::unsetenv("CAFA_CONFIRM");
}

TEST(ConfirmTest, ConfirmsSeededIntraThreadRace) {
  RacyFixture F = makeRacyFixture();
  ASSERT_EQ(F.R.Report.Races.size(), 1u);

  ConfirmSummary Sum = confirmRaces(F.Model.S, F.T, F.R.Report);
  ASSERT_EQ(Sum.PerRace.size(), 1u);
  EXPECT_EQ(Sum.Confirmed, 1u);
  EXPECT_EQ(Sum.PerRace[0].Verdict, ConfirmVerdict::Confirmed);
  EXPECT_GE(Sum.PerRace[0].SchedulesTried, 1u);
  // The evidence names the predicted dereference site: the crash that
  // was reproduced is the crash that was predicted, by construction.
  EXPECT_EQ(Sum.PerRace[0].Detail.rfind("confirmed: crash at ", 0), 0u)
      << Sum.PerRace[0].Detail;
  EXPECT_NE(Sum.PerRace[0].Detail.find("staleSession_onTimer"),
            std::string::npos)
      << Sum.PerRace[0].Detail;
  EXPECT_EQ(Sum.SchedulesRun, Sum.PerRace[0].SchedulesTried);
}

TEST(ConfirmTest, SameTaskClaimIsInfeasibleWithoutReplay) {
  RacyFixture F = makeRacyFixture();
  ASSERT_EQ(F.R.Report.Races.size(), 1u);
  ASSERT_TRUE(F.R.Report.Relation && F.R.Report.Relation->Saturated)
      << "the forged copy must carry the analysis's saturated relation";

  // Forge a claim the detector would normally filter: use and free in
  // one task.  Confirmation treats the report as untrusted and must
  // refute it from program order alone -- zero replays.
  RaceReport Forged = F.R.Report;
  Forged.Races[0].Free.Task = Forged.Races[0].Use.Task;

  ConfirmSummary Sum = confirmRaces(F.Model.S, F.T, Forged);
  ASSERT_EQ(Sum.PerRace.size(), 1u);
  EXPECT_EQ(Sum.PerRace[0].Verdict, ConfirmVerdict::Infeasible);
  EXPECT_EQ(Sum.PerRace[0].SchedulesTried, 0u);
  EXPECT_EQ(Sum.PerRace[0].Detail,
            "infeasible: use and free in the same task (program order)");
  EXPECT_EQ(Sum.Infeasible, 1u);
  EXPECT_EQ(Sum.SchedulesRun, 0u);
}

TEST(ConfirmTest, HbOrderedClaimIsInfeasibleWithoutReplay) {
  RacyFixture F = makeRacyFixture();
  ASSERT_EQ(F.R.Report.Races.size(), 1u);
  ASSERT_TRUE(F.R.Report.Relation && F.R.Report.Relation->Saturated)
      << "the forged copy must carry the analysis's saturated relation";

  // Find a cross-task happens-before-ordered record pair (a parent's
  // record and a record of a task it transitively caused) and forge a
  // race claim over it.  Triage must label it infeasible against the
  // saturated relation, again without replaying.
  TaskIndex Index(F.T);
  HbIndex Hb(F.T, Index, HbOptions());
  uint32_t UseRec = UINT32_MAX, FreeRec = UINT32_MAX;
  for (uint32_t A = 0; A < F.T.numRecords() && UseRec == UINT32_MAX; ++A)
    for (uint32_t B = A + 1; B < F.T.numRecords(); ++B) {
      if (F.T.record(A).Task == F.T.record(B).Task)
        continue;
      if (Hb.ordered(A, B)) {
        UseRec = A;
        FreeRec = B;
        break;
      }
    }
  ASSERT_NE(UseRec, UINT32_MAX)
      << "fixture trace has no cross-task ordered pair";

  RaceReport Forged = F.R.Report;
  Forged.Races[0].Use.Task = F.T.record(UseRec).Task;
  Forged.Races[0].Use.Record = UseRec;
  Forged.Races[0].Free.Task = F.T.record(FreeRec).Task;
  Forged.Races[0].Free.Record = FreeRec;

  ConfirmSummary Sum = confirmRaces(F.Model.S, F.T, Forged);
  ASSERT_EQ(Sum.PerRace.size(), 1u);
  EXPECT_EQ(Sum.PerRace[0].Verdict, ConfirmVerdict::Infeasible);
  EXPECT_EQ(Sum.PerRace[0].SchedulesTried, 0u);
  EXPECT_EQ(Sum.PerRace[0].Detail,
            "infeasible: use and free are happens-before ordered");
}

TEST(ConfirmTest, BudgetBoundsReplaysPerRace) {
  RacyFixture F = makeRacyFixture();
  ConfirmOptions Opt;
  Opt.MaxSchedules = 1;
  ConfirmSummary Sum = confirmRaces(F.Model.S, F.T, F.R.Report, Opt);
  for (const RaceConfirmation &C : Sum.PerRace)
    EXPECT_LE(C.SchedulesTried, 1u);
  EXPECT_LE(Sum.SchedulesRun, Sum.PerRace.size());
}

TEST(ConfirmTest, VerdictsByteIdenticalAcrossThreadCounts) {
  // A full committed app model: tens of races of every category, enough
  // parallel replay work for thread-count bugs to surface.
  AppModel Model = buildApp("todolist");
  Trace T = runScenario(Model.S, RuntimeOptions());
  AnalysisResult R = analyzeTrace(T, DetectorOptions());
  ASSERT_GE(R.Report.Races.size(), 3u);

  ConfirmOptions One;
  One.Threads = 1;
  ConfirmOptions Four;
  Four.Threads = 4;
  std::string A = serializeSummary(confirmRaces(Model.S, T, R.Report, One));
  std::string B = serializeSummary(confirmRaces(Model.S, T, R.Report, Four));
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("confirmed: crash at "), std::string::npos) << A;
}

/// One committed app model, recorded and analyzed with \p Opt.
RacyFixture analyzeApp(const std::string &Name,
                       const DetectorOptions &Opt = DetectorOptions()) {
  RacyFixture F;
  F.Model = buildApp(Name);
  F.T = runScenario(F.Model.S, RuntimeOptions());
  F.R = analyzeTrace(F.T, Opt);
  return F;
}

/// \p Report with its relation replaced by \p Relation.
RaceReport withRelation(const RaceReport &Report,
                        std::shared_ptr<const HbFrontier> Relation) {
  RaceReport Out = Report;
  Out.Relation = std::move(Relation);
  return Out;
}

class ConfirmAppTest : public testing::TestWithParam<std::string> {};

TEST_P(ConfirmAppTest, ResumedRelationConfirmsLikeARebuiltOne) {
  // The analysis's saturated relation is resumed with no derivation
  // pass; without it confirmation derives the relation again.  The
  // verdicts and evidence must not tell the two apart.
  RacyFixture F = analyzeApp(GetParam());
  ASSERT_TRUE(F.R.Report.Relation && F.R.Report.Relation->Saturated);
  RaceReport Bare = withRelation(F.R.Report, nullptr);

  std::string Want;
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << Threads << " thread(s)");
    ConfirmOptions Opt;
    Opt.Threads = Threads;
    ConfirmSummary Resumed = confirmRaces(F.Model.S, F.T, F.R.Report, Opt);
    ConfirmSummary Rebuilt = confirmRaces(F.Model.S, F.T, Bare, Opt);
    EXPECT_EQ(Resumed.FixpointRounds, 0u);
    EXPECT_GT(Rebuilt.FixpointRounds, 0u);
    EXPECT_EQ(Rebuilt.FixpointRounds, F.R.HbStats.FixpointRounds);
    if (Want.empty())
      Want = serializeSummary(Rebuilt);
    EXPECT_EQ(serializeSummary(Rebuilt), Want);
    EXPECT_EQ(serializeSummary(Resumed), Want);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, ConfirmAppTest,
                         testing::ValuesIn(appNames()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(ConfirmTest, CutRelationIsResumedToSaturation) {
  // Two cut relations: the deadline rung's, before the pass (an
  // "hb-deadline" report, as in DegradationTest), and a cadence
  // checkpoint's, 4096 nodes into the pass, which leaves derived edges
  // to resume from.  Either is resumed to saturation -- a cut pass runs
  // again from its start, seeded with what it derived -- and confirms
  // exactly as a rebuilt relation does, including the provisional races
  // the deadline let through, which come back infeasible.
  const uint32_t FullRounds = analyzeApp("todolist").R.HbStats.FixpointRounds;
  for (bool Deadline : {true, false}) {
    SCOPED_TRACE(Deadline ? "deadline" : "cadence");
    DetectorOptions Opt;
    if (Deadline)
      Opt.DeadlineMillis = 1e-6;
    RacyFixture F = analyzeApp("todolist", Opt);
    ASSERT_EQ(F.R.Report.racesProvisional(), Deadline);
    RaceReport Report = F.R.Report;
    if (!Deadline) {
      std::vector<HbFrontier> Saved;
      HbCheckpointing Every;
      Every.EveryMillis = 1e-9;
      Every.Save = [&](const HbFrontier &Fr) { Saved.push_back(Fr); };
      TaskIndex Index(F.T);
      HbOptions ChainOpt; // the cadence points are the pass's
      ChainOpt.Reach = ReachMode::Chain;
      HbIndex Hb(F.T, Index, ChainOpt, &Every);
      ASSERT_FALSE(Saved.empty());
      ASSERT_FALSE(Saved.front().DerivedEdges.empty());
      Report = withRelation(Report,
                            std::make_shared<HbFrontier>(Saved.front()));
    }
    const std::shared_ptr<const HbFrontier> &Cut = Report.Relation;
    ASSERT_TRUE(Cut);
    ASSERT_FALSE(Cut->Saturated);
    ASSERT_LE(Cut->Stats.FixpointRounds, FullRounds);

    ConfirmSummary Resumed = confirmRaces(F.Model.S, F.T, Report);
    ConfirmSummary Rebuilt =
        confirmRaces(F.Model.S, F.T, withRelation(Report, nullptr));
    EXPECT_EQ(serializeSummary(Resumed), serializeSummary(Rebuilt));
    if (Deadline) {
      EXPECT_GT(Resumed.Infeasible, 0u) << serializeSummary(Resumed);
    }
    EXPECT_EQ(Rebuilt.FixpointRounds, FullRounds);
    EXPECT_EQ(Resumed.FixpointRounds, FullRounds);
  }
}

TEST(ConfirmTest, AblatedOrConventionalReportsCarryNoRelation) {
  // Only the full CAFA relation is the one confirmation judges claims
  // against; any other model's relation stays off the report, and
  // confirmation rebuilds the full one.
  std::vector<DetectorOptions> Variants(5);
  Variants[0].Hb.EnableQueueRules = false;
  Variants[1].Hb.EnableAtomicityRule = false;
  Variants[2].Hb.EnableListenerRule = false;
  Variants[3].Hb.EnableExternalInputRule = false;
  Variants[4].Hb.Model = OrderingModel::Conventional;
  RacyFixture Full = makeRacyFixture();
  for (size_t I = 0; I != Variants.size(); ++I) {
    SCOPED_TRACE(testing::Message() << "variant " << I);
    AnalysisResult R = analyzeTrace(Full.T, Variants[I]);
    EXPECT_FALSE(R.Report.Relation);
    // The conventional model orders the fixture's one intra-looper race
    // away, leaving nothing to confirm.
    if (R.Report.Races.empty())
      continue;
    ConfirmSummary Sum = confirmRaces(Full.Model.S, Full.T, R.Report);
    EXPECT_EQ(Sum.FixpointRounds, Full.R.HbStats.FixpointRounds);
  }
}

TEST(ConfirmTest, RelationThatDoesNotFitTheTraceIsIgnored) {
  // A report paired with another app's relation, or with one holding an
  // edge outside the trace's graph or against its order: the relation
  // is ignored -- no crash, no edge replayed -- and confirmation rebuilds
  // the trace's own, verdict for verdict.
  RacyFixture A = analyzeApp("connectbot");
  RacyFixture B = analyzeApp("vlc");
  ASSERT_TRUE(A.R.Report.Relation && B.R.Report.Relation);

  auto WithEdge = [&](HbEdge Extra) {
    auto Bad = std::make_shared<HbFrontier>(*A.R.Report.Relation);
    Bad->DerivedEdges.push_back(Extra);
    return std::shared_ptr<const HbFrontier>(std::move(Bad));
  };
  struct Case {
    const char *Name;
    RacyFixture &App;
    std::shared_ptr<const HbFrontier> Relation;
  };
  Case Cases[] = {
      {"vlc relation on connectbot", A, B.R.Report.Relation},
      {"connectbot relation on vlc", B, A.R.Report.Relation},
      {"edge past the graph", A, WithEdge({NodeId(0), NodeId(0x7FFFFFFFu)})},
      {"edge against trace order", A, WithEdge({NodeId(5), NodeId(1)})},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ConfirmSummary Want = confirmRaces(
        C.App.Model.S, C.App.T, withRelation(C.App.R.Report, nullptr));
    ConfirmSummary Got = confirmRaces(
        C.App.Model.S, C.App.T, withRelation(C.App.R.Report, C.Relation));
    EXPECT_EQ(serializeSummary(Got), serializeSummary(Want));
    EXPECT_EQ(Got.FixpointRounds, Want.FixpointRounds);
    EXPECT_GT(Got.FixpointRounds, 0u);
  }
}

TEST(ConfirmTest, AppliesVerdictsToDocumentAndJson) {
  RacyFixture F = makeRacyFixture();
  ASSERT_EQ(F.R.Report.Races.size(), 1u);

  RaceDocument Doc = buildRaceDocument(F.R.Report, F.T);
  // Pre-confirmation documents render without the field -- pinned
  // byte-compatibility with pre-confirmation corpora.
  std::string Before = renderRaceReportJson(Doc);
  EXPECT_EQ(Before.find("\"confirm\""), std::string::npos);

  ConfirmSummary Sum = confirmRaces(F.Model.S, F.T, F.R.Report);
  applyConfirmVerdicts(Sum, Doc);
  ASSERT_EQ(Doc.Races.size(), 1u);
  EXPECT_EQ(Doc.Races[0].Verdict, ConfirmVerdict::Confirmed);

  // The verdict survives a JSON round-trip.
  std::string After = renderRaceReportJson(Doc);
  EXPECT_NE(After.find("\"confirm\": \"confirmed\""), std::string::npos)
      << After;
  RaceDocument Parsed;
  ASSERT_TRUE(parseRaceReportJson(After, Parsed).ok());
  ASSERT_EQ(Parsed.Races.size(), 1u);
  EXPECT_EQ(Parsed.Races[0].Verdict, ConfirmVerdict::Confirmed);

  // And the human rendering gains the per-race marker.
  EXPECT_NE(renderRaceReportText(Doc).find("=> confirmed"),
            std::string::npos);
}

TEST(ConfirmTest, VerdictMergeLatticeAndNames) {
  using V = ConfirmVerdict;
  // Evidence order: confirmed > infeasible > unconfirmed > none,
  // commutatively.
  EXPECT_EQ(mergeConfirmVerdicts(V::None, V::Unconfirmed), V::Unconfirmed);
  EXPECT_EQ(mergeConfirmVerdicts(V::Unconfirmed, V::Infeasible),
            V::Infeasible);
  EXPECT_EQ(mergeConfirmVerdicts(V::Infeasible, V::Confirmed), V::Confirmed);
  EXPECT_EQ(mergeConfirmVerdicts(V::Confirmed, V::None), V::Confirmed);
  EXPECT_EQ(mergeConfirmVerdicts(V::Infeasible, V::Unconfirmed),
            V::Infeasible);
  EXPECT_EQ(mergeConfirmVerdicts(V::None, V::None), V::None);

  for (V Verdict : {V::Confirmed, V::Infeasible, V::Unconfirmed}) {
    V Back = V::None;
    ASSERT_TRUE(confirmVerdictFromName(confirmVerdictName(Verdict), Back));
    EXPECT_EQ(Back, Verdict);
  }
  EXPECT_EQ(std::string(confirmVerdictName(V::None)), "");
  V Out = V::Confirmed;
  EXPECT_FALSE(confirmVerdictFromName("definitely-real", Out));
  EXPECT_EQ(Out, V::Confirmed) << "unknown names leave the output alone";
  ASSERT_TRUE(confirmVerdictFromName("", Out));
  EXPECT_EQ(Out, V::None) << "the empty string parses to None";
}

} // namespace
