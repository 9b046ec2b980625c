//===- tests/trace/FaultInjectionTest.cpp -------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The fault-injection harness for the salvage pipeline.  Valid traces are
// deterministically corrupted (trace/FaultInjector.h) and pushed through
// salvage -> validate -> analyze, asserting the ingestion contract:
//
//  - no mutation crashes the parser, the validator, or the analyzer;
//  - whatever salvage admits satisfies every validateTrace() invariant
//    (modulo AllowUnsentEvents for events whose send line was lost);
//  - corrupting a single record line loses at most that one record;
//  - a trace truncated mid-event still parses and analyzes;
//  - strict mode accepts exactly the pristine inputs;
//  - the error budgets actually fail ingestion when exceeded.
//
//===----------------------------------------------------------------------===//

#include "trace/FaultInjector.h"

#include "apps/AppKit.h"
#include "cafa/Cafa.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace cafa;

namespace {

/// Salvage one text through the unified ingestion API.
Status salvage(const std::string &Text, Trace &Out, IngestReport &Report,
               const SalvageOptions &Opt = SalvageOptions()) {
  IngestOptions IO;
  IO.Salvage = Opt;
  return ingestTrace(Text, Out, Report, IO);
}

/// Strict reading (SalvageOptions::Strict) through the same API.
Status parseStrict(const std::string &Text, Trace &Out) {
  SalvageOptions Strict;
  Strict.Strict = true;
  IngestReport Report;
  return salvage(Text, Out, Report, Strict);
}

/// A compact hand-built trace exercising every record kind and every
/// side table, so mutations can hit every parser code path.
std::string buildKitchenSinkText() {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId M1 = TB.addMethod("onCreate", 64);
  MethodId M2 = TB.addMethod("worker", 64);
  ListenerId L = TB.addListener("onClick");
  TaskId Boot = TB.addThread("boot");
  TaskId W = TB.addThread("bg-worker");
  TaskId E1 = TB.addEvent("ev-use", Q);
  TaskId E2 = TB.addEvent("ev-free", Q);
  TaskId Ext = TB.addEvent("ev-ext", Q, 0, false, /*External=*/true);

  TB.begin(Boot);
  TB.methodEnter(Boot, M1, 1);
  TB.registerListener(Boot, L);
  TB.lockAcquire(Boot, 7);
  TB.write(Boot, 3, 1);
  TB.read(Boot, 3, 1);
  TB.lockRelease(Boot, 7);
  TB.fork(Boot, W);
  TB.send(Boot, E1, 0);
  TB.send(Boot, E2, 5);
  TB.ipcSend(Boot, 11);
  TB.methodExit(Boot, M1, 1);
  TB.end(Boot);

  TB.begin(W);
  TB.ipcRecv(W, 11);
  TB.wait(W, 4);
  TB.ptrWrite(W, 5, 8, M2, 2);
  TB.end(W);

  TB.begin(E1);
  TB.performListener(E1, L);
  TB.methodEnter(E1, M2, 2);
  TB.ptrRead(E1, 5, 8, M2, 3);
  TB.deref(E1, 8, DerefKind::Invoke, M2, 4);
  TB.branch(E1, BranchKind::IfNez, 8, M2, 5, 9);
  TB.notify(E1, 4);
  TB.methodExit(E1, M2, 2);
  TB.end(E1);

  TB.begin(E2);
  TB.ptrWrite(E2, 5, 0, M2, 7);
  TB.end(E2);

  TB.begin(Ext);
  TB.read(Ext, 3, 1);
  TB.end(Ext);

  return serializeTrace(TB.take());
}

/// A larger app-shaped trace from the scenario runtime.
std::string buildAppText() {
  apps::AppBuilder App("faultmini");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(300);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  Trace T = runScenario(Model.S, RuntimeOptions());
  return serializeTrace(T);
}

/// Pushes one corrupted text through the whole pipeline.  Every stage
/// must terminate normally; whatever salvage admits must validate.
void runPipelineOn(const std::string &Text, const std::string &What) {
  SalvageOptions Opt;
  Opt.MaxDroppedRatio = 1.0; // the no-crash sweep disables the budget
  Trace T;
  IngestReport Report;
  Status S = salvage(Text, T, Report, Opt);
  ASSERT_TRUE(S.ok()) << What << ": " << S.message() << "\n"
                      << Report.summary();

  ValidateOptions VOpt;
  VOpt.AllowUnsentEvents = true;
  Status V = validateTrace(T, VOpt);
  ASSERT_TRUE(V.ok()) << What << ": salvage admitted an invalid trace: "
                      << V.message() << "\n"
                      << Report.summary();

  DetectorOptions DOpt;
  AnalysisResult R = analyzeTrace(T, DOpt);
  // Any answer is acceptable; reaching here without a crash is the test.
  (void)R;
}

TEST(FaultInjectionTest, MutationSweepNeverCrashes) {
  const std::vector<std::string> Bases = {buildKitchenSinkText(),
                                          buildAppText()};
  constexpr uint64_t SeedsPerKind = 32;
  size_t Mutations = 0;
  for (const std::string &Base : Bases) {
    for (unsigned K = 0; K != NumFaultKinds; ++K) {
      for (uint64_t Seed = 0; Seed != SeedsPerKind; ++Seed) {
        FaultKind Kind = static_cast<FaultKind>(K);
        InjectedFault F = injectFault(Base, Kind, Seed);
        ++Mutations;
        runPipelineOn(F.Text,
                      std::string(faultKindName(Kind)) + " seed " +
                          std::to_string(Seed) + ": " + F.Description);
        if (::testing::Test::HasFatalFailure())
          return;
      }
    }
  }
  // The acceptance bar: at least 500 deterministic mutated traces ran
  // end to end.
  EXPECT_GE(Mutations, 500u);
}

/// Multiset key for one record, ignoring the timestamp (repairs clamp
/// times) -- everything else must survive ingestion untouched.
std::string recordKey(const TraceRecord &R) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%u|%u|%u|%u|%llu|%llu|%llu",
                R.Task.value(), static_cast<unsigned>(R.Kind),
                R.Method.value(), R.Pc,
                static_cast<unsigned long long>(R.Arg0),
                static_cast<unsigned long long>(R.Arg1),
                static_cast<unsigned long long>(R.Arg2));
  return Buf;
}

TEST(FaultInjectionTest, SingleLineCorruptionLosesOnlyThatRecord) {
  std::string Base = buildKitchenSinkText();
  Trace Original;
  ASSERT_TRUE(parseStrict(Base, Original).ok());

  // Split into lines and corrupt each record line in turn.  (Corrupting
  // a directive line shifts every later implicit id and legitimately
  // cascades, so the single-record guarantee is scoped to `rec` lines.)
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start < Base.size()) {
    size_t NL = Base.find('\n', Start);
    if (NL == std::string::npos)
      NL = Base.size();
    Lines.push_back(Base.substr(Start, NL - Start));
    Start = NL + 1;
  }

  size_t Corrupted = 0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    if (Lines[I].rfind("rec ", 0) != 0)
      continue;
    ++Corrupted;
    std::string Mutated;
    for (size_t J = 0; J != Lines.size(); ++J) {
      Mutated += J == I ? "@@@ corrupted @@@" : Lines[J];
      Mutated += '\n';
    }

    Trace T;
    IngestReport Report;
    ASSERT_TRUE(salvage(Mutated, T, Report).ok()) << Lines[I];
    EXPECT_EQ(Report.LinesDropped, 1u) << Lines[I];

    // Every original record except (at most) the corrupted one must be
    // present in the salvaged trace, up to multiplicity.
    std::map<std::string, int> Have;
    for (const TraceRecord &R : T.records())
      ++Have[recordKey(R)];
    size_t Lost = 0;
    for (const TraceRecord &R : Original.records()) {
      auto It = Have.find(recordKey(R));
      if (It == Have.end() || It->second == 0)
        ++Lost;
      else
        --It->second;
    }
    EXPECT_LE(Lost, 1u) << "corrupting '" << Lines[I] << "' lost " << Lost
                        << " records\n"
                        << Report.summary();
  }
  EXPECT_GT(Corrupted, 20u); // the fixture is meant to be rich
}

TEST(FaultInjectionTest, TruncationMidEventStillAnalyzable) {
  std::string Base = buildKitchenSinkText();
  // Cut inside the E1 event body: mid-line, mid-event, mid-method.
  size_t Cut = Base.find(" deref ");
  ASSERT_NE(Cut, std::string::npos);
  std::string Truncated = Base.substr(0, Cut + 5);

  Trace T;
  IngestReport Report;
  ASSERT_TRUE(salvage(Truncated, T, Report).ok())
      << Report.summary();
  EXPECT_TRUE(Report.TruncatedFinalLine);
  EXPECT_GT(Report.RecordsSynthesized, 0u); // the open event was closed
  EXPECT_GT(T.numRecords(), 10u);

  ValidateOptions VOpt;
  VOpt.AllowUnsentEvents = true;
  EXPECT_TRUE(validateTrace(T, VOpt).ok());

  DetectorOptions DOpt;
  AnalysisResult R = analyzeTrace(T, DOpt);
  EXPECT_GT(R.HbStats.ProgramOrderEdges, 0u);
}

TEST(FaultInjectionTest, StrictModeAcceptsExactlyPristineInput) {
  std::string Base = buildKitchenSinkText();
  SalvageOptions Strict;
  Strict.Strict = true;

  Trace Clean;
  IngestReport CleanReport;
  ASSERT_TRUE(salvage(Base, Clean, CleanReport, Strict).ok());
  EXPECT_TRUE(CleanReport.clean());

  Trace Salvaged;
  IngestReport SalvagedReport;
  ASSERT_TRUE(salvage(Base, Salvaged, SalvagedReport).ok());
  EXPECT_EQ(Clean.numRecords(), Salvaged.numRecords());

  // Any corruption that actually lands must be rejected in strict mode,
  // while non-strict salvage still gets through.
  InjectedFault F = injectFault(Base, FaultKind::GarbageLine, 1);
  ASSERT_NE(F.Text, Base);
  Trace T;
  IngestReport Report;
  EXPECT_FALSE(salvage(F.Text, T, Report, Strict).ok());
  EXPECT_TRUE(salvage(F.Text, T, Report).ok());
}

TEST(FaultInjectionTest, DroppedLineBudgetFailsIngestion) {
  std::string Base = buildKitchenSinkText();
  InjectedFault F = injectFault(Base, FaultKind::GarbageLine, 3);
  ASSERT_NE(F.Text, Base);

  SalvageOptions NoDrops;
  NoDrops.MaxDroppedLines = 0;
  Trace T;
  IngestReport Report;
  EXPECT_FALSE(salvage(F.Text, T, Report, NoDrops).ok());
  EXPECT_GE(Report.LinesDropped, 1u);
}

TEST(FaultInjectionTest, DroppedRatioBudgetFailsIngestion) {
  // Three garbage lines against a tight relative budget.
  std::string Text = buildKitchenSinkText();
  for (uint64_t Seed = 10; Seed != 13; ++Seed)
    Text = injectFault(Text, FaultKind::GarbageLine, Seed).Text;

  SalvageOptions Tight;
  Tight.MaxDroppedRatio = 0.01;
  Trace T;
  IngestReport Report;
  EXPECT_FALSE(salvage(Text, T, Report, Tight).ok());
}

TEST(FaultInjectionTest, InjectorIsDeterministic) {
  std::string Base = buildKitchenSinkText();
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    InjectedFault A = injectFault(Base, Kind, 42);
    InjectedFault B = injectFault(Base, Kind, 42);
    EXPECT_EQ(A.Text, B.Text) << faultKindName(Kind);
    EXPECT_EQ(A.Description, B.Description) << faultKindName(Kind);
    // A different seed should (for this input size) pick a different
    // mutation site for at least one kind; sanity-check one.
    if (Kind == FaultKind::TruncateAtOffset) {
      EXPECT_NE(injectFault(Base, Kind, 1).Text,
                injectFault(Base, Kind, 2).Text);
    }
  }
}

TEST(FaultInjectionTest, DiagnosticsAreCappedButCounted) {
  std::string Text = buildKitchenSinkText();
  for (uint64_t Seed = 0; Seed != 8; ++Seed)
    Text = injectFault(Text, FaultKind::GarbageLine, 100 + Seed).Text;

  SalvageOptions Opt;
  Opt.MaxDiagnostics = 2;
  Opt.MaxDroppedRatio = 1.0;
  Trace T;
  IngestReport Report;
  ASSERT_TRUE(salvage(Text, T, Report, Opt).ok());
  EXPECT_LE(Report.Diagnostics.size(), 2u);
  EXPECT_GE(Report.IncidentsTotal, 8u);
  for (const IngestDiagnostic &D : Report.Diagnostics)
    EXPECT_GT(D.LineNo, 0u);
}

} // namespace
