//===- tests/detect/WindowedScanTest.cpp --------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The windowed streaming scan's contract is byte-identity: at every
// window size it must render exactly the batch detector's report --
// the window is only the retirement sweep cadence, never a result
// knob.  These tests pin that at the detect-function level, plus the
// windowed frontier's cut/resume behaviour (the deadline ladder, shed
// state carried across a cut, and stale frontiers degrading to a clean
// rescan).  Pipeline-level coverage lives in
// tests/integration/WindowedAnalysisTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "cafa/ReportJson.h"
#include "detect/Accesses.h"
#include "detect/RaceReport.h"
#include "detect/UseFreeDetector.h"
#include "hb/HbIndex.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

// Two unordered threads with 70 uses x 70 frees of one cell: 4900
// candidate pairs, past the scan's 4096-pair clock poll, so a tiny
// detect deadline cuts mid-scan after a forced checkpoint save.
Trace buildWideScanTrace() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 256);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 70; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 70; ++I)
    TB.ptrWrite(B, 5, 0, M, 100 + I);
  TB.end(B);
  return TB.take();
}

// A small trace exercising every filter the scan replays: ordered and
// unordered pairs, lock-guarded pairs, an if-guarded use, and multiple
// cells so retention buckets retire at different horizons.
Trace buildFilterMixTrace() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("mix", 4096);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t V = 0; V != 3; ++V) {
    TB.lockAcquire(A, 7);
    TB.ptrRead(A, V, 9 + V, M, 10 * V);
    TB.deref(A, 9 + V, DerefKind::Invoke, M, 10 * V);
    TB.lockRelease(A, 7);
    TB.ptrRead(A, V, 9 + V, M, 10 * V + 1);
    TB.deref(A, 9 + V, DerefKind::FieldAccess, M, 10 * V + 1);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t V = 0; V != 3; ++V) {
    TB.lockAcquire(B, 7);
    TB.ptrWrite(B, V, 0, M, 100 + V);
    TB.lockRelease(B, 7);
  }
  TB.end(B);
  return TB.take();
}

TEST(WindowedScanTest, EveryWindowSizeRendersTheBatchReport) {
  for (Trace T : {buildWideScanTrace(), buildFilterMixTrace()}) {
    TaskIndex Index(T);
    DetectorOptions Opt;
    HbIndex Hb(T, Index, Opt.Hb);
    AccessDb Db = extractAccesses(T, Index);
    RaceReport Batch = detectUseFreeRaces(T, Index, Db, Hb, Opt);
    std::string BatchText = renderRaceReport(Batch, T);
    std::string BatchJson = renderRaceReportJson(Batch, T);
    ASSERT_GT(Batch.Races.size(), 0u);

    for (uint64_t W : {uint64_t(1), uint64_t(64), uint64_t(4096),
                       uint64_t(1) << 20}) {
      WindowedDetectStats Stats;
      RaceReport Win =
          detectUseFreeRacesWindowed(T, Index, Hb, Opt, W, nullptr, &Stats);
      EXPECT_EQ(renderRaceReport(Win, T), BatchText) << "window " << W;
      EXPECT_EQ(renderRaceReportJson(Win, T), BatchJson) << "window " << W;
      EXPECT_EQ(Stats.WindowEvents, W);
      EXPECT_EQ(Stats.NumUses, Db.Uses.size());
      EXPECT_EQ(Stats.NumFrees, Db.Frees.size());
      EXPECT_GT(Stats.Chains, 0u);
      EXPECT_GT(Stats.OverlayHighWaterBytes, 0u);
    }
  }
}

TEST(WindowedScanTest, CutThenResumeIsBitIdentical) {
  Trace T = buildWideScanTrace();
  TaskIndex Index(T);
  DetectorOptions Opt;
  // Disable the sheddable filters so the deadline ladder's first rung
  // has nothing to shed and the first expiry cuts the scan outright.
  Opt.LocksetFilter = false;
  Opt.IfGuardFilter = false;
  HbIndex Hb(T, Index, Opt.Hb);
  RaceReport Clean = detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16);
  ASSERT_FALSE(Clean.Partial);
  ASSERT_EQ(Clean.Filters.CandidatePairs, 4900u);

  // Cut the scan at its first clock poll; the deadline forces a save.
  WindowedDetectFrontier Saved;
  bool Wrote = false;
  WindowedDetectCheckpointing CutCk;
  CutCk.Save = [&](const WindowedDetectFrontier &F) {
    Saved = F;
    Wrote = true;
  };
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  RaceReport Cut =
      detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 16, nullptr, nullptr,
                                 &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_LT(Saved.Filters.CandidatePairs, 4900u);

  // Resume from the saved frontier: the remaining pairs are scanned,
  // straggler survivor bodies are re-captured, and the rendered report
  // matches the uninterrupted one byte for byte.
  WindowedDetectCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  RaceReport Resumed =
      detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16, nullptr, nullptr,
                                 &ResumeCk);
  EXPECT_TRUE(ResumeCk.ResumeAccepted);
  EXPECT_FALSE(Resumed.Partial);
  EXPECT_EQ(Resumed.Filters.CandidatePairs, 4900u);
  EXPECT_EQ(renderRaceReportJson(Resumed, T), renderRaceReportJson(Clean, T));
  EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Clean, T));
}

TEST(WindowedScanTest, ShedStateSurvivesResume) {
  // 104x104 = 10816 pairs: the ladder sheds the filters at the first
  // poll and cuts at the second; the frontier must carry the shed flag
  // so the resumed report cannot depend on where the cut landed.
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 4096);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 104; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 104; ++I)
    TB.ptrWrite(B, 5, 0, M, 2000 + I);
  TB.end(B);
  Trace T = TB.take();
  TaskIndex Index(T);
  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  HbIndex Hb(T, Index, Tiny.Hb);

  WindowedDetectFrontier Saved;
  bool Wrote = false;
  WindowedDetectCheckpointing CutCk;
  CutCk.Save = [&](const WindowedDetectFrontier &F) {
    Saved = F;
    Wrote = true;
  };
  RaceReport Cut =
      detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 32, nullptr, nullptr,
                                 &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_TRUE(Saved.FiltersShed);

  WindowedDetectCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  DetectorOptions NoLimit;
  RaceReport Resumed =
      detectUseFreeRacesWindowed(T, Index, Hb, NoLimit, 32, nullptr, nullptr,
                                 &ResumeCk);
  EXPECT_TRUE(ResumeCk.ResumeAccepted);
  ASSERT_TRUE(Resumed.Partial);
  EXPECT_EQ(Resumed.PartialCause, "filters-shed");
  EXPECT_EQ(Resumed.Filters.CandidatePairs, 10816u);
}

TEST(WindowedScanTest, StaleFrontierDegradesToACleanRescan) {
  Trace T = buildWideScanTrace();
  TaskIndex Index(T);
  DetectorOptions Opt;
  Opt.LocksetFilter = false;
  Opt.IfGuardFilter = false;
  HbIndex Hb(T, Index, Opt.Hb);
  RaceReport Clean = detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16);

  WindowedDetectFrontier Saved;
  WindowedDetectCheckpointing CutCk;
  CutCk.Save = [&](const WindowedDetectFrontier &F) { Saved = F; };
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  (void)detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 16, nullptr, nullptr,
                                   &CutCk);
  ASSERT_FALSE(Saved.Survivors.empty());

  // A survivor whose recorded use position no longer matches the trace
  // (as after analyzing a different input) must be rejected wholesale;
  // the scan silently restarts and still produces the clean report.
  Saved.Survivors[0].UseRecord += 1;
  WindowedDetectCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  RaceReport Resumed =
      detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16, nullptr, nullptr,
                                 &ResumeCk);
  EXPECT_FALSE(ResumeCk.ResumeAccepted);
  EXPECT_FALSE(Resumed.Partial);
  EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Clean, T));
}

} // namespace
