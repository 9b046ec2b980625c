//===- tests/detect/WindowedScanTest.cpp --------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The pair scan over the trace stream must render exactly the report
// of the reference scan (tests/ReferenceScan.h) at every window size --
// the window is only the retirement sweep cadence, never a result
// knob -- and so must the same scan over an extracted AccessDb.  These
// tests pin that at the detect-function level, plus the frontier's
// cut/resume behaviour on the stream (the deadline ladder, shed state
// carried across a cut, and stale frontiers degrading to a clean
// rescan).  Pipeline-level coverage lives in
// tests/integration/WindowedAnalysisTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "cafa/ReportJson.h"
#include "detect/Accesses.h"
#include "detect/RaceReport.h"
#include "detect/UseFreeDetector.h"
#include "hb/HbIndex.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"

#include "ReferenceScan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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

// Two static races of one cell whose site order -- the method declared
// first sorts first -- is not the order a use-major scan commits them
// in: the report must list the use promoted first, first.
Trace buildSiteOrderTrace() {
  TraceBuilder TB;
  MethodId Late = TB.addMethod("late", 64);
  MethodId Early = TB.addMethod("early", 64);
  MethodId FreeM = TB.addMethod("freeM", 64);
  TaskId A = TB.addThread("a");
  TaskId C = TB.addThread("c");
  TB.begin(A).begin(C);
  TB.ptrRead(A, 5, 9, Early, 1).deref(A, 9, DerefKind::Invoke, Early, 2);
  TB.ptrRead(A, 5, 9, Late, 1).deref(A, 9, DerefKind::Invoke, Late, 2);
  TB.ptrWrite(C, 5, 0, FreeM, 3);
  TB.end(A).end(C);
  return TB.take();
}

// Two static pairs whose first instance by (use ordinal, free ordinal)
// is not the instance a record-order scan meets first.
Trace buildFirstInstanceTrace() {
  TraceBuilder TB;
  MethodId UseM = TB.addMethod("useM", 64);
  MethodId FreeM = TB.addMethod("freeM", 64);
  TaskId A = TB.addThread("a");
  TaskId B = TB.addThread("b");
  TaskId C = TB.addThread("c");
  TB.begin(A).begin(B).begin(C);
  // Cell 5: a reads before b, but b dereferences first, so b's use has
  // the lower ordinal; the free meets a's use first.
  TB.ptrRead(A, 5, 9, UseM, 1).ptrRead(B, 5, 9, UseM, 1);
  TB.deref(B, 9, DerefKind::Invoke, UseM, 2);
  TB.deref(A, 9, DerefKind::Invoke, UseM, 2);
  TB.ptrWrite(C, 5, 0, FreeM, 3);
  // Cell 6: a's own free cannot race a's use, so the scan first commits
  // (b's use, a's free); c's later free races a's use, whose lower
  // ordinal makes that pair the first instance.
  TB.ptrRead(A, 6, 7, UseM, 4).deref(A, 7, DerefKind::Invoke, UseM, 5);
  TB.ptrRead(B, 6, 7, UseM, 4).deref(B, 7, DerefKind::Invoke, UseM, 5);
  TB.ptrWrite(A, 6, 0, FreeM, 6);
  TB.ptrWrite(C, 6, 0, FreeM, 6);
  TB.end(A).end(B).end(C);
  return TB.take();
}

TEST(WindowedScanTest, EveryWindowSizeRendersTheBatchReport) {
  for (Trace T : {buildWideScanTrace(), buildFilterMixTrace(),
                  buildSiteOrderTrace(), buildFirstInstanceTrace()}) {
    TaskIndex Index(T);
    DetectorOptions Opt;
    HbIndex Hb(T, Index, Opt.Hb);
    AccessDb Db = extractAccesses(T, Index);
    RaceReport Ref = referenceScan(T, Db, Hb, Opt);
    std::string RefText = renderRaceReport(Ref, T);
    std::string RefJson = renderRaceReportJson(Ref, T);
    ASSERT_GT(Ref.Races.size(), 0u);

    RaceReport FromDb = detectUseFreeRaces(T, Index, Db, Hb, Opt);
    EXPECT_EQ(renderRaceReport(FromDb, T), RefText);
    EXPECT_EQ(renderRaceReportJson(FromDb, T), RefJson);

    for (uint64_t W : {uint64_t(1), uint64_t(64), uint64_t(4096),
                       uint64_t(1) << 20}) {
      WindowedDetectStats Stats;
      RaceReport Win =
          detectUseFreeRacesWindowed(T, Index, Hb, Opt, W, nullptr, &Stats);
      EXPECT_EQ(renderRaceReport(Win, T), RefText) << "window " << W;
      EXPECT_EQ(renderRaceReportJson(Win, T), RefJson) << "window " << W;
      EXPECT_EQ(Stats.WindowEvents, W);
      EXPECT_EQ(Stats.NumUses, Db.Uses.size());
      EXPECT_EQ(Stats.NumFrees, Db.Frees.size());
      EXPECT_GT(Stats.OverlayHighWaterBytes, 0u);
    }
  }
}

/// A random trace whose accesses repeat a few static sites and whose
/// dereferences may come long after their reads, so that a static pair
/// has many instances, promotion order departs from read order, and the
/// instance the scan meets first is often not the one it must report.
Trace repeatedSitesTrace(uint64_t Seed) {
  Rng R(Seed);
  TraceBuilder TB;
  const MethodId Methods[] = {TB.addMethod("m0", 64), TB.addMethod("m1", 64)};
  const QueueId Q = TB.addQueue("main");
  std::vector<TaskId> Running;
  for (int I = 0; I != 3; ++I) {
    Running.push_back(TB.addThread("t" + std::to_string(I)));
    TB.begin(Running.back());
  }
  std::vector<TaskId> Sent;
  TaskId Event = TaskId::invalid(); // the event the looper runs
  std::map<uint32_t, std::vector<uint32_t>> Unmatched; // task -> objects
  uint32_t NextObject = 100, Events = 0;
  auto site = [&] {
    return std::make_pair(Methods[R.below(2)],
                          static_cast<uint32_t>(R.below(3)));
  };
  for (int Step = 0; Step != 120; ++Step) {
    TaskId Actor = Running[R.below(Running.size())];
    bool IsEvent = Actor == Event;
    auto [M, Pc] = site();
    switch (R.below(8)) {
    case 0: // send an event
      if (!IsEvent) {
        Sent.push_back(TB.addEvent("e" + std::to_string(Events++), Q));
        TB.send(Actor, Sent.back(), 0);
      }
      break;
    case 1: // the looper takes the next event, or ends the running one
      if (Event.isValid()) {
        TB.end(Event);
        Running.erase(std::find(Running.begin(), Running.end(), Event));
        Event = TaskId::invalid();
      } else if (!Sent.empty()) {
        Event = Sent.front();
        Sent.erase(Sent.begin());
        TB.begin(Event);
        Running.push_back(Event);
      }
      break;
    case 2: // free
      TB.ptrWrite(Actor, static_cast<uint32_t>(R.below(2)), 0, M, Pc);
      break;
    case 3: // dereference the oldest read still waiting in this task
      if (!Unmatched[Actor.value()].empty()) {
        uint32_t Object = Unmatched[Actor.value()].front();
        Unmatched[Actor.value()].erase(Unmatched[Actor.value()].begin());
        TB.deref(Actor, Object, DerefKind::Invoke, M, Pc);
      }
      break;
    default: // read, dereferenced now or later
      TB.ptrRead(Actor, static_cast<uint32_t>(R.below(2)), NextObject, M,
                 Pc);
      if (R.chance(1, 2))
        TB.deref(Actor, NextObject, DerefKind::Invoke, M, Pc);
      else
        Unmatched[Actor.value()].push_back(NextObject);
      ++NextObject;
      break;
    }
  }
  for (TaskId Task : Running)
    TB.end(Task);
  return TB.take();
}

TEST(WindowedScanTest, RepeatedSitesRenderTheReferenceReport) {
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    Trace T = repeatedSitesTrace(Seed);
    TaskIndex Index(T);
    DetectorOptions Opt;
    HbIndex Hb(T, Index, Opt.Hb);
    AccessDb Db = extractAccesses(T, Index);
    std::string Ref = renderRaceReportJson(referenceScan(T, Db, Hb, Opt), T);
    RaceReport FromDb = detectUseFreeRaces(T, Index, Db, Hb, Opt);
    ASSERT_EQ(renderRaceReportJson(FromDb, T), Ref) << "seed " << Seed;
    for (uint64_t W : {uint64_t(1), uint64_t(64)}) {
      RaceReport Win = detectUseFreeRacesWindowed(T, Index, Hb, Opt, W);
      ASSERT_EQ(renderRaceReportJson(Win, T), Ref)
          << "seed " << Seed << " window " << W;
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
  DetectFrontier Saved;
  bool Wrote = false;
  DetectCheckpointing CutCk;
  CutCk.Save = [&](const DetectFrontier &F) {
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
  // the committed races' bodies are taken from the replayed records,
  // and the rendered report matches the uninterrupted one byte for
  // byte.
  DetectCheckpointing ResumeCk;
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

  DetectFrontier Saved;
  bool Wrote = false;
  DetectCheckpointing CutCk;
  CutCk.Save = [&](const DetectFrontier &F) {
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

  DetectCheckpointing ResumeCk;
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

  DetectFrontier Saved;
  DetectCheckpointing CutCk;
  CutCk.Save = [&](const DetectFrontier &F) { Saved = F; };
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  (void)detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 16, nullptr, nullptr,
                                   &CutCk);
  ASSERT_FALSE(Saved.Races.empty());

  // A race whose recorded use position no longer matches the trace (as
  // after analyzing a different input) must be rejected wholesale; the
  // scan silently restarts and still produces the clean report.
  Saved.Races[0].UseRecord += 1;
  DetectCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  RaceReport Resumed =
      detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16, nullptr, nullptr,
                                 &ResumeCk);
  EXPECT_FALSE(ResumeCk.ResumeAccepted);
  EXPECT_FALSE(Resumed.Partial);
  EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Clean, T));
}

} // namespace
