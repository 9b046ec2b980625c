//===- tests/detect/UseFreeDetectorTest.cpp -----------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/UseFreeDetector.h"

#include "detect/GroundTruth.h"
#include "trace/TraceBuilder.h"

#include "ReferenceScan.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

/// Two concurrent events on one looper: one uses var 5, one frees it.
/// Hooks let tests add guards/allocations and relocate the accesses.
struct PairFixture {
  TraceBuilder TB;
  MethodId UseM, FreeM;
  QueueId Q;
  TaskId UseEvent, FreeEvent, UseSender, FreeSender;

  PairFixture() {
    Q = TB.addQueue("main");
    UseM = TB.addMethod("useM", 40);
    FreeM = TB.addMethod("freeM", 40);
    // Unrelated senders keep the events concurrent.
    UseSender = TB.addThread("useSender");
    FreeSender = TB.addThread("freeSender");
    UseEvent = TB.addEvent("useEvent", Q);
    FreeEvent = TB.addEvent("freeEvent", Q);
    TB.begin(UseSender).send(UseSender, UseEvent, 0).end(UseSender);
    TB.begin(FreeSender).send(FreeSender, FreeEvent, 0).end(FreeSender);
  }

  /// Emits the use event: [alloc] read+deref.
  void emitUseEvent(bool AllocBefore = false) {
    TB.begin(UseEvent);
    TB.methodEnter(UseEvent, UseM, 1);
    if (AllocBefore)
      TB.ptrWrite(UseEvent, 5, 8, UseM, 1);
    TB.ptrRead(UseEvent, 5, 9, UseM, 3);
    TB.deref(UseEvent, 9, DerefKind::Invoke, UseM, 4);
    TB.methodExit(UseEvent, UseM, 1);
    TB.end(UseEvent);
  }

  /// Emits the free event: free [then alloc].
  void emitFreeEvent(bool AllocAfter = false) {
    TB.begin(FreeEvent);
    TB.methodEnter(FreeEvent, FreeM, 2);
    TB.ptrWrite(FreeEvent, 5, 0, FreeM, 7);
    if (AllocAfter)
      TB.ptrWrite(FreeEvent, 5, 8, FreeM, 8);
    TB.methodExit(FreeEvent, FreeM, 2);
    TB.end(FreeEvent);
  }

  RaceReport detect(DetectorOptions Opt = DetectorOptions()) {
    Trace T = TB.take();
    return detectUseFreeRaces(T, Opt);
  }
};

TEST(UseFreeDetectorTest, ConcurrentUseFreeIsReported) {
  PairFixture F;
  F.emitUseEvent();
  F.emitFreeEvent();
  RaceReport R = F.detect();
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_EQ(R.Races[0].Use.Method, F.UseM);
  EXPECT_EQ(R.Races[0].Use.Pc, 3u);
  EXPECT_EQ(R.Races[0].Free.Method, F.FreeM);
  EXPECT_EQ(R.Races[0].Free.Pc, 7u);
  EXPECT_EQ(R.Races[0].Category, RaceCategory::IntraThread);
}

TEST(UseFreeDetectorTest, IntraEventAllocBeforeUseFilters) {
  PairFixture F;
  F.emitUseEvent(/*AllocBefore=*/true);
  F.emitFreeEvent();
  RaceReport R = F.detect();
  EXPECT_TRUE(R.Races.empty());
  EXPECT_EQ(R.Filters.IntraEventAlloc, 1u);
}

TEST(UseFreeDetectorTest, IntraEventAllocAfterFreeFilters) {
  PairFixture F;
  F.emitUseEvent();
  F.emitFreeEvent(/*AllocAfter=*/true);
  RaceReport R = F.detect();
  EXPECT_TRUE(R.Races.empty());
  EXPECT_EQ(R.Filters.IntraEventAlloc, 1u);
}

TEST(UseFreeDetectorTest, FiltersCanBeDisabled) {
  PairFixture F;
  F.emitUseEvent(/*AllocBefore=*/true);
  F.emitFreeEvent();
  DetectorOptions Opt;
  Opt.IntraEventAllocFilter = false;
  RaceReport R = F.detect(Opt);
  EXPECT_EQ(R.Races.size(), 1u);
}

TEST(UseFreeDetectorTest, HbOrderedPairSuppressed) {
  // The free event's send happens in the use event, so atomicity orders
  // them: no race.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId UseM = TB.addMethod("useM", 40);
  MethodId FreeM = TB.addMethod("freeM", 40);
  TaskId UseEvent = TB.addEvent("useEvent", Q, 0, false, true);
  TaskId FreeEvent = TB.addEvent("freeEvent", Q);
  TB.begin(UseEvent);
  TB.ptrRead(UseEvent, 5, 9, UseM, 3);
  TB.deref(UseEvent, 9, DerefKind::Invoke, UseM, 4);
  TB.send(UseEvent, FreeEvent, 0);
  TB.end(UseEvent);
  TB.begin(FreeEvent);
  TB.ptrWrite(FreeEvent, 5, 0, FreeM, 7);
  TB.end(FreeEvent);
  RaceReport R = detectUseFreeRaces(TB.take(), DetectorOptions());
  EXPECT_TRUE(R.Races.empty());
  EXPECT_EQ(R.Filters.OrderedByHb, 1u);
}

TEST(UseFreeDetectorTest, SameTaskPairSuppressed) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId M = TB.addMethod("m", 40);
  TaskId E = TB.addEvent("e", Q, 0, false, true);
  TB.begin(E);
  TB.ptrRead(E, 5, 9, M, 3);
  TB.deref(E, 9, DerefKind::Invoke, M, 4);
  TB.ptrWrite(E, 5, 0, M, 7);
  TB.end(E);
  RaceReport R = detectUseFreeRaces(TB.take(), DetectorOptions());
  EXPECT_TRUE(R.Races.empty());
  EXPECT_EQ(R.Filters.SameTask, 1u);
}

TEST(UseFreeDetectorTest, LocksetFilterSuppressesCommonLock) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 40);
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.lockAcquire(T1, 3);
  TB.ptrRead(T1, 5, 9, M, 0);
  TB.deref(T1, 9, DerefKind::Invoke, M, 1);
  TB.lockRelease(T1, 3);
  TB.lockAcquire(T2, 3);
  TB.ptrWrite(T2, 5, 0, M, 7);
  TB.lockRelease(T2, 3);
  TB.end(T1).end(T2);
  RaceReport R = detectUseFreeRaces(TB.take(), DetectorOptions());
  EXPECT_TRUE(R.Races.empty());
  EXPECT_EQ(R.Filters.LocksetProtected, 1u);
}

TEST(UseFreeDetectorTest, DisjointLocksetsStillRace) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 40);
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.lockAcquire(T1, 3);
  TB.ptrRead(T1, 5, 9, M, 0);
  TB.deref(T1, 9, DerefKind::Invoke, M, 1);
  TB.lockRelease(T1, 3);
  TB.lockAcquire(T2, 4); // different lock
  TB.ptrWrite(T2, 5, 0, M, 7);
  TB.lockRelease(T2, 4);
  TB.end(T1).end(T2);
  RaceReport R = detectUseFreeRaces(TB.take(), DetectorOptions());
  EXPECT_EQ(R.Races.size(), 1u);
}

TEST(UseFreeDetectorTest, HeuristicsDoNotApplyAcrossQueues) {
  // Use event on a second looper with an alloc-before-use: the
  // intra-event-allocation heuristic is restricted to same-queue pairs,
  // so the race is still reported (Section 4.3).
  TraceBuilder TB;
  QueueId Q1 = TB.addQueue("main");
  QueueId Q2 = TB.addQueue("bg");
  MethodId UseM = TB.addMethod("useM", 40);
  MethodId FreeM = TB.addMethod("freeM", 40);
  TaskId S1 = TB.addThread("s1");
  TaskId S2 = TB.addThread("s2");
  TaskId UseEvent = TB.addEvent("useEvent", Q2);
  TaskId FreeEvent = TB.addEvent("freeEvent", Q1);
  TB.begin(S1).send(S1, UseEvent, 0).end(S1);
  TB.begin(S2).send(S2, FreeEvent, 0).end(S2);
  TB.begin(UseEvent);
  TB.ptrWrite(UseEvent, 5, 8, UseM, 1); // alloc before use
  TB.ptrRead(UseEvent, 5, 9, UseM, 3);
  TB.deref(UseEvent, 9, DerefKind::Invoke, UseM, 4);
  TB.end(UseEvent);
  TB.begin(FreeEvent);
  TB.ptrWrite(FreeEvent, 5, 0, FreeM, 7);
  TB.end(FreeEvent);
  RaceReport R = detectUseFreeRaces(TB.take(), DetectorOptions());
  EXPECT_EQ(R.Races.size(), 1u);
  EXPECT_NE(R.Races[0].Category, RaceCategory::IntraThread);
}

TEST(UseFreeDetectorTest, DynamicInstancesDeduplicateToStaticPair) {
  // Two dynamic instances of the same use site against one free: one
  // reported race with DynamicCount 2.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId UseM = TB.addMethod("useM", 40);
  MethodId FreeM = TB.addMethod("freeM", 40);
  TaskId S = TB.addThread("s");
  TaskId U1 = TB.addEvent("u1", Q);
  TaskId U2 = TB.addEvent("u2", Q);
  TaskId FreeSender = TB.addThread("fs");
  TaskId F1 = TB.addEvent("f1", Q);
  TB.begin(S).send(S, U1, 0).send(S, U2, 5).end(S);
  TB.begin(FreeSender).send(FreeSender, F1, 0).end(FreeSender);
  for (TaskId U : {U1, U2}) {
    TB.begin(U);
    TB.ptrRead(U, 5, 9, UseM, 3);
    TB.deref(U, 9, DerefKind::Invoke, UseM, 4);
    TB.end(U);
  }
  TB.begin(F1);
  TB.ptrWrite(F1, 5, 0, FreeM, 7);
  TB.end(F1);
  RaceReport R = detectUseFreeRaces(TB.take(), DetectorOptions());
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_EQ(R.Races[0].DynamicCount, 2u);
}

TEST(UseFreeDetectorTest, ManyDynamicInstancesFreezeAsOneCommittedRace) {
  // The shape above at scale: 100 events use the cell at one site and
  // 50 free it at one site, all on one looper and unordered -- 5,000
  // dynamic instances of one static pair.  A deadline cut at the scan's
  // first poll, 4,096 pairs in, must freeze one committed race, not one
  // entry per instance, under either access source; and a resume under
  // either must land on the reference report.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId UseM = TB.addMethod("useM", 40);
  MethodId FreeM = TB.addMethod("freeM", 40);
  TaskId UseSender = TB.addThread("us");
  TaskId FreeSender = TB.addThread("fs");
  std::vector<TaskId> Users, Freers;
  for (int I = 0; I != 100; ++I)
    Users.push_back(TB.addEvent("u" + std::to_string(I), Q));
  for (int I = 0; I != 50; ++I)
    Freers.push_back(TB.addEvent("f" + std::to_string(I), Q));
  TB.begin(UseSender);
  for (TaskId U : Users)
    TB.send(UseSender, U, 0);
  TB.end(UseSender);
  TB.begin(FreeSender);
  for (TaskId F : Freers)
    TB.send(FreeSender, F, 0);
  TB.end(FreeSender);
  // Frees interleave with the uses, so pairs are evaluated at both
  // kinds of record.
  for (int I = 0; I != 100; ++I) {
    TB.begin(Users[I]);
    TB.ptrRead(Users[I], 5, 9, UseM, 3);
    TB.deref(Users[I], 9, DerefKind::Invoke, UseM, 4);
    TB.end(Users[I]);
    if (I % 2 == 1) {
      TB.begin(Freers[I / 2]);
      TB.ptrWrite(Freers[I / 2], 5, 0, FreeM, 7);
      TB.end(Freers[I / 2]);
    }
  }
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions Opt; // nothing to shed: the first expiry cuts
  Opt.LocksetFilter = false;
  Opt.IfGuardFilter = false;
  HbIndex Hb(T, Index, Opt.Hb);
  RaceReport Ref = referenceScan(T, Db, Hb, Opt);
  ASSERT_EQ(Ref.Races.size(), 1u);
  ASSERT_EQ(Ref.Races[0].DynamicCount, 5000u);

  auto scan = [&](bool Stream, const DetectorOptions &O,
                  DetectCheckpointing *Ck) {
    return Stream ? detectUseFreeRacesWindowed(T, Index, Hb, O, 64, nullptr,
                                               nullptr, Ck)
                  : detectUseFreeRaces(T, Index, Db, Hb, O, Ck);
  };
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  for (bool CutStream : {false, true})
    for (bool ResumeStream : {false, true}) {
      SCOPED_TRACE(std::string(CutStream ? "stream" : "db") + " cut, " +
                   (ResumeStream ? "stream" : "db") + " resume");
      DetectFrontier Saved;
      DetectCheckpointing CutCk;
      CutCk.Save = [&](const DetectFrontier &F) { Saved = F; };
      RaceReport Cut = scan(CutStream, Tiny, &CutCk);
      ASSERT_EQ(Cut.PartialCause, "detect-deadline");
      ASSERT_EQ(Saved.Races.size(), 1u);
      EXPECT_EQ(Saved.Races[0].DynamicCount, Saved.Filters.CandidatePairs);
      EXPECT_GT(Saved.Races[0].DynamicCount, 4000u);

      DetectCheckpointing ResumeCk;
      ResumeCk.Resume = &Saved;
      RaceReport Resumed = scan(ResumeStream, Opt, &ResumeCk);
      EXPECT_TRUE(ResumeCk.ResumeAccepted);
      EXPECT_FALSE(Resumed.Partial);
      EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Ref, T));
    }
}

TEST(UseFreeDetectorTest, ClassificationInterThreadVsConventional) {
  // Masked worker (posts an event that precedes the free in execution):
  // category (b).  Plain worker: category (c).
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId WorkerM = TB.addMethod("worker", 40);
  MethodId Worker2M = TB.addMethod("worker2", 40);
  MethodId FreeM = TB.addMethod("freeM", 40);
  TaskId W = TB.addThread("w");
  TaskId W2 = TB.addThread("w2");
  TaskId Ui = TB.addEvent("ui", Q);
  TaskId F1 = TB.addEvent("free", Q, 0, false, true);

  TB.begin(W);
  TB.ptrRead(W, 5, 9, WorkerM, 0);
  TB.deref(W, 9, DerefKind::Invoke, WorkerM, 1);
  TB.send(W, Ui, 0);
  TB.end(W);
  TB.begin(W2);
  TB.ptrRead(W2, 6, 8, Worker2M, 0);
  TB.deref(W2, 8, DerefKind::Invoke, Worker2M, 1);
  TB.end(W2);
  TB.begin(Ui).end(Ui);
  TB.begin(F1);
  TB.ptrWrite(F1, 5, 0, FreeM, 7);
  TB.ptrWrite(F1, 6, 0, FreeM, 8);
  TB.end(F1);

  RaceReport R = detectUseFreeRaces(TB.take(), DetectorOptions());
  ASSERT_EQ(R.Races.size(), 2u);
  RaceCategory MaskedCat = RaceCategory::IntraThread;
  RaceCategory PlainCat = RaceCategory::IntraThread;
  for (const UseFreeRace &Race : R.Races) {
    if (Race.Use.Method == WorkerM)
      MaskedCat = Race.Category;
    else
      PlainCat = Race.Category;
  }
  EXPECT_EQ(MaskedCat, RaceCategory::InterThread);
  EXPECT_EQ(PlainCat, RaceCategory::Conventional);
}

TEST(UseFreeDetectorTest, ReportRendersNamesAndCounters) {
  PairFixture F;
  F.emitUseEvent();
  F.emitFreeEvent();
  Trace T = F.TB.take();
  RaceReport R = detectUseFreeRaces(T, DetectorOptions());
  std::string Text = renderRaceReport(R, T);
  EXPECT_NE(Text.find("useM:3"), std::string::npos);
  EXPECT_NE(Text.find("freeM:7"), std::string::npos);
  EXPECT_NE(Text.find("candidates="), std::string::npos);
}

TEST(GroundTruthTest, EvaluateJoinsLabelsAndCountsMisses) {
  PairFixture F;
  F.emitUseEvent();
  F.emitFreeEvent();
  Trace T = F.TB.take();
  RaceReport R = detectUseFreeRaces(T, DetectorOptions());

  GroundTruth Truth;
  Truth.Entries.push_back({F.UseM, 3, F.FreeM, 7, RaceLabel::Harmful,
                           RaceCategory::IntraThread, "the pair"});
  // A second labeled pair that the detector will not find.
  Truth.Entries.push_back({F.UseM, 30, F.FreeM, 31, RaceLabel::FalseTypeII,
                           RaceCategory::IntraThread, "missing"});
  Table1Row Row = evaluateReport(R, Truth, T, "app");
  EXPECT_EQ(Row.Reported, 1u);
  EXPECT_EQ(Row.TrueA, 1u);
  EXPECT_EQ(Row.Missed, 1u);
  EXPECT_EQ(Row.Unexpected, 0u);

  // Unlabeled report shows up as unexpected.
  GroundTruth Empty;
  Table1Row Row2 = evaluateReport(R, Empty, T, "app");
  EXPECT_EQ(Row2.Unexpected, 1u);

  std::string Rendered = renderTable1({Row});
  EXPECT_NE(Rendered.find("app"), std::string::npos);
  EXPECT_NE(Rendered.find("harmful"), std::string::npos);
}

TEST(GroundTruthTest, LabelNames) {
  EXPECT_STREQ(raceLabelName(RaceLabel::Harmful), "harmful");
  EXPECT_STREQ(raceLabelName(RaceLabel::FalseTypeI), "FP-I");
  EXPECT_STREQ(raceLabelName(RaceLabel::FalseTypeII), "FP-II");
  EXPECT_STREQ(raceLabelName(RaceLabel::FalseTypeIII), "FP-III");
  EXPECT_STREQ(raceCategoryName(RaceCategory::IntraThread), "a");
  EXPECT_STREQ(raceCategoryName(RaceCategory::InterThread), "b");
  EXPECT_STREQ(raceCategoryName(RaceCategory::Conventional), "c");
}

} // namespace
