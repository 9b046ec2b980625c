//===- tests/detect/BaselinesTest.cpp -----------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/Baselines.h"

#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

NaiveRaceResult runNaive(const Trace &T,
                         NaiveDetectorOptions Opt = NaiveDetectorOptions()) {
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  return detectLowLevelRaces(T, Hb, Opt);
}

TEST(BaselinesTest, UnorderedConflictingPairCounts) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.read(T1, 5);
  TB.write(T2, 5);
  TB.end(T1).end(T2);
  NaiveRaceResult R = runNaive(TB.take());
  EXPECT_EQ(R.StaticRaces, 1u);
}

TEST(BaselinesTest, ReadReadDoesNotCount) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.read(T1, 5);
  TB.read(T2, 5);
  TB.end(T1).end(T2);
  EXPECT_EQ(runNaive(TB.take()).StaticRaces, 0u);
}

TEST(BaselinesTest, OrderedPairDoesNotCount) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1);
  TB.write(T1, 5);
  TB.fork(T1, T2);
  TB.begin(T2);
  TB.read(T2, 5);
  TB.end(T2);
  TB.end(T1);
  EXPECT_EQ(runNaive(TB.take()).StaticRaces, 0u);
}

TEST(BaselinesTest, SameTaskDoesNotCount) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TB.begin(T1);
  TB.write(T1, 5);
  TB.read(T1, 5);
  TB.end(T1);
  EXPECT_EQ(runNaive(TB.take()).StaticRaces, 0u);
}

TEST(BaselinesTest, DifferentCellsCountSeparately) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.write(T1, 5, 0);
  TB.write(T1, 6, 0);
  TB.read(T2, 5);
  TB.read(T2, 6);
  TB.end(T1).end(T2);
  EXPECT_EQ(runNaive(TB.take()).StaticRaces, 2u);
}

TEST(BaselinesTest, DynamicRepeatsCollapseToOneStaticRace) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  for (int I = 0; I != 5; ++I) {
    TB.write(T1, 5, 0);
    TB.read(T2, 5);
  }
  TB.end(T1).end(T2);
  NaiveRaceResult R = runNaive(TB.take());
  // One (pc, pc, cell) static identity despite 5x5 dynamic pairs.
  EXPECT_EQ(R.StaticRaces, 1u);
}

TEST(BaselinesTest, PointerAccessesAlsoCount) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 10);
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.ptrRead(T1, 5, 9, M, 0);
  TB.ptrWrite(T2, 5, 0, M, 1);
  TB.end(T1).end(T2);
  EXPECT_EQ(runNaive(TB.take()).StaticRaces, 1u);
}

TEST(BaselinesTest, LocksetFilterSuppresses) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.lockAcquire(T1, 1);
  TB.write(T1, 5);
  TB.lockRelease(T1, 1);
  TB.lockAcquire(T2, 1);
  TB.read(T2, 5);
  TB.lockRelease(T2, 1);
  TB.end(T1).end(T2);
  EXPECT_EQ(runNaive(TB.take()).StaticRaces, 0u);

  NaiveDetectorOptions NoLock;
  NoLock.LocksetFilter = false;
  TraceBuilder TB2;
  TaskId A = TB2.addThread("a");
  TaskId B = TB2.addThread("b");
  TB2.begin(A).begin(B);
  TB2.lockAcquire(A, 1);
  TB2.write(A, 5);
  TB2.lockRelease(A, 1);
  TB2.lockAcquire(B, 1);
  TB2.read(B, 5);
  TB2.lockRelease(B, 1);
  TB2.end(A).end(B);
  EXPECT_EQ(runNaive(TB2.take(), NoLock).StaticRaces, 1u);
}

TEST(BaselinesTest, PairCapIsCountedNotSilent) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  for (int I = 0; I != 60; ++I) {
    TB.write(T1, 5, 0);
    TB.read(T2, 5);
  }
  TB.end(T1).end(T2);
  NaiveDetectorOptions Opt;
  Opt.MaxPairsPerCell = 100; // far below 120*119/2
  NaiveRaceResult R = runNaive(TB.take(), Opt);
  EXPECT_EQ(R.CappedPairs, 1u);
}

TEST(BaselinesTest, ConcurrentLooperEventsConflict) {
  // The Figure 2 situation: two concurrent events of one looper with a
  // scalar read-write conflict count as a naive race (and this is
  // exactly the false positive CAFA's use-free focus avoids).
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId S1 = TB.addThread("s1");
  TaskId S2 = TB.addThread("s2");
  TaskId E1 = TB.addEvent("onLayout", Q);
  TaskId E2 = TB.addEvent("onPause", Q);
  TB.begin(S1).send(S1, E1, 0).end(S1);
  TB.begin(S2).send(S2, E2, 0).end(S2);
  TB.begin(E1);
  TB.read(E1, 5); // resizeAllowed
  TB.end(E1);
  TB.begin(E2);
  TB.write(E2, 5, 0);
  TB.end(E2);
  EXPECT_EQ(runNaive(TB.take()).StaticRaces, 1u);
}

} // namespace
