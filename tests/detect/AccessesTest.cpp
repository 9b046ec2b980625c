//===- tests/detect/AccessesTest.cpp ------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/Accesses.h"

#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

using namespace cafa;

namespace {

/// Two accessing threads, a and b, optionally with idle tasks (threads
/// that begin, send and end, and the events they post) declared between
/// them and interleaved with their records.
struct TwoAccessors {
  Trace T;
  TaskId A, B;
  std::vector<uint32_t> Records; ///< a's and b's records, in order
};

TwoAccessors buildTwoAccessors(bool WithIdle) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  MethodId M = TB.addMethod("m", 32);
  TwoAccessors Out;
  Out.A = TB.addThread("a");
  std::vector<std::pair<TaskId, TaskId>> Idle;
  if (WithIdle)
    for (int I = 0; I != 3; ++I)
      Idle.push_back({TB.addThread("idle" + std::to_string(I)),
                      TB.addEvent("posted" + std::to_string(I), Q)});
  Out.B = TB.addThread("b");

  // One idle record after each accessor record, while any are left.
  size_t NextIdle = 0;
  auto idleStep = [&] {
    if (NextIdle == Idle.size() * 5)
      return;
    auto [Thread, Event] = Idle[NextIdle / 5];
    switch (NextIdle++ % 5) {
    case 0:
      TB.begin(Thread);
      break;
    case 1:
      TB.send(Thread, Event, 0);
      break;
    case 2:
      TB.end(Thread);
      break;
    case 3:
      TB.begin(Event);
      break;
    default:
      TB.end(Event);
      break;
    }
  };
  auto step = [&](TraceBuilder &) {
    Out.Records.push_back(TB.lastRecord());
    idleStep();
  };
  step(TB.begin(Out.A));
  step(TB.methodEnter(Out.A, M, 100));
  step(TB.lockAcquire(Out.A, 1));
  step(TB.ptrRead(Out.A, 5, 9, M, 0));
  step(TB.begin(Out.B));
  step(TB.lockAcquire(Out.B, 2));
  step(TB.ptrRead(Out.B, 6, 9, M, 0));
  step(TB.branch(Out.B, BranchKind::IfEqz, 9, M, 1, 4));
  step(TB.deref(Out.A, 9, DerefKind::Invoke, M, 1));
  step(TB.ptrWrite(Out.A, 5, 0, M, 2));
  step(TB.lockRelease(Out.A, 1));
  step(TB.ptrWrite(Out.A, 7, 3, M, 3));
  step(TB.methodExit(Out.A, M, 100));
  step(TB.end(Out.A));
  step(TB.methodEnter(Out.B, M, 200));
  step(TB.deref(Out.B, 9, DerefKind::FieldAccess, M, 4));
  step(TB.ptrWrite(Out.B, 6, 0, M, 5));
  step(TB.lockRelease(Out.B, 2));
  step(TB.methodExit(Out.B, M, 200));
  step(TB.end(Out.B));
  while (NextIdle != Idle.size() * 5)
    idleStep();
  Out.T = TB.take();
  return Out;
}

TEST(AccessesTest, UseRecognizedViaNearestPreviousRead) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.ptrRead(T1, /*Var=*/5, /*Object=*/9, M, /*Pc=*/3);
  uint32_t Read = TB.lastRecord();
  TB.deref(T1, 9, DerefKind::Invoke, M, 4);
  uint32_t Deref = TB.lastRecord();
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  ASSERT_EQ(Db.Uses.size(), 1u);
  EXPECT_EQ(Db.Uses[0].Record, Read);
  EXPECT_EQ(Db.Uses[0].DerefRecord, Deref);
  EXPECT_EQ(Db.Uses[0].Var, VarId(5));
  EXPECT_EQ(Db.Uses[0].Pc, 3u);
  EXPECT_EQ(Db.UnmatchedDerefs, 0u);
}

TEST(AccessesTest, MismatchAttributesDerefToNearestRead) {
  // Two reads of different vars produce the same object; the dereference
  // is attributed to the *second* (nearest) read -- the Type III source.
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.ptrRead(T1, /*Var=*/1, /*Object=*/9, M, 0);
  TB.ptrRead(T1, /*Var=*/2, /*Object=*/9, M, 1);
  uint32_t SecondRead = TB.lastRecord();
  TB.deref(T1, 9, DerefKind::Invoke, M, 2);
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  ASSERT_EQ(Db.Uses.size(), 1u);
  EXPECT_EQ(Db.Uses[0].Record, SecondRead);
  EXPECT_EQ(Db.Uses[0].Var, VarId(2));
  // The shadowed first read counts as unmatched.
  EXPECT_EQ(Db.UnmatchedReads, 1u);
}

TEST(AccessesTest, ReadWithoutDerefIsNotAUse) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.ptrRead(T1, 5, 9, M, 0);
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  EXPECT_TRUE(Db.Uses.empty());
  EXPECT_EQ(Db.UnmatchedReads, 1u);
}

TEST(AccessesTest, DerefWithoutReadIsUnmatched) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.deref(T1, 9, DerefKind::FieldAccess, M, 0);
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  EXPECT_TRUE(Db.Uses.empty());
  EXPECT_EQ(Db.UnmatchedDerefs, 1u);
}

TEST(AccessesTest, ReadsDoNotMatchAcrossTasks) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.ptrRead(T1, 5, 9, M, 0);
  TB.deref(T2, 9, DerefKind::Invoke, M, 1); // other task
  TB.end(T1).end(T2);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  EXPECT_TRUE(Db.Uses.empty());
  EXPECT_EQ(Db.UnmatchedDerefs, 1u);
}

TEST(AccessesTest, NullReadsAreIgnored) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.ptrRead(T1, 5, /*Object=*/0, M, 0); // read null
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  EXPECT_TRUE(Db.Uses.empty());
  EXPECT_EQ(Db.UnmatchedReads, 0u);
}

TEST(AccessesTest, FreesAndAllocationsSplitByValue) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.ptrWrite(T1, 5, 0, M, 0); // free
  TB.ptrWrite(T1, 5, 7, M, 1); // allocation
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  ASSERT_EQ(Db.Frees.size(), 1u);
  ASSERT_EQ(Db.Allocs.size(), 1u);
  EXPECT_EQ(Db.Frees[0].Pc, 0u);
  EXPECT_EQ(Db.Allocs[0].Pc, 1u);
}

TEST(AccessesTest, FrameAnnotationFollowsMethodStack) {
  TraceBuilder TB;
  MethodId Outer = TB.addMethod("outer", 32);
  MethodId Inner = TB.addMethod("inner", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.methodEnter(T1, Outer, 100);
  TB.ptrRead(T1, 1, 9, Outer, 0);
  TB.deref(T1, 9, DerefKind::Invoke, Outer, 1);
  TB.methodEnter(T1, Inner, 101);
  TB.ptrRead(T1, 2, 8, Inner, 0);
  TB.deref(T1, 8, DerefKind::Invoke, Inner, 1);
  TB.methodExit(T1, Inner, 101);
  TB.methodExit(T1, Outer, 100);
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  ASSERT_EQ(Db.Uses.size(), 2u);
  EXPECT_EQ(Db.Uses[0].Frame, 100u);
  EXPECT_EQ(Db.Uses[1].Frame, 101u);
}

TEST(AccessesTest, LocksetCapturedAtAccess) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.lockAcquire(T1, 3);
  TB.lockAcquire(T1, 1);
  TB.ptrWrite(T1, 5, 0, M, 0);
  TB.lockRelease(T1, 1);
  TB.ptrWrite(T1, 6, 0, M, 1);
  TB.lockRelease(T1, 3);
  TB.ptrWrite(T1, 7, 0, M, 2);
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  ASSERT_EQ(Db.Frees.size(), 3u);
  EXPECT_EQ(Db.Frees[0].Lockset, (std::vector<uint32_t>{1, 3})); // sorted
  EXPECT_EQ(Db.Frees[1].Lockset, (std::vector<uint32_t>{3}));
  EXPECT_TRUE(Db.Frees[2].Lockset.empty());
}

TEST(AccessesTest, BranchMatchedToPointerVar) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.ptrRead(T1, 5, 9, M, 0);
  TB.branch(T1, BranchKind::IfEqz, 9, M, 1, 6);
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  ASSERT_EQ(Db.Branches.size(), 1u);
  EXPECT_EQ(Db.Branches[0].Var, VarId(5));
  EXPECT_EQ(Db.Branches[0].Kind, BranchKind::IfEqz);
  EXPECT_EQ(Db.Branches[0].TargetPc, 6u);
}

TEST(AccessesTest, InterleavedTasksKeepSeparateFramesAndLocks) {
  TwoAccessors X = buildTwoAccessors(false);
  TaskIndex Index(X.T);
  AccessDb Db = extractAccesses(X.T, Index);
  // Each deref matches its own task's read of object 9, under that
  // task's open frame and held lock.
  ASSERT_EQ(Db.Uses.size(), 2u);
  EXPECT_EQ(Db.Uses[0].Task, X.A);
  EXPECT_EQ(Db.Uses[0].Var, VarId(5));
  EXPECT_EQ(Db.Uses[0].Frame, 100u);
  EXPECT_EQ(Db.Uses[0].Lockset, (std::vector<uint32_t>{1}));
  EXPECT_EQ(Db.Uses[1].Task, X.B);
  EXPECT_EQ(Db.Uses[1].Var, VarId(6));
  EXPECT_EQ(Db.Uses[1].Frame, 0u); // b read before entering its frame
  EXPECT_EQ(Db.Uses[1].Lockset, (std::vector<uint32_t>{2}));
  ASSERT_EQ(Db.Branches.size(), 1u);
  EXPECT_EQ(Db.Branches[0].Var, VarId(6));
  // a's free is inside its frame and lock; b's free sees b's own frame
  // and lock, not a's (both closed by then).
  ASSERT_EQ(Db.Frees.size(), 2u);
  EXPECT_EQ(Db.Frees[0].Frame, 100u);
  EXPECT_EQ(Db.Frees[0].Lockset, (std::vector<uint32_t>{1}));
  EXPECT_EQ(Db.Frees[1].Frame, 200u);
  EXPECT_EQ(Db.Frees[1].Lockset, (std::vector<uint32_t>{2}));
  ASSERT_EQ(Db.Allocs.size(), 1u);
  EXPECT_EQ(Db.Allocs[0].Frame, 100u);
  EXPECT_TRUE(Db.Allocs[0].Lockset.empty());
}

TEST(AccessesTest, FirstScanRecordOfATaskSeesEmptyState) {
  // Each task's first record past its begin reads state nothing has
  // written yet; a read of object 9 in another task must not match.
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId Reader = TB.addThread("reader");
  TaskId Deref = TB.addThread("deref");
  TaskId Branch = TB.addThread("branch");
  TaskId Exit = TB.addThread("exit");
  TaskId Release = TB.addThread("release");
  TB.begin(Reader).ptrRead(Reader, 5, 9, M, 0);
  TB.begin(Deref).deref(Deref, 9, DerefKind::Invoke, M, 1);
  TB.begin(Branch).branch(Branch, BranchKind::IfEqz, 9, M, 1, 4);
  // A stray exit or release pops nothing; the stacks still work after.
  TB.begin(Exit).methodExit(Exit, M, 100).ptrWrite(Exit, 6, 0, M, 2);
  TB.methodEnter(Exit, M, 101).ptrWrite(Exit, 6, 0, M, 3);
  TB.begin(Release).lockRelease(Release, 3).ptrWrite(Release, 7, 0, M, 4);
  TB.lockAcquire(Release, 4).ptrWrite(Release, 7, 0, M, 5);
  for (TaskId T : {Reader, Deref, Branch, Exit, Release})
    TB.end(T);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  EXPECT_TRUE(Db.Uses.empty());
  EXPECT_EQ(Db.UnmatchedDerefs, 1u);
  EXPECT_EQ(Db.UnmatchedReads, 1u);
  ASSERT_EQ(Db.Branches.size(), 1u);
  EXPECT_FALSE(Db.Branches[0].Var.isValid());
  ASSERT_EQ(Db.Frees.size(), 4u);
  EXPECT_EQ(Db.Frees[0].Frame, 0u);
  EXPECT_EQ(Db.Frees[1].Frame, 101u);
  EXPECT_TRUE(Db.Frees[2].Lockset.empty());
  EXPECT_EQ(Db.Frees[3].Lockset, (std::vector<uint32_t>{4}));
}

TEST(AccessesTest, IdleTasksBetweenAccessorsChangeNoField) {
  TwoAccessors Plain = buildTwoAccessors(false);
  TwoAccessors Busy = buildTwoAccessors(true);
  ASSERT_EQ(Plain.Records.size(), Busy.Records.size());
  ASSERT_GT(Busy.T.numTasks(), Plain.T.numTasks());
  std::unordered_map<uint32_t, uint32_t> Moved; // plain record -> busy
  for (size_t I = 0; I != Plain.Records.size(); ++I)
    Moved[Plain.Records[I]] = Busy.Records[I];
  auto task = [&](TaskId T) { return T == Plain.A ? Busy.A : Busy.B; };
  TaskIndex PlainIndex(Plain.T), BusyIndex(Busy.T);
  AccessDb Want = extractAccesses(Plain.T, PlainIndex);
  AccessDb Got = extractAccesses(Busy.T, BusyIndex);

  auto same = [&](const std::vector<PtrAccess> &W,
                  const std::vector<PtrAccess> &G, bool Uses) {
    ASSERT_EQ(W.size(), G.size());
    for (size_t I = 0; I != W.size(); ++I) {
      SCOPED_TRACE(I);
      EXPECT_EQ(Moved.at(W[I].Record), G[I].Record);
      EXPECT_EQ(task(W[I].Task), G[I].Task);
      EXPECT_EQ(W[I].Var, G[I].Var);
      EXPECT_EQ(W[I].Method, G[I].Method);
      EXPECT_EQ(W[I].Pc, G[I].Pc);
      EXPECT_EQ(W[I].Frame, G[I].Frame);
      EXPECT_EQ(Uses ? Moved.at(W[I].DerefRecord) : W[I].DerefRecord,
                G[I].DerefRecord);
      EXPECT_EQ(W[I].Lockset, G[I].Lockset);
    }
  };
  ASSERT_EQ(Want.Uses.size(), 2u);
  same(Want.Uses, Got.Uses, true);
  same(Want.Frees, Got.Frees, false);
  same(Want.Allocs, Got.Allocs, false);
  ASSERT_EQ(Want.Branches.size(), 1u);
  ASSERT_EQ(Got.Branches.size(), 1u);
  const GuardBranch &W = Want.Branches[0], &G = Got.Branches[0];
  EXPECT_EQ(Moved.at(W.Record), G.Record);
  EXPECT_EQ(task(W.Task), G.Task);
  EXPECT_EQ(W.Kind, G.Kind);
  EXPECT_EQ(W.Var, G.Var);
  EXPECT_EQ(W.Method, G.Method);
  EXPECT_EQ(W.Pc, G.Pc);
  EXPECT_EQ(W.TargetPc, G.TargetPc);
  EXPECT_EQ(W.Frame, G.Frame);
  EXPECT_EQ(Want.UnmatchedReads, Got.UnmatchedReads);
  EXPECT_EQ(Want.UnmatchedDerefs, Got.UnmatchedDerefs);
}

TEST(AccessesTest, BranchWithUnknownObjectHasNoVar) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 32);
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.branch(T1, BranchKind::IfNez, 9, M, 1, 6); // no prior read of 9
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  ASSERT_EQ(Db.Branches.size(), 1u);
  EXPECT_FALSE(Db.Branches[0].Var.isValid());
}

} // namespace
