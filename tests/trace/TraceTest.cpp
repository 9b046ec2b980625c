//===- tests/trace/TraceTest.cpp ----------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "trace/TraceBuilder.h"
#include "trace/TraceStats.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

TEST(TraceRecordTest, OpKindNamesRoundTrip) {
  for (unsigned I = 0; I != NumOpKinds; ++I) {
    OpKind Kind = static_cast<OpKind>(I);
    OpKind Parsed;
    ASSERT_TRUE(opKindFromName(opKindName(Kind), Parsed))
        << "name " << opKindName(Kind);
    EXPECT_EQ(Parsed, Kind);
  }
  OpKind Unused;
  EXPECT_FALSE(opKindFromName("not-a-kind", Unused));
}

TEST(TraceRecordTest, FreeAndAllocationPredicates) {
  TraceRecord Rec;
  Rec.Kind = OpKind::PtrWrite;
  Rec.Arg1 = 0;
  EXPECT_TRUE(Rec.isFree());
  EXPECT_FALSE(Rec.isAllocation());
  Rec.Arg1 = 17;
  EXPECT_FALSE(Rec.isFree());
  EXPECT_TRUE(Rec.isAllocation());
  Rec.Kind = OpKind::PtrRead;
  Rec.Arg1 = 0;
  EXPECT_FALSE(Rec.isFree());
}

TEST(TraceRecordTest, TypedAccessors) {
  TraceRecord Rec;
  Rec.Kind = OpKind::Send;
  Rec.Arg0 = 12;
  Rec.Arg1 = 250;
  Rec.Arg2 = 3;
  EXPECT_EQ(Rec.targetTask(), TaskId(12));
  EXPECT_EQ(Rec.delayMs(), 250u);
  EXPECT_EQ(Rec.queue(), QueueId(3));

  Rec.Kind = OpKind::Branch;
  Rec.Arg0 = static_cast<uint64_t>(BranchKind::IfNez);
  Rec.Arg1 = 77;
  Rec.Arg2 = 21;
  EXPECT_EQ(Rec.branchKind(), BranchKind::IfNez);
  EXPECT_EQ(Rec.branchObject(), ObjectId(77));
  EXPECT_EQ(Rec.branchTargetPc(), 21u);
}

TEST(TraceTest, NamesForUnnamedEntities) {
  Trace T;
  TaskInfo Info;
  TaskId Task = T.addTask(Info);
  EXPECT_EQ(T.taskName(Task), "<task 0>");
  EXPECT_EQ(T.taskName(TaskId::invalid()), "<invalid task>");
  EXPECT_EQ(T.methodName(MethodId::invalid()), "<invalid method>");
}

TEST(TraceTest, NumEventsCountsOnlyEvents) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TB.addThread("t1");
  TB.addEvent("e1", Q);
  TB.addEvent("e2", Q);
  EXPECT_EQ(TB.trace().numEvents(), 2u);
}

TEST(TraceStatsTest, CountsKindsAndTasks) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId T1 = TB.addThread("t1");
  TaskId E1 = TB.addEvent("e1", Q, 5, false, false);
  TaskId E2 = TB.addEvent("e2", Q, 0, true, true);
  TB.begin(T1).send(T1, E1, 5).sendAtFront(T1, E2);
  TB.begin(E2).ptrWrite(E2, 0, 0).end(E2);
  TB.begin(E1).ptrWrite(E1, 0, 9).end(E1);
  TB.end(T1);
  TraceStats Stats = computeTraceStats(TB.trace());
  EXPECT_EQ(Stats.NumEvents, 2u);
  EXPECT_EQ(Stats.NumThreads, 1u);
  EXPECT_EQ(Stats.NumExternalEvents, 1u);
  EXPECT_EQ(Stats.NumFrontEvents, 1u);
  EXPECT_EQ(Stats.NumFrees, 1u);
  EXPECT_EQ(Stats.NumAllocations, 1u);
  EXPECT_EQ(Stats.EventsPerQueue.at(Q.index()), 2u);
  EXPECT_EQ(Stats.KindCounts[static_cast<unsigned>(OpKind::Send)], 1u);
  EXPECT_EQ(Stats.KindCounts[static_cast<unsigned>(OpKind::SendAtFront)],
            1u);
  EXPECT_GT(Stats.EndTime, 0u);
  std::string Render = renderTraceStats(Stats);
  EXPECT_NE(Render.find("events: 2"), std::string::npos);
}

} // namespace
