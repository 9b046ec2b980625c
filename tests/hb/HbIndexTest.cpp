//===- tests/hb/HbIndexTest.cpp -----------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Rule-by-rule unit tests of the causality model at record granularity.
//
//===----------------------------------------------------------------------===//

#include "hb/HbIndex.h"

#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

HbIndex build(const Trace &T, const TaskIndex &Index,
              HbOptions Opt = HbOptions()) {
  return HbIndex(T, Index, Opt);
}

TEST(HbIndexTest, ProgramOrderWithinTask) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);
  TB.read(T1, 0);
  uint32_t R1 = TB.lastRecord();
  TB.write(T1, 1);
  uint32_t R2 = TB.lastRecord();
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_TRUE(Hb.happensBefore(R1, R2));
  EXPECT_FALSE(Hb.happensBefore(R2, R1));
  EXPECT_FALSE(Hb.happensBefore(R1, R1));
}

TEST(HbIndexTest, NoOrderBetweenLooperEventsByDefault) {
  // Two non-external events processed sequentially with no edges: the
  // defining relaxation of the model.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId Sender1 = TB.addThread("s1");
  TaskId Sender2 = TB.addThread("s2");
  TaskId E1 = TB.addEvent("e1", Q);
  TaskId E2 = TB.addEvent("e2", Q);
  TB.begin(Sender1).send(Sender1, E1, 0).end(Sender1);
  TB.begin(Sender2).send(Sender2, E2, 0).end(Sender2);
  TB.begin(E1);
  TB.read(E1, 0);
  uint32_t R1 = TB.lastRecord();
  TB.end(E1);
  TB.begin(E2);
  TB.write(E2, 0);
  uint32_t R2 = TB.lastRecord();
  TB.end(E2);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_FALSE(Hb.ordered(R1, R2));
  EXPECT_FALSE(Hb.taskOrdered(E1, E2));
}

TEST(HbIndexTest, ConventionalModelTotallyOrdersLooperEvents) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId S1 = TB.addThread("s1");
  TaskId S2 = TB.addThread("s2");
  TaskId E1 = TB.addEvent("e1", Q);
  TaskId E2 = TB.addEvent("e2", Q);
  TB.begin(S1).send(S1, E1, 0).end(S1);
  TB.begin(S2).send(S2, E2, 0).end(S2);
  TB.begin(E1).end(E1);
  TB.begin(E2).end(E2);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbOptions Opt;
  Opt.Model = OrderingModel::Conventional;
  HbIndex Hb = build(T, Index, Opt);
  EXPECT_TRUE(Hb.taskOrdered(E1, E2));
  EXPECT_FALSE(Hb.taskOrdered(E2, E1));
  EXPECT_GT(Hb.ruleStats().ConventionalOrderEdges, 0u);
}

TEST(HbIndexTest, ForkJoinRule) {
  TraceBuilder TB;
  TaskId Parent = TB.addThread("parent");
  TaskId Child = TB.addThread("child");
  TB.begin(Parent);
  TB.write(Parent, 0);
  uint32_t PreFork = TB.lastRecord();
  TB.fork(Parent, Child);
  TB.begin(Child);
  TB.read(Child, 0);
  uint32_t InChild = TB.lastRecord();
  TB.end(Child);
  TB.join(Parent, Child);
  TB.read(Parent, 0);
  uint32_t PostJoin = TB.lastRecord();
  TB.end(Parent);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_TRUE(Hb.happensBefore(PreFork, InChild));
  EXPECT_TRUE(Hb.happensBefore(InChild, PostJoin));
  EXPECT_FALSE(Hb.happensBefore(PostJoin, InChild));
}

TEST(HbIndexTest, NotifyWaitRule) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("notifier");
  TaskId T2 = TB.addThread("waiter");
  TB.begin(T1).begin(T2);
  TB.write(T1, 5);
  uint32_t PreNotify = TB.lastRecord();
  TB.notify(T1, 0);
  TB.wait(T2, 0);
  TB.read(T2, 5);
  uint32_t PostWait = TB.lastRecord();
  TB.end(T1).end(T2);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_TRUE(Hb.happensBefore(PreNotify, PostWait));
  EXPECT_FALSE(Hb.happensBefore(PostWait, PreNotify));
  EXPECT_GT(Hb.ruleStats().NotifyWaitEdges, 0u);
}

TEST(HbIndexTest, NotifyWaitDifferentMonitorsUnordered) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("notifier");
  TaskId T2 = TB.addThread("waiter");
  TB.begin(T1).begin(T2);
  TB.notify(T1, 0);
  uint32_t Notify = TB.lastRecord();
  TB.wait(T2, 1); // different monitor
  uint32_t Wait = TB.lastRecord();
  TB.end(T1).end(T2);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_FALSE(Hb.ordered(Notify, Wait));
}

TEST(HbIndexTest, ListenerRule) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  ListenerId L = TB.addListener("l");
  TaskId T1 = TB.addThread("registrar");
  TaskId E1 = TB.addEvent("cb", Q, 0, false, /*External=*/true);
  TB.begin(T1);
  TB.registerListener(T1, L);
  uint32_t Reg = TB.lastRecord();
  TB.begin(E1);
  TB.performListener(E1, L);
  TB.read(E1, 0);
  uint32_t InEvent = TB.lastRecord();
  TB.end(E1);
  TB.end(T1);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_TRUE(Hb.happensBefore(Reg, InEvent));

  // Without the listener rule, no order.
  HbOptions Opt;
  Opt.EnableListenerRule = false;
  HbIndex Hb2 = build(T, Index, Opt);
  EXPECT_FALSE(Hb2.happensBefore(Reg, InEvent));
}

TEST(HbIndexTest, SendRule) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId T1 = TB.addThread("sender");
  TaskId E1 = TB.addEvent("e", Q, 10);
  TB.begin(T1);
  TB.write(T1, 0);
  uint32_t PreSend = TB.lastRecord();
  TB.send(T1, E1, 10);
  TB.read(T1, 1);
  uint32_t PostSend = TB.lastRecord();
  TB.end(T1);
  TB.begin(E1);
  TB.read(E1, 0);
  uint32_t InEvent = TB.lastRecord();
  TB.end(E1);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_TRUE(Hb.happensBefore(PreSend, InEvent));
  // Operations after the send are not ordered with the event.
  EXPECT_FALSE(Hb.ordered(PostSend, InEvent));
}

TEST(HbIndexTest, ExternalInputRuleChainsExternalEvents) {
  TraceBuilder TB;
  QueueId Q1 = TB.addQueue("main");
  QueueId Q2 = TB.addQueue("bg");
  TaskId E1 = TB.addEvent("tap1", Q1, 0, false, true);
  TaskId E2 = TB.addEvent("sensor", Q2, 0, false, true);
  TaskId E3 = TB.addEvent("tap2", Q1, 0, false, true);
  TB.begin(E1).end(E1);
  TB.begin(E2).end(E2);
  TB.begin(E3).end(E3);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  // Chained across queues, transitively.
  EXPECT_TRUE(Hb.taskOrdered(E1, E2));
  EXPECT_TRUE(Hb.taskOrdered(E2, E3));
  EXPECT_TRUE(Hb.taskOrdered(E1, E3));
  EXPECT_FALSE(Hb.taskOrdered(E3, E1));

  HbOptions Opt;
  Opt.EnableExternalInputRule = false;
  HbIndex Hb2 = build(T, Index, Opt);
  EXPECT_FALSE(Hb2.taskOrdered(E1, E2));
}

TEST(HbIndexTest, IpcRule) {
  TraceBuilder TB;
  TaskId Caller = TB.addThread("caller");
  TaskId Handler = TB.addThread("rpc");
  TB.begin(Caller);
  TB.write(Caller, 0);
  uint32_t PreCall = TB.lastRecord();
  TB.ipcSend(Caller, 42);
  TB.end(Caller);
  TB.begin(Handler);
  TB.ipcRecv(Handler, 42);
  TB.read(Handler, 0);
  uint32_t InHandler = TB.lastRecord();
  TB.end(Handler);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_TRUE(Hb.happensBefore(PreCall, InHandler));
  EXPECT_EQ(Hb.ruleStats().IpcEdges, 1u);
}

TEST(HbIndexTest, MismatchedIpcTransactionsUnordered) {
  TraceBuilder TB;
  TaskId Caller = TB.addThread("caller");
  TaskId Handler = TB.addThread("rpc");
  TB.begin(Caller).ipcSend(Caller, 1);
  uint32_t Send = TB.lastRecord();
  TB.end(Caller);
  TB.begin(Handler).ipcRecv(Handler, 2);
  uint32_t Recv = TB.lastRecord();
  TB.end(Handler);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_FALSE(Hb.ordered(Send, Recv));
}

TEST(HbIndexTest, LocksContributeNoEdges) {
  // Two critical sections under one lock: the predictive relaxation
  // leaves them unordered (Section 3.1).
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.lockAcquire(T1, 0);
  TB.write(T1, 3);
  uint32_t W1 = TB.lastRecord();
  TB.lockRelease(T1, 0);
  TB.lockAcquire(T2, 0);
  TB.write(T2, 3);
  uint32_t W2 = TB.lastRecord();
  TB.lockRelease(T2, 0);
  TB.end(T1).end(T2);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_FALSE(Hb.ordered(W1, W2));
}

TEST(HbIndexTest, AtomicityDerivedOrderIsTransitiveAcrossEvents) {
  // e1 -> e2 by atomicity (via fork/begin path), then anything in e1
  // happens before anything in e2 at record level.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId E1 = TB.addEvent("e1", Q, 0, false, true);
  TaskId E2 = TB.addEvent("e2", Q, 0, false, true);
  TaskId Th = TB.addThread("th");
  ListenerId L = TB.addListener("l");
  TB.begin(E1);
  TB.read(E1, 9);
  uint32_t InE1 = TB.lastRecord();
  TB.fork(E1, Th).end(E1);
  TB.begin(Th).registerListener(Th, L);
  TB.begin(E2).performListener(E2, L);
  TB.write(E2, 9);
  uint32_t InE2 = TB.lastRecord();
  TB.end(E2);
  TB.end(Th);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbOptions Opt;
  Opt.EnableExternalInputRule = false; // isolate atomicity
  HbIndex Hb = build(T, Index, Opt);
  EXPECT_TRUE(Hb.happensBefore(InE1, InE2));
}

TEST(HbIndexTest, TaskOrderedIsIrreflexiveAndAntisymmetric) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId E1 = TB.addEvent("e1", Q, 0, false, true);
  TaskId E2 = TB.addEvent("e2", Q, 0, false, true);
  TB.begin(E1).end(E1);
  TB.begin(E2).end(E2);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_FALSE(Hb.taskOrdered(E1, E1));
  EXPECT_TRUE(Hb.taskOrdered(E1, E2));
  EXPECT_FALSE(Hb.taskOrdered(E2, E1));
}

TEST(HbIndexTest, MemoryBytesCountsTheGraphTablesAndTheOracle) {
  // The graph alone keeps five 4-byte tables per node (record, task,
  // position, slot in its task's list, first successor), one per record
  // (its node) and three per task (first slot, begin, end); the oracle
  // comes on top.
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId Poster = TB.addThread("poster");
  TB.begin(Poster);
  std::vector<TaskId> Events;
  for (int I = 0; I != 50; ++I) {
    Events.push_back(TB.addEvent("e" + std::to_string(I), Q));
    TB.send(Poster, Events.back());
  }
  TB.end(Poster);
  for (TaskId E : Events) {
    TB.begin(E);
    for (uint32_t V = 0; V != 10; ++V)
      TB.read(E, V);
    TB.end(E);
  }
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  const size_t Floor = Hb.graph().numNodes() * 20 + T.numRecords() * 4 +
                       T.numTasks() * 12;
  EXPECT_GE(Hb.memoryBytes(), Floor + Hb.degradation().MeasuredReachBytes);
}

TEST(HbIndexTest, RecordsWithoutRelevantNeighborsUnordered) {
  // A task whose only records are memory ops after its last relevant
  // node cannot be ordered with another task.
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1).begin(T2);
  TB.read(T1, 0);
  uint32_t R1 = TB.lastRecord();
  TB.write(T2, 0);
  uint32_t R2 = TB.lastRecord();
  // No ends: tasks still live at trace cutoff.
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb = build(T, Index);
  EXPECT_FALSE(Hb.ordered(R1, R2));
}

} // namespace
