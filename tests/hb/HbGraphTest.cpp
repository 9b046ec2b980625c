//===- tests/hb/HbGraphTest.cpp -----------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/HbGraph.h"

#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

TEST(HbGraphTest, OnlyRelevantOpsBecomeNodes) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId T1 = TB.addThread("t");
  TaskId E1 = TB.addEvent("e", Q);
  TB.begin(T1);          // node
  TB.read(T1, 0);        // not a node
  TB.ptrRead(T1, 1, 9);  // not a node
  TB.send(T1, E1, 0);    // node
  TB.end(T1);            // node
  TB.begin(E1).end(E1);  // 2 nodes
  Trace T = TB.take();
  HbGraph G(T);
  EXPECT_EQ(G.numNodes(), 5u);
  EXPECT_FALSE(G.nodeForRecord(1).isValid()); // the scalar read
  EXPECT_TRUE(G.nodeForRecord(3).isValid());  // the send
  EXPECT_EQ(G.taskNodes(T1).size(), 3u);
  EXPECT_EQ(G.taskNodes(E1).size(), 2u);
}

TEST(HbGraphTest, RelevantOpPredicate) {
  EXPECT_TRUE(isRelevantOp(OpKind::TaskBegin));
  EXPECT_TRUE(isRelevantOp(OpKind::Send));
  EXPECT_TRUE(isRelevantOp(OpKind::IpcRecv));
  EXPECT_FALSE(isRelevantOp(OpKind::Read));
  EXPECT_FALSE(isRelevantOp(OpKind::PtrWrite));
  EXPECT_FALSE(isRelevantOp(OpKind::Branch));
  EXPECT_FALSE(isRelevantOp(OpKind::MethodEnter));
  EXPECT_FALSE(isRelevantOp(OpKind::LockAcquire));
}

TEST(HbGraphTest, NeighborLookups) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t");
  TB.begin(T1);           // record 0, node
  TB.read(T1, 0);         // record 1
  TB.read(T1, 1);         // record 2
  TB.notify(T1, 0);       // record 3, node
  TB.read(T1, 2);         // record 4
  TB.end(T1);             // record 5, node
  Trace T = TB.take();
  HbGraph G(T);

  // First at-or-after: a relevant record maps to itself.
  EXPECT_EQ(G.recordOfNode(G.firstNodeAtOrAfter(3)), 3u);
  // A memory op maps forward to the next relevant node.
  EXPECT_EQ(G.recordOfNode(G.firstNodeAtOrAfter(1)), 3u);
  EXPECT_EQ(G.recordOfNode(G.firstNodeAtOrAfter(4)), 5u);
  // Last at-or-before maps backward.
  EXPECT_EQ(G.recordOfNode(G.lastNodeAtOrBefore(4)), 3u);
  EXPECT_EQ(G.recordOfNode(G.lastNodeAtOrBefore(1)), 0u);
  EXPECT_EQ(G.recordOfNode(G.lastNodeAtOrBefore(3)), 3u);
}

TEST(HbGraphTest, BeginEndNodesAndTaskPositions) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t1");
  TaskId T2 = TB.addThread("t2");
  TB.begin(T1);
  TB.begin(T2);
  TB.end(T2);
  // T1 never ends (live at cutoff).
  Trace T = TB.take();
  HbGraph G(T);
  EXPECT_TRUE(G.beginNode(T1).isValid());
  EXPECT_FALSE(G.endNode(T1).isValid());
  EXPECT_TRUE(G.endNode(T2).isValid());
  NodeId B2 = G.beginNode(T2);
  EXPECT_EQ(G.taskOfNode(B2), T2);
  EXPECT_EQ(G.posOfNode(B2), 0u);
  EXPECT_EQ(G.posOfNode(G.endNode(T2)), 1u);
}

TEST(HbGraphTest, ProgramOrderEdgesChainTaskNodes) {
  TraceBuilder TB;
  TaskId T1 = TB.addThread("t");
  TB.begin(T1).notify(T1, 0).end(T1);
  Trace T = TB.take();
  HbGraph G(T);
  // begin -> notify -> end: exactly 2 program-order edges.
  EXPECT_EQ(G.numEdges(), 2u);
  NodeId Begin = G.beginNode(T1);
  ASSERT_EQ(G.successors(Begin).size(), 1u);
  EXPECT_EQ(G.recordOfNode(NodeId(G.successors(Begin)[0])), 1u);
}

} // namespace
