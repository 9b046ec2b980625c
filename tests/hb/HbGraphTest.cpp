//===- tests/hb/HbGraphTest.cpp -----------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/HbGraph.h"

#include "support/Rng.h"
#include "trace/TraceBuilder.h"

#include "HbTestTraces.h"

#include <gtest/gtest.h>

#include <vector>

using namespace cafa;

namespace {

/// Three threads whose nodes interleave: begin, notify and end of t0,
/// t1, t2 in turn, so node 3k + i belongs to thread i.
Trace interleavedThreads() {
  TraceBuilder TB;
  std::vector<TaskId> Threads;
  for (int I = 0; I != 3; ++I)
    Threads.push_back(TB.addThread("t" + std::to_string(I)));
  for (TaskId T : Threads)
    TB.begin(T);
  for (TaskId T : Threads)
    TB.notify(T, 0);
  for (TaskId T : Threads)
    TB.end(T);
  return TB.take();
}

/// Every node's successors, as plain vectors.
std::vector<std::vector<uint32_t>> adjacency(const HbGraph &G) {
  std::vector<std::vector<uint32_t>> Out;
  for (uint32_t N = 0; N != G.numNodes(); ++N) {
    std::span<const uint32_t> S = G.successors(NodeId(N));
    Out.emplace_back(S.begin(), S.end());
  }
  return Out;
}

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

TEST(HbGraphTest, FoldedBatchesKeepInsertionOrder) {
  Trace T = interleavedThreads();
  HbGraph G(T);
  ASSERT_EQ(G.numNodes(), 9u);
  // Program order: 0->3->6, 1->4->7, 2->5->8.
  std::vector<std::vector<uint32_t>> Want = {{3}, {4}, {5}, {6}, {7},
                                             {8}, {},  {},  {}};
  EXPECT_EQ(adjacency(G), Want);

  // Each batch lands after the node's earlier successors, in the order
  // its edges were added, whatever their targets.
  auto add = [&](uint32_t From, uint32_t To) {
    ASSERT_TRUE(G.addEdge(NodeId(From), NodeId(To)));
    Want[From].push_back(To);
  };
  add(0, 8);
  add(0, 4);
  add(2, 7);
  add(1, 2);
  add(0, 5);
  EXPECT_EQ(G.numEdges(), 11u); // queued edges count before the fold
  G.foldEdges();
  EXPECT_EQ(adjacency(G), Want);

  add(6, 7); // a task's last node gains its first successor
  add(0, 1);
  add(5, 6);
  add(1, 8);
  G.foldEdges();
  EXPECT_EQ(adjacency(G), Want);
  EXPECT_EQ(G.numEdges(), 15u);
  G.foldEdges(); // nothing queued: nothing changes
  EXPECT_EQ(adjacency(G), Want);
}

TEST(HbGraphTest, FoldedBatchesMatchPerNodeAppendOnRandomGraphs) {
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    Trace T = randomLooperTrace(Seed * 7919 + 5, 150);
    HbGraph G(T);
    std::vector<std::vector<uint32_t>> Want = adjacency(G);
    uint32_t N = static_cast<uint32_t>(G.numNodes());
    ASSERT_GT(N, 1u);
    Rng R(Seed);
    for (int Batch = 0; Batch != 4; ++Batch) {
      for (size_t I = 0, E = R.below(3 * N); I != E; ++I) {
        uint32_t A = static_cast<uint32_t>(R.below(N));
        uint32_t B = static_cast<uint32_t>(R.below(N));
        if (A >= B)
          continue;
        ASSERT_TRUE(G.addEdge(NodeId(A), NodeId(B)));
        Want[A].push_back(B);
      }
      G.foldEdges();
      ASSERT_EQ(adjacency(G), Want) << "seed " << Seed << " batch " << Batch;
    }
  }
}

TEST(HbGraphTest, RejectedEdgesNeverAppearAndAreCounted) {
  Trace T = interleavedThreads();
  HbGraph G(T);
  std::vector<std::vector<uint32_t>> Want = adjacency(G);
  size_t Edges = G.numEdges();
  EXPECT_FALSE(G.addEdge(NodeId(4), NodeId(4)));            // self
  EXPECT_FALSE(G.addEdge(NodeId(5), NodeId(2)));            // backward
  EXPECT_FALSE(G.addEdge(NodeId::invalid(), NodeId(3)));    // invalid
  EXPECT_FALSE(G.addEdge(NodeId(3), NodeId::invalid()));
  EXPECT_FALSE(G.addEdge(NodeId(0), NodeId(9)));            // out of range
  EXPECT_FALSE(G.addEdge(NodeId(12), NodeId(40)));
  ASSERT_TRUE(G.addEdge(NodeId(1), NodeId(5)));
  Want[1].push_back(5);
  G.foldEdges();
  EXPECT_EQ(adjacency(G), Want);
  EXPECT_EQ(G.numRejectedEdges(), 6u);
  EXPECT_EQ(G.numEdges(), Edges + 1);
}

TEST(HbGraphTest, TaskNodesOfInterleavedTasksAscend) {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main");
  TaskId T0 = TB.addThread("t0");
  TaskId Idle = TB.addThread("never-begins");
  TaskId T1 = TB.addThread("t1");
  TaskId E0 = TB.addEvent("e0", Q);
  TB.begin(T0).begin(T1);
  TB.send(T1, E0, 0).read(T0, 1).notify(T0, 2);
  TB.begin(E0).wait(T1, 2).end(E0);
  TB.end(T1).end(T0);
  Trace T = TB.take();
  HbGraph G(T);
  EXPECT_TRUE(G.taskNodes(Idle).empty());
  size_t Seen = 0;
  for (uint32_t Task = 0; Task != T.numTasks(); ++Task) {
    std::span<const NodeId> Nodes = G.taskNodes(TaskId(Task));
    for (uint32_t P = 0; P != Nodes.size(); ++P) {
      EXPECT_EQ(G.taskOfNode(Nodes[P]), TaskId(Task));
      EXPECT_EQ(G.posOfNode(Nodes[P]), P);
      if (P) {
        EXPECT_LT(Nodes[P - 1], Nodes[P]);
      }
    }
    Seen += Nodes.size();
  }
  EXPECT_EQ(Seen, G.numNodes());
  EXPECT_EQ(G.taskNodes(T0).size(), 3u); // begin, notify, end
  EXPECT_EQ(G.taskNodes(T1).size(), 4u); // begin, send, wait, end
  EXPECT_EQ(G.taskNodes(E0).size(), 2u);
}

} // namespace
