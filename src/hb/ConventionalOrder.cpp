//===- hb/ConventionalOrder.cpp - Thread-based order by search ------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/ConventionalOrder.h"

using namespace cafa;

ConventionalOrder::ConventionalOrder(const HbGraph &G)
    : G(G), LooperNext(G.trace().numTasks()), Search(G) {
  const Trace &T = G.trace();
  // Node ids ascend in record order, so each queue's begin nodes arrive
  // in execution order.
  std::vector<TaskId> Last(T.numQueues());
  for (uint32_t I = 0, E = static_cast<uint32_t>(G.numNodes()); I != E; ++I) {
    NodeId Node(I);
    TaskId Task = G.taskOfNode(Node);
    if (G.beginNode(Task) != Node)
      continue;
    const TaskInfo &Info = T.taskInfo(Task);
    if (Info.Kind != TaskKind::Event || !Info.Queue.isValid())
      continue;
    TaskId &Prev = Last[Info.Queue.index()];
    if (Prev.isValid()) {
      NodeId End = G.endNode(Prev);
      if (End.isValid() && End.index() < Node.index())
        LooperNext[Prev.index()] = Node;
    }
    Prev = Task;
  }
}

bool ConventionalOrder::happensBefore(uint32_t A, uint32_t B) const {
  // P and Q lie on different tasks, so P != Q.
  return G.happensBefore(A, B, [&](NodeId P, NodeId Q) {
    return Search.run(
        P, Q, [&](NodeId From, NodeId To) { return sharedEdge(From, To); },
        [&](TaskId Task) { return LooperNext[Task.index()]; });
  });
}

bool ConventionalOrder::sharedEdge(NodeId From, NodeId To) const {
  const Trace &T = G.trace();
  OpKind Kind = T.record(G.recordOfNode(From)).Kind;
  if (Kind == OpKind::RegisterListener)
    return false;
  return Kind != OpKind::TaskEnd ||
         T.record(G.recordOfNode(To)).Kind != OpKind::TaskBegin;
}
