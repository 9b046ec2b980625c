//===- hb/ConventionalOrder.cpp - Thread-based order by search ------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/ConventionalOrder.h"

using namespace cafa;

ConventionalOrder::ConventionalOrder(const HbGraph &G)
    : G(G), LooperNext(G.trace().numTasks()),
      VisitedPos(G.trace().numTasks(), 0),
      VisitedVersion(G.trace().numTasks(), 0) {
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
  if (A == B)
    return false;
  const Trace &T = G.trace();
  if (T.record(A).Task == T.record(B).Task)
    return A < B; // a task's records ascend in record order
  NodeId P = G.firstNodeAtOrAfter(A);
  NodeId Q = G.lastNodeAtOrBefore(B);
  return P.isValid() && Q.isValid() && reaches(P, Q);
}

bool ConventionalOrder::sharedEdge(NodeId From, NodeId To) const {
  const Trace &T = G.trace();
  OpKind Kind = T.record(G.recordOfNode(From)).Kind;
  if (Kind == OpKind::RegisterListener)
    return false;
  return Kind != OpKind::TaskEnd ||
         T.record(G.recordOfNode(To)).Kind != OpKind::TaskBegin;
}

bool ConventionalOrder::reaches(NodeId From, NodeId To) const {
  // Every edge points forward in record order (node id order), so
  // nothing at or past To leads back to it.
  if (From.index() >= To.index())
    return false;
  ++Version;
  TaskId ToTask = G.taskOfNode(To);
  uint32_t ToPos = G.posOfNode(To);
  Ranges.clear();

  // Queues Node's task from Node on; true once that covers To.
  auto reach = [&](NodeId Node) {
    if (Node.index() > To.index())
      return false;
    TaskId Task = G.taskOfNode(Node);
    uint32_t Lo = G.posOfNode(Node);
    uint32_t Hi;
    if (VisitedVersion[Task.index()] == Version) {
      Hi = VisitedPos[Task.index()];
      if (Lo >= Hi)
        return false; // already covered
    } else {
      Hi = static_cast<uint32_t>(G.taskNodes(Task).size());
      VisitedVersion[Task.index()] = Version;
    }
    VisitedPos[Task.index()] = Lo;
    if (Task == ToTask && ToPos >= Lo && ToPos < Hi)
      return true;
    Ranges.push_back({Task, Lo, Hi});
    return false;
  };

  // From's own range: program order reaches the rest of its task.
  if (reach(From))
    return true;
  while (!Ranges.empty()) {
    Range R = Ranges.back();
    Ranges.pop_back();
    std::span<const NodeId> Nodes = G.taskNodes(R.Task);
    NodeId End = G.endNode(R.Task);
    for (uint32_t P = R.Lo; P != R.Hi && Nodes[P].index() < To.index(); ++P) {
      NodeId Node = Nodes[P];
      for (uint32_t S : G.successors(Node)) {
        NodeId Succ(S);
        // Program order stays inside the range being scanned.
        if (G.taskOfNode(Succ) == R.Task || !sharedEdge(Node, Succ))
          continue;
        if (reach(Succ))
          return true;
      }
      if (Node == End && LooperNext[R.Task.index()].isValid() &&
          reach(LooperNext[R.Task.index()]))
        return true;
    }
  }
  return false;
}
