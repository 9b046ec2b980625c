//===- hb/HbGraph.cpp - Happens-before graph over a trace -----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/HbGraph.h"

#include <algorithm>
#include <cassert>

using namespace cafa;

bool cafa::isRelevantOp(OpKind Kind) {
  switch (Kind) {
  case OpKind::TaskBegin:
  case OpKind::TaskEnd:
  case OpKind::Send:
  case OpKind::SendAtFront:
  case OpKind::Fork:
  case OpKind::Join:
  case OpKind::Wait:
  case OpKind::Notify:
  case OpKind::RegisterListener:
  case OpKind::PerformListener:
  case OpKind::IpcSend:
  case OpKind::IpcRecv:
    return true;
  default:
    return false;
  }
}

HbGraph::HbGraph(const Trace &T)
    : T(T), RecordNodes(T.numRecords(), 0xFFFFFFFFu),
      TaskStart(T.numTasks() + 1, 0), BeginNodes(T.numTasks()),
      EndNodes(T.numTasks()) {
  // One record walk numbers the nodes and counts each task's nodes
  // (TaskStart[t + 1], prefix-summed below): a node's position in its
  // task is the count before it.
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
       ++I) {
    const TraceRecord &Rec = T.record(I);
    if (!isRelevantOp(Rec.Kind))
      continue;
    NodeId Node(static_cast<uint32_t>(NodeRecords.size()));
    NodeRecords.push_back(I);
    RecordNodes[I] = Node.value();
    NodeTasks.push_back(Rec.Task);
    NodePos.push_back(TaskStart[Rec.Task.index() + 1]++);
    if (Rec.Kind == OpKind::TaskBegin)
      BeginNodes[Rec.Task.index()] = Node;
    else if (Rec.Kind == OpKind::TaskEnd)
      EndNodes[Rec.Task.index()] = Node;
  }
  for (size_t Task = 0; Task != T.numTasks(); ++Task)
    TaskStart[Task + 1] += TaskStart[Task];

  // One node walk fills the task slices and lays down program order:
  // every node but its task's last has one successor, the next node of
  // its task.
  const uint32_t N = static_cast<uint32_t>(numNodes());
  TaskNodeIds.resize(N);
  SuccStart.resize(N + 1);
  for (uint32_t Node = 0; Node != N; ++Node) {
    uint32_t Task = NodeTasks[Node].index();
    uint32_t Slot = TaskStart[Task] + NodePos[Node];
    TaskNodeIds[Slot] = NodeId(Node);
    SuccStart[Node + 1] = SuccStart[Node] + (Slot + 1 < TaskStart[Task + 1]);
  }
  SuccTargets.resize(SuccStart[N]);
  for (uint32_t Node = 0; Node != N; ++Node)
    if (SuccStart[Node] != SuccStart[Node + 1])
      SuccTargets[SuccStart[Node]] =
          taskNodes(NodeTasks[Node])[NodePos[Node] + 1].value();
  EdgeCount = SuccTargets.size();
}

NodeId HbGraph::firstNodeAtOrAfter(uint32_t RecordIndex) const {
  std::span<const NodeId> Nodes = taskNodes(T.record(RecordIndex).Task);
  // Node ids are assigned in record order, so record indices of a task's
  // nodes are ascending; binary search on the underlying record index.
  auto It = std::lower_bound(
      Nodes.begin(), Nodes.end(), RecordIndex,
      [this](NodeId N, uint32_t R) { return NodeRecords[N.index()] < R; });
  return It == Nodes.end() ? NodeId::invalid() : *It;
}

NodeId HbGraph::lastNodeAtOrBefore(uint32_t RecordIndex) const {
  std::span<const NodeId> Nodes = taskNodes(T.record(RecordIndex).Task);
  auto It = std::upper_bound(
      Nodes.begin(), Nodes.end(), RecordIndex,
      [this](uint32_t R, NodeId N) { return R < NodeRecords[N.index()]; });
  return It == Nodes.begin() ? NodeId::invalid() : *(It - 1);
}

bool HbGraph::addEdge(NodeId From, NodeId To) {
  // Salvaged traces are untrusted input: damaged records can propose an
  // ordering that contradicts the observed linearization (a send logged
  // after its event's begin, a self-wait, an out-of-range replayed
  // checkpoint edge).  Trace order is the ground truth, so such edges
  // are dropped -- and since a missing happens-before edge only ever
  // *adds* race candidates, dropping is the conservative repair.
  if (!From.isValid() || !To.isValid() || From == To ||
      From.index() >= NodeRecords.size() ||
      To.index() >= NodeRecords.size() ||
      NodeRecords[From.index()] >= NodeRecords[To.index()]) {
    ++RejectedEdgeCount;
    return false;
  }
  Unfolded.push_back({From, To});
  ++EdgeCount;
  return true;
}

void HbGraph::foldEdges() {
  fold(Unfolded);
  Unfolded = {};
}

void HbGraph::foldEdges(std::span<const HbEdge> Edges) {
  assert(Unfolded.empty() && "a held batch folds alone");
  for (const HbEdge &E : Edges) {
    assert(E.From < E.To && E.To.index() < numNodes() &&
           NodeRecords[E.From.index()] < NodeRecords[E.To.index()]);
    (void)E;
  }
  EdgeCount += Edges.size();
  fold(Edges);
}

void HbGraph::fold(std::span<const HbEdge> Edges) {
  if (Edges.empty())
    return;
  // Batch[n]: the batch's edges out of node n, later the slot where the
  // next of them goes.
  const size_t N = numNodes();
  std::vector<uint32_t> Batch(N, 0);
  for (const HbEdge &E : Edges)
    ++Batch[E.From.index()];
  // Grow the targets in place, then walk the nodes down: each node's
  // old successors move up by the batch edges of the nodes below it,
  // and its own batch edges go right after them.
  const size_t Old = SuccTargets.size();
  SuccTargets.reserve(Old + Edges.size());
  SuccTargets.resize(Old + Edges.size());
  uint32_t Shift = static_cast<uint32_t>(Edges.size());
  for (size_t I = N; I-- > 0;) {
    uint32_t Lo = SuccStart[I], Hi = SuccStart[I + 1];
    Shift -= Batch[I];
    std::copy_backward(SuccTargets.begin() + Lo, SuccTargets.begin() + Hi,
                       SuccTargets.begin() + Hi + Shift);
    SuccStart[I + 1] = Hi + Shift + Batch[I];
    Batch[I] = Hi + Shift;
  }
  for (const HbEdge &E : Edges)
    SuccTargets[Batch[E.From.index()]++] = E.To.value();
}

size_t HbGraph::memoryBytes() const {
  return (NodeRecords.capacity() + RecordNodes.capacity() +
          TaskStart.capacity() + TaskNodeIds.capacity() +
          NodeTasks.capacity() + NodePos.capacity() + BeginNodes.capacity() +
          EndNodes.capacity() + SuccStart.capacity() +
          SuccTargets.capacity()) *
             sizeof(uint32_t) +
         Unfolded.capacity() * sizeof(HbEdge);
}
