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
      PerTaskNodes(T.numTasks()), BeginNodes(T.numTasks()),
      EndNodes(T.numTasks()) {
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
       ++I) {
    const TraceRecord &Rec = T.record(I);
    if (!isRelevantOp(Rec.Kind))
      continue;
    NodeId Node(static_cast<uint32_t>(NodeRecords.size()));
    NodeRecords.push_back(I);
    RecordNodes[I] = Node.value();
    NodeTasks.push_back(Rec.Task);
    NodePos.push_back(
        static_cast<uint32_t>(PerTaskNodes[Rec.Task.index()].size()));
    PerTaskNodes[Rec.Task.index()].push_back(Node);
    if (Rec.Kind == OpKind::TaskBegin)
      BeginNodes[Rec.Task.index()] = Node;
    else if (Rec.Kind == OpKind::TaskEnd)
      EndNodes[Rec.Task.index()] = Node;
  }
  Successors.resize(NodeRecords.size());

  // Program-order chain within each task.
  for (const std::vector<NodeId> &Nodes : PerTaskNodes)
    for (size_t I = 0; I + 1 < Nodes.size(); ++I)
      addEdge(Nodes[I], Nodes[I + 1]);
}

NodeId HbGraph::firstNodeAtOrAfter(uint32_t RecordIndex) const {
  const TraceRecord &Rec = T.record(RecordIndex);
  const std::vector<NodeId> &Nodes = PerTaskNodes[Rec.Task.index()];
  // Node ids are assigned in record order, so record indices of a task's
  // nodes are ascending; binary search on the underlying record index.
  auto It = std::lower_bound(
      Nodes.begin(), Nodes.end(), RecordIndex,
      [this](NodeId N, uint32_t R) { return NodeRecords[N.index()] < R; });
  return It == Nodes.end() ? NodeId::invalid() : *It;
}

NodeId HbGraph::lastNodeAtOrBefore(uint32_t RecordIndex) const {
  const TraceRecord &Rec = T.record(RecordIndex);
  const std::vector<NodeId> &Nodes = PerTaskNodes[Rec.Task.index()];
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
  Successors[From.index()].push_back(To.value());
  ++EdgeCount;
  return true;
}
