//===- hb/HbGraph.h - Happens-before graph over a trace --------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The happens-before graph.  Nodes are the *relevant* operations of a
/// trace: task begin/end and every operation that can carry a cross-task
/// edge (send, sendAtFront, fork, join, wait, notify, register, perform,
/// ipc send/receive).  Memory accesses, branches, locks and method frames
/// are not nodes; a query about such a record is answered through the
/// nearest enclosing relevant nodes of its task, which is exact because a
/// task's relevant nodes are chained by program order.  This keeps the
/// node count proportional to the number of events rather than to the
/// number of instructions (Section 4.2 motivates moving away from
/// per-access vector clocks).
///
/// Invariant: every edge points forward in trace-record order, so the
/// graph is acyclic and record order is a topological order.  addEdge()
/// enforces this even against salvaged traces whose damaged records
/// contradict their own linearization -- contradicting edges are
/// rejected (counted in numRejectedEdges()), never inserted.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_HB_HBGRAPH_H
#define CAFA_HB_HBGRAPH_H

#include "support/Ids.h"
#include "trace/Trace.h"

#include <vector>

namespace cafa {

/// Returns true if \p Kind forms a node in the happens-before graph.
bool isRelevantOp(OpKind Kind);

/// The graph structure (nodes + adjacency).  Rule evaluation and
/// reachability live in separate classes.
class HbGraph {
public:
  explicit HbGraph(const Trace &T);

  size_t numNodes() const { return NodeRecords.size(); }
  size_t numEdges() const { return EdgeCount; }

  /// The trace record index a node stands for.
  uint32_t recordOfNode(NodeId Node) const {
    return NodeRecords[Node.index()];
  }

  /// The node for a record, or invalid if the record is not relevant.
  NodeId nodeForRecord(uint32_t RecordIndex) const {
    uint32_t V = RecordNodes[RecordIndex];
    return V == 0xFFFFFFFFu ? NodeId::invalid() : NodeId(V);
  }

  /// All nodes of \p Task in ascending task-local order.
  const std::vector<NodeId> &taskNodes(TaskId Task) const {
    return PerTaskNodes[Task.index()];
  }

  /// The task that performed \p Node's record.
  TaskId taskOfNode(NodeId Node) const { return NodeTasks[Node.index()]; }
  /// \p Node's position within taskNodes(taskOfNode(Node)).
  uint32_t posOfNode(NodeId Node) const { return NodePos[Node.index()]; }

  /// The TaskBegin node of \p Task (invalid if the task never began).
  NodeId beginNode(TaskId Task) const { return BeginNodes[Task.index()]; }
  /// The TaskEnd node of \p Task (invalid if the task never ended).
  NodeId endNode(TaskId Task) const { return EndNodes[Task.index()]; }

  /// First node of record's task at-or-after the record (for sources).
  NodeId firstNodeAtOrAfter(uint32_t RecordIndex) const;
  /// Last node of record's task at-or-before the record (for targets).
  NodeId lastNodeAtOrBefore(uint32_t RecordIndex) const;

  /// Adds edge From -> To and returns true; ignores duplicates lazily
  /// (callers dedup via reachability).  Edges violating the
  /// forward-in-record-order invariant (possible with salvaged traces
  /// that contradict their own linearization) are dropped and counted
  /// instead of added, returning false -- trace order is ground truth,
  /// and a missing edge is the conservative direction for detection.
  bool addEdge(NodeId From, NodeId To);

  /// Edges addEdge() refused because they contradicted trace order.
  size_t numRejectedEdges() const { return RejectedEdgeCount; }

  /// Successor node ids of \p Node.
  const std::vector<uint32_t> &successors(NodeId Node) const {
    return Successors[Node.index()];
  }

  const Trace &trace() const { return T; }

private:
  const Trace &T;
  /// Node -> record index (ascending; node ids are in record order).
  std::vector<uint32_t> NodeRecords;
  /// Record index -> node id or 0xFFFFFFFF.
  std::vector<uint32_t> RecordNodes;
  std::vector<std::vector<NodeId>> PerTaskNodes;
  std::vector<TaskId> NodeTasks;
  std::vector<uint32_t> NodePos;
  std::vector<NodeId> BeginNodes;
  std::vector<NodeId> EndNodes;
  std::vector<std::vector<uint32_t>> Successors;
  size_t EdgeCount = 0;
  size_t RejectedEdgeCount = 0;
};

} // namespace cafa

#endif // CAFA_HB_HBGRAPH_H
