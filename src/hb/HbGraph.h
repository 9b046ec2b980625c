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

#include <algorithm>
#include <cassert>
#include <functional>
#include <span>
#include <vector>

namespace cafa {

/// Returns true if \p Kind forms a node in the happens-before graph.
bool isRelevantOp(OpKind Kind);

/// One happens-before edge, as queued by addEdge().
struct HbEdge {
  NodeId From;
  NodeId To;
};

/// The graph structure (nodes + adjacency).  Rule evaluation and
/// reachability live in separate classes.
///
/// Layout: flat offset arrays (CSR), not a heap vector per node or
/// task.  A task's nodes are one slice of a node-id array, and a node's
/// successors one slice of a target array.  The constructor lays down
/// the program-order successors; every later edge is queued by
/// addEdge() and folded in by foldEdges(), one batch at a time (the
/// base rules, a checkpoint replay, one fixpoint round), after the
/// node's earlier successors.  A node's successors are therefore in
/// the order their edges were added.
class HbGraph {
public:
  explicit HbGraph(const Trace &T);

  size_t numNodes() const { return NodeRecords.size(); }
  /// Edges accepted so far, folded or not.
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
  std::span<const NodeId> taskNodes(TaskId Task) const {
    return {TaskNodeIds.data() + TaskStart[Task.index()],
            TaskNodeIds.data() + TaskStart[Task.index() + 1]};
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

  /// Does record \p A happen before record \p B, given \p Reaches(U, V)
  /// on nodes?  Within a task, record order; across tasks, whether the
  /// first node at or after A reaches the last node at or before B.
  template <typename ReachesFn>
  bool happensBefore(uint32_t A, uint32_t B, ReachesFn Reaches) const {
    if (A == B)
      return false;
    if (T.record(A).Task == T.record(B).Task)
      return A < B; // a task's records ascend in record order
    NodeId P = firstNodeAtOrAfter(A);
    NodeId Q = lastNodeAtOrBefore(B);
    return P.isValid() && Q.isValid() && Reaches(P, Q);
  }

  /// Queues edge From -> To for the next foldEdges() and returns true;
  /// ignores duplicates lazily (callers dedup via reachability).  Edges
  /// violating the forward-in-record-order invariant (possible with
  /// salvaged traces that contradict their own linearization) are
  /// dropped and counted instead of added, returning false -- trace
  /// order is ground truth, and a missing edge is the conservative
  /// direction for detection.
  bool addEdge(NodeId From, NodeId To);

  /// Folds the queued edges into the successor arrays, each after its
  /// source's earlier successors and in the order it was added.  One
  /// O(N + E) merge per batch.
  void foldEdges();

  /// Adds \p Edges and folds them in at once, like a queued batch: for a
  /// batch the caller holds itself, every edge forward in record order.
  /// Nothing may be queued.
  void foldEdges(std::span<const HbEdge> Edges);

  /// Edges addEdge() refused because they contradicted trace order.
  size_t numRejectedEdges() const { return RejectedEdgeCount; }

  /// Successor node ids of \p Node.  Every queued edge must have been
  /// folded in first.
  std::span<const uint32_t> successors(NodeId Node) const {
    assert(Unfolded.empty() && "successors read with unfolded edges");
    return {SuccTargets.data() + SuccStart[Node.index()],
            SuccTargets.data() + SuccStart[Node.index() + 1]};
  }

  /// Bytes every table holds (their capacity).
  size_t memoryBytes() const;

  const Trace &trace() const { return T; }

private:
  void fold(std::span<const HbEdge> Edges);

  const Trace &T;
  /// Node -> record index (ascending; node ids are in record order).
  std::vector<uint32_t> NodeRecords;
  /// Record index -> node id or 0xFFFFFFFF.
  std::vector<uint32_t> RecordNodes;
  /// Task -> its first slot in TaskNodeIds (numTasks + 1 offsets);
  /// TaskNodeIds holds every task's nodes, task after task.
  std::vector<uint32_t> TaskStart;
  std::vector<NodeId> TaskNodeIds;
  std::vector<TaskId> NodeTasks;
  std::vector<uint32_t> NodePos;
  std::vector<NodeId> BeginNodes;
  std::vector<NodeId> EndNodes;
  /// Node -> its first slot in SuccTargets (numNodes + 1 offsets).
  std::vector<uint32_t> SuccStart;
  std::vector<uint32_t> SuccTargets;
  /// Accepted edges not yet folded into the successor arrays.
  std::vector<HbEdge> Unfolded;
  size_t EdgeCount = 0;
  size_t RejectedEdgeCount = 0;
};

/// The in-edges a forward pass joins at each node besides program order:
/// every edge between two tasks (one inside a task is implied by program
/// order).  The pass calls forEach() for every node in id order; edges
/// wait in a heap keyed by target from the visit of their source on, so
/// only the edges spanning the current node are held.
class CrossInEdges {
public:
  explicit CrossInEdges(const HbGraph &G) : G(G) {}

  /// Calls \p Fn with the source of every edge into \p V, ascending,
  /// then queues V's own out-edges.
  template <typename FnT> void forEach(NodeId V, FnT Fn) {
    while (!Pending.empty() && (Pending.front() >> 32) == V.value()) {
      Fn(NodeId(static_cast<uint32_t>(Pending.front())));
      std::pop_heap(Pending.begin(), Pending.end(), std::greater<>());
      Pending.pop_back();
    }
    for (uint32_t S : G.successors(V))
      if (G.taskOfNode(NodeId(S)) != G.taskOfNode(V)) {
        Pending.push_back(uint64_t(S) << 32 | V.value());
        std::push_heap(Pending.begin(), Pending.end(), std::greater<>());
      }
  }

private:
  const HbGraph &G;
  std::vector<uint64_t> Pending; ///< min-heap of target << 32 | source
};

} // namespace cafa

#endif // CAFA_HB_HBGRAPH_H
