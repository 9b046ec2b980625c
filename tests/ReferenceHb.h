//===- tests/ReferenceHb.h - The naive happens-before fixpoint -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ReferenceHb, the rule engine every HbIndex is pinned against: every
/// round rebuilds the transitive closure from scratch (the reference
/// ClosureReachability of ReferenceClosure.h) and re-evaluates every
/// atomicity and event-queue pair, with no round cap, covered runs or
/// row sweeps.  tests/hb/ReferenceEngineTest and the fuzz driver's
/// relation check both compare against it.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TESTS_REFERENCEHB_H
#define CAFA_TESTS_REFERENCEHB_H

#include "ReferenceClosure.h"

#include "hb/HbIndex.h"

#include <memory>
#include <utility>
#include <vector>

namespace cafa {

/// The naive fixpoint.  The base graph comes from an HbIndex with both
/// derived rule families off (it then runs no fixpoint), so the two
/// sides differ only in how they close the derived rules.
class ReferenceHb {
public:
  ReferenceHb(const Trace &T, const TaskIndex &Index) {
    HbOptions Base;
    Base.Reach = ReachMode::Bfs; // no fixpoint to serve: build nothing
    Base.Threads = 1;
    Base.EnableAtomicityRule = false;
    Base.EnableQueueRules = false;
    HbIndex BaseHb(T, Index, Base);
    G = std::make_unique<HbGraph>(BaseHb.graph());
    Closure = std::make_unique<ClosureReachability>(*G);
    collect(T);
    // Rounds only ever add edges of a finite DAG, so this terminates.
    for (bool Added = true; Added;) {
      std::vector<std::pair<NodeId, NodeId>> Proposed;
      propose(Proposed);
      Added = false;
      for (auto [From, To] : Proposed)
        Added |= G->addEdge(From, To); // the graph refuses contradictions
      if (Added) {
        G->foldEdges();
        Closure->refresh();
      }
    }
  }

  const ClosureReachability &closure() const { return *Closure; }
  const HbGraph &graph() const { return *G; }

  /// HbIndex::taskOrdered over the reference relation: does \p E1 end
  /// before \p E2 begins?
  bool taskOrdered(TaskId E1, TaskId E2) const {
    return E1 != E2 && reaches(G->endNode(E1), G->beginNode(E2));
  }

private:
  struct Send {
    NodeId Node;
    TaskId Event;
    uint64_t DelayMs;
    bool AtFront;
  };

  void collect(const Trace &T) {
    Events.resize(T.numQueues());
    Sends.resize(T.numQueues());
    for (uint32_t I = 0; I != T.numRecords(); ++I) {
      const TraceRecord &Rec = T.record(I);
      if (Rec.Kind == OpKind::TaskBegin) {
        const TaskInfo &Info = T.taskInfo(Rec.Task);
        if (Info.Kind == TaskKind::Event && Info.Queue.isValid())
          Events[Info.Queue.index()].push_back(Rec.Task);
      } else if (Rec.Kind == OpKind::Send || Rec.Kind == OpKind::SendAtFront) {
        Sends[Rec.queue().index()].push_back(
            {G->nodeForRecord(I), Rec.targetTask(), Rec.delayMs(),
             Rec.Kind == OpKind::SendAtFront});
      }
    }
  }

  bool reaches(NodeId From, NodeId To) const {
    return From.isValid() && To.isValid() && Closure->reaches(From, To);
  }

  /// Every missing conclusion of every rule instance whose premise holds.
  void propose(std::vector<std::pair<NodeId, NodeId>> &Out) const {
    auto want = [&](NodeId From, NodeId To) {
      if (From.isValid() && To.isValid() && !reaches(From, To))
        Out.emplace_back(From, To);
    };
    // Atomicity: begin(e1) < end(e2)  =>  end(e1) < begin(e2).
    for (const std::vector<TaskId> &Q : Events)
      for (size_t I = 0; I < Q.size(); ++I)
        for (size_t J = I + 1; J < Q.size(); ++J)
          if (reaches(G->beginNode(Q[I]), G->endNode(Q[J])))
            want(G->endNode(Q[I]), G->beginNode(Q[J]));
    // Event queue rules 1-4 over ordered sends s1 < s2.
    for (const std::vector<Send> &Q : Sends)
      for (size_t A = 0; A < Q.size(); ++A)
        for (size_t B = A + 1; B < Q.size(); ++B) {
          const Send &S1 = Q[A], &S2 = Q[B];
          if (!reaches(S1.Node, S2.Node))
            continue;
          NodeId Begin1 = G->beginNode(S1.Event), End1 = G->endNode(S1.Event);
          NodeId Begin2 = G->beginNode(S2.Event), End2 = G->endNode(S2.Event);
          if (!S2.AtFront) {
            // Rule 1 (delay order) and rule 3 (earlier front send).
            if (S1.AtFront || S1.DelayMs <= S2.DelayMs)
              want(End1, Begin2);
          } else if (reaches(S2.Node, Begin1)) {
            // Rules 2 and 4: the front send jumps an event not yet begun.
            want(End2, Begin1);
          }
        }
  }

  std::unique_ptr<HbGraph> G;
  std::unique_ptr<ClosureReachability> Closure;
  std::vector<std::vector<TaskId>> Events;
  std::vector<std::vector<Send>> Sends;
};

} // namespace cafa

#endif // CAFA_TESTS_REFERENCEHB_H
