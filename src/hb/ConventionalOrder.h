//===- hb/ConventionalOrder.h - Thread-based order by search ----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conventional thread-based order (OrderingModel::Conventional),
/// answered by a targeted search over the graph another HbIndex already
/// built, so Table 1's (b)/(c) split needs no second happens-before
/// build.
///
/// Both models share their base edges: program order, fork/join,
/// notify/wait, send and Binder IPC.  Everything else is recognisable
/// from the graph's structure alone:
///  - a cross-task edge leaving a RegisterListener node is a listener
///    edge, which only CAFA has;
///  - none of the shared edges joins a TaskEnd node to another task's
///    TaskBegin node, so such an edge is an external-input chain edge or
///    a derived atomicity or queue-rule edge (CAFA), or a looper
///    execution-order link (conventional);
///  - the conventional model links each looper's events in execution
///    (begin-record) order, end(e_i) -> begin(e_i+1), where the end
///    comes first in record order -- the link HbGraph::addEdge accepts;
///    salvaged traces can hold overlapping events, whose link it refuses.
/// Each query is one run of the BFS oracle's TaskRangeSearch
/// (hb/Reachability.h) with two rules of its own: sharedEdge() skips the
/// first two kinds, and the looper links are followed at each event's
/// end.  So the search walks exactly the conventional graph, whichever
/// model built the graph it reads.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_HB_CONVENTIONALORDER_H
#define CAFA_HB_CONVENTIONALORDER_H

#include "hb/Reachability.h"

#include <vector>

namespace cafa {

/// Record-level queries of the conventional model over an existing
/// HbGraph.  Queries reuse the search's scratch, so one object serves
/// one thread.
class ConventionalOrder {
public:
  /// Lays out every looper's execution-order links over \p G, which
  /// must outlive this object.  A task begins at most once
  /// (validateTrace and the salvage machine both refuse a second
  /// begin), so each event has at most one link out.
  explicit ConventionalOrder(const HbGraph &G);

  /// Returns true if record \p A happens before record \p B under the
  /// conventional model: HbIndex built with OrderingModel::Conventional
  /// answers the same.
  bool happensBefore(uint32_t A, uint32_t B) const;

  /// Returns true if the records are ordered either way.
  bool ordered(uint32_t A, uint32_t B) const {
    return happensBefore(A, B) || happensBefore(B, A);
  }

private:
  /// True when the cross-task graph edge From -> To is one the
  /// conventional model also has.
  bool sharedEdge(NodeId From, NodeId To) const;

  const HbGraph &G;
  /// Per task: begin(e_i+1) when the task is looper event e_i and its
  /// execution-order link points forward; invalid otherwise.
  std::vector<NodeId> LooperNext;
  TaskRangeSearch Search;
};

} // namespace cafa

#endif // CAFA_HB_CONVENTIONALORDER_H
