//===- tests/ReferenceClosure.h - The reference reachability oracle -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClosureReachability, the oracle every production oracle is pinned
/// against: the plain transitive closure of the happens-before graph, one
/// bitset row per node, rebuilt from scratch by a sequential sweep on
/// every refresh().  No budget, no cover, no forward pass -- its only
/// job is to be obviously right.  ReferenceHappensBefore puts it behind
/// HbIndex::happensBefore's record-level interface.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TESTS_REFERENCECLOSURE_H
#define CAFA_TESTS_REFERENCECLOSURE_H

#include "hb/HbIndex.h"
#include "hb/Reachability.h"
#include "support/BitVec.h"

#include <vector>

namespace cafa {

class ClosureReachability final : public Reachability {
public:
  explicit ClosureReachability(const HbGraph &G) : G(G) { refresh(); }

  bool reaches(NodeId From, NodeId To) const override {
    return Rows[From.index()].test(To.index());
  }

  /// Node ids ascend in trace-record order and every edge points
  /// forward, so descending id is a reverse topological order: every
  /// successor's row is final when a node absorbs it.
  void refresh() {
    size_t N = G.numNodes();
    Rows.assign(N, BitVec(N));
    for (size_t I = N; I-- > 0;)
      for (uint32_t S : G.successors(NodeId(static_cast<uint32_t>(I)))) {
        Rows[I].set(S);
        Rows[I].orWithFrom(Rows[S], S);
      }
  }

  size_t memoryBytes() const override {
    size_t Total = 0;
    for (const BitVec &Row : Rows)
      Total += Row.memoryBytes();
    return Total;
  }

  const BitVec &row(NodeId Node) const { return Rows[Node.index()]; }

private:
  const HbGraph &G;
  std::vector<BitVec> Rows;
};

/// HbIndex::happensBefore over \p G's records, answered by the reference
/// closure of \p G: program order inside a task, else reachability from
/// the first node at or after record A to the last node at or before B.
class ReferenceHappensBefore {
public:
  ReferenceHappensBefore(const Trace &T, const HbGraph &G)
      : T(T), G(G), Closure(G) {}

  bool operator()(uint32_t A, uint32_t B) const {
    if (A == B)
      return false;
    if (T.record(A).Task == T.record(B).Task)
      return A < B;
    NodeId P = G.firstNodeAtOrAfter(A);
    NodeId Q = G.lastNodeAtOrBefore(B);
    return P.isValid() && Q.isValid() && Closure.reaches(P, Q);
  }

private:
  const Trace &T;
  const HbGraph &G;
  ClosureReachability Closure;
};

} // namespace cafa

#endif // CAFA_TESTS_REFERENCECLOSURE_H
