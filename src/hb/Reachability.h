//===- hb/Reachability.h - Reachability oracles over the HB DAG -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two interchangeable reachability oracles over the happens-before DAG
/// (Section 4.2: "to test if two operations are ordered, we simply
/// perform a reachability test on the happens-before graph"):
///
///  - ChainReachability: an online cover of the DAG into chains plus one
///    backward clock per node, clock(v)[c] = one past the highest
///    position on chain c that reaches v.  O(1) queries in
///    O(N * chains) memory, built in one forward pass over the nodes --
///    the same pass HbIndex derives the atomicity and event-queue rules
///    in (docs/chain-reachability.md).  The default.
///  - BfsReachability: per-query pruned search (TaskRangeSearch), no
///    precomputation.  Slow queries, O(N) memory -- the floor of the
///    degradation ladder, and the oracle of the round engine that stays
///    as the pass's independent reference.
///
/// See docs/hb-reachability.md for the architecture of this layer.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_HB_REACHABILITY_H
#define CAFA_HB_REACHABILITY_H

#include "hb/HbGraph.h"

#include <span>
#include <vector>

namespace cafa {

/// Which reachability oracle backs queries and rule evaluation.  Never
/// serialized: a checkpoint carries edges, and every resume rebuilds the
/// oracle of its own choosing from them.
enum class ReachMode : uint8_t {
  /// Pruned per-query search: slow queries, linear memory.  HbIndex
  /// derives its rules in fixpoint rounds under it.
  Bfs,
  /// Chain cover with per-node chain clocks, built by the forward pass:
  /// O(1) queries, O(N * chains) memory.
  Chain,
  /// Not an oracle: "no explicit request".  resolveReachMode() turns it
  /// into a concrete mode via the CAFA_REACH environment variable
  /// (request > env > Chain, mirroring the thread knobs' 0 = auto
  /// convention).  Never reaches an oracle or a checkpoint.
  Auto,
};

/// Resolves \p Requested against the CAFA_REACH environment knob: an
/// explicit request wins; Auto consults CAFA_REACH ("chain", "bfs");
/// unset or unrecognized falls back to Chain, the default oracle.
ReachMode resolveReachMode(ReachMode Requested);

/// Answers "is there a path From -> To" on the current graph edges.
class Reachability {
public:
  virtual ~Reachability() = default;

  /// Returns true if \p To is reachable from \p From by a nonempty path
  /// (a node does not reach itself).
  virtual bool reaches(NodeId From, NodeId To) const = 0;

  /// Approximate memory footprint in bytes (for the ablation bench, and
  /// the degradation ladder's measured reading).
  virtual size_t memoryBytes() const = 0;
};

/// The task-range search behind every search-answered order query: a
/// visit to node n of task t implies all later nodes of t via program
/// order, so each range of a task is expanded at most once per query.
/// Every edge points forward in node order, so nothing past the target
/// is queued or expanded.  The scratch (versioned per-task marks, the
/// range stack) is kept across queries, so none allocates; one object
/// serves one thread.
class TaskRangeSearch {
public:
  explicit TaskRangeSearch(const HbGraph &G)
      : G(G), VisitedPos(G.trace().numTasks(), 0),
        VisitedVersion(G.trace().numTasks(), 0) {}

  /// Searches from \p From along program order, the cross-task edges
  /// U -> V that \p Follow(U, V) admits, and, at a task's end node, the
  /// node \p Link(Task) returns (invalid for none).  With \p To valid it
  /// stops once the search covers \p To and returns whether it did
  /// (From covers itself, and nothing before it); with \p To invalid it
  /// runs to completion for covered().
  template <typename FollowFn, typename LinkFn>
  bool run(NodeId From, NodeId To, FollowFn Follow, LinkFn Link) const {
    ++Version;
    const TaskId ToTask = To.isValid() ? G.taskOfNode(To) : TaskId::invalid();
    const uint32_t ToPos = To.isValid() ? G.posOfNode(To) : 0;
    const size_t Limit = To.index(); // invalid: past every node
    // An early return leaves ranges behind; they are stale.
    Ranges.clear();

    // Queues Node's task from Node on; true once that covers To.
    auto push = [&](NodeId Node) {
      if (Node.index() > Limit)
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

    if (push(From))
      return true;
    while (!Ranges.empty()) {
      Range R = Ranges.back();
      Ranges.pop_back();
      std::span<const NodeId> Nodes = G.taskNodes(R.Task);
      const NodeId End = G.endNode(R.Task);
      for (uint32_t P = R.Lo; P != R.Hi && Nodes[P].index() < Limit; ++P) {
        NodeId Node = Nodes[P];
        for (uint32_t S : G.successors(Node)) {
          NodeId Succ(S);
          // Program order stays inside the range being scanned.
          if (G.taskOfNode(Succ) == R.Task || !Follow(Node, Succ))
            continue;
          if (push(Succ))
            return true;
        }
        if (Node == End) {
          NodeId Next = Link(R.Task);
          if (Next.isValid() && push(Next))
            return true;
        }
      }
    }
    return false;
  }

  /// After a run() with no target: did it cover \p Node?  Its source
  /// counts as covered.
  bool covered(NodeId Node) const {
    TaskId Task = G.taskOfNode(Node);
    return VisitedVersion[Task.index()] == Version &&
           VisitedPos[Task.index()] <= G.posOfNode(Node);
  }

  size_t memoryBytes() const {
    return VisitedPos.capacity() * 4 + VisitedVersion.capacity() * 4 +
           Ranges.capacity() * sizeof(Range);
  }

private:
  /// Nodes of Task at positions [Lo, Hi) whose successors still need
  /// expanding.
  struct Range {
    TaskId Task;
    uint32_t Lo, Hi;
  };

  const HbGraph &G;
  mutable std::vector<uint32_t> VisitedPos; ///< per task: lowest covered
  mutable std::vector<uint32_t> VisitedVersion;
  mutable uint32_t Version = 0;
  mutable std::vector<Range> Ranges;
};

/// Search per query over every graph edge, with no precomputation.
class BfsReachability final : public Reachability {
public:
  explicit BfsReachability(const HbGraph &G) : Search(G) {}

  bool reaches(NodeId From, NodeId To) const override {
    return From != To && Search.run(From, To, everyEdge, noLink);
  }

  /// Projects \p From's reachable set onto \p Members with one search:
  /// overwrites \p Out, a dense bitset of (Members.size() + 63) / 64
  /// words, with bit k set exactly when k >= \p Lo, From reaches
  /// Members[k], and (if \p Want is not null) bit k of Want is set.
  /// Invalid members are never reached.
  void project(NodeId From, std::span<const NodeId> Members, size_t Lo,
               const uint64_t *Want, uint64_t *Out) const;

  size_t memoryBytes() const override { return Search.memoryBytes(); }

private:
  static bool everyEdge(NodeId, NodeId) { return true; }
  static NodeId noLink(TaskId) { return NodeId::invalid(); }

  TaskRangeSearch Search;
};

/// Chain-cover reachability with backward clocks, built in one forward
/// pass over the nodes in id order.  Every edge points forward, so when
/// the pass reaches node v every node that can reach v already has its
/// clock.  v's clock is the join (entrywise max) of its in-edges'
/// clocks plus its own entry:
///
///   clock(v)[c] = 1 + the highest position on chain c that reaches v
///                 (v itself included; 0 if none)
///   reaches(u, v)  <=>  u != v  and  clock(v)[chain(u)] > pos(u)
///
/// The cover is built online: each placed node extends a chain whose
/// tail reaches it -- its task's previous node when that is still a
/// tail, else (for an event's begin) a reached tail on the same looper,
/// else any reached tail -- or opens a new chain.  A chain's members
/// therefore reach its later members, which is what makes one entry per
/// chain enough.  A node's own entry is implied by its position, so a
/// node that only extends its task predecessor's chain, with no other
/// in-edge adding to its clock, shares the predecessor's stored row.  A
/// stored row is as wide as the cover was when it was stored (nodes on
/// later chains cannot reach it), and is stored as (chain, entry) pairs
/// instead when fewer than half its entries are set.  The open clock
/// tracks its set entries too, so a node costs the entries it sets, not
/// the width of the cover: a model without the queue or external-input
/// rules keeps thousands of chains, mostly single events, of which a
/// node's clock sets few (EXPERIMENTS.md, Ablation C).
///
/// Without rules (the constructor) the pass computes the clocks of any
/// graph; HbIndex drives the same steps itself -- open(), join(),
/// place() -- and joins the ends its rules derive into each begin
/// before placing it.
class ChainReachability final : public Reachability {
public:
  /// The clock rows may take what dense rows over this many chains
  /// would: 4 * MaxChainsForClocks bytes per node.  Every saturated
  /// event-driven trace measured stays far below it; past it the pass
  /// stops, and the degradation ladder steps to Bfs.
  static constexpr uint32_t MaxChainsForClocks = 128;

  /// Why a pass stopped before placing every node.
  enum class Overflow : uint8_t {
    None,
    /// The footprint outgrew the budget (HbOptions::MemLimitBytes).
    Budget,
    /// The clock rows outgrew 4 * MaxChainsForClocks bytes per node.
    Clocks,
  };

  /// Clocks-only: covers \p G and computes every node's clock from its
  /// current edges.
  explicit ChainReachability(const HbGraph &G);

  /// An empty oracle that a driver fills with open()/join()/place().
  /// \p BudgetBytes, when nonzero, bounds the footprint.
  struct Empty {};
  ChainReachability(const HbGraph &G, size_t BudgetBytes, Empty);

  bool reaches(NodeId From, NodeId To) const override;
  size_t memoryBytes() const override;
  /// Chains in the cover: HbDegradation reports it for the scaling
  /// benches' chain-count statistics.
  size_t chainCount() const { return Tails.size(); }

  /// Why the pass stopped early; None when every node was placed.  An
  /// oracle that overflowed is incomplete and must not answer queries.
  Overflow overflow() const { return Over; }

  /// Starts node \p V's clock from its program-order predecessor's.
  void open(NodeId V);
  /// Joins placed node \p U's clock into the open node's: an edge U -> V.
  void join(NodeId U);
  /// Does placed node \p U reach the open node?
  bool holds(NodeId U) const {
    return Cur[ChainOf[U.index()]] > PosInChain[U.index()];
  }
  /// The open node's clock entry for chain \p C.
  uint32_t current(uint32_t C) const { return Cur[C]; }
  /// Placed node \p V's clock entry for chain \p C.
  uint32_t entry(NodeId V, uint32_t C) const {
    if (C == ChainOf[V.index()])
      return PosInChain[V.index()] + 1;
    const uint32_t *R = row(V);
    if (!(R[0] & SparseRow))
      return C < R[0] ? R[1 + C] : 0;
    const uint32_t *Pairs = R + 1;
    const uint32_t N = R[0] & ~SparseRow;
    uint32_t Lo = 0, Hi = N;
    while (Lo != Hi) {
      uint32_t Mid = (Lo + Hi) / 2;
      if (Pairs[2 * Mid] < C)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo != N && Pairs[2 * Lo] == C ? Pairs[2 * Lo + 1] : 0;
  }
  /// Picks the open node's chain and stores its clock.  \returns false
  /// (and sets overflow()) when the clocks or the budget overflow.
  bool place(NodeId V);

  uint32_t chainOf(NodeId V) const { return ChainOf[V.index()]; }
  uint32_t posOf(NodeId V) const { return PosInChain[V.index()]; }

private:
  /// A stored row's header is its width, then one entry per chain; with
  /// SparseRow set, the number of (chain, entry) pairs that follow,
  /// ascending by chain.
  static constexpr uint32_t SparseRow = 0x80000000u;

  const uint32_t *row(NodeId V) const {
    return Clocks.data() + RowOf[V.index()];
  }
  /// Calls \p Fn(chain, entry) for every entry of stored row \p R.
  template <typename FnT> static void forEachEntry(const uint32_t *R, FnT Fn) {
    if (R[0] & SparseRow)
      for (uint32_t I = 0, N = R[0] & ~SparseRow; I != N; ++I)
        Fn(R[1 + 2 * I], R[2 + 2 * I]);
    else
      for (uint32_t C = 0; C != R[0]; ++C)
        Fn(C, R[1 + C]);
  }
  /// Raises the open clock's entry for chain \p C to \p E.  \returns
  /// whether it grew.
  bool raise(uint32_t C, uint32_t E) {
    if (E <= Cur[C])
      return false;
    if (!Cur[C])
      Set.push_back(C);
    Cur[C] = E;
    return true;
  }

  const HbGraph &G;
  size_t Budget = 0;
  Overflow Over = Overflow::None;
  std::vector<uint32_t> ChainOf;    ///< node -> chain
  std::vector<uint32_t> PosInChain; ///< node -> position in its chain
  std::vector<uint32_t> RowOf;      ///< node -> its row's offset in Clocks
  std::vector<uint32_t> Clocks;     ///< the stored rows
  std::vector<uint32_t> Tails;      ///< chain -> its last node
  std::vector<uint32_t> Cur;        ///< the open node's clock
  std::vector<uint32_t> Set;        ///< the chains Cur has an entry for
  /// The open node's clock holds more than its predecessor's.
  bool Grew = false;
};

/// Returns a stable lowercase name for \p Mode ("chain", "bfs", "auto"),
/// for CLI flags and degradation diagnostics.
const char *reachModeName(ReachMode Mode);

} // namespace cafa

#endif // CAFA_HB_REACHABILITY_H
