//===- hb/Reachability.h - Reachability oracles over the HB DAG -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three interchangeable reachability oracles over the happens-before DAG
/// (Section 4.2: "to test if two operations are ordered, we simply
/// perform a reachability test on the happens-before graph"):
///
///  - IncrementalClosureReachability: full transitive closure as one
///    bitset row per node, O(1) queries and O(N^2/8) bytes; after the
///    initial build each fixpoint round only propagates the newly
///    inserted edges backward through the existing rows (addEdges).  The
///    default.
///  - BfsReachability: per-query pruned search, no precomputation.  Slow
///    queries, O(N) memory -- the memory-frugal alternative, compared in
///    the ablation benchmark.
///  - ChainReachability: greedy path cover of the DAG into chains plus
///    one min-position clock entry per (node, chain).  O(chains) rows
///    instead of O(N) bits per row -- near-linear memory on the "few
///    chains, long chains" shape event-driven traces converge to, with
///    the same O(1) queries and the same incremental delta sweep once
///    the clocks are live (docs/chain-reachability.md).
///
/// See docs/hb-reachability.md for the architecture of this layer, the
/// complexity trade-offs (including the mode decision table), and the
/// fixpoint-round delta protocol.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_HB_REACHABILITY_H
#define CAFA_HB_REACHABILITY_H

#include "hb/HbGraph.h"
#include "support/BitVec.h"

#include <memory>
#include <span>
#include <vector>

namespace cafa {

class WorkerPool;

/// Which reachability oracle backs queries and rule evaluation.  Never
/// serialized: a checkpoint carries edges, and every resume rebuilds the
/// oracle of its own choosing from them.
enum class ReachMode : uint8_t {
  /// Pruned per-query search: slow queries, linear memory.
  Bfs,
  /// Bitset transitive closure maintained incrementally across fixpoint
  /// rounds: O(1) queries, O(N^2) bits, but each round costs only the
  /// backward propagation of that round's delta edges.
  Incremental,
  /// Chain decomposition with per-node chain clocks: O(1) queries,
  /// O(N * chains) memory -- near-linear on event-driven traces, where
  /// looper serialization collapses the saturated DAG into few chains.
  Chain,
  /// Not an oracle: "no explicit request".  resolveReachMode() turns it
  /// into a concrete mode via the CAFA_REACH environment variable
  /// (request > env > Incremental, mirroring the thread knobs' 0 = auto
  /// convention).  Never reaches makeReachability() or a checkpoint.
  Auto,
};

/// Resolves \p Requested against the CAFA_REACH environment knob: an
/// explicit request wins; Auto consults CAFA_REACH ("incremental",
/// "chain", "bfs"); unset or unrecognized falls back to Incremental, the
/// default oracle.
ReachMode resolveReachMode(ReachMode Requested);

/// A greedy path cover of the happens-before DAG into chains.  Every
/// node belongs to exactly one chain; a chain's members ascend in node
/// id, and consecutive members are connected by graph edges, so earlier
/// members reach later members (the chain-prefix property both the
/// ChainReachability clocks and the windowed frontier summaries rely
/// on).  Produced by greedyChainCover(); a pure function of the
/// adjacency lists, so it is identical wherever it is recomputed.
struct ChainCover {
  /// Sentinel in ChainOf while the cover is being built; never present
  /// in a finished cover.
  static constexpr uint32_t Unassigned = 0xFFFFFFFFu;
  std::vector<uint32_t> ChainOf;    ///< node id -> chain index
  std::vector<uint32_t> PosInChain; ///< node id -> position in its chain
  uint32_t NumChains = 0;
};

/// Computes the canonical greedy path cover of \p G: walk ids
/// ascending, start a chain at every unassigned node, extend along the
/// smallest-id unassigned successor.  O(N + E).  Shared by
/// ChainReachability (forward clocks) and hb/WindowedReach (backward
/// frontier clocks) so the two provably agree on the decomposition.
void greedyChainCover(const HbGraph &G, ChainCover &Out);

/// A list of nodes ("members") laid out for Reachability::project(),
/// which answers "which members does this node reach" for all members
/// at once.  Member k is node(k); invalid members are allowed and are
/// never reached.  The layout is sparse, O(members) however large the
/// graph: the 64-bit words of the node-id space that hold a member, each
/// with its member bits and the rank (members in earlier words) of its
/// lowest member.
class NodeProjection {
public:
  NodeProjection() = default;
  explicit NodeProjection(std::vector<NodeId> Members);

  size_t size() const { return Nodes.size(); }
  NodeId node(size_t K) const { return Nodes[K]; }

  struct Word {
    uint32_t Index; ///< word of the node-id space (ids 64*Index ...)
    uint32_t Rank;  ///< valid members in earlier words
    uint64_t Bits;  ///< member ids in this word, as bits
  };

private:
  friend class Reachability;

  std::vector<NodeId> Nodes;
  std::vector<Word> Words; ///< ascending Index
  /// Member index by rank.  Empty when that is the identity -- every
  /// member valid and ids strictly ascending -- which lets a row word's
  /// member bits be extracted straight into place (pext).
  std::vector<uint32_t> ByRank;
};

/// Answers "is there a path From -> To" on the current graph edges.
class Reachability {
public:
  virtual ~Reachability() = default;

  /// Returns true if \p To is reachable from \p From by a nonempty path
  /// (a node does not reach itself).
  virtual bool reaches(NodeId From, NodeId To) const = 0;

  /// Projects \p From's reachable set onto \p P: overwrites \p Out, a
  /// dense bitset of (P.size() + 63) / 64 words, with bit k set exactly
  /// when k >= \p Lo, From reaches member k, and (if \p Want is not
  /// null) bit k of Want is set.  One entry point for every oracle:
  /// those with closure rows (rowsOrNull()) gather the row words under
  /// P's member masks -- pext when P's ids ascend and the CPU has BMI2,
  /// else a ctz loop through P's rank table -- and the others test the
  /// wanted members one reaches() at a time.  Safe to call concurrently
  /// whenever reaches() is (concurrentQueriesSafe()).  \returns the work
  /// done: row words gathered, or members queried.
  size_t project(NodeId From, const NodeProjection &P, size_t Lo,
                 const uint64_t *Want, uint64_t *Out) const;

  /// Rebuilds any precomputed state from the graph's current edges.  The
  /// edges are the relation; an oracle's rows or clocks are a cache of
  /// them, which is why a checkpoint resume replays edges and refreshes
  /// instead of restoring oracle state.
  virtual void refresh() = 0;

  /// Delta path, called by the rule engine after it inserts a fixpoint
  /// round's \p Edges into the graph.  The graph already contains the
  /// edges when this runs.  Oracles that can update incrementally
  /// override this; the default falls back to a full refresh(), so every
  /// oracle answers identically afterwards.
  virtual void addEdges(std::span<const HbEdge> Edges) { refresh(); }

  /// Returns the closure row array (indexed by node id) if this oracle
  /// precomputes one, else nullptr.  The rule engine's gap-1 passes
  /// issue many queries per round, and project() gathers whole row
  /// words; reading a row inline instead of making a virtual reaches()
  /// call per pair is a measurable win, and non-closure oracles simply
  /// keep the virtual path.
  virtual const BitVec *rowsOrNull() const { return nullptr; }

  /// Approximate memory footprint in bytes (for the ablation bench, and
  /// the *measured* reading the degradation ladder records after a
  /// budgeted build).
  virtual size_t memoryBytes() const = 0;

  /// True when a memory-budgeted build (see makeReachability's
  /// BudgetBytes) gave up before its precomputed state fit the budget.
  /// The oracle is then unusable and the degradation ladder must step
  /// down a rung.  Budget-free oracles always return false.
  virtual bool budgetExceeded() const { return false; }

  /// True when reaches() may be issued from several threads at once.
  /// The default covers the closure oracle: an immutable row matrix is
  /// safe to read concurrently.  BfsReachability overrides to false
  /// (per-query scratch); ChainReachability answers by phase (clock
  /// lookups are safe, its search fallback is not).  HbIndex's rule
  /// engine and the detector's parallel pair scan gate on this.
  virtual bool concurrentQueriesSafe() const { return rowsOrNull() != nullptr; }

  /// Chains in the oracle's current decomposition (0 for oracles that
  /// do not decompose).  Informational: surfaces in HbDegradation for
  /// the scaling benches' chain-count statistics.
  virtual size_t chainCount() const { return 0; }
};

/// Bitset transitive closure maintained incrementally.
///
/// After the initial build, each fixpoint round hands its freshly
/// inserted edges to addEdges(), which runs one reverse-topological
/// sweep over the id prefix [0, max batch source]: node n absorbs
/// {v} union row(v) for each batch edge n -> v, then re-absorbs row(s)
/// for each successor s whose row grew earlier in the same sweep
/// ("dirty").  Edge insertion is monotone, so rows only grow and never
/// need clearing, and a node with no batch edge and no dirty successor
/// costs a flag scan of its adjacency list -- not a row union.  The
/// sweep is therefore bounded above by one full rebuild and is far
/// cheaper once the closure stabilizes and deltas shrink.
///
/// Two structural facts of the HB DAG make this work:
///  - node ids ascend in trace-record order and every edge points
///    forward, so descending id is a reverse topological order and a
///    node's row holds only bits above its own id (which lets every
///    union start at the successor's word, BitVec::orWithFrom, skipping
///    the dead low half of the row on average);
///  - program order chains each task's nodes, so typical adjacency
///    lists hold one chain edge plus few cross-task edges and the
///    clean-node scan is cheap.
class IncrementalClosureReachability final : public Reachability {
public:
  /// \p BudgetBytes, when nonzero, turns construction into a *measured*
  /// allocation: rows are counted as they are allocated and the build
  /// aborts (budgetExceeded()) the moment the running total passes the
  /// budget -- the adaptive-degradation ladder probes actual footprints
  /// instead of trusting estimateReachabilityMemory().  \p Pool, when
  /// non-null, runs every sweep (the initial build included) as column
  /// strips across the pool, bit-identical to one strip by construction
  /// (see docs/hb-reachability.md).
  explicit IncrementalClosureReachability(const HbGraph &G,
                                          size_t BudgetBytes = 0,
                                          WorkerPool *Pool = nullptr)
      : G(G), Budget(BudgetBytes), Pool(Pool) {
    refresh();
  }

  bool reaches(NodeId From, NodeId To) const override {
    return Rows[From.index()].test(To.index());
  }
  void refresh() override;
  void addEdges(std::span<const HbEdge> Edges) override;
  size_t memoryBytes() const override;
  const BitVec *rowsOrNull() const override { return Rows.data(); }
  bool budgetExceeded() const override { return Exceeded; }

private:
  /// Sizes the rows and one strip's dirty flags under the budget; false
  /// (with Exceeded set) when they do not fit.  Idempotent.
  bool allocateRows();

  /// One strip's share of the delta sweep: words [Lo, Hi) of every row,
  /// with strip-local dirty flags \p Dirt ("this strip's words of row n
  /// grew").
  void sweepStrip(std::vector<uint8_t> &Dirt, size_t Lo, size_t Hi,
                  uint32_t MaxFrom);

  const HbGraph &G;
  std::vector<BitVec> Rows;
  size_t Budget = 0;
  bool Exceeded = false;
  WorkerPool *Pool = nullptr;
  /// Edges reflected in Rows; addEdges falls back to a full refresh()
  /// if the graph drifted from what it was told about.
  size_t KnownEdges = 0;
  /// Scratch for addEdges: the batch sorted by source id descending,
  /// and per column strip a per-node "row grew during this sweep" flag.
  std::vector<HbEdge> SortedBatch;
  std::vector<std::vector<uint8_t>> StripDirty;
};

/// On-demand search with per-task pruning: a visit to node n of task t
/// implies all later nodes of t are reachable via program order, so each
/// task is expanded at most once per query.
class BfsReachability final : public Reachability {
public:
  explicit BfsReachability(const HbGraph &G);

  bool reaches(NodeId From, NodeId To) const override;
  void refresh() override {} // reads live edges; nothing cached
  size_t memoryBytes() const override;

private:
  /// Nodes of Task at positions [Lo, Hi) whose successors still need
  /// expanding.
  struct Range {
    TaskId Task;
    uint32_t Lo, Hi;
  };

  const HbGraph &G;
  /// Scratch (mutable per query): per-task minimal visited node position,
  /// versioned to avoid clearing between queries, and the range stack,
  /// kept across queries so none allocates.
  mutable std::vector<uint32_t> VisitedPos;
  mutable std::vector<uint32_t> VisitedVersion;
  mutable uint32_t Version = 0;
  mutable std::vector<Range> Ranges;
};

/// Chain-decomposition reachability: near-linear memory on the "few
/// chains, long chains" graphs event-driven traces saturate into.
///
/// refresh() greedily covers the DAG with vertex-disjoint *paths*
/// ("chains"): walk node ids ascending, start a chain at every
/// unassigned node, extend it along the smallest-id unassigned
/// successor.  Every chain is a path in the DAG, so reachability into a
/// chain has the prefix property: if u reaches the chain's member at
/// position p, it reaches every later member through the chain's own
/// edges.  One clock entry per (node, chain) therefore captures the
/// entire closure:
///
///   Clock[u][c] = min position in chain c of any node reachable from u
///                 by a nonempty path        (UNSET if none)
///   reaches(u, v)  <=>  Clock[u][chain(v)] <= pos(v)
///
/// (the mirror image of the backward formulation clock[v][chain(u)] >=
/// pos(u) -- forward clocks match the successor-list graph layout and
/// the descending sweep the closure oracle already uses).  The clocks
/// are exact, so addEdges() runs the incremental closure's dirty-row
/// sweep over clock rows and raises the same changed-row flags.
///
/// The catch: the clock matrix is N x chains, and a *base* graph is
/// wide -- pending events are mutually unordered until the queue rules
/// serialize them, so the chain count starts near the event count and
/// only collapses as the fixpoint saturates.  The oracle is therefore
/// dual-phase: while the greedy cover needs more than MaxChainsForClocks
/// chains (or the clocks overrun the byte budget), it runs a *search
/// phase*; every addEdges() re-derives the cover, and the first round
/// whose cover fits builds the clocks and switches to exact incremental
/// updates.
///
/// The search phase itself has two tiers, picked once per build:
///  - Bootstrap (speed): when an incremental-closure row matrix fits
///    within min(BudgetBytes, MaxBootstrapBytes), the oracle embeds one
///    and forwards queries and rows to it.  Wide fixpoint rounds then
///    run at full closure speed; the rows are released the moment the
///    clocks commit.
///  - Frugal (memory): otherwise queries go through an embedded pruned
///    search (BfsReachability) in O(N) memory.  This is the tier
///    million-event graphs land in, and it is why the oracle's
///    steady-state memory claim survives at that scale.
///
/// High-water memory is therefore min(BudgetBytes, MaxBootstrapBytes)
/// during a bootstrapped search phase and O(N * chains-at-switch) <=
/// N * 4 * MaxChainsForClocks bytes after the clocks commit (always,
/// in the frugal tier).
class ChainReachability final : public Reachability {
public:
  /// A cover wider than this keeps the oracle in its search phase: the
  /// clock matrix is only ever committed at <= 4 * MaxChainsForClocks
  /// bytes per node.  Wide enough that every saturated event-driven
  /// fixture measured lands orders of magnitude below it, small enough
  /// that the committed matrix stays near-linear.
  static constexpr uint32_t MaxChainsForClocks = 128;
  /// Clock value for "reaches nothing in this chain".
  static constexpr uint32_t Unset = 0xFFFFFFFFu;
  /// Structural cap on the search-phase bootstrap rows: the embedded
  /// incremental closure is only engaged when its estimated footprint
  /// fits min(BudgetBytes, MaxBootstrapBytes).  Sized to admit every
  /// app-scale trace in the repository (<= ~20k nodes) while forcing
  /// million-event graphs into the frugal O(N) tier.
  static constexpr size_t MaxBootstrapBytes = 64ull << 20;

  /// BudgetBytes/Pool: same contract as IncrementalClosureReachability
  /// (the pool serves the bootstrap closure's sweeps), with one
  /// refinement: a budget that admits the linear structures but not the
  /// clock matrix keeps the oracle usable in its search phase instead of
  /// aborting -- budgetExceeded() fires only when even O(N) does not fit.
  explicit ChainReachability(const HbGraph &G, size_t BudgetBytes = 0,
                             WorkerPool *Pool = nullptr);

  bool reaches(NodeId From, NodeId To) const override;
  void refresh() override;
  void addEdges(std::span<const HbEdge> Edges) override;
  size_t memoryBytes() const override;
  bool budgetExceeded() const override { return Exceeded; }
  /// During a bootstrapped search phase the embedded closure's rows are
  /// lent to the rule engine's inline queries and row projections,
  /// exactly as in incremental mode; once the clocks commit there is no
  /// row matrix.
  const BitVec *rowsOrNull() const override {
    return Boot ? Boot->rowsOrNull() : nullptr;
  }
  /// Clock lookups are const reads of an immutable matrix, and the
  /// bootstrap's row matrix is likewise safe; the frugal search tier
  /// mutates per-query scratch and must stay sequential.
  bool concurrentQueriesSafe() const override {
    return ClocksValid || Boot != nullptr;
  }
  size_t chainCount() const override { return NumChains; }

  /// True once the clock matrix is live (the incremental phase).  Tests
  /// assert this so a policy regression cannot silently demote the
  /// differential suites to the search phase.
  bool clocksActive() const { return ClocksValid; }

private:
  /// Greedy path cover over the graph's current edges; deterministic
  /// (pure function of the adjacency lists), so a resume that replays
  /// the same edges rebuilds the same clocks.  Chain members ascend in
  /// node id.
  void decompose();
  /// Engages (or refreshes) the bootstrap closure when its estimated
  /// footprint fits min(Budget, MaxBootstrapBytes); otherwise releases
  /// it, leaving the frugal search tier.
  void maybeBootstrap();
  /// Commits the N x NumChains clock matrix if the cover and budget
  /// admit it; otherwise stays in the search phase.  Returns ClocksValid.
  bool buildClocks();
  /// Footprint of the always-present linear structures.
  size_t baseBytes() const;

  const HbGraph &G;
  size_t Budget = 0;
  bool Exceeded = false;
  WorkerPool *Pool = nullptr;
  /// Edges reflected in the decomposition/clocks; addEdges falls back to
  /// refresh() if the graph drifted (same protocol as the incremental
  /// closure).
  size_t KnownEdges = 0;

  uint32_t NumChains = 0;
  std::vector<uint32_t> ChainOf;    // node -> chain index
  std::vector<uint32_t> PosInChain; // node -> position within its chain

  bool ClocksValid = false;
  std::vector<uint32_t> Clocks; // row-major, N rows of NumChains entries

  /// Delta sweep scratch (same protocol as the incremental closure).
  std::vector<HbEdge> SortedBatch;
  std::vector<uint8_t> Dirty;

  /// Search-phase query path, frugal tier (reads live edges, per-query
  /// scratch).
  BfsReachability Search;
  /// Search-phase bootstrap tier: an embedded incremental closure that
  /// serves queries and rows while the cover is still wide.  Engaged
  /// only when it fits min(Budget, MaxBootstrapBytes); released the
  /// moment the clocks commit.  Invariant: Boot is null whenever
  /// ClocksValid.
  std::unique_ptr<IncrementalClosureReachability> Boot;
};

/// Creates and builds the oracle selected by \p Mode.  \p BudgetBytes,
/// when nonzero, bounds what an oracle with precomputed state may
/// allocate (the build aborts into budgetExceeded() instead of
/// overshooting); BFS carries no precomputed state and ignores the
/// budget -- it is the ladder's floor.  \p Pool, when non-null, runs the
/// build and every later sweep across its threads.
std::unique_ptr<Reachability> makeReachability(const HbGraph &G,
                                               ReachMode Mode,
                                               size_t BudgetBytes = 0,
                                               WorkerPool *Pool = nullptr);

/// Returns a stable lowercase name for \p Mode ("incremental", "chain",
/// "bfs", "auto"), for CLI flags and degradation diagnostics.
const char *reachModeName(ReachMode Mode);

/// Upper-bound estimate of what the \p Mode oracle will allocate for a
/// graph of \p NumNodes nodes, in bytes, *before* building it.  The
/// graceful-degradation ladder (HbOptions::MemLimitBytes) now steps
/// rungs from the *measured* footprint of a budgeted build (see
/// makeReachability's BudgetBytes); this estimate remains the planning
/// aid for sizing limits up front and errs high, never low.  It is
/// monotone along the ladder (Bfs < Chain < Incremental) from a few
/// thousand nodes up; below that the chain upper bound
/// (4 * min(N, MaxChainsForClocks) bytes per node) can exceed the
/// closure's N^2/8 -- the *measured* ladder is what actually picks
/// rungs, and a budgeted chain build degrades its clocks before
/// overrunning, so the crossover never misleads it.  The chain figure
/// is the *steady-state* footprint: an unbudgeted build may transiently
/// borrow up to ChainReachability::MaxBootstrapBytes of closure rows
/// during its search phase (released at the clock switch); under a
/// nonzero budget the bootstrap is only engaged when it fits the
/// budget, so a budgeted build never overruns this estimate's caller's
/// limit.
/// Incremental is dominated by the N x N bit matrix; Bfs keeps only
/// per-task scratch, bounded above by per-node.
size_t estimateReachabilityMemory(size_t NumNodes, ReachMode Mode);

} // namespace cafa

#endif // CAFA_HB_REACHABILITY_H
