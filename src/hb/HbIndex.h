//===- hb/HbIndex.h - The CAFA causality model ------------------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the happens-before relation for a trace under either
/// the CAFA causality model (Section 3.3) or the conventional
/// thread-based model Table 1 compares against.
///
/// CAFA rules implemented:
///  - program order within each task (but *not* across events of a
///    looper thread);
///  - fork/join and notify/wait;
///  - event listener: register(t,l) before perform(e,l);
///  - send: send(t,e,d) / sendAtFront(t,e) before begin(e);
///  - external input: externally generated events are chained;
///  - Binder IPC: ipc-send(txn) before ipc-recv(txn);
///  - atomicity: same-looper events e1,e2 with begin(e1) < end(e2) are
///    fully ordered end(e1) < begin(e2);
///  - event queue rules 1-4 over ordered sends (delay comparison,
///    sendAtFront both directions).
/// The last two consume the relation they extend: under the default
/// chain oracle one forward pass in record order derives them while it
/// builds the oracle's clocks, repeated only for conclusions that point
/// back past the pass (HbIndex.cpp); under BFS they run as fixpoint
/// rounds.  Locks contribute no edges in either model (the
/// predictive relaxation of Section 3.1); locksets are checked at
/// detection time instead.
///
/// The conventional model replaces all event-aware rules with a total
/// order over each looper's events in observed execution order.  The
/// detector's (b)/(c) split does not build it: ConventionalOrder answers
/// the same queries by search over the CAFA graph.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_HB_HBINDEX_H
#define CAFA_HB_HBINDEX_H

#include "hb/HbGraph.h"
#include "hb/Reachability.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cafa {

/// Which causality model to build.
enum class OrderingModel : uint8_t {
  /// The paper's event-aware model.
  Cafa,
  /// Thread-based baseline: every looper's events totally ordered, no
  /// event-queue/atomicity/listener/external rules.
  Conventional,
};

/// Build-time options (rule toggles exist for the ablation benchmarks).
/// ReachMode (the reachability oracle selection) lives in Reachability.h.
struct HbOptions {
  OrderingModel Model = OrderingModel::Cafa;
  /// Reachability oracle request.  Auto resolves through the CAFA_REACH
  /// environment variable (request > env > Chain, mirroring the
  /// thread knobs' 0 = auto convention; see resolveReachMode).  Tests
  /// that assert mode-specific ladder behavior pin an explicit mode so
  /// the env-forced CI legs cannot skew them.
  ReachMode Reach = ReachMode::Auto;
  bool EnableAtomicityRule = true;
  bool EnableQueueRules = true;
  bool EnableListenerRule = true;
  bool EnableExternalInputRule = true;
  /// Cap on derivation passes (fixpoint rounds under BFS).  A pass runs
  /// again only for conclusions that point back past it, and a round
  /// closes the rules over the oracle as it stood when the round began;
  /// the cap guards against bugs, not inputs.
  uint32_t MaxFixpointRounds = 64;
  /// Graceful degradation, memory rung: when nonzero and the chain
  /// oracle's measured footprint overruns this many bytes, the build
  /// steps down the ladder Chain -> Bfs.  The oracles answer queries
  /// identically, so stepping down changes build time and memory but
  /// never the resulting reports.  0 = off.
  size_t MemLimitBytes = 0;
  /// Graceful degradation, time rung: when positive, derivation stops
  /// once this much wall time (ms) has elapsed since construction began
  /// (checked before each pass or round and every 4096 nodes of a
  /// pass).  The relation is then an under-approximation -- missing HB
  /// edges can only *add* race candidates, never hide one -- and
  /// degradation().DeadlineExceeded is set so downstream reports get
  /// flagged partial.  0 = off.
  double DeadlineMillis = 0;
  /// Analysis worker threads (the --analysis-threads knob): the
  /// detector's pair scan and confirmation's replays fan out across
  /// this many threads; the happens-before build itself is one
  /// sequential pass.  0 = auto: the CAFA_ANALYSIS_THREADS
  /// environment variable if set, else hardware concurrency.  Purely a
  /// wall-clock knob -- every thread count produces bit-identical
  /// reports (docs/robustness.md, "Parallel analysis"), which is also
  /// why the checkpoint options digest excludes it.
  unsigned Threads = 0;
};

/// What the graceful-degradation ladder actually did while building one
/// HbIndex (see HbOptions::MemLimitBytes / DeadlineMillis).
struct HbDegradation {
  /// The oracle the caller asked for.
  ReachMode RequestedReach = ReachMode::Chain;
  /// The oracle actually built (== RequestedReach unless downgraded).
  ReachMode UsedReach = ReachMode::Chain;
  /// UsedReach was stepped down the ladder to fit MemLimitBytes.  (Clocks
  /// past their bound, or a deadline that passes before the first pass,
  /// also step down, without this flag.)
  bool DowngradedForMemory = false;
  /// DeadlineMillis expired before the fixpoint converged; the relation
  /// under-approximates and reports derived from it are partial.
  bool DeadlineExceeded = false;
  /// Measured footprint of the oracle actually kept, in bytes: the
  /// number MemLimitBytes was compared against -- not the
  /// estimateReachabilityMemory() over-approximation.
  size_t MeasuredReachBytes = 0;
  /// Chains in the oracle's cover (0 unless UsedReach is Chain).
  /// Informational, for the scaling benches' chain statistics.
  size_t ChainCount = 0;
  /// Rule families a blown deadline left short of their fixpoint
  /// ("atomicity", "event-queue").  Empty when the fixpoint saturated.
  /// Downstream reporting uses this to say *which* orderings may be
  /// missing, and checkpoints carry it so a resumed run can label races
  /// that only existed because of the missing edges.
  std::vector<std::string> UnsaturatedRules;

  bool degraded() const { return DowngradedForMemory || DeadlineExceeded; }
};

/// Edge counts per rule, for tests and reporting.
struct HbRuleStats {
  uint64_t ProgramOrderEdges = 0;
  uint64_t ForkJoinEdges = 0;
  uint64_t NotifyWaitEdges = 0;
  uint64_t ListenerEdges = 0;
  uint64_t SendEdges = 0;
  uint64_t ExternalChainEdges = 0;
  uint64_t IpcEdges = 0;
  uint64_t AtomicityEdges = 0;
  uint64_t QueueRule1Edges = 0;
  uint64_t QueueRule2Edges = 0;
  uint64_t QueueRule3Edges = 0;
  uint64_t QueueRule4Edges = 0;
  uint64_t ConventionalOrderEdges = 0;
  /// Derivation passes run (fixpoint rounds under BFS).  A pass that
  /// only computes clocks -- no rules, or a saturated resume -- is not
  /// counted.
  uint32_t FixpointRounds = 0;
};

/// Everything needed to freeze the derivation and restore it in another
/// process.  Every derived edge is sound and is counted when it is
/// added, so any point -- between two nodes of a pass, or two rounds --
/// is a consistent frontier: the graph holds base + DerivedEdges.
///
/// Resuming replays DerivedEdges onto a freshly built base graph and
/// derives again from there: a pass re-evaluates every rule instance
/// and the oracle's clocks are a cache of the edges, so the frontier
/// carries neither clocks nor a scan position.  The relation is the
/// unique least fixpoint of monotone rules, so the resumed run
/// converges to the same relation -- and therefore the same reports --
/// as an uninterrupted one, under whichever oracle it picks.
///
/// The same shape is the relation a finished HbIndex publishes
/// (HbIndex::relation()) and a race report carries, so confirmation
/// resumes the analysis's relation instead of deriving it again.
struct HbFrontier {
  /// The fixpoint converged; a resume can skip rule evaluation entirely.
  bool Saturated = false;
  /// Rule-edge counters at the freeze point (base counters included);
  /// Stats.FixpointRounds counts the passes (or rounds) begun.
  HbRuleStats Stats;
  /// Every derived edge inserted so far, in insertion order.
  std::vector<HbEdge> DerivedEdges;
  /// Rule families still short of their fixpoint (mirrors
  /// HbDegradation::UnsaturatedRules at the freeze point).
  std::vector<std::string> UnsaturatedRules;
};

/// Checkpoint hooks for HbIndex construction.  All fields optional:
/// Save, when set, is called with a consistent frontier at every cadence
/// tick (EveryMillis of wall time since the build started, checked
/// every 4096 nodes of a pass and after every round) and always when
/// the derivation is cut short; Resume, when set, seeds construction
/// from a previously saved frontier.  A Resume frontier that does not
/// fit the trace is ignored, and the derivation starts afresh: its
/// base rule counters must equal those of the trace's own base graph,
/// and every derived edge must be one that graph accepts (inside it,
/// forward in trace order).  A frontier from another trace is thus
/// never replayed, and never indexes out of range.
struct HbCheckpointing {
  double EveryMillis = 0;
  std::function<void(const HbFrontier &)> Save;
  const HbFrontier *Resume = nullptr;
};

/// The built happens-before relation, queryable at record granularity.
class HbIndex {
public:
  HbIndex(const Trace &T, const TaskIndex &Index, const HbOptions &Options,
          const HbCheckpointing *Checkpoint = nullptr);
  ~HbIndex();

  HbIndex(const HbIndex &) = delete;
  HbIndex &operator=(const HbIndex &) = delete;
  HbIndex(HbIndex &&) = default;

  /// Returns true if record \p A happens before record \p B.
  bool happensBefore(uint32_t A, uint32_t B) const;

  /// Returns true if the records are ordered either way.
  bool ordered(uint32_t A, uint32_t B) const {
    return happensBefore(A, B) || happensBefore(B, A);
  }

  /// Event-level order: end(\p E1) happens before begin(\p E2).
  bool taskOrdered(TaskId E1, TaskId E2) const;

  const HbRuleStats &ruleStats() const { return Stats; }
  const HbGraph &graph() const { return *Graph; }

  /// What the degradation ladder did (oracle downgrade, blown deadline).
  const HbDegradation &degradation() const { return Degrade; }

  /// True when the derivation ran to convergence (also true when none
  /// was needed, e.g. the conventional model).  False when the deadline
  /// rung or MaxFixpointRounds cut it short.
  bool saturated() const { return Converged; }

  /// Freezes the current state as a resumable frontier (see HbFrontier).
  HbFrontier exportFrontier() const;

  /// The finished relation as a shared frontier, equal to
  /// exportFrontier() and published once at the end of construction,
  /// for race reports to carry (RaceReport::Relation).  Null unless the
  /// index was built under OrderingModel::Cafa with all four rule
  /// toggles on: any other relation is not the one confirmation judges
  /// claims against, and its base graph may differ.
  std::shared_ptr<const HbFrontier> relation() const { return Relation; }

  /// Passes (or rounds) this construction ran itself: ruleStats()'s
  /// FixpointRounds less those of an accepted Resume frontier, so 0 when
  /// it resumed a saturated one.
  uint32_t roundsRun() const { return RoundsRun; }

  /// Swaps the reachability oracle for the BFS floor, releasing its
  /// chain clocks.  For callers
  /// that are done with bulk ordering queries -- the windowed detector
  /// answers them from its own frontier rows -- but keep the index
  /// alive for the graph and occasional queries.  All oracles answer
  /// identically, so happensBefore() stays correct, just slower.
  /// degradation() keeps reporting the build-time provenance.
  void shedOracle();

  /// Analyzer memory: every table of the graph, the oracle, and the
  /// derived edges the relation keeps.
  size_t memoryBytes() const;

  /// True when happensBefore()/ordered() may be issued from several
  /// threads at once: the chain oracle answers from an immutable clock
  /// matrix.  False for the BFS floor, which reuses per-query scratch --
  /// callers (the parallel detector scan) must then stay sequential.
  bool concurrentQueriesSafe() const;

private:
  struct Builder;

  const Trace &T;
  std::unique_ptr<HbGraph> Graph;
  std::unique_ptr<Reachability> Reach;
  HbRuleStats Stats;
  HbDegradation Degrade;
  /// Every derived edge inserted so far, in insertion order (the
  /// frontier's edges; exportFrontier() adds the live counters).  Moved
  /// into Relation when construction publishes one.
  std::vector<HbEdge> DerivedEdges;
  std::shared_ptr<const HbFrontier> Relation;
  uint32_t RoundsRun = 0;
  bool Converged = false;
};

} // namespace cafa

#endif // CAFA_HB_HBINDEX_H
