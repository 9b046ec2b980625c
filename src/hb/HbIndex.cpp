//===- hb/HbIndex.cpp - The CAFA causality model ----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/HbIndex.h"

#include "support/WorkerPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

using namespace cafa;

namespace {

/// One send/sendAtFront operation targeting a queue.
struct SendOp {
  NodeId Node;
  TaskId Event;
  uint64_t DelayMs;
  bool AtFront;
};

} // namespace

/// Performs the rule evaluation for one HbIndex.
struct HbIndex::Builder {
  const Trace &T;
  HbGraph &G;
  const HbOptions &Opt;
  HbRuleStats &Stats;

  /// Events per queue in observed execution (begin-record) order.
  std::vector<std::vector<TaskId>> QueueEvents;
  /// Send operations per queue in record order.
  std::vector<std::vector<SendOp>> QueueSends;

  Builder(const Trace &T, HbGraph &G, const HbOptions &Opt,
          HbRuleStats &Stats)
      : T(T), G(G), Opt(Opt), Stats(Stats),
        QueueEvents(T.numQueues()), QueueSends(T.numQueues()) {}

  void collect() {
    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
         ++I) {
      const TraceRecord &Rec = T.record(I);
      if (Rec.Kind == OpKind::TaskBegin) {
        const TaskInfo &Info = T.taskInfo(Rec.Task);
        if (Info.Kind == TaskKind::Event && Info.Queue.isValid())
          QueueEvents[Info.Queue.index()].push_back(Rec.Task);
        continue;
      }
      if (Rec.Kind == OpKind::Send || Rec.Kind == OpKind::SendAtFront) {
        SendOp Op;
        Op.Node = G.nodeForRecord(I);
        Op.Event = Rec.targetTask();
        Op.DelayMs = Rec.delayMs();
        Op.AtFront = Rec.Kind == OpKind::SendAtFront;
        QueueSends[Rec.queue().index()].push_back(Op);
      }
    }
  }

  /// Adds the edges that need no derived information.
  void addBaseEdges() {
    Stats.ProgramOrderEdges = G.numEdges();

    // Maps for pairing rules.
    std::vector<std::vector<NodeId>> MonitorNotifies;
    std::vector<std::vector<NodeId>> ListenerRegisters;
    std::unordered_map<uint64_t, NodeId> IpcSends;
    std::vector<NodeId> ExternalBegins; // begin nodes, in begin order

    auto growTo = [](std::vector<std::vector<NodeId>> &V, size_t Index) {
      if (V.size() <= Index)
        V.resize(Index + 1);
    };

    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
         ++I) {
      const TraceRecord &Rec = T.record(I);
      NodeId Node = G.nodeForRecord(I);
      switch (Rec.Kind) {
      case OpKind::TaskBegin: {
        const TaskInfo &Info = T.taskInfo(Rec.Task);
        if (Opt.Model == OrderingModel::Cafa &&
            Opt.EnableExternalInputRule && Info.External)
          ExternalBegins.push_back(Node);
        break;
      }
      case OpKind::Fork: {
        NodeId ChildBegin = G.beginNode(Rec.targetTask());
        if (ChildBegin.isValid()) {
          G.addEdge(Node, ChildBegin);
          ++Stats.ForkJoinEdges;
        }
        break;
      }
      case OpKind::Join: {
        NodeId ChildEnd = G.endNode(Rec.targetTask());
        if (ChildEnd.isValid()) {
          G.addEdge(ChildEnd, Node);
          ++Stats.ForkJoinEdges;
        }
        break;
      }
      case OpKind::Notify: {
        growTo(MonitorNotifies, Rec.monitor().index());
        MonitorNotifies[Rec.monitor().index()].push_back(Node);
        break;
      }
      case OpKind::Wait: {
        // Signal-and-wait rule: every earlier notify on this monitor
        // happens before this wait.
        if (Rec.monitor().index() < MonitorNotifies.size()) {
          for (NodeId Notify : MonitorNotifies[Rec.monitor().index()]) {
            if (G.taskOfNode(Notify) == Rec.Task)
              continue; // program order already covers it
            G.addEdge(Notify, Node);
            ++Stats.NotifyWaitEdges;
          }
        }
        break;
      }
      case OpKind::RegisterListener: {
        if (Opt.Model == OrderingModel::Cafa && Opt.EnableListenerRule) {
          growTo(ListenerRegisters, Rec.listener().index());
          ListenerRegisters[Rec.listener().index()].push_back(Node);
        }
        break;
      }
      case OpKind::PerformListener: {
        if (Opt.Model == OrderingModel::Cafa && Opt.EnableListenerRule &&
            Rec.listener().index() < ListenerRegisters.size()) {
          for (NodeId Reg : ListenerRegisters[Rec.listener().index()]) {
            G.addEdge(Reg, Node);
            ++Stats.ListenerEdges;
          }
        }
        break;
      }
      case OpKind::Send:
      case OpKind::SendAtFront: {
        NodeId TargetBegin = G.beginNode(Rec.targetTask());
        if (TargetBegin.isValid()) {
          G.addEdge(Node, TargetBegin);
          ++Stats.SendEdges;
        }
        break;
      }
      case OpKind::IpcSend:
        IpcSends[Rec.Arg0] = Node;
        break;
      case OpKind::IpcRecv: {
        auto It = IpcSends.find(Rec.Arg0);
        if (It != IpcSends.end()) {
          G.addEdge(It->second, Node);
          ++Stats.IpcEdges;
        }
        break;
      }
      default:
        break;
      }
    }

    // External input rule: chain externally generated events in the
    // order they began (conservative; Section 3.3).
    for (size_t I = 0; I + 1 < ExternalBegins.size(); ++I) {
      NodeId End = G.endNode(G.taskOfNode(ExternalBegins[I]));
      if (End.isValid()) {
        G.addEdge(End, ExternalBegins[I + 1]);
        ++Stats.ExternalChainEdges;
      }
    }

    // Conventional model: a looper thread's events are totally ordered,
    // as a thread-based detector would assume.
    if (Opt.Model == OrderingModel::Conventional) {
      for (const std::vector<TaskId> &Events : QueueEvents) {
        for (size_t I = 0; I + 1 < Events.size(); ++I) {
          NodeId End = G.endNode(Events[I]);
          NodeId Begin = G.beginNode(Events[I + 1]);
          if (End.isValid() && Begin.isValid()) {
            G.addEdge(End, Begin);
            ++Stats.ConventionalOrderEdges;
          }
        }
      }
    }
  }

  /// Cumulative work counters for CAFA_HB_PROFILE: the atomicity sweep's
  /// sources swept, row words projected and proposals, and the send
  /// scans' pair visits and skips.
  uint64_t SweptSources = 0, ProjectedWords = 0, AtomProposals = 0;
  uint64_t VisitSend = 0, SkipSend = 0;

  /// Worker pool for the parallel analysis mode (HbOptions::Threads),
  /// lent by HbIndex; nullptr or zero helpers means sequential rounds.
  WorkerPool *Pool = nullptr;

  /// Per-round frozen context: the oracle (and its inline row array),
  /// and whether exact gained facts drive this round.  Frozen for the
  /// whole round -- scans only read it -- which is what makes the
  /// per-queue scans safe to run concurrently.
  const Reachability *RoundOracle = nullptr;
  const BitVec *RoundRows = nullptr;
  bool RoundExact = false;

  /// Output and scratch of one scan unit (a dispatch chunk, one queue's
  /// pair scan or gap-1 pass, or a range of atomicity sweep sources).
  /// Parallel rounds give every unit its own ScanOut and merge them in
  /// canonical order, so the committed proposal stream, counters, and
  /// cursors never depend on which thread ran what.  Covered[i] marks an
  /// adjacent conclusion end(i) -> begin(i+1) that holds in the oracle
  /// or in this round's proposals; Run[i] counts consecutive covered
  /// links starting at i.
  struct ScanOut {
    std::vector<std::pair<NodeId, NodeId>> Edges;
    uint64_t Atomicity = 0, Q1 = 0, Q2 = 0, Q3 = 0, Q4 = 0;
    uint64_t SweptSources = 0, ProjectedWords = 0;
    uint64_t VisitSend = 0, SkipSend = 0;
    std::vector<uint8_t> Covered;
    std::vector<uint32_t> Run;
  };

  /// Semi-naive scan frontier of the queue rules, one per send queue.
  /// Pairs are scanned in gap-diagonal order; everything
  /// lexicographically below (Gap, I) has been evaluated at least once
  /// ("seen") in an earlier round.  Seen pairs are re-evaluated only when
  /// a premise-source row changed in the last oracle update; unseen
  /// pairs always evaluate and are the only place the per-round edge cap
  /// may cut the scan, so the seen region's sweep always completes --
  /// the invariant that makes the change-driven skip sound.  The cursor
  /// type lives in HbIndex.h (HbScanCursor) because checkpoints persist
  /// these frontiers.
  std::vector<HbScanCursor> SendCursor;

  /// Reverse map from a node id to its role in the queue-rule premises,
  /// so a gained reachability fact (From now reaches To) can be
  /// dispatched to exactly the rule instances it can newly fire.
  /// Premises are:
  ///   queue 1..4  s1 < s2 (post nodes)       Send source and target
  ///   queue 2/4   s2 < begin(e1)             Send source, posted target
  /// FactSources/FactTargets are those same sets as masks, installed
  /// into the oracle as its gained-fact filter.  The atomicity rule
  /// needs no facts: it is swept whole every round (AtomQueue).
  struct NodeRole {
    bool IsSend = false;
    uint32_t Q = 0;   ///< queue index
    uint32_t Pos = 0; ///< position in QueueSends[Q]
    /// For begin nodes: the send that posted this event (as a position
    /// in QueueSends[SendQ]), or SendQ == UINT32_MAX if none recorded.
    uint32_t SendQ = UINT32_MAX;
    uint32_t SendPos = 0;
  };
  std::vector<NodeRole> Roles;
  BitVec FactSources, FactTargets;

  /// One looper's events laid out for the atomicity sweep: member k of
  /// Begins/Ends is begin(e_k)/end(e_k) in QueueEvents order.  Built the
  /// first round gap 1 leaves the looper uncovered (layOutLooper), so
  /// covered loopers -- the common case at scale -- never pay for it.
  struct AtomQueue {
    NodeProjection Begins, Ends;
  };
  std::vector<AtomQueue> AtomQueues;

  void layOutLooper(size_t Qi) {
    const std::vector<TaskId> &Events = QueueEvents[Qi];
    if (AtomQueues[Qi].Begins.size() == Events.size())
      return;
    std::vector<NodeId> Begins, Ends;
    for (TaskId E : Events) {
      Begins.push_back(G.beginNode(E));
      Ends.push_back(G.endNode(E));
    }
    AtomQueues[Qi] = {NodeProjection(std::move(Begins)),
                      NodeProjection(std::move(Ends))};
  }

  /// Fills Roles and the fact filter masks, and sizes the atomicity
  /// layouts.  Call after collect() and addBaseEdges(), once the graph's
  /// node universe is final.
  void buildRuleTables() {
    size_t N = G.numNodes();
    Roles.assign(N, {});
    FactSources.resize(N);
    FactTargets.resize(N);
    AtomQueues.assign(QueueEvents.size(), {});
    for (size_t Q = 0; Q != QueueSends.size() && Opt.EnableQueueRules; ++Q) {
      const std::vector<SendOp> &Sends = QueueSends[Q];
      if (Sends.size() < 2)
        continue;
      for (size_t Pos = 0; Pos != Sends.size(); ++Pos) {
        const SendOp &S = Sends[Pos];
        if (S.Node.isValid()) {
          NodeRole &R = Roles[S.Node.index()];
          R.IsSend = true;
          R.Q = static_cast<uint32_t>(Q);
          R.Pos = static_cast<uint32_t>(Pos);
          FactSources.set(S.Node.index());
          FactTargets.set(S.Node.index());
        }
        NodeId B = G.beginNode(S.Event);
        if (B.isValid()) {
          // Rules 2/4 premise target: this event's begin node, reached
          // from a later front-send's post node.
          Roles[B.index()].SendQ = static_cast<uint32_t>(Q);
          Roles[B.index()].SendPos = static_cast<uint32_t>(Pos);
          FactTargets.set(B.index());
        }
      }
    }
  }

  // -- Scan primitives ---------------------------------------------------
  // Members so the parallel mode can run the same code against per-unit
  // ScanOut buffers.  All of them read only the frozen round context and
  // the pre-round cursors; the only mutation is into the ScanOut (and,
  // for capped send scans, a cursor write on a cap cut -- capped scans
  // only ever run sequentially).

  bool reaches(NodeId From, NodeId To) const {
    // Gap-1 passes and send scans issue many queries per round;
    // closure-backed oracles expose their rows so the hot path is an
    // inline bit test.
    return RoundRows ? RoundRows[From.index()].test(To.index())
                     : RoundOracle->reaches(From, To);
  }

  /// Will the graph accept edge From -> To?  HbGraph::addEdge refuses
  /// edges against trace order (a salvaged trace may contradict its own
  /// linearization), and a refused proposal covers nothing.
  static bool accepted(NodeId From, NodeId To) {
    return From.isValid() && To.isValid() && From < To;
  }

  void propose(ScanOut &Out, NodeId From, NodeId To,
               uint64_t &Counter) const {
    if (!From.isValid() || !To.isValid())
      return;
    if (reaches(From, To))
      return; // already implied
    Out.Edges.emplace_back(From, To);
    ++Counter;
  }

  // Run[i] = number of consecutive covered links starting at link i;
  // a window of Gap covered links implies the wide conclusion
  // end(i) -> begin(i+Gap) by chaining through program order.
  static void computeRuns(ScanOut &Out, size_t K) {
    Out.Run.assign(K - 1, 0);
    for (size_t I = K - 1; I-- > 0;)
      Out.Run[I] =
          Out.Covered[I] ? (I + 1 < K - 1 ? Out.Run[I + 1] : 0) + 1 : 0;
  }

  /// Evaluates one ordered send pair against queue rules 1-4; the
  /// returned Link tells whether the forward conclusion
  /// end(e1) -> begin(e2) is covered afterwards.  Only adjacent pairs
  /// need it (WantLink), so other callers skip its query.
  bool evalSendPair(ScanOut &Out, const SendOp &S1, const SendOp &S2,
                    bool WantLink) const {
    NodeId Begin1 = G.beginNode(S1.Event);
    NodeId Begin2 = G.beginNode(S2.Event);
    NodeId End1 = G.endNode(S1.Event);
    NodeId End2 = G.endNode(S2.Event);
    bool Link = WantLink && End1.isValid() && Begin2.isValid() &&
                reaches(End1, Begin2);
    // All rules require the sends to be ordered; sends appear in
    // record order so only s1 < s2 (by position) can satisfy it.
    if (!reaches(S1.Node, S2.Node))
      return Link;
    if (!S1.AtFront && !S2.AtFront) {
      // Rule 1: FIFO among ordered sends when delay1 <= delay2.
      if (S1.DelayMs <= S2.DelayMs) {
        propose(Out, End1, Begin2, Out.Q1);
        Link |= accepted(End1, Begin2);
      }
    } else if (!S1.AtFront && S2.AtFront) {
      // Rule 2: the front-enqueued event jumps ahead when it is
      // enqueued before e1 can begin.
      if (Begin1.isValid() && reaches(S2.Node, Begin1))
        propose(Out, End2, Begin1, Out.Q2);
    } else if (S1.AtFront && !S2.AtFront) {
      // Rule 3: an already-front event precedes later sends.
      propose(Out, End1, Begin2, Out.Q3);
      Link |= accepted(End1, Begin2);
    } else {
      // Rule 4: later front-send jumps ahead of an earlier
      // front-send it provably precedes.
      if (Begin1.isValid() && reaches(S2.Node, Begin1))
        propose(Out, End2, Begin1, Out.Q4);
    }
    return Link;
  }

  /// Was the pair at (Gap, I) of a queue with K elements evaluated in
  /// an earlier round?  Unseen pairs are skipped by the dispatch below
  /// -- the resumed scan reaches them with an oracle that still holds
  /// the fact (monotone), so nothing is lost.
  static bool pairSeen(const HbScanCursor &C, size_t K, uint32_t Gap,
                       uint32_t I) {
    if (C.Gap >= K)
      return true; // queue fully scanned at least once
    if (Gap < 2)
      return false; // the gap-1 pass still re-evaluates these
    return Gap < C.Gap || (Gap == C.Gap && I < C.I);
  }

  /// Semi-naive dispatch over GainedList[Lo, Hi): route every queue-rule
  /// premise fact that appeared in the last oracle update to the
  /// already-seen rule instances it can newly fire.  This stands in for
  /// re-scanning the seen region of every send queue.  Never capped (its
  /// volume is the fact delta, not a pair quadratic), so parallel chunks
  /// of it commit unconditionally.
  void dispatchGained(const std::vector<GainedWord> &GainedList, size_t Lo,
                      size_t Hi, ScanOut &Out) const {
    for (size_t GI = Lo; GI != Hi; ++GI) {
      const GainedWord &GW = GainedList[GI];
      const NodeRole &U = Roles[GW.From];
      if (!U.IsSend)
        continue;
      for (uint64_t Bits = GW.Bits; Bits; Bits &= Bits - 1) {
        uint32_t V =
            GW.WordIdx * 64 + static_cast<uint32_t>(__builtin_ctzll(Bits));
        const NodeRole &VR = Roles[V];
        // Queue-rule premise s1 < s2 just became true.
        if (VR.IsSend && VR.Q == U.Q && VR.Pos > U.Pos &&
            pairSeen(SendCursor[U.Q], QueueSends[U.Q].size(),
                     VR.Pos - U.Pos, U.Pos)) {
          ++Out.VisitSend;
          evalSendPair(Out, QueueSends[U.Q][U.Pos], QueueSends[U.Q][VR.Pos],
                       /*WantLink=*/false);
        }
        // Rules 2/4 premise s2 < begin(e1) just became true, where
        // e1 was posted by an earlier send of the same queue.
        if (VR.SendQ == U.Q && U.Pos > VR.SendPos &&
            pairSeen(SendCursor[U.Q], QueueSends[U.Q].size(),
                     U.Pos - VR.SendPos, VR.SendPos)) {
          ++Out.VisitSend;
          evalSendPair(Out, QueueSends[U.Q][VR.SendPos],
                       QueueSends[U.Q][U.Pos],
                       /*WantLink=*/false);
        }
      }
    }
  }

  /// Gap 1 of one looper's atomicity rule: evaluates every adjacent
  /// pair into \p Out and records the covered links (Out.Covered,
  /// Out.Run).  \returns true when every link is covered: each wider
  /// conclusion is then implied by the chain, now and forever (edges
  /// are never removed), and the queue needs no sweep.
  bool atomGap1(size_t Qi, ScanOut &Out) const {
    const std::vector<TaskId> &Events = QueueEvents[Qi];
    const size_t K = Events.size();
    Out.Covered.assign(K - 1, 0);
    for (size_t I = 0; I + 1 < K; ++I) {
      NodeId BeginI = G.beginNode(Events[I]);
      NodeId EndI = G.endNode(Events[I]);
      NodeId EndJ = G.endNode(Events[I + 1]);
      NodeId BeginJ = G.beginNode(Events[I + 1]);
      bool Link =
          EndI.isValid() && BeginJ.isValid() && reaches(EndI, BeginJ);
      if (BeginI.isValid() && EndJ.isValid() && BeginJ.isValid() &&
          reaches(BeginI, EndJ)) {
        // Atomicity: begin(eI) < end(eJ)  =>  end(eI) < begin(eJ).
        propose(Out, EndI, BeginJ, Out.Atomicity);
        Link |= accepted(EndI, BeginJ); // implied before, or in the batch now
      }
      Out.Covered[I] = Link;
    }
    computeRuns(Out, K);
    return Out.Run[0] == K - 1;
  }

  /// The atomicity rule for sources [Lo, Hi) of looper \p Qi, past what
  /// gap 1 covered (\p Run, from atomGap1).  Per source event eI, two
  /// oracle rows projected onto the looper's events give every later
  /// event J at once:
  ///   Prem = { J : begin(eI) < end(eJ) }     (row of begin(eI), ends)
  ///   Conc = { J : end(eI) < begin(eJ) }     (row of end(eI), begins)
  /// and Prem & ~Conc is exactly the set of pairs whose premise holds and
  /// whose conclusion is missing.  Candidates are proposed in ascending
  /// J, skipping those an earlier proposal for the same eI already
  /// implies (end(eI) -> begin(eJ) carries end(eI) to everything
  /// end(eJ) reaches).  Every pair is re-evaluated every round at about
  /// K * (words per projection) word operations per looper, so the rule
  /// needs no cursor and no gained facts.
  void sweepAtomSources(size_t Qi, const std::vector<uint32_t> &Run,
                        size_t Lo, size_t Hi, ScanOut &Out) const {
    const AtomQueue &AQ = AtomQueues[Qi];
    const size_t K = AQ.Begins.size(), NW = (K + 63) / 64;
    std::vector<uint64_t> Prem(NW), Conc(NW), Cand(NW), Implied(NW),
        Tmp(NW);
    for (size_t I = Lo; I != Hi; ++I) {
      // Pairs up to I + Run[I] are implied by covered links, and gap 1
      // evaluated J = I + 1.
      size_t First = I + std::max<size_t>(1, Run[I]) + 1;
      NodeId BeginI = AQ.Begins.node(I), EndI = AQ.Ends.node(I);
      if (First >= K || !BeginI.isValid() || !EndI.isValid())
        continue;
      ++Out.SweptSources;
      Out.ProjectedWords +=
          RoundOracle->project(BeginI, AQ.Ends, First, nullptr, Prem.data());
      bool Any = false;
      for (size_t W = First >> 6; W != NW && !Any; ++W)
        Any = Prem[W] != 0;
      if (!Any)
        continue;
      Out.ProjectedWords +=
          RoundOracle->project(EndI, AQ.Begins, First, Prem.data(), Conc.data());
      for (size_t W = First >> 6; W != NW; ++W) {
        Cand[W] = Prem[W] & ~Conc[W];
        Implied[W] = 0;
      }
      for (size_t W = First >> 6; W != NW; ++W) {
        for (uint64_t Bits = Cand[W]; (Bits &= ~Implied[W]); Bits &= Bits - 1) {
          size_t J = W * 64 + static_cast<size_t>(__builtin_ctzll(Bits));
          NodeId BeginJ = AQ.Begins.node(J);
          Out.Edges.emplace_back(EndI, BeginJ);
          ++Out.Atomicity;
          if (!accepted(EndI, BeginJ))
            continue;
          Out.ProjectedWords += RoundOracle->project(
              AQ.Ends.node(J), AQ.Begins, J + 1, Cand.data(), Tmp.data());
          for (size_t V = W; V != NW; ++V)
            Implied[V] |= Tmp[V];
        }
      }
    }
  }

  /// One send queue's gap-diagonal scan into \p Out.  \p Cap is the
  /// per-round edge cap, compared against Out.Edges.size() (the caller
  /// passes the round-global accumulator in capped mode); 0 disables it,
  /// which is how the optimistic parallel mode runs -- the commit step
  /// proves the cap could not have fired, or re-runs capped.  \returns
  /// true when the scan completed (the caller then marks the queue fully
  /// seen); a cap cut stores the cursor itself.
  bool scanSendQueue(size_t Qi, ScanOut &Out, size_t Cap) {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    const size_t K = Sends.size();
    auto chunkFull = [&] { return Cap && Out.Edges.size() >= Cap; };
    // Gap 1: evaluate adjacent pairs and record the covered links.
    // Runs in full every round (linear, and Covered must be fresh);
    // a cap cut here leaves the tail uncovered, which is safe.
    Out.Covered.assign(K - 1, 0);
    for (size_t A = 0; A + 1 < K && !chunkFull(); ++A)
      Out.Covered[A] =
          evalSendPair(Out, Sends[A], Sends[A + 1], /*WantLink=*/true);
    computeRuns(Out, K);
    if (K >= 2 && Out.Run[0] == K - 1) {
      // Every wider rule-1/3 conclusion is implied by the covered
      // chain, and the reverse-direction rules 2/4 need a
      // front-enqueued s2.  A queue with no front sends is therefore
      // fully implied, now and forever (edges are never removed, and
      // AtFront is a static property of the send) -- without this the
      // gap loop below walks K^2/2 pairs just to skip each one, which
      // is the quadratic wall on long single-poster queues.
      bool AnyFront = false;
      for (const SendOp &S : Sends)
        AnyFront |= S.AtFront;
      if (!AnyFront)
        return true;
    }
    const size_t CGap = SendCursor[Qi].Gap, CI = SendCursor[Qi].I;
    for (size_t Gap = RoundExact ? CGap : 2; Gap < K; ++Gap) {
      for (size_t A = (RoundExact && Gap == CGap) ? CI : 0; A + Gap < K;
           ++A) {
        const SendOp &S1 = Sends[A];
        const SendOp &S2 = Sends[A + Gap];
        // A covered window implies the forward conclusion of rules
        // 1 and 3; only a front-enqueued s2 (rules 2 and 4, reverse
        // conclusion) still needs evaluating.
        if (Out.Run[A] >= Gap && !S2.AtFront) {
          ++Out.SkipSend;
          continue;
        }
        // A full re-scan round re-evaluates the seen region too; only
        // unseen pairs may be cut by the cap.
        bool Seen = !RoundExact && (Gap < CGap || (Gap == CGap && A < CI));
        if (!Seen && chunkFull()) {
          // Everything past the cursor stays unseen.
          SendCursor[Qi] = {static_cast<uint32_t>(Gap),
                            static_cast<uint32_t>(A)};
          return false;
        }
        ++Out.VisitSend;
        evalSendPair(Out, S1, S2, /*WantLink=*/false);
      }
    }
    return true;
  }

  /// One fixpoint round of the atomicity and event-queue rules.
  ///
  /// The queue rules scan send pairs in gap-diagonal order (all
  /// adjacent pairs first, then distance 2, ...) and each round caps the
  /// number of edges they collect.  Both choices fight the same
  /// degenerate case: a chain of k same-delay sends satisfies rule 1 for
  /// all k^2/2 pairs, but only the k-1 adjacent edges carry information
  /// -- every wider pair is implied by chaining them through program
  /// order.  The chain structure is also what lets the scans prune: gap
  /// 1 records which adjacent conclusions are *covered* (already
  /// implied, or proposed into this round's batch), and a wider pair
  /// whose whole window is covered is skipped without a query -- its
  /// conclusion is implied by the covered links.
  ///
  /// The atomicity rule shares the gap-1 pass and its covered runs, then
  /// sweeps the rest of each looper one source row at a time
  /// (sweepAtomSources): uncapped, and complete every round.
  ///
  /// The queue rules' rounds after the first are *semi-naive* when the
  /// oracle reports deltas:
  ///
  ///  - \p Gained (exact mode) lists the premise-shaped reachability
  ///    facts that became true in the last update.  Each fact is
  ///    dispatched through Roles to the rule instances it can newly
  ///    fire, and the already-seen region of every send scan is skipped
  ///    entirely -- a seen pair either fired when its premise first
  ///    appeared (its conclusion is in the graph and propose() drops it
  ///    as implied) or its premise has still never held.
  ///  - nullptr (rebuild-based closure, BFS, the chain oracle's frugal
  ///    search tier) re-scans everything -- a from-scratch oracle cannot
  ///    say what changed.
  ///
  /// Every skip is of a pair that provably proposes nothing new, so the
  /// fixpoint -- and therefore every report -- is identical across
  /// oracles; only time and memory differ.
  ///
  /// \returns the edges added this round (already inserted into the
  /// graph), for the oracle's delta path.
  std::vector<HbEdge>
  applyDerivedRules(const Reachability &Oracle,
                    const std::vector<GainedWord> *Gained) {
    // Keep rounds small: the incremental oracle makes a round-boundary
    // refresh cheap, and the sooner the oracle reflects a chain's
    // adjacent edges, the more wide-gap pairs the next scan skips as
    // implied -- tighter rounds insert strictly fewer redundant edges.
    const size_t ChunkCap = G.numNodes() / 8 + 1024;

    // Freeze the round context.  Scans only read it (plus the pre-round
    // cursors), which is what makes per-queue scans independent: each
    // queue's proposal stream depends on the frozen oracle and its own
    // cursor only, never on another queue's proposals in this round.
    RoundOracle = &Oracle;
    RoundRows = Oracle.rowsOrNull();
    RoundExact = Gained != nullptr;
    if (Opt.EnableQueueRules && SendCursor.size() != QueueSends.size())
      SendCursor.assign(QueueSends.size(), {});

    // A send queue participates this round unless exact fact dispatch
    // covers it (fully seen).  Every looper with a pair sweeps.
    auto runsAtom = [&](size_t Qi) {
      return Opt.EnableAtomicityRule && QueueEvents[Qi].size() >= 2;
    };
    auto runsSend = [&](size_t Qi) {
      size_t K = QueueSends[Qi].size();
      return K >= 2 && !(RoundExact && SendCursor[Qi].Gap >= K);
    };
    auto mergeScan = [](ScanOut &Dst, const ScanOut &Src) {
      Dst.Edges.insert(Dst.Edges.end(), Src.Edges.begin(), Src.Edges.end());
      Dst.Atomicity += Src.Atomicity;
      Dst.Q1 += Src.Q1;
      Dst.Q2 += Src.Q2;
      Dst.Q3 += Src.Q3;
      Dst.Q4 += Src.Q4;
      Dst.SweptSources += Src.SweptSources;
      Dst.ProjectedWords += Src.ProjectedWords;
      Dst.VisitSend += Src.VisitSend;
      Dst.SkipSend += Src.SkipSend;
    };

    // Main accumulates the round: committed proposals in canonical
    // (dispatch, loopers ascending, send queues ascending) order --
    // exactly the sequential emission order -- plus the counters.
    ScanOut Main;

    // The parallel mode needs concurrency-safe queries:
    // Reachability::reaches may mutate per-oracle scratch (BFS, and the
    // chain oracle's search phase), so only oracles answering from
    // immutable state -- closure rows or frozen chain clocks -- are safe
    // to query from many threads.
    bool Parallel = Pool && Pool->helperThreads() > 0 &&
                    (RoundRows || RoundOracle->concurrentQueriesSafe());
    if (!Parallel) {
      if (Gained)
        dispatchGained(*Gained, 0, Gained->size(), Main);
      for (size_t Qi = 0; Qi != QueueEvents.size(); ++Qi) {
        if (!runsAtom(Qi) || atomGap1(Qi, Main))
          continue;
        layOutLooper(Qi);
        sweepAtomSources(Qi, Main.Run, 0, QueueEvents[Qi].size() - 2, Main);
      }
      if (Opt.EnableQueueRules)
        for (size_t Qi = 0; Qi != QueueSends.size(); ++Qi)
          if (runsSend(Qi) && scanSendQueue(Qi, Main, ChunkCap))
            SendCursor[Qi] = {static_cast<uint32_t>(QueueSends[Qi].size()),
                              0};
    } else {
      // Optimistic parallel round, in two waves.  Wave 1 runs every
      // dispatch chunk, gap-1 pass and send scan uncapped and
      // concurrently (cursors are frozen -- nothing writes them until
      // commit); wave 2 fans the atomicity sweep of every looper gap 1
      // left uncovered out over source ranges.  The per-unit buffers
      // then commit sequentially in canonical order, each looper's
      // sweep ranges in source order right after its gap-1 pass.  The
      // atomicity rule is uncapped, so its units always commit.  A send
      // queue is accepted verbatim when even its full uncapped output
      // keeps the round strictly under the cap: the capped sequential
      // scan would then never have seen chunkFull() fire, so the
      // buffers are bit-for-bit what it produces.  From the first send
      // queue where the cap could have fired, fall back to the real
      // capped sequential scan (the cheap case: the cap only fires
      // while the fixpoint is young).
      enum Kind : uint8_t { Dispatch, Atom, Send };
      struct Unit {
        Kind K;
        size_t Index; // queue index, or dispatch chunk begin
        size_t End;   // dispatch chunk end
        ScanOut Out;
        bool Covered = false; // Atom: gap 1 covered the looper
      };
      std::vector<Unit> Units;
      if (Gained && !Gained->empty()) {
        size_t Threads = Pool->helperThreads() + 1;
        size_t Chunk = std::max<size_t>(
            (Gained->size() + Threads - 1) / Threads, 64);
        for (size_t Lo = 0; Lo < Gained->size(); Lo += Chunk)
          Units.push_back(
              {Dispatch, Lo, std::min(Lo + Chunk, Gained->size()), {}});
      }
      for (size_t Qi = 0; Qi != QueueEvents.size(); ++Qi)
        if (runsAtom(Qi))
          Units.push_back({Atom, Qi, 0, {}});
      if (Opt.EnableQueueRules)
        for (size_t Qi = 0; Qi != QueueSends.size(); ++Qi)
          if (runsSend(Qi))
            Units.push_back({Send, Qi, 0, {}});

      Pool->parallelFor(Units.size(), [&](size_t UI) {
        Unit &U = Units[UI];
        switch (U.K) {
        case Dispatch:
          dispatchGained(*Gained, U.Index, U.End, U.Out);
          break;
        case Atom:
          U.Covered = atomGap1(U.Index, U.Out);
          if (!U.Covered)
            layOutLooper(U.Index); // this unit's own slot
          break;
        case Send:
          scanSendQueue(U.Index, U.Out, /*Cap=*/0);
          break;
        }
      });

      // Sources per sweep unit: the cost of a source falls with its
      // position, so many small ranges keep the helpers balanced.
      constexpr size_t SweepChunk = 128;
      struct Sweep {
        size_t Unit; // the looper's gap-1 unit
        size_t Lo, Hi;
        ScanOut Out;
      };
      std::vector<Sweep> Sweeps;
      for (size_t UI = 0; UI != Units.size(); ++UI)
        if (Units[UI].K == Atom && !Units[UI].Covered)
          for (size_t Lo = 0, E = QueueEvents[Units[UI].Index].size() - 2;
               Lo < E; Lo += SweepChunk)
            Sweeps.push_back({UI, Lo, std::min(Lo + SweepChunk, E), {}});
      Pool->parallelFor(Sweeps.size(), [&](size_t SI) {
        Sweep &S = Sweeps[SI];
        const Unit &U = Units[S.Unit];
        sweepAtomSources(U.Index, U.Out.Run, S.Lo, S.Hi, S.Out);
      });

      bool Fallback = false;
      size_t NextSweep = 0;
      for (size_t UI = 0; UI != Units.size(); ++UI) {
        Unit &U = Units[UI];
        if (U.K != Send) {
          mergeScan(Main, U.Out);
          for (; NextSweep != Sweeps.size() && Sweeps[NextSweep].Unit == UI;
               ++NextSweep)
            mergeScan(Main, Sweeps[NextSweep].Out);
          continue;
        }
        size_t K = QueueSends[U.Index].size();
        if (!Fallback && Main.Edges.size() + U.Out.Edges.size() < ChunkCap) {
          mergeScan(Main, U.Out);
          SendCursor[U.Index] = {static_cast<uint32_t>(K), 0};
          continue;
        }
        Fallback = true;
        if (scanSendQueue(U.Index, Main, ChunkCap))
          SendCursor[U.Index] = {static_cast<uint32_t>(K), 0};
      }
    }

    SweptSources += Main.SweptSources;
    ProjectedWords += Main.ProjectedWords;
    AtomProposals += Main.Atomicity;
    VisitSend += Main.VisitSend;
    SkipSend += Main.SkipSend;

    // Apply the batch (dedup first: atomicity and queue rules can derive
    // the same event-level edge).
    std::vector<std::pair<NodeId, NodeId>> &NewEdges = Main.Edges;
    std::sort(NewEdges.begin(), NewEdges.end(),
              [](const std::pair<NodeId, NodeId> &X,
                 const std::pair<NodeId, NodeId> &Y) {
                if (X.first != Y.first)
                  return X.first < Y.first;
                return X.second < Y.second;
              });
    NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                   NewEdges.end());
    std::vector<HbEdge> Batch;
    Batch.reserve(NewEdges.size());
    // Only edges the graph actually accepted may reach the oracle and
    // the checkpoint frontier: a rejected contradiction (corrupted
    // trace) must neither teach the oracle a fact the graph does not
    // hold nor stall convergence by re-entering the delta every round.
    for (auto [From, To] : NewEdges)
      if (G.addEdge(From, To))
        Batch.push_back({From, To});

    Stats.AtomicityEdges += Main.Atomicity;
    Stats.QueueRule1Edges += Main.Q1;
    Stats.QueueRule2Edges += Main.Q2;
    Stats.QueueRule3Edges += Main.Q3;
    Stats.QueueRule4Edges += Main.Q4;
    return Batch;
  }
};

HbIndex::HbIndex(const Trace &T, const TaskIndex &Index,
                 const HbOptions &Options, const HbCheckpointing *Checkpoint)
    : T(T), Index(Index),
      Graph(std::make_unique<HbGraph>(T, Index)) {
  bool Profile = std::getenv("CAFA_HB_PROFILE") != nullptr;
  auto Now = [] { return std::chrono::steady_clock::now(); };
  auto Ms = [](auto A, auto B) {
    return std::chrono::duration<double, std::milli>(B - A).count();
  };

  auto TGraph = Now();
  // Parallel analysis mode: Threads-1 helpers (the constructing thread
  // participates in every parallelFor), shared by the oracle's
  // column-strip sweeps and the rule engine's queue scans.  Thread
  // count is purely a wall-clock knob; reports stay bit-identical
  // (docs/robustness.md, "Parallel analysis").
  unsigned Threads = resolveAnalysisThreads(Options.Threads);
  Pool = std::make_unique<WorkerPool>(Threads > 1 ? Threads - 1 : 0);

  Builder B(T, *Graph, Options, Stats);
  B.Pool = Pool.get();
  B.collect();
  B.addBaseEdges();

  // Resume path: replay the checkpointed derived edges onto the fresh
  // base graph.  Base construction is deterministic, so after the replay
  // the graph matches the checkpointed run's graph edge for edge; the
  // counters are then restored wholesale (their base components are
  // identical by the same argument).
  const HbFrontier *R = Checkpoint ? Checkpoint->Resume : nullptr;
  if (R) {
    for (const HbEdge &E : R->DerivedEdges)
      Graph->addEdge(E.From, E.To);
    Stats = R->Stats;
    Kept.DerivedEdges = R->DerivedEdges;
  }
  auto TBase = Now();

  // Memory rung of the degradation ladder: build under a byte budget
  // that counts real allocations, stepping to the next-cheaper oracle
  // whenever the measured footprint overruns MemLimitBytes.  All
  // oracles answer reachability queries identically, so a downgrade
  // changes build time and memory but keeps every downstream report
  // bit-identical.  BFS keeps no precomputed state and is the
  // always-accepted floor.  A resume with attached closure rows imports
  // them instead of recomputing the O(N^2/64) sweep.
  ReachMode Mode = resolveReachMode(Options.Reach);
  Degrade.RequestedReach = Mode;
  for (;;) {
    Reach = makeReachability(*Graph, Mode, Options.MemLimitBytes,
                             /*Defer=*/true);
    Reach->setWorkerPool(Pool.get());
    bool Ready = false;
    if (R && !R->ClosureRows.empty())
      Ready = Reach->importClosureRows(R->ClosureRows.data(),
                                       R->ClosureRows.size(), R->RowWords);
    if (!Ready && R && !R->ChainState.empty())
      Ready = Reach->importChainState(R->ChainState.data(),
                                      R->ChainState.size());
    if (!Ready && !Reach->budgetExceeded()) {
      Reach->refresh();
      Ready = !Reach->budgetExceeded();
    }
    if (Ready || Mode == ReachMode::Bfs)
      break;
    Mode = Mode == ReachMode::Incremental ? ReachMode::Closure
           : Mode == ReachMode::Closure   ? ReachMode::Chain
                                          : ReachMode::Bfs;
  }
  Degrade.DowngradedForMemory = Mode != Degrade.RequestedReach;
  Degrade.UsedReach = Mode;
  Degrade.MeasuredReachBytes = Reach->memoryBytes();
  auto TInit = Now();
  if (Profile)
    std::fprintf(stderr, "graph+base=%.1fms init=%.1fms nodes=%zu edges=%zu\n",
                 Ms(TGraph, TBase), Ms(TBase, TInit), Graph->numNodes(),
                 Graph->numEdges());

  // Syncs everything but the edges (which accumulate live) into Kept so
  // exportFrontier() can freeze a consistent snapshot at any boundary.
  auto SyncKept = [&] {
    Kept.UsedReach = Degrade.UsedReach;
    Kept.RoundsDone = Stats.FixpointRounds;
    Kept.Saturated = Converged;
    Kept.Stats = Stats;
    Kept.SendCursors = B.SendCursor;
    Kept.UnsaturatedRules = Degrade.UnsaturatedRules;
  };

  // Restore the send scans' frontiers: pairs the checkpointed run
  // already evaluated are not re-proposed (their conclusions are in the
  // replayed edges).  The first resumed round runs with no delta
  // information (nullptr below), i.e. a conservative full pass over the
  // unseen region -- re-evaluating a seen pair is always sound, it just
  // proposes nothing new.  The atomicity sweep keeps no frontier.
  if (R && R->SendCursors.size() == B.QueueSends.size())
    B.SendCursor = R->SendCursors;

  Converged = true;
  if (Options.Model == OrderingModel::Cafa &&
      (Options.EnableAtomicityRule || Options.EnableQueueRules) &&
      !(R && R->Saturated)) {
    // Semi-naive evaluation of the queue rules: round 0 scans
    // everything; later rounds ask the oracle what changed -- exact
    // premise facts if it can say (the fact filter below is installed
    // before round 0, so every delta-tracking oracle can), full
    // re-scans when it rebuilds from scratch and cannot know.  The
    // atomicity rule is swept whole every round.
    B.buildRuleTables();
    Reach->setFactFilter(B.FactSources, B.FactTargets);
    Converged = false;
    const std::vector<GainedWord> *Gained = nullptr;
    double LastSaveMs = 0;
    // Cumulative rule-engine work for the profile: atomicity sweep
    // sources, row words projected and proposals, then send pair
    // visits/skips.
    auto PrintWork = [&] {
      std::fprintf(stderr, "sweep=%llu/%llu/%llu send=%llu/%llu",
                   (unsigned long long)B.SweptSources,
                   (unsigned long long)B.ProjectedWords,
                   (unsigned long long)B.AtomProposals,
                   (unsigned long long)B.VisitSend,
                   (unsigned long long)B.SkipSend);
    };
    uint32_t StartRound = Stats.FixpointRounds;
    for (uint32_t Round = StartRound; Round != Options.MaxFixpointRounds;
         ++Round) {
      // Time rung of the degradation ladder: stop starting rounds past
      // the deadline.  Edges already derived stay -- the relation only
      // ever under-approximates, which can add race candidates
      // downstream but never hides one.
      if (Options.DeadlineMillis > 0 &&
          Ms(TGraph, Now()) > Options.DeadlineMillis) {
        Degrade.DeadlineExceeded = true;
        break;
      }
      ++Stats.FixpointRounds;
      auto T0 = Now();
      std::vector<HbEdge> Delta =
          B.applyDerivedRules(*Reach, Gained);
      auto T1 = Now();
      if (Delta.empty()) {
        Converged = true;
        if (Profile) {
          std::fprintf(stderr, "round %u: empty scan=%.1fms ", Round,
                       Ms(T0, T1));
          PrintWork();
          std::fprintf(stderr, "\n");
        }
        break;
      }
      // Delta protocol: the graph already holds this round's edges; the
      // oracle either folds them in incrementally or rebuilds.
      Reach->addEdges(Delta);
      Gained = Reach->gainedWords();
      Kept.DerivedEdges.insert(Kept.DerivedEdges.end(), Delta.begin(),
                               Delta.end());
      // Cadence checkpoint: the oracle now reflects every inserted edge,
      // so this round boundary is a consistent freeze point.
      if (Checkpoint && Checkpoint->Save && Checkpoint->EveryMillis > 0 &&
          Ms(TGraph, Now()) - LastSaveMs >= Checkpoint->EveryMillis) {
        LastSaveMs = Ms(TGraph, Now());
        SyncKept();
        Checkpoint->Save(exportFrontier());
      }
      auto T2 = Now();
      if (Profile) {
        std::fprintf(stderr, "round %u: delta=%zu scan=%.1fms update=%.1fms ",
                     Round, Delta.size(), Ms(T0, T1), Ms(T1, T2));
        PrintWork();
        std::fprintf(stderr, " facts=%zu\n",
                     Gained ? Gained->size() : size_t(0));
      }
    }
    if (!Converged) {
      // The cut relation is missing edges from exactly the rule families
      // the fixpoint was still deriving.
      if (Options.EnableAtomicityRule)
        Degrade.UnsaturatedRules.push_back("atomicity");
      if (Options.EnableQueueRules)
        Degrade.UnsaturatedRules.push_back("event-queue");
      // Deadline cut: always leave a frontier behind so the interrupted
      // work is resumable regardless of cadence.
      if (Checkpoint && Checkpoint->Save) {
        SyncKept();
        Checkpoint->Save(exportFrontier());
      }
    }
  }
  // The chain oracle's footprint and cover evolve across the fixpoint
  // (clocks commit the first round the cover collapses under the cap),
  // so re-measure: degradation() reports the kept oracle's final shape.
  Degrade.MeasuredReachBytes = Reach->memoryBytes();
  Degrade.ChainCount = Reach->chainCount();
  SyncKept();
}

HbIndex::~HbIndex() = default;

HbFrontier HbIndex::exportFrontier() const {
  // Above this, serializing the row matrix costs more than the refresh()
  // it would save on resume; the frontier then carries only edges and
  // cursors.
  constexpr size_t MaxRowBlobBytes = size_t(256) << 20;
  HbFrontier F = Kept;
  std::vector<uint64_t> Words;
  size_t WordsPerRow = 0;
  if (Reach->exportClosureRows(Words, WordsPerRow) &&
      Words.size() * 8 <= MaxRowBlobBytes) {
    F.ClosureRows = std::move(Words);
    F.RowWords = WordsPerRow;
  } else if (Words.clear(), Reach->exportChainState(Words) &&
                                Words.size() * 8 <= MaxRowBlobBytes) {
    // Chain rung: the decomposition + clock matrix plays the closure
    // rows' role (and is far smaller -- O(N * chains) words).
    F.ChainState = std::move(Words);
  }
  return F;
}

bool HbIndex::happensBefore(uint32_t A, uint32_t B) const {
  if (A == B)
    return false;
  const TraceRecord &RecA = T.record(A);
  const TraceRecord &RecB = T.record(B);
  if (RecA.Task == RecB.Task)
    return Index.localIndexOf(A) < Index.localIndexOf(B);
  NodeId P = Graph->firstNodeAtOrAfter(A);
  NodeId Q = Graph->lastNodeAtOrBefore(B);
  if (!P.isValid() || !Q.isValid())
    return false;
  return Reach->reaches(P, Q);
}

bool HbIndex::taskOrdered(TaskId E1, TaskId E2) const {
  if (E1 == E2)
    return false;
  NodeId End1 = Graph->endNode(E1);
  NodeId Begin2 = Graph->beginNode(E2);
  if (!End1.isValid() || !Begin2.isValid())
    return false;
  return Reach->reaches(End1, Begin2);
}

bool HbIndex::concurrentQueriesSafe() const {
  return Reach->concurrentQueriesSafe();
}

void HbIndex::shedOracle() {
  Reach = makeReachability(*Graph, ReachMode::Bfs);
}

size_t HbIndex::memoryBytes() const {
  size_t Adj = 0;
  for (uint32_t I = 0, E = static_cast<uint32_t>(Graph->numNodes()); I != E;
       ++I)
    Adj += Graph->successors(NodeId(I)).capacity() * 4;
  return Adj + Reach->memoryBytes();
}
