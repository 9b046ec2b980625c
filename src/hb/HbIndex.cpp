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

/// True when \p F was derived on the base graph \p G built here, whose
/// base rule counters are \p Base (see HbCheckpointing::Resume).
bool frontierFits(const HbFrontier &F, const HbRuleStats &Base,
                  const HbGraph &G) {
  const HbRuleStats &S = F.Stats;
  if (S.ProgramOrderEdges != Base.ProgramOrderEdges ||
      S.ForkJoinEdges != Base.ForkJoinEdges ||
      S.NotifyWaitEdges != Base.NotifyWaitEdges ||
      S.ListenerEdges != Base.ListenerEdges ||
      S.SendEdges != Base.SendEdges ||
      S.ExternalChainEdges != Base.ExternalChainEdges ||
      S.IpcEdges != Base.IpcEdges ||
      S.ConventionalOrderEdges != Base.ConventionalOrderEdges)
    return false;
  // Node ids ascend in record order, so From < To is HbGraph::addEdge's
  // forward-in-trace-order test.
  return std::all_of(F.DerivedEdges.begin(), F.DerivedEdges.end(),
                     [&](const HbEdge &E) {
                       return E.From.isValid() && E.From < E.To &&
                              E.To.index() < G.numNodes();
                     });
}

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
        QueueEvents(T.numQueues()), QueueSends(T.numQueues()),
        AtomQueues(T.numQueues()), SendQueues(T.numQueues()) {}

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

  /// Work of one rule family's sweeps: sources swept and row words
  /// projected (or members queried).
  struct SweepWork {
    uint64_t Sources = 0, Words = 0;
    void add(const SweepWork &W) {
      Sources += W.Sources;
      Words += W.Words;
    }
  };
  /// Cumulative work for CAFA_HB_PROFILE, per rule family.
  SweepWork AtomWork, QueueWork;
  /// The last round sat the queue rules out (see applyDerivedRules).
  bool QueueDeferred = false;

  /// Worker pool for the parallel analysis mode (HbOptions::Threads),
  /// lent by HbIndex; nullptr or zero helpers means sequential rounds.
  WorkerPool *Pool = nullptr;

  /// Per-round frozen context: the oracle and its inline row array.
  /// Frozen for the whole round -- every pass only reads it -- which is
  /// what makes the passes safe to run concurrently.
  const Reachability *RoundOracle = nullptr;
  const BitVec *RoundRows = nullptr;

  /// Output and scratch of one pass (a gap-1 pass, or a range of sweep
  /// sources).  Parallel rounds give every pass its own ScanOut and
  /// merge them in canonical order, so the committed proposal stream and
  /// counters never depend on which thread ran what.  Covered[i] marks
  /// an adjacent conclusion end(i) -> begin(i+1) that holds in the
  /// oracle or in this round's proposals; Run[i] counts consecutive
  /// covered links starting at i.
  struct ScanOut {
    std::vector<std::pair<NodeId, NodeId>> Edges;
    uint64_t Atomicity = 0, Q1 = 0, Q2 = 0, Q3 = 0, Q4 = 0;
    /// Atomicity gap-1 proposals the graph will accept (the round cap).
    uint64_t NewLinks = 0;
    SweepWork Atom, Queue;
    std::vector<uint8_t> Covered;
    std::vector<uint32_t> Run;

    void merge(ScanOut &&Src) {
      if (Edges.empty())
        Edges = std::move(Src.Edges); // often the whole batch: no copy
      else
        Edges.insert(Edges.end(), Src.Edges.begin(), Src.Edges.end());
      Atomicity += Src.Atomicity;
      Q1 += Src.Q1;
      Q2 += Src.Q2;
      Q3 += Src.Q3;
      Q4 += Src.Q4;
      NewLinks += Src.NewLinks;
      Atom.add(Src.Atom);
      Queue.add(Src.Queue);
    }
  };

  /// One looper's events laid out for the atomicity sweep: member k of
  /// Begins/Ends is begin(e_k)/end(e_k) in QueueEvents order.  Built the
  /// first round gap 1 leaves the looper uncovered (layOutLooper), so
  /// covered loopers -- the common case at scale -- never pay for it.
  struct AtomQueue {
    NodeProjection Begins, Ends;
  };
  std::vector<AtomQueue> AtomQueues;

  /// One send queue laid out for the queue-rule sweep: member b of
  /// Posts/Begins is post(s_b)/begin(e_b) in QueueSends order, where e_b
  /// is the event s_b posts.  Begin ids need not ascend (delays reorder
  /// events) but are distinct: ingestion refuses an event sent twice,
  /// and the runtime creates a new event for every send.  NonFront
  /// masks the sends not at front.  Built lazily like AtomQueue.
  struct SendQueue {
    NodeProjection Posts, Begins;
    std::vector<uint64_t> NonFront;
  };
  std::vector<SendQueue> SendQueues;

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

  void layOutSendQueue(size_t Qi) {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    SendQueue &SQ = SendQueues[Qi];
    if (SQ.Posts.size() == Sends.size())
      return;
    std::vector<NodeId> Posts, Begins;
    SQ.NonFront.assign((Sends.size() + 63) / 64, 0);
    for (size_t B = 0; B != Sends.size(); ++B) {
      Posts.push_back(Sends[B].Node);
      Begins.push_back(G.beginNode(Sends[B].Event));
      if (!Sends[B].AtFront)
        SQ.NonFront[B >> 6] |= uint64_t(1) << (B & 63);
    }
    SQ.Posts = NodeProjection(std::move(Posts));
    SQ.Begins = NodeProjection(std::move(Begins));
  }

  bool reaches(NodeId From, NodeId To) const {
    // Gap-1 passes issue many queries per round; closure-backed oracles
    // expose their rows so the hot path is an inline bit test.
    return RoundRows ? RoundRows[From.index()].test(To.index())
                     : RoundOracle->reaches(From, To);
  }

  /// Will the graph accept edge From -> To?  HbGraph::addEdge refuses
  /// edges against trace order (a salvaged trace may contradict its own
  /// linearization), and a refused proposal covers nothing.
  static bool accepted(NodeId From, NodeId To) {
    return From.isValid() && To.isValid() && From < To;
  }

  /// Proposes From -> To unless it is already implied.  \returns true
  /// when it was proposed.
  bool propose(ScanOut &Out, NodeId From, NodeId To,
               uint64_t &Counter) const {
    if (!From.isValid() || !To.isValid() || reaches(From, To))
      return false;
    Out.Edges.emplace_back(From, To);
    ++Counter;
    return true;
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

  /// Evaluates one adjacent send pair against queue rules 1-4.
  /// \returns whether the forward conclusion end(e1) -> begin(e2) is
  /// covered afterwards.
  bool evalSendPair(ScanOut &Out, const SendOp &S1, const SendOp &S2) const {
    NodeId Begin1 = G.beginNode(S1.Event);
    NodeId Begin2 = G.beginNode(S2.Event);
    NodeId End1 = G.endNode(S1.Event);
    NodeId End2 = G.endNode(S2.Event);
    bool Link = End1.isValid() && Begin2.isValid() && reaches(End1, Begin2);
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
        bool Accepted = accepted(EndI, BeginJ);
        if (propose(Out, EndI, BeginJ, Out.Atomicity) && Accepted)
          ++Out.NewLinks;
        Link |= Accepted; // implied before, or in the batch now
      }
      Out.Covered[I] = Link;
    }
    computeRuns(Out, K);
    return Out.Run[0] == K - 1;
  }

  /// Gap 1 of one send queue: evaluates every adjacent send pair against
  /// rules 1-4 into \p Out and records the covered links.  \returns true
  /// when the queue needs no sweep: every link is covered, so each wider
  /// rule-1/3 conclusion is implied by the chain, and no send is at
  /// front, so rules 2/4 have nothing to conclude (AtFront is a static
  /// property of the send).
  bool sendGap1(size_t Qi, ScanOut &Out) const {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    const size_t K = Sends.size();
    Out.Covered.assign(K - 1, 0);
    for (size_t A = 0; A + 1 < K; ++A)
      Out.Covered[A] = evalSendPair(Out, Sends[A], Sends[A + 1]);
    computeRuns(Out, K);
    return Out.Run[0] == K - 1 &&
           std::none_of(Sends.begin(), Sends.end(),
                        [](const SendOp &S) { return S.AtFront; });
  }

  /// Row-word scratch of one sweep pass over a queue of \p K members.
  struct SweepScratch {
    std::vector<uint64_t> Prem, Conc, Cand, Implied, Tmp;
    explicit SweepScratch(size_t K)
        : Prem((K + 63) / 64), Conc(Prem.size()), Cand(Prem.size()),
          Implied(Prem.size()), Tmp(Prem.size()) {}
  };

  /// Proposes From -> begin(e_j) for every j in Prem & ~Conc (words from
  /// \p FirstWord on) in ascending j, skipping those an earlier proposal
  /// for the same source already implies: From -> begin(e_j) carries
  /// From to everything begin(e_j) reaches, so the projection of
  /// begin(e_j) onto \p Begins joins the Implied mask.  \p Keep(j) is the
  /// rule's per-candidate test (a rejected candidate implies nothing),
  /// and \p Counter counts the rule's proposals.
  template <typename KeepFn>
  void proposeCandidates(ScanOut &Out, SweepScratch &S, SweepWork &Work,
                         NodeId From, const NodeProjection &Begins,
                         size_t FirstWord, KeepFn Keep,
                         uint64_t &Counter) const {
    const size_t NW = S.Cand.size();
    for (size_t W = FirstWord; W != NW; ++W) {
      S.Cand[W] = S.Prem[W] & ~S.Conc[W];
      S.Implied[W] = 0;
    }
    for (size_t W = FirstWord; W != NW; ++W) {
      for (uint64_t Bits = S.Cand[W]; (Bits &= ~S.Implied[W]);
           Bits &= Bits - 1) {
        size_t J = W * 64 + static_cast<size_t>(__builtin_ctzll(Bits));
        NodeId BeginJ = Begins.node(J);
        if (!BeginJ.isValid() || !Keep(J))
          continue;
        Out.Edges.emplace_back(From, BeginJ);
        ++Counter;
        if (!accepted(From, BeginJ))
          continue;
        Work.Words += RoundOracle->project(BeginJ, Begins, J + 1,
                                           S.Cand.data(), S.Tmp.data());
        for (size_t V = W; V != NW; ++V)
          S.Implied[V] |= S.Tmp[V];
      }
    }
  }

  static bool anyFrom(const std::vector<uint64_t> &V, size_t FirstWord) {
    for (size_t W = FirstWord; W < V.size(); ++W)
      if (V[W])
        return true;
    return false;
  }

  /// The atomicity rule for sources [Lo, Hi) of looper \p Qi, past what
  /// gap 1 covered (\p Run, from atomGap1).  Per source event eI, two
  /// oracle rows projected onto the looper's events give every later
  /// event J at once:
  ///   Prem = { J : begin(eI) < end(eJ) }     (row of begin(eI), ends)
  ///   Conc = { J : end(eI) < begin(eJ) }     (row of end(eI), begins)
  /// and Prem & ~Conc is exactly the set of pairs whose premise holds and
  /// whose conclusion is missing (proposeCandidates).  Every pair is
  /// re-evaluated every round at about K * (words per projection) word
  /// operations per looper.
  void sweepAtomSources(size_t Qi, const std::vector<uint32_t> &Run,
                        size_t Lo, size_t Hi, ScanOut &Out) const {
    const AtomQueue &AQ = AtomQueues[Qi];
    SweepScratch S(AQ.Begins.size());
    for (size_t I = Lo; I != Hi; ++I) {
      // Pairs up to I + Run[I] are implied by covered links, and gap 1
      // evaluated J = I + 1.
      size_t First = I + std::max<size_t>(1, Run[I]) + 1;
      NodeId BeginI = AQ.Begins.node(I), EndI = AQ.Ends.node(I);
      if (First >= AQ.Begins.size() || !BeginI.isValid() || !EndI.isValid())
        continue;
      ++Out.Atom.Sources;
      Out.Atom.Words +=
          RoundOracle->project(BeginI, AQ.Ends, First, nullptr, S.Prem.data());
      if (!anyFrom(S.Prem, First >> 6))
        continue;
      Out.Atom.Words += RoundOracle->project(EndI, AQ.Begins, First,
                                             S.Prem.data(), S.Conc.data());
      proposeCandidates(
          Out, S, Out.Atom, EndI, AQ.Begins, First >> 6,
          [](size_t) { return true; }, Out.Atomicity);
    }
  }

  /// Queue rules 1-4 for sources [Lo, Hi) of send queue \p Qi, past what
  /// gap 1 covered (\p Run, from sendGap1).  Per source send s_a:
  ///   rules 1/3  Prem = { b : post(s_a) < post(s_b), s_b not at front }
  ///              Conc = { b : end(e_a) < begin(e_b) }
  ///     and each b in Prem & ~Conc proposes end(e_a) -> begin(e_b) --
  ///     rule 1 only when delay(a) <= delay(b), rule 3 (s_a at front)
  ///     always;
  ///   rules 2/4  when s_a is at front (call it s_b), the row of post(s_b)
  ///     projected onto the earlier events' begins names the events not
  ///     yet begun when s_b was posted -- usually few -- and each whose
  ///     send is ordered before s_b gets end(e_b) -> begin(e_a).
  /// Covered runs imply only the forward conclusions of rules 1/3, so
  /// rules 2/4 look at every earlier send gap 1 did not (a < b - 1).
  void sweepSendSources(size_t Qi, const std::vector<uint32_t> &Run,
                        size_t Lo, size_t Hi, ScanOut &Out) const {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    const SendQueue &SQ = SendQueues[Qi];
    const size_t K = Sends.size();
    SweepScratch S(K);
    // Rules 2/4: the members before a front send's gap-1 neighbour, and
    // those of them its post reaches.
    std::vector<uint64_t> Earlier(S.Prem.size()), Pending(S.Prem.size());
    for (size_t A = Lo; A != Hi; ++A) {
      const SendOp &SA = Sends[A];
      NodeId EndA = G.endNode(SA.Event);
      if (!SA.Node.isValid() || !EndA.isValid())
        continue;
      size_t First = A + std::max<size_t>(1, A + 1 < K ? Run[A] : 0) + 1;
      if (First < K) {
        ++Out.Queue.Sources;
        Out.Queue.Words += RoundOracle->project(SA.Node, SQ.Posts, First,
                                                SQ.NonFront.data(),
                                                S.Prem.data());
        if (anyFrom(S.Prem, First >> 6)) {
          Out.Queue.Words += RoundOracle->project(EndA, SQ.Begins, First,
                                                  S.Prem.data(),
                                                  S.Conc.data());
          proposeCandidates(
              Out, S, Out.Queue, EndA, SQ.Begins, First >> 6,
              [&](size_t B) {
                return SA.AtFront || SA.DelayMs <= Sends[B].DelayMs;
              },
              SA.AtFront ? Out.Q3 : Out.Q1);
        }
      }
      if (!SA.AtFront || A < 2)
        continue;
      ++Out.Queue.Sources;
      const size_t Neighbour = A - 1; // gap 1 evaluated it
      std::fill(Earlier.begin(), Earlier.end(), 0);
      std::fill(Earlier.begin(), Earlier.begin() + (Neighbour >> 6),
                ~uint64_t(0));
      if (Neighbour & 63)
        Earlier[Neighbour >> 6] = (uint64_t(1) << (Neighbour & 63)) - 1;
      Out.Queue.Words += RoundOracle->project(SA.Node, SQ.Begins, 0,
                                              Earlier.data(), Pending.data());
      for (size_t W = 0; W != Pending.size(); ++W)
        for (uint64_t Bits = Pending[W]; Bits; Bits &= Bits - 1) {
          size_t E = W * 64 + static_cast<size_t>(__builtin_ctzll(Bits));
          if (reaches(Sends[E].Node, SA.Node))
            propose(Out, EndA, SQ.Begins.node(E),
                    Sends[E].AtFront ? Out.Q4 : Out.Q2);
        }
    }
  }

  /// One fixpoint round of the atomicity and event-queue rules.
  ///
  /// Both families run the same two steps per queue.  Gap 1 evaluates
  /// every adjacent pair and records which adjacent conclusions are
  /// *covered* (already implied, or proposed into this round's batch);
  /// a wider pair whose whole window is covered is implied by chaining
  /// the covered links through program order.  A fully covered queue is
  /// done -- the common case at scale, a long single-poster looper.
  /// Otherwise the queue is swept one source at a time
  /// (sweepAtomSources, sweepSendSources): a source's rows projected
  /// onto the queue's members give every pair whose premise holds and
  /// whose conclusion is missing in a few word operations.  Every rule
  /// instance is re-evaluated every round, so the engine keeps no scan
  /// frontier and needs no delta report from the oracle.
  ///
  /// One cap survives.  On a long single-poster looper the atomicity
  /// rule's adjacent links and the queue rules' are the same k-1 edges,
  /// so when the atomicity gap-1 passes alone propose at least RoundCap
  /// new edges, the queue rules sit the round out: the next round finds
  /// the links in the oracle and the send queue covered, instead of
  /// paying a full send gap-1 pass now (through a search-phase oracle,
  /// at scale) to duplicate them.  The decision reads gap-1 outputs only,
  /// so it is the same at every thread count, and such a round always
  /// commits edges, so it is never the converged round.
  ///
  /// Rounds run in three waves: the atomicity gap-1 passes, then (unless
  /// deferred) the send gap-1 passes, then the sweeps of every uncovered
  /// queue over 128-source ranges.  With a pool and an oracle that
  /// answers from immutable state each wave fans out; every pass reads
  /// only the frozen oracle and writes its own ScanOut, merged in
  /// canonical order, so the output never depends on the thread count.
  ///
  /// \returns the edges added this round (already inserted into the
  /// graph), for the oracle's delta path.
  std::vector<HbEdge> applyDerivedRules(const Reachability &Oracle) {
    const size_t RoundCap = G.numNodes() / 8 + 1024;
    RoundOracle = &Oracle;
    RoundRows = Oracle.rowsOrNull();

    // Reachability::reaches may mutate per-oracle scratch (BFS, and the
    // chain oracle's search phase), so only oracles answering from
    // immutable state -- closure rows or frozen chain clocks -- are safe
    // to query from many threads.
    bool Parallel = Pool && Pool->helperThreads() > 0 &&
                    (RoundRows || Oracle.concurrentQueriesSafe());
    auto forEach = [&](size_t N, const std::function<void(size_t)> &Fn) {
      if (Parallel)
        Pool->parallelFor(N, Fn);
      else
        for (size_t I = 0; I != N; ++I)
          Fn(I);
    };

    // One gap-1 pass per queue with a pair: loopers first, then send
    // queues -- the canonical commit order.
    struct Pass {
      bool Send;
      size_t Queue;
      ScanOut Out;
      bool Covered = false;
    };
    std::vector<Pass> Passes;
    if (Opt.EnableAtomicityRule)
      for (size_t Qi = 0; Qi != QueueEvents.size(); ++Qi)
        if (QueueEvents[Qi].size() >= 2)
          Passes.push_back({false, Qi, {}});
    size_t NumAtom = Passes.size();
    forEach(NumAtom, [&](size_t PI) {
      Pass &P = Passes[PI];
      P.Covered = atomGap1(P.Queue, P.Out);
      if (!P.Covered)
        layOutLooper(P.Queue); // this pass's own slot
    });

    uint64_t NewLinks = 0;
    for (const Pass &P : Passes)
      NewLinks += P.Out.NewLinks;
    QueueDeferred = Opt.EnableQueueRules && NewLinks >= RoundCap;
    if (Opt.EnableQueueRules && !QueueDeferred) {
      for (size_t Qi = 0; Qi != QueueSends.size(); ++Qi)
        if (QueueSends[Qi].size() >= 2)
          Passes.push_back({true, Qi, {}});
      forEach(Passes.size() - NumAtom, [&](size_t I) {
        Pass &P = Passes[NumAtom + I];
        P.Covered = sendGap1(P.Queue, P.Out);
        if (!P.Covered)
          layOutSendQueue(P.Queue);
      });
    }

    // Sources per sweep: the cost of a source falls with its position,
    // so many small ranges keep the helpers balanced.
    constexpr size_t SweepChunk = 128;
    struct Sweep {
      size_t Pass;
      size_t Lo, Hi;
      ScanOut Out;
    };
    std::vector<Sweep> Sweeps;
    for (size_t PI = 0; PI != Passes.size(); ++PI) {
      const Pass &P = Passes[PI];
      if (P.Covered)
        continue;
      // An atomicity source needs a pair past gap 1; a send source may
      // also be a front send looking back.
      size_t E = P.Send ? QueueSends[P.Queue].size()
                        : QueueEvents[P.Queue].size() - 2;
      for (size_t Lo = 0; Lo < E; Lo += SweepChunk)
        Sweeps.push_back({PI, Lo, std::min(Lo + SweepChunk, E), {}});
    }
    forEach(Sweeps.size(), [&](size_t SI) {
      Sweep &S = Sweeps[SI];
      const Pass &P = Passes[S.Pass];
      if (P.Send)
        sweepSendSources(P.Queue, P.Out.Run, S.Lo, S.Hi, S.Out);
      else
        sweepAtomSources(P.Queue, P.Out.Run, S.Lo, S.Hi, S.Out);
    });

    // Commit in canonical order: each queue's gap-1 pass, then its
    // sweep ranges in source order.
    ScanOut Main;
    for (size_t PI = 0, SI = 0; PI != Passes.size(); ++PI) {
      Main.merge(std::move(Passes[PI].Out));
      for (; SI != Sweeps.size() && Sweeps[SI].Pass == PI; ++SI)
        Main.merge(std::move(Sweeps[SI].Out));
    }
    AtomWork.add(Main.Atom);
    QueueWork.add(Main.Queue);

    // Apply the batch (dedup first: atomicity and queue rules can derive
    // the same event-level edge).
    std::vector<std::pair<NodeId, NodeId>> &NewEdges = Main.Edges;
    std::sort(NewEdges.begin(), NewEdges.end());
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
    G.foldEdges();

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
    : T(T) {
  bool Profile = std::getenv("CAFA_HB_PROFILE") != nullptr;
  auto Now = [] { return std::chrono::steady_clock::now(); };
  auto Ms = [](auto A, auto B) {
    return std::chrono::duration<double, std::milli>(B - A).count();
  };

  // The clock starts before the graph is built: the profile's graph+base
  // span, the deadline and the checkpoint cadence all count it.
  auto TGraph = Now();
  Graph = std::make_unique<HbGraph>(T);
  // Parallel analysis mode: Threads-1 helpers (the constructing thread
  // participates in every parallelFor), shared by the oracle's
  // column-strip sweeps and the rule engine's passes.  Thread
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
  // identical by the same argument).  A frontier that does not fit this
  // trace is dropped before any edge is replayed.
  const HbFrontier *R = Checkpoint ? Checkpoint->Resume : nullptr;
  if (R && !frontierFits(*R, Stats, *Graph))
    R = nullptr;
  if (R) {
    for (const HbEdge &E : R->DerivedEdges)
      Graph->addEdge(E.From, E.To);
    Stats = R->Stats;
    DerivedEdges = R->DerivedEdges;
  }
  // The base edges and the replay fold in as one batch: the merge keeps
  // every node's successors in the order they were added.
  Graph->foldEdges();
  auto TBase = Now();

  // Memory rung of the degradation ladder: build under a byte budget
  // that counts real allocations, stepping to the next-cheaper oracle
  // whenever the measured footprint overruns MemLimitBytes.  All
  // oracles answer reachability queries identically, so a downgrade
  // changes build time and memory but keeps every downstream report
  // bit-identical.  BFS keeps no precomputed state and is the
  // always-accepted floor.  A resumed graph already holds the replayed
  // edges, so the build is the resume's whole oracle restore.
  ReachMode Mode = resolveReachMode(Options.Reach);
  Degrade.RequestedReach = Mode;
  for (;;) {
    Reach = makeReachability(*Graph, Mode, Options.MemLimitBytes, Pool.get());
    if (!Reach->budgetExceeded() || Mode == ReachMode::Bfs)
      break;
    Mode = Mode == ReachMode::Incremental ? ReachMode::Chain : ReachMode::Bfs;
  }
  Degrade.DowngradedForMemory = Mode != Degrade.RequestedReach;
  Degrade.UsedReach = Mode;
  Degrade.MeasuredReachBytes = Reach->memoryBytes();
  auto TInit = Now();
  if (Profile)
    std::fprintf(stderr, "graph+base=%.1fms init=%.1fms nodes=%zu edges=%zu\n",
                 Ms(TGraph, TBase), Ms(TBase, TInit), Graph->numNodes(),
                 Graph->numEdges());

  Converged = true;
  if (Options.Model == OrderingModel::Cafa &&
      (Options.EnableAtomicityRule || Options.EnableQueueRules) &&
      !(R && R->Saturated)) {
    // Every round sweeps every rule instance against the oracle, so a
    // resumed run needs nothing but the replayed edges to continue.
    Converged = false;
    double LastSaveMs = 0;
    // Cumulative rule-engine work for the profile, per family: sources
    // swept, row words projected and proposals.
    auto PrintWork = [&] {
      auto Family = [](const char *Name, const Builder::SweepWork &W,
                       uint64_t Proposals) {
        std::fprintf(stderr, " %s=%llu/%llu/%llu", Name,
                     (unsigned long long)W.Sources,
                     (unsigned long long)W.Words,
                     (unsigned long long)Proposals);
      };
      Family("atom", B.AtomWork, Stats.AtomicityEdges);
      if (B.QueueDeferred)
        std::fprintf(stderr, " queue=deferred");
      else
        Family("queue", B.QueueWork,
               Stats.QueueRule1Edges + Stats.QueueRule2Edges +
                   Stats.QueueRule3Edges + Stats.QueueRule4Edges);
      std::fprintf(stderr, "\n");
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
      std::vector<HbEdge> Delta = B.applyDerivedRules(*Reach);
      auto T1 = Now();
      // A round that deferred the queue rules did not evaluate them.
      if (Delta.empty() && !B.QueueDeferred) {
        Converged = true;
        if (Profile) {
          std::fprintf(stderr, "round %u: empty scan=%.1fms", Round,
                       Ms(T0, T1));
          PrintWork();
        }
        break;
      }
      // Delta protocol: the graph already holds this round's edges,
      // folded into its successor arrays; the oracle either absorbs
      // them incrementally or rebuilds.
      Reach->addEdges(Delta);
      DerivedEdges.insert(DerivedEdges.end(), Delta.begin(), Delta.end());
      // Cadence checkpoint: the graph holds exactly base + DerivedEdges,
      // so this round boundary is a consistent freeze point.
      if (Checkpoint && Checkpoint->Save && Checkpoint->EveryMillis > 0 &&
          Ms(TGraph, Now()) - LastSaveMs >= Checkpoint->EveryMillis) {
        LastSaveMs = Ms(TGraph, Now());
        Checkpoint->Save(exportFrontier());
      }
      auto T2 = Now();
      if (Profile) {
        std::fprintf(stderr, "round %u: delta=%zu scan=%.1fms update=%.1fms",
                     Round, Delta.size(), Ms(T0, T1), Ms(T1, T2));
        PrintWork();
      }
    }
    RoundsRun = Stats.FixpointRounds - StartRound;
    if (!Converged) {
      // The cut relation is missing edges from exactly the rule families
      // the fixpoint was still deriving.
      if (Options.EnableAtomicityRule)
        Degrade.UnsaturatedRules.push_back("atomicity");
      if (Options.EnableQueueRules)
        Degrade.UnsaturatedRules.push_back("event-queue");
      // Deadline cut: always leave a frontier behind so the interrupted
      // work is resumable regardless of cadence.
      if (Checkpoint && Checkpoint->Save)
        Checkpoint->Save(exportFrontier());
    }
  }
  // The chain oracle's footprint and cover evolve across the fixpoint
  // (clocks commit the first round the cover collapses under the cap),
  // so re-measure: degradation() reports the kept oracle's final shape.
  Degrade.MeasuredReachBytes = Reach->memoryBytes();
  Degrade.ChainCount = Reach->chainCount();

  // Publish the relation.  The edges move, not copy: a million-event
  // trace derives about a million of them.
  if (Options.Model == OrderingModel::Cafa && Options.EnableAtomicityRule &&
      Options.EnableQueueRules && Options.EnableListenerRule &&
      Options.EnableExternalInputRule)
    Relation = std::make_shared<const HbFrontier>(
        HbFrontier{Converged, Stats, std::move(DerivedEdges),
                   Degrade.UnsaturatedRules});
}

HbIndex::~HbIndex() = default;

HbFrontier HbIndex::exportFrontier() const {
  if (Relation)
    return *Relation;
  return {Converged, Stats, DerivedEdges, Degrade.UnsaturatedRules};
}

bool HbIndex::happensBefore(uint32_t A, uint32_t B) const {
  if (A == B)
    return false;
  const TraceRecord &RecA = T.record(A);
  const TraceRecord &RecB = T.record(B);
  if (RecA.Task == RecB.Task)
    return A < B; // a task's records ascend in record order
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
  return Graph->successorBytes() + Reach->memoryBytes();
}
