//===- hb/HbIndex.cpp - The CAFA causality model ----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The atomicity and event-queue rules consume the relation they extend.
// Under the chain oracle they are derived in one forward pass over the
// nodes in id order (record order), which builds the oracle's cover and
// clocks as it goes (docs/hb-reachability.md):
//
//  - Every derived edge is end(e_a) -> begin(e_b) and points forward, so
//    when the pass reaches begin(e_b) every edge into earlier nodes is in
//    place.  The queue rules' premises relate only such nodes, and the
//    atomicity premise begin(e1) < end(e2) does too whenever the path
//    enters e2 at its begin; the pass decides them there, joining each
//    missing conclusion's end into begin(e_b)'s clock.
//  - A path may also enter e2 through a later cross-task in-edge (join,
//    wait, perform, IPC receive), or a send may be logged after its
//    event began.  Those conclusions point back at a placed begin: the
//    pass collects them, and another pass runs with them seeded, until a
//    pass collects none.
//
// Under the BFS oracle the same rules run as fixpoint rounds that
// re-evaluate every rule instance against the oracle (applyDerivedRules):
// the pass's independent reference, and its fallback when the cover
// outgrows the clocks.
//
//===----------------------------------------------------------------------===//

#include "hb/HbIndex.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ranges>
#include <unordered_map>

using namespace cafa;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

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
  HbIndex &H;
  const Trace &T;
  HbGraph &G;
  const HbOptions &Opt;
  HbRuleStats &Stats;
  const HbCheckpointing *Checkpoint;
  const Clock::time_point Start;
  const bool Profile = std::getenv("CAFA_HB_PROFILE") != nullptr;
  double LastSaveMs = 0;

  /// Which nodes are sends, and each task's send node (invalid for a
  /// task no record sends).
  std::vector<bool> IsSend;
  std::vector<NodeId> SendOf;
  size_t NumSends = 0;

  Builder(HbIndex &H, const HbOptions &Opt, const HbCheckpointing *Checkpoint,
          Clock::time_point Start)
      : H(H), T(H.T), G(*H.Graph), Opt(Opt), Stats(H.Stats),
        Checkpoint(Checkpoint), Start(Start), IsSend(G.numNodes()),
        SendOf(T.numTasks()) {}

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
        IsSend[Node.index()] = true;
        ++NumSends;
        if (!SendOf[Rec.targetTask().index()].isValid())
          SendOf[Rec.targetTask().index()] = Node;
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
      std::vector<TaskId> LastEvent(T.numQueues(), TaskId::invalid());
      for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
           ++I) {
        const TraceRecord &Rec = T.record(I);
        const TaskInfo &Info = T.taskInfo(Rec.Task);
        if (Rec.Kind != OpKind::TaskBegin || Info.Kind != TaskKind::Event ||
            !Info.Queue.isValid())
          continue;
        TaskId &Last = LastEvent[Info.Queue.index()];
        NodeId End = Last.isValid() ? G.endNode(Last) : NodeId::invalid();
        if (End.isValid()) {
          G.addEdge(End, G.nodeForRecord(I));
          ++Stats.ConventionalOrderEdges;
        }
        Last = Rec.Task;
      }
    }
  }

  bool pastDeadline() const {
    return Opt.DeadlineMillis > 0 && msSince(Start) > Opt.DeadlineMillis;
  }

  /// Cadence checkpoint: the counters count exactly base +
  /// H.DerivedEdges (a pass folds its edges into the graph when it
  /// ends), so any point between two nodes or rounds is a consistent
  /// frontier.
  void maybeSave() {
    if (!Checkpoint || !Checkpoint->Save || Checkpoint->EveryMillis <= 0 ||
        msSince(Start) - LastSaveMs < Checkpoint->EveryMillis)
      return;
    LastSaveMs = msSince(Start);
    Checkpoint->Save(H.exportFrontier());
  }

  /// Records derived edge \p E under rule counter \p Rule; the pass
  /// folds it into the graph when it ends.
  void addDerived(HbEdge E, uint64_t HbRuleStats::*Rule) {
    H.DerivedEdges.push_back(E);
    ++(Stats.*Rule);
  }

  //===--------------------------------------------------------------------===//
  // The forward pass
  //===--------------------------------------------------------------------===//

  /// The members of one queue on one chain, ascending: sends to the
  /// queue, its front sends, or its events' begins.  MaxDelay bounds the
  /// delays of the non-front sends.  A queue keeps its lists in the
  /// order they were last appended to, the latest at the back.
  struct ChainList {
    uint32_t Chain;
    uint64_t MaxDelay = 0;
    std::vector<uint32_t> Nodes;
  };
  struct QueueLists {
    std::vector<ChainList> Sends, Fronts, Begins;
  };
  /// A conclusion that points back at a placed begin, and its counter.
  struct Pending {
    HbEdge E;
    uint64_t HbRuleStats::*Rule;
  };
  /// Complete[e]: the rule walks into begin(e) refused nothing, so every
  /// conclusion they looked for holds.  Only such an event lets a later
  /// walk skip what its own conclusions imply.
  enum : uint8_t { QueueDone = 1, AtomDone = 2 };

  /// A pass stopped because the oracle outgrew HbOptions::MemLimitBytes
  /// (a memory downgrade), not because its clocks outgrew their bound.
  bool OverBudget = false;

  // Per-pass state.
  ChainReachability *C = nullptr;
  bool Atomicity = false, Queue = false;
  std::vector<QueueLists> Lists;
  std::vector<uint8_t> Complete;
  std::vector<Pending> Retro;

  /// The list of placed node \p V's chain, moved to the back of \p Ls:
  /// the walks visit the lists appended to last first, whose conclusions
  /// tend to imply the others'.  A chain's first node has no list yet --
  /// in a wide cover, most nodes that join one.
  ChainList &chainList(std::vector<ChainList> &Ls, NodeId V) const {
    const uint32_t Chain = C->chainOf(V);
    auto It = C->posOf(V) == 0
                  ? Ls.rend()
                  : std::find_if(Ls.rbegin(), Ls.rend(),
                                 [&](const ChainList &L) {
                                   return L.Chain == Chain;
                                 });
    if (It == Ls.rend())
      return Ls.emplace_back(ChainList{Chain, 0, {}});
    std::rotate(It.base() - 1, It.base(), Ls.end());
    return Ls.back();
  }

  /// Members of \p L at chain positions below clock entry \p Clk: those
  /// that reach the node whose clock it is (or are it).
  size_t upTo(const ChainList &L, uint32_t Clk) const {
    const std::vector<uint32_t> &Ns = L.Nodes;
    if (Clk == 0)
      return 0;
    if (C->posOf(NodeId(Ns.back())) < Clk)
      return Ns.size();
    return static_cast<size_t>(
        std::partition_point(Ns.begin(), Ns.end(),
                             [&](uint32_t N) {
                               return C->posOf(NodeId(N)) < Clk;
                             }) -
        Ns.begin());
  }

  /// Makes \p End -> \p Target hold for a rule instance whose premise
  /// holds.  \p Open: Target is the node being visited, and a missing
  /// edge is joined into its clock now; else Target was placed earlier
  /// and the edge waits for the next pass.  \returns whether the
  /// conclusion holds (or will); false when End is missing, or when the
  /// graph would refuse the edge because End does not precede Target in
  /// record order (then \p Refused is set).
  bool conclude(NodeId End, NodeId Target, bool Open,
                uint64_t HbRuleStats::*Rule, bool &Refused) {
    if (!End.isValid())
      return false;
    if (!(End < Target)) {
      Refused = true;
      return false;
    }
    if (Open ? C->holds(End) : C->reaches(End, Target))
      return true;
    if (Open) {
      C->join(End);
      addDerived({End, Target}, Rule);
    } else {
      Retro.push_back({{End, Target}, Rule});
    }
    return true;
  }

  /// Queue rules 1 and 3 into \p Target = begin(e_b), for the non-front
  /// send \p SB of e_b to queue \p Q with delay \p DelayB: end(e_a) for
  /// every send s_a < s_b to Q at front or with delay_a <= delay_b.
  /// On each chain those sends are the prefix below clock(s_b), walked
  /// newest first.  A send s_a whose conclusion holds and whose own walk
  /// was complete covers every earlier send of its chain that is at
  /// front or no later in delay than s_a; the walk stops once that
  /// covers every delay the chain still holds.  \returns whether
  /// nothing was refused.
  bool queueForward(NodeId SB, NodeId Target, bool Open, QueueId Q,
                    uint64_t DelayB) {
    bool Refused = false;
    for (ChainList &L : std::views::reverse(Lists[Q.index()].Sends)) {
      bool Covered = false;
      uint64_t CoveredTo = 0;
      for (size_t K = upTo(L, C->entry(SB, L.Chain)); K-- > 0;) {
        NodeId SA(L.Nodes[K]);
        const TraceRecord &Rec = T.record(G.recordOfNode(SA));
        const bool Front = Rec.Kind == OpKind::SendAtFront;
        const uint64_t D = Rec.delayMs();
        if (SA == SB || (!Front && D > DelayB) ||
            (Covered && (Front || D <= CoveredTo)))
          continue;
        TaskId EA = Rec.targetTask();
        if (!conclude(G.endNode(EA), Target, Open,
                      Front ? &HbRuleStats::QueueRule3Edges
                            : &HbRuleStats::QueueRule1Edges,
                      Refused) ||
            Front || !(Complete[EA.index()] & QueueDone))
          continue;
        Covered = true;
        CoveredTo = std::max(CoveredTo, D);
        if (CoveredTo >= std::min(DelayB, L.MaxDelay))
          break;
      }
    }
    return !Refused;
  }

  /// Queue rules 2 and 4 into the open node begin(e_b), for e_b's send
  /// \p SB to \p Q: end(e2) for every front send s2 to Q with
  /// s_b < s2 < begin(e_b).  On each chain those form a range: below
  /// the open clock, from the first one s_b reaches.
  void queueBackward(NodeId SB, NodeId Target, QueueId Q, bool FrontB) {
    bool Refused = false;
    const uint32_t ChainB = C->chainOf(SB), PosB = C->posOf(SB);
    for (ChainList &L : std::views::reverse(Lists[Q.index()].Fronts)) {
      auto Hi = L.Nodes.begin() + upTo(L, C->current(L.Chain));
      auto Lo = std::partition_point(L.Nodes.begin(), Hi, [&](uint32_t S2) {
        return C->entry(NodeId(S2), ChainB) <= PosB;
      });
      for (; Lo != Hi; ++Lo)
        if (NodeId S2(*Lo); S2 != SB)
          conclude(G.endNode(T.record(G.recordOfNode(S2)).targetTask()),
                   Target, true,
                   FrontB ? &HbRuleStats::QueueRule4Edges
                          : &HbRuleStats::QueueRule2Edges,
                   Refused);
    }
  }

  /// Atomicity into \p Target = begin(e2) from the open node's clock:
  /// end(e1) for every other event e1 of looper \p Q whose begin the
  /// clock holds.  On each chain the newest such begin is walked first;
  /// one whose conclusion holds and whose own walk was complete covers
  /// the rest of its chain.  \returns whether nothing was refused.
  bool atomicity(NodeId Target, TaskId E2, QueueId Q, bool Open) {
    bool Refused = false;
    for (ChainList &L : std::views::reverse(Lists[Q.index()].Begins))
      for (size_t K = upTo(L, C->current(L.Chain)); K-- > 0;) {
        TaskId E1 = G.taskOfNode(NodeId(L.Nodes[K]));
        if (E1 != E2 &&
            conclude(G.endNode(E1), Target, Open,
                     &HbRuleStats::AtomicityEdges, Refused) &&
            (Complete[E1.index()] & AtomDone))
          break;
      }
    return !Refused;
  }

  /// The rules into begin(e_b) (the open node \p V): queue rules 1/3
  /// once -- their premise is about sends, final already -- then the
  /// atomicity and queue rules 2/4 until the clock stops changing.
  void atBegin(NodeId V, TaskId Event, QueueId Looper) {
    uint8_t Done = 0;
    NodeId SB = SendOf[Event.index()];
    const bool Sent = Queue && SB.isValid() && SB < V;
    const TraceRecord *Rec = Sent ? &T.record(G.recordOfNode(SB)) : nullptr;
    const bool FrontB = Sent && Rec->Kind == OpKind::SendAtFront;
    if (Sent && !FrontB &&
        queueForward(SB, V, true, Rec->queue(), Rec->delayMs()))
      Done |= QueueDone;
    bool AtomOk = true;
    for (size_t Before = SIZE_MAX; Before != H.DerivedEdges.size();) {
      Before = H.DerivedEdges.size();
      if (Atomicity && Looper.isValid())
        AtomOk &= atomicity(V, Event, Looper, true);
      if (Sent)
        queueBackward(SB, V, Rec->queue(), FrontB);
    }
    Complete[Event.index()] = Done | (AtomOk ? AtomDone : 0);
  }

  /// Registers placed send \p S in its queue's lists.  A send logged
  /// after its event began concludes rules 1/3 into that placed begin.
  void placedSend(NodeId S) {
    const TraceRecord &Rec = T.record(G.recordOfNode(S));
    const bool Front = Rec.Kind == OpKind::SendAtFront;
    QueueLists &QL = Lists[Rec.queue().index()];
    ChainList &L = chainList(QL.Sends, S);
    L.Nodes.push_back(S.value());
    if (Front)
      chainList(QL.Fronts, S).Nodes.push_back(S.value());
    else
      L.MaxDelay = std::max(L.MaxDelay, Rec.delayMs());
    NodeId Begin = G.beginNode(Rec.targetTask());
    if (!Front && Begin.isValid() && Begin < S &&
        SendOf[Rec.targetTask().index()] == S)
      queueForward(S, Begin, false, Rec.queue(), Rec.delayMs());
  }

  /// One forward pass: covers the graph and computes every node's clock
  /// from its in-edges -- with \p Rules, after deriving the rules into
  /// it.  Checks the deadline and the checkpoint cadence every 4096
  /// nodes; past the deadline it stops deriving and finishes the clocks.
  /// \returns the oracle, or null when it overflowed (see OverBudget).
  std::unique_ptr<ChainReachability> runPass(bool Rules) {
    auto Oracle = std::make_unique<ChainReachability>(
        G, Opt.MemLimitBytes, ChainReachability::Empty{});
    C = Oracle.get();
    Atomicity = Rules && Opt.EnableAtomicityRule;
    Queue = Rules && Opt.EnableQueueRules;
    Lists.assign(Rules ? T.numQueues() : 0, {});
    Complete.assign(Rules ? T.numTasks() : 0, 0);
    CrossInEdges In(G);
    for (uint32_t I = 0, N = static_cast<uint32_t>(G.numNodes());
         I != N && C->overflow() == ChainReachability::Overflow::None;
         ++I) {
      const NodeId V(I);
      if ((I & 4095) == 4095 && (Atomicity || Queue)) {
        if (pastDeadline()) {
          H.Degrade.DeadlineExceeded = true;
          Atomicity = Queue = false;
          Retro.clear();
        } else {
          maybeSave();
        }
      }
      C->open(V);
      bool CrossIn = false;
      In.forEach(V, [&](NodeId U) {
        C->join(U);
        CrossIn = true;
      });
      const TaskId Task = G.taskOfNode(V);
      const bool Begin = G.beginNode(Task) == V;
      QueueId Looper;
      if ((Begin || CrossIn) && (Atomicity || Queue) &&
          T.taskInfo(Task).Kind == TaskKind::Event)
        Looper = T.taskInfo(Task).Queue;
      if (Begin && (Atomicity || Queue))
        atBegin(V, Task, Looper);
      else if (CrossIn && Atomicity && Looper.isValid() &&
               G.beginNode(Task).isValid())
        atomicity(G.beginNode(Task), Task, Looper, false);
      if (!C->place(V))
        break;
      if (Begin && Atomicity && Looper.isValid())
        chainList(Lists[Looper.index()].Begins, V).Nodes.push_back(I);
      if (Queue && IsSend[I])
        placedSend(V);
    }
    C = nullptr;
    Lists = {};
    Complete = {};
    if (Oracle->overflow() == ChainReachability::Overflow::None)
      return Oracle;
    OverBudget = Oracle->overflow() == ChainReachability::Overflow::Budget;
    return nullptr;
  }

  /// Adds the collected retroactive conclusions, once each.
  void commitRetro() {
    std::stable_sort(Retro.begin(), Retro.end(),
                     [](const Pending &A, const Pending &B) {
                       return A.E.From != B.E.From ? A.E.From < B.E.From
                                                   : A.E.To < B.E.To;
                     });
    for (size_t I = 0; I != Retro.size(); ++I)
      if (I == 0 || Retro[I].E.From != Retro[I - 1].E.From ||
          Retro[I].E.To != Retro[I - 1].E.To)
        addDerived(Retro[I].E, Retro[I].Rule);
    Retro.clear();
  }

  /// Runs forward passes -- with the rules when \p Rules, counted in
  /// FixpointRounds -- until one collects no retroactive edge.  \returns
  /// the last pass's oracle, or null when a pass overflowed (the edges
  /// derived so far are then in the graph) or the deadline passed before
  /// anything was derived.
  std::unique_ptr<ChainReachability> runPasses(bool Rules) {
    // About one edge per send: reserving spares the copies of a million
    // (pages past the edges written are never touched).
    if (Rules)
      H.DerivedEdges.reserve(H.DerivedEdges.size() + NumSends);
    for (;;) {
      bool Counted = Rules && !H.Degrade.DeadlineExceeded &&
                     Stats.FixpointRounds < Opt.MaxFixpointRounds;
      if (Counted && pastDeadline()) {
        H.Degrade.DeadlineExceeded = true;
        // Cut before anything was derived: without the rules the cover
        // is about as wide as the events, and its clocks would cost
        // more than the BFS floor's searches.
        if (H.DerivedEdges.empty())
          return nullptr;
        Counted = false;
      }
      Stats.FixpointRounds += Counted;
      const size_t Before = H.DerivedEdges.size();
      const Clock::time_point T0 = Clock::now();
      std::unique_ptr<ChainReachability> Oracle = runPass(Counted);
      if (Profile && Counted)
        std::fprintf(stderr,
                     "pass %u: derived=%zu retro=%zu chains=%zu "
                     "time=%.1fms atom=%llu q=%llu/%llu/%llu/%llu\n",
                     Stats.FixpointRounds - 1,
                     H.DerivedEdges.size() - Before, Retro.size(),
                     Oracle ? Oracle->chainCount() : size_t(0), msSince(T0),
                     (unsigned long long)Stats.AtomicityEdges,
                     (unsigned long long)Stats.QueueRule1Edges,
                     (unsigned long long)Stats.QueueRule2Edges,
                     (unsigned long long)Stats.QueueRule3Edges,
                     (unsigned long long)Stats.QueueRule4Edges);
      // The last pass's clocks must hold exactly the graph's edges: a
      // retroactive edge only joins the graph when another pass
      // follows, or when the Bfs rounds take over.
      const bool Collected = !Retro.empty();
      const bool Again =
          Collected && Stats.FixpointRounds < Opt.MaxFixpointRounds;
      if (!Oracle || Again)
        commitRetro();
      Retro.clear();
      G.foldEdges({H.DerivedEdges.data() + Before,
                   H.DerivedEdges.size() - Before});
      if (!Oracle)
        return nullptr;
      if (!Again && Counted)
        H.Converged = !Collected && !H.Degrade.DeadlineExceeded;
      // A pass boundary is a cadence point too, the last one included:
      // a crash during detection then resumes a saturated relation.
      if (Counted)
        maybeSave();
      if (!Again)
        return Oracle;
    }
  }

  //===--------------------------------------------------------------------===//
  // The round engine (BFS)
  //===--------------------------------------------------------------------===//

  /// Events per queue in observed execution (begin-record) order.
  std::vector<std::vector<TaskId>> QueueEvents;
  /// Send operations per queue in record order.
  std::vector<std::vector<SendOp>> QueueSends;
  const Reachability *RoundOracle = nullptr;

  void collect() {
    QueueEvents.assign(T.numQueues(), {});
    QueueSends.assign(T.numQueues(), {});
    AtomQueues.assign(T.numQueues(), {});
    SendQueues.assign(T.numQueues(), {});
    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
         ++I) {
      const TraceRecord &Rec = T.record(I);
      if (Rec.Kind == OpKind::TaskBegin) {
        const TaskInfo &Info = T.taskInfo(Rec.Task);
        if (Info.Kind == TaskKind::Event && Info.Queue.isValid())
          QueueEvents[Info.Queue.index()].push_back(Rec.Task);
        continue;
      }
      if (Rec.Kind == OpKind::Send || Rec.Kind == OpKind::SendAtFront)
        QueueSends[Rec.queue().index()].push_back(
            {G.nodeForRecord(I), Rec.targetTask(), Rec.delayMs(),
             Rec.Kind == OpKind::SendAtFront});
    }
  }

  /// Output and scratch of one round.  Covered[i] marks an adjacent
  /// conclusion end(i) -> begin(i+1) that holds in the oracle or in this
  /// round's proposals; Run[i] counts consecutive covered links
  /// starting at i.
  struct ScanOut {
    std::vector<std::pair<NodeId, NodeId>> Edges;
    uint64_t Atomicity = 0, Q1 = 0, Q2 = 0, Q3 = 0, Q4 = 0;
    std::vector<uint8_t> Covered;
    std::vector<uint32_t> Run;
  };

  /// One looper's events laid out for the atomicity sweep: member k of
  /// Begins/Ends is begin(e_k)/end(e_k) in QueueEvents order.  Built the
  /// first round gap 1 leaves the looper uncovered (layOutLooper).
  struct AtomQueue {
    NodeProjection Begins, Ends;
  };
  std::vector<AtomQueue> AtomQueues;

  /// One send queue laid out for the queue-rule sweep: member b of
  /// Posts/Begins is post(s_b)/begin(e_b) in QueueSends order, where e_b
  /// is the event s_b posts.  NonFront masks the sends not at front.
  /// Built lazily like AtomQueue.
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
    return RoundOracle->reaches(From, To);
  }

  /// Will the graph accept edge From -> To?  HbGraph::addEdge refuses
  /// edges against trace order (a salvaged trace may contradict its own
  /// linearization), and a refused proposal covers nothing.
  static bool accepted(NodeId From, NodeId To) {
    return From.isValid() && To.isValid() && From < To;
  }

  /// Proposes From -> To unless it is already implied.
  void propose(ScanOut &Out, NodeId From, NodeId To, uint64_t &Counter) const {
    if (!From.isValid() || !To.isValid() || reaches(From, To))
      return;
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
        propose(Out, EndI, BeginJ, Out.Atomicity);
        Link |= accepted(EndI, BeginJ); // implied before, or in the batch
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

  /// Row-word scratch of one sweep over a queue of \p K members.
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
  void proposeCandidates(ScanOut &Out, SweepScratch &S, NodeId From,
                         const NodeProjection &Begins, size_t FirstWord,
                         KeepFn Keep, uint64_t &Counter) const {
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
        RoundOracle->project(BeginJ, Begins, J + 1, S.Cand.data(),
                             S.Tmp.data());
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

  /// The atomicity rule for looper \p Qi past what gap 1 covered
  /// (\p Run, from atomGap1).  Per source event eI, two projections onto
  /// the looper's events give every later event J at once:
  ///   Prem = { J : begin(eI) < end(eJ) }     (from begin(eI), ends)
  ///   Conc = { J : end(eI) < begin(eJ) }     (from end(eI), begins)
  /// and Prem & ~Conc is exactly the set of pairs whose premise holds and
  /// whose conclusion is missing (proposeCandidates).
  void sweepAtomSources(size_t Qi, ScanOut &Out) const {
    const AtomQueue &AQ = AtomQueues[Qi];
    SweepScratch S(AQ.Begins.size());
    for (size_t I = 0; I + 2 < AQ.Begins.size(); ++I) {
      // Pairs up to I + Run[I] are implied by covered links, and gap 1
      // evaluated J = I + 1.
      size_t First = I + std::max<size_t>(1, Out.Run[I]) + 1;
      NodeId BeginI = AQ.Begins.node(I), EndI = AQ.Ends.node(I);
      if (First >= AQ.Begins.size() || !BeginI.isValid() || !EndI.isValid())
        continue;
      RoundOracle->project(BeginI, AQ.Ends, First, nullptr, S.Prem.data());
      if (!anyFrom(S.Prem, First >> 6))
        continue;
      RoundOracle->project(EndI, AQ.Begins, First, S.Prem.data(),
                           S.Conc.data());
      proposeCandidates(
          Out, S, EndI, AQ.Begins, First >> 6, [](size_t) { return true; },
          Out.Atomicity);
    }
  }

  /// Queue rules 1-4 for send queue \p Qi past what gap 1 covered (Run,
  /// from sendGap1).  Per source send s_a:
  ///   rules 1/3  Prem = { b : post(s_a) < post(s_b), s_b not at front }
  ///              Conc = { b : end(e_a) < begin(e_b) }
  ///     and each b in Prem & ~Conc proposes end(e_a) -> begin(e_b) --
  ///     rule 1 only when delay(a) <= delay(b), rule 3 (s_a at front)
  ///     always;
  ///   rules 2/4  when s_a is at front (call it s_b), the projection of
  ///     post(s_b) onto the earlier events' begins names the events not
  ///     yet begun when s_b was posted, and each whose send is ordered
  ///     before s_b gets end(e_b) -> begin(e_a).
  /// Covered runs imply only the forward conclusions of rules 1/3, so
  /// rules 2/4 look at every earlier send gap 1 did not (a < b - 1).
  void sweepSendSources(size_t Qi, ScanOut &Out) const {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    const SendQueue &SQ = SendQueues[Qi];
    const size_t K = Sends.size();
    SweepScratch S(K);
    std::vector<uint64_t> Earlier(S.Prem.size()), Pending(S.Prem.size());
    for (size_t A = 0; A != K; ++A) {
      const SendOp &SA = Sends[A];
      NodeId EndA = G.endNode(SA.Event);
      if (!SA.Node.isValid() || !EndA.isValid())
        continue;
      size_t First = A + std::max<size_t>(1, A + 1 < K ? Out.Run[A] : 0) + 1;
      if (First < K) {
        RoundOracle->project(SA.Node, SQ.Posts, First, SQ.NonFront.data(),
                             S.Prem.data());
        if (anyFrom(S.Prem, First >> 6)) {
          RoundOracle->project(EndA, SQ.Begins, First, S.Prem.data(),
                               S.Conc.data());
          proposeCandidates(
              Out, S, EndA, SQ.Begins, First >> 6,
              [&](size_t B) {
                return SA.AtFront || SA.DelayMs <= Sends[B].DelayMs;
              },
              SA.AtFront ? Out.Q3 : Out.Q1);
        }
      }
      if (!SA.AtFront || A < 2)
        continue;
      const size_t Neighbour = A - 1; // gap 1 evaluated it
      std::fill(Earlier.begin(), Earlier.end(), 0);
      std::fill(Earlier.begin(), Earlier.begin() + (Neighbour >> 6),
                ~uint64_t(0));
      if (Neighbour & 63)
        Earlier[Neighbour >> 6] = (uint64_t(1) << (Neighbour & 63)) - 1;
      RoundOracle->project(SA.Node, SQ.Begins, 0, Earlier.data(),
                           Pending.data());
      for (size_t W = 0; W != Pending.size(); ++W)
        for (uint64_t Bits = Pending[W]; Bits; Bits &= Bits - 1) {
          size_t E = W * 64 + static_cast<size_t>(__builtin_ctzll(Bits));
          if (reaches(Sends[E].Node, SA.Node))
            propose(Out, EndA, SQ.Begins.node(E),
                    Sends[E].AtFront ? Out.Q4 : Out.Q2);
        }
    }
  }

  /// One fixpoint round of the atomicity and event-queue rules, every
  /// rule instance evaluated against \p Oracle as it stood when the
  /// round began.
  ///
  /// Both families run the same two steps per queue.  Gap 1 evaluates
  /// every adjacent pair and records which adjacent conclusions are
  /// *covered* (already implied, or proposed into this round's batch);
  /// a wider pair whose whole window is covered is implied by chaining
  /// the covered links through program order.  A fully covered queue is
  /// done.  Otherwise the queue is swept one source at a time
  /// (sweepAtomSources, sweepSendSources): a source's projections onto
  /// the queue's members give every pair whose premise holds and whose
  /// conclusion is missing.
  ///
  /// \returns the edges added this round (already folded into the
  /// graph).
  std::vector<HbEdge> applyDerivedRules(const Reachability &Oracle) {
    RoundOracle = &Oracle;
    ScanOut Out;
    if (Opt.EnableAtomicityRule)
      for (size_t Qi = 0; Qi != QueueEvents.size(); ++Qi)
        if (QueueEvents[Qi].size() >= 2 && !atomGap1(Qi, Out)) {
          layOutLooper(Qi);
          sweepAtomSources(Qi, Out);
        }
    if (Opt.EnableQueueRules)
      for (size_t Qi = 0; Qi != QueueSends.size(); ++Qi)
        if (QueueSends[Qi].size() >= 2 && !sendGap1(Qi, Out)) {
          layOutSendQueue(Qi);
          sweepSendSources(Qi, Out);
        }

    // Apply the batch (dedup first: atomicity and queue rules can derive
    // the same event-level edge).  Only edges the graph accepts are
    // derived: a rejected contradiction (corrupted trace) must neither
    // reach the checkpoint frontier nor stall convergence by re-entering
    // every round.
    std::vector<std::pair<NodeId, NodeId>> &NewEdges = Out.Edges;
    std::sort(NewEdges.begin(), NewEdges.end());
    NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                   NewEdges.end());
    std::vector<HbEdge> Batch;
    for (auto [From, To] : NewEdges)
      if (G.addEdge(From, To))
        Batch.push_back({From, To});
    G.foldEdges();

    Stats.AtomicityEdges += Out.Atomicity;
    Stats.QueueRule1Edges += Out.Q1;
    Stats.QueueRule2Edges += Out.Q2;
    Stats.QueueRule3Edges += Out.Q3;
    Stats.QueueRule4Edges += Out.Q4;
    return Batch;
  }

  /// Fixpoint rounds under the BFS oracle until one derives nothing,
  /// MaxFixpointRounds runs out, or the deadline passes.
  void runRounds() {
    collect();
    while (Stats.FixpointRounds < Opt.MaxFixpointRounds) {
      // Time rung of the degradation ladder: stop starting rounds past
      // the deadline.  Edges already derived stay -- the relation only
      // ever under-approximates, which can add race candidates
      // downstream but never hides one.
      if (pastDeadline()) {
        H.Degrade.DeadlineExceeded = true;
        return;
      }
      ++Stats.FixpointRounds;
      const Clock::time_point T0 = Clock::now();
      std::vector<HbEdge> Delta = applyDerivedRules(*H.Reach);
      if (Profile)
        std::fprintf(stderr, "round %u: delta=%zu scan=%.1fms\n",
                     Stats.FixpointRounds - 1, Delta.size(), msSince(T0));
      if (Delta.empty()) {
        H.Converged = true;
        return;
      }
      H.DerivedEdges.insert(H.DerivedEdges.end(), Delta.begin(),
                            Delta.end());
      maybeSave();
    }
  }
};

HbIndex::HbIndex(const Trace &T, const TaskIndex &Index,
                 const HbOptions &Options, const HbCheckpointing *Checkpoint)
    : T(T) {
  // The clock starts before the graph is built: the profile's graph+base
  // span, the deadline and the checkpoint cadence all count it.
  const Clock::time_point Start = Clock::now();
  Graph = std::make_unique<HbGraph>(T);
  Builder B(*this, Options, Checkpoint, Start);
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
  if (B.Profile)
    std::fprintf(stderr, "graph+base=%.1fms nodes=%zu edges=%zu\n",
                 msSince(Start), Graph->numNodes(), Graph->numEdges());

  // The derived rules run unless the model has none or a saturated
  // frontier already holds them; either way the chain oracle comes out
  // of a forward pass.  Memory rung of the degradation ladder: clocks
  // that outgrow their bound or MemLimitBytes hand the build to the BFS
  // rounds, seeded with the edges derived so far.  Both oracles answer
  // queries identically, so a downgrade changes build time and memory
  // but never a report.
  const bool Rules = Options.Model == OrderingModel::Cafa &&
                     (Options.EnableAtomicityRule ||
                      Options.EnableQueueRules) &&
                     !(R && R->Saturated);
  Converged = !Rules;
  const uint32_t StartRound = Stats.FixpointRounds;
  ReachMode Mode = resolveReachMode(Options.Reach);
  Degrade.RequestedReach = Mode;
  if (Mode == ReachMode::Chain)
    Reach = B.runPasses(Rules);
  if (!Reach) {
    Mode = ReachMode::Bfs;
    Reach = std::make_unique<BfsReachability>(*Graph);
    if (Rules && !Degrade.DeadlineExceeded)
      B.runRounds();
  }
  RoundsRun = Stats.FixpointRounds - StartRound;
  Degrade.UsedReach = Mode;
  // Clocks past their bound, or a deadline before the first pass, also
  // land on Bfs; only the budget makes that a memory downgrade, which
  // sheds the detector to the windowed scan too.
  Degrade.DowngradedForMemory = B.OverBudget;
  Degrade.MeasuredReachBytes = Reach->memoryBytes();
  Degrade.ChainCount = Reach->chainCount();
  if (!Converged) {
    // The cut relation is missing edges from exactly the rule families
    // the fixpoint was still deriving.
    if (Options.EnableAtomicityRule)
      Degrade.UnsaturatedRules.push_back("atomicity");
    if (Options.EnableQueueRules)
      Degrade.UnsaturatedRules.push_back("event-queue");
    // Always leave a frontier behind so the interrupted work is
    // resumable regardless of cadence.
    if (Checkpoint && Checkpoint->Save)
      Checkpoint->Save(exportFrontier());
  }

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

void HbIndex::shedOracle() {
  Reach = std::make_unique<BfsReachability>(*Graph);
}

size_t HbIndex::memoryBytes() const {
  const std::vector<HbEdge> &Edges =
      Relation ? Relation->DerivedEdges : DerivedEdges;
  return Graph->memoryBytes() + Reach->memoryBytes() +
         Edges.size() * sizeof(HbEdge);
}
