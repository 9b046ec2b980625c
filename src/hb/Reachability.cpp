//===- hb/Reachability.cpp - Reachability oracles over the HB DAG ----------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/Reachability.h"

#include "support/Resolve.h"

#include <algorithm>
#include <cstring>
#include <optional>

using namespace cafa;

BfsReachability::BfsReachability(const HbGraph &G)
    : G(G), VisitedPos(G.trace().numTasks(), 0),
      VisitedVersion(G.trace().numTasks(), 0) {}

bool BfsReachability::reaches(NodeId From, NodeId To) const {
  return From != To && search(From, To);
}

bool BfsReachability::search(NodeId From, NodeId To) const {
  ++Version;

  TaskId ToTask = To.isValid() ? G.taskOfNode(To) : TaskId::invalid();
  uint32_t ToPos = To.isValid() ? G.posOfNode(To) : 0;
  bool Found = false;

  // Range worklist: a task is expanded at most once per position thanks
  // to the VisitedPos high-water mark.  An early return leaves ranges
  // behind; they are stale, so start from an empty stack.
  Ranges.clear();

  auto pushFrom = [&](NodeId Node) {
    TaskId Task = G.taskOfNode(Node);
    uint32_t Lo = G.posOfNode(Node);
    uint32_t Hi;
    if (VisitedVersion[Task.index()] == Version) {
      Hi = VisitedPos[Task.index()];
      if (Lo >= Hi)
        return; // already covered
    } else {
      Hi = static_cast<uint32_t>(G.taskNodes(Task).size());
      VisitedVersion[Task.index()] = Version;
    }
    VisitedPos[Task.index()] = Lo;
    if (Task == ToTask && ToPos >= Lo && ToPos < Hi)
      Found = true;
    Ranges.push_back({Task, Lo, Hi});
  };

  // Seed with the direct successors of From (program order within From's
  // task is one of them: the edge to the next node).
  for (uint32_t S : G.successors(From)) {
    pushFrom(NodeId(S));
    if (Found)
      return true;
  }

  while (!Ranges.empty()) {
    Range R = Ranges.back();
    Ranges.pop_back();
    std::span<const NodeId> Nodes = G.taskNodes(R.Task);
    for (uint32_t P = R.Lo; P != R.Hi; ++P) {
      for (uint32_t S : G.successors(Nodes[P])) {
        NodeId Succ(S);
        // Skip the intra-task program-order edge: it stays inside the
        // range we are already scanning.
        if (G.taskOfNode(Succ) == R.Task)
          continue;
        pushFrom(Succ);
        if (Found)
          return true;
      }
    }
  }
  return false;
}

size_t BfsReachability::memoryBytes() const {
  return VisitedPos.capacity() * 4 + VisitedVersion.capacity() * 4 +
         Ranges.capacity() * sizeof(Range);
}

//===----------------------------------------------------------------------===//
// Projection
//===----------------------------------------------------------------------===//

namespace {

/// Reachability::project's contract, asking \p Reached for each wanted
/// member.
template <typename ReachedFn>
size_t projectEach(const NodeProjection &P, size_t Lo, const uint64_t *Want,
                   uint64_t *Out, ReachedFn Reached) {
  const size_t K = P.size(), NW = (K + 63) / 64;
  std::memset(Out, 0, NW * 8);
  if (Lo >= K)
    return 0;
  size_t Queried = 0;
  for (size_t WI = Lo >> 6; WI != NW; ++WI) {
    uint64_t M = Want ? Want[WI] : ~uint64_t(0);
    if (WI == Lo >> 6)
      M &= ~uint64_t(0) << (Lo & 63);
    if (WI + 1 == NW && K % 64)
      M &= (uint64_t(1) << (K % 64)) - 1;
    for (; M; M &= M - 1) {
      unsigned B = static_cast<unsigned>(__builtin_ctzll(M));
      NodeId To = P.node(WI * 64 + B);
      if (!To.isValid())
        continue;
      ++Queried;
      if (Reached(To))
        Out[WI] |= uint64_t(1) << B;
    }
  }
  return Queried;
}

} // namespace

size_t Reachability::project(NodeId From, const NodeProjection &P, size_t Lo,
                             const uint64_t *Want, uint64_t *Out) const {
  return projectEach(P, Lo, Want, Out,
                     [&](NodeId To) { return reaches(From, To); });
}

size_t BfsReachability::project(NodeId From, const NodeProjection &P,
                                size_t Lo, const uint64_t *Want,
                                uint64_t *Out) const {
  // One search from From marks, per task, the lowest position it
  // reaches; a member is reached when its position is at or past it.
  search(From, NodeId::invalid());
  return projectEach(P, Lo, Want, Out, [&](NodeId To) {
    TaskId Task = G.taskOfNode(To);
    return To != From && VisitedVersion[Task.index()] == Version &&
           VisitedPos[Task.index()] <= G.posOfNode(To);
  });
}

//===----------------------------------------------------------------------===//
// ChainReachability
//===----------------------------------------------------------------------===//

ChainReachability::ChainReachability(const HbGraph &G, size_t BudgetBytes,
                                     Empty)
    : G(G), Budget(BudgetBytes), ChainOf(G.numNodes()),
      PosInChain(G.numNodes()), RowOf(G.numNodes()) {
  // Not even the per-node cover fits: the ladder steps to Bfs.
  if (Budget && memoryBytes() > Budget)
    Over = Overflow::Budget;
}

ChainReachability::ChainReachability(const HbGraph &G)
    : ChainReachability(G, 0, Empty{}) {
  CrossInEdges In(G);
  for (uint32_t V = 0, N = static_cast<uint32_t>(G.numNodes());
       V != N && Over == Overflow::None; ++V) {
    open(NodeId(V));
    In.forEach(NodeId(V), [&](NodeId U) { join(U); });
    place(NodeId(V));
  }
}

void ChainReachability::open(NodeId V) {
  for (uint32_t C : Set)
    Cur[C] = 0;
  Set.clear();
  const uint32_t Pos = G.posOfNode(V);
  Grew = Pos == 0;
  if (Grew)
    return;
  NodeId P = G.taskNodes(G.taskOfNode(V))[Pos - 1];
  forEachEntry(row(P), [&](uint32_t C, uint32_t E) { raise(C, E); });
  raise(ChainOf[P.index()], PosInChain[P.index()] + 1);
}

void ChainReachability::join(NodeId U) {
  forEachEntry(row(U), [&](uint32_t C, uint32_t E) { Grew |= raise(C, E); });
  Grew |= raise(ChainOf[U.index()], PosInChain[U.index()] + 1);
}

bool ChainReachability::place(NodeId V) {
  const TaskId Task = G.taskOfNode(V);
  const uint32_t Pos = G.posOfNode(V);
  uint32_t Chain = UINT32_MAX;
  uint32_t Pred = UINT32_MAX;
  // Extend the chain whose tail is the task's previous node.
  if (Pos != 0) {
    Pred = G.taskNodes(Task)[Pos - 1].value();
    if (Tails[ChainOf[Pred]] == Pred)
      Chain = ChainOf[Pred];
  }
  if (Chain == UINT32_MAX) {
    // Else extend a tail V's clock holds -- for an event's begin,
    // preferably one on the same looper, whose events then share a
    // chain -- the latest such tail.
    const Trace &T = G.trace();
    QueueId Looper;
    if (G.beginNode(Task) == V && T.taskInfo(Task).Kind == TaskKind::Event)
      Looper = T.taskInfo(Task).Queue;
    uint32_t Any = UINT32_MAX, Same = UINT32_MAX;
    for (uint32_t C : Set) {
      uint32_t Tail = Tails[C];
      if (Cur[C] != PosInChain[Tail] + 1)
        continue;
      if (Any == UINT32_MAX || Tail > Tails[Any])
        Any = C;
      if (Looper.isValid() &&
          T.taskInfo(G.taskOfNode(NodeId(Tail))).Queue == Looper &&
          (Same == UINT32_MAX || Tail > Tails[Same]))
        Same = C;
    }
    Chain = Same != UINT32_MAX ? Same : Any;
  }
  if (Chain == UINT32_MAX) {
    // Otherwise open a new chain.
    Chain = static_cast<uint32_t>(Tails.size());
    Cur.push_back(0);
    Tails.push_back(V.value());
    PosInChain[V.index()] = 0;
  } else {
    PosInChain[V.index()] = PosInChain[Tails[Chain]] + 1;
    Tails[Chain] = V.value();
  }
  ChainOf[V.index()] = Chain;
  raise(Chain, PosInChain[V.index()] + 1);

  // Share the predecessor's row when V only extends its chain.
  if (!Grew && Chain == ChainOf[Pred]) {
    RowOf[V.index()] = RowOf[Pred];
    return true;
  }
  // Else store the row, as pairs when fewer than half its entries are
  // set.  Capacity is reserved for the remaining nodes at half again
  // this row's length, up to the bound, so the rows are rarely copied;
  // pages past the rows written are never touched.
  const uint32_t W = static_cast<uint32_t>(Tails.size());
  const uint32_t NumSet = static_cast<uint32_t>(Set.size());
  const bool Sparse = 2 * NumSet < W;
  const size_t Len = 1 + (Sparse ? 2 * size_t(NumSet) : W);
  const size_t Bound = G.numNodes() * size_t(MaxChainsForClocks);
  if (Clocks.size() + Len > std::min<size_t>(Bound, UINT32_MAX)) {
    Over = Overflow::Clocks; // row offsets are 32-bit too
    return false;
  }
  if (Clocks.size() + Len > Clocks.capacity())
    Clocks.reserve(std::min(Bound, Clocks.size() + (G.numNodes() - V.index()) *
                                                        (Len + Len / 2 + 4)));
  RowOf[V.index()] = static_cast<uint32_t>(Clocks.size());
  if (Sparse) {
    std::sort(Set.begin(), Set.end());
    Clocks.push_back(NumSet | SparseRow);
    for (uint32_t C : Set) {
      Clocks.push_back(C);
      Clocks.push_back(Cur[C]);
    }
  } else {
    Clocks.push_back(W);
    Clocks.insert(Clocks.end(), Cur.begin(), Cur.begin() + W);
  }
  if (Budget && memoryBytes() > Budget)
    Over = Overflow::Budget;
  return Over == Overflow::None;
}

bool ChainReachability::reaches(NodeId From, NodeId To) const {
  // v's clock holds u exactly when u reaches v or u == v.
  return From != To &&
         entry(To, ChainOf[From.index()]) > PosInChain[From.index()];
}

size_t ChainReachability::memoryBytes() const {
  // The clock matrix counts the rows written: its reserve is never
  // touched past them.
  return (ChainOf.capacity() + PosInChain.capacity() + RowOf.capacity() +
          Clocks.size() + Tails.capacity() + Cur.capacity() +
          Set.capacity()) *
         sizeof(uint32_t);
}

ReachMode cafa::resolveReachMode(ReachMode Requested) {
  // Request > environment > default via the shared precedence template
  // (0 = auto for the thread knobs, Auto here).
  return resolveRequestEnv<ReachMode>(
      Requested, ReachMode::Auto, "CAFA_REACH",
      [](const char *Env) -> std::optional<ReachMode> {
        if (std::strcmp(Env, "chain") == 0)
          return ReachMode::Chain;
        if (std::strcmp(Env, "bfs") == 0)
          return ReachMode::Bfs;
        return std::nullopt;
      },
      [] { return ReachMode::Chain; });
}

const char *cafa::reachModeName(ReachMode Mode) {
  switch (Mode) {
  case ReachMode::Bfs:
    return "bfs";
  case ReachMode::Chain:
    return "chain";
  case ReachMode::Auto:
    return "auto";
  }
  return "unknown";
}
