//===- hb/WindowedReach.cpp - Streaming frontier reachability ---------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/WindowedReach.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace cafa;

WindowedReach::WindowedReach(const HbGraph &G, uint32_t QueryHorizon)
    : G(G) {
  greedyChainCover(G, Cover);
  NumChains = Cover.NumChains;

  const uint32_t N = static_cast<uint32_t>(G.numNodes());
  // lastNodeAtOrBefore is *per-task*: the query at record L targets the
  // latest node of L's own task, which can sit many records behind L
  // when other tasks interleave.  So a node's retirement horizon is the
  // last record that resolves to it -- computed exactly by replaying
  // the query against every record up to the horizon.  Clamping to the
  // node's own record keeps the row alive through its admission (it
  // still has to push to its successors).
  RetireAt.assign(N, 0);
  for (uint32_t I = 0; I != N; ++I)
    RetireAt[I] = G.recordOfNode(NodeId(I));
  if (N != 0)
    for (uint32_t R = 0; R <= QueryHorizon; ++R)
      if (NodeId Q = G.lastNodeAtOrBefore(R); Q.isValid())
        RetireAt[Q.index()] = std::max(RetireAt[Q.index()], R);

  // Per-task targeting makes RetireAt non-monotone in the id (a quiet
  // task's last node outlives busier tasks' later nodes), so the
  // retirement sweep walks ids sorted by horizon instead of raw ids.
  RetireOrder.resize(N);
  for (uint32_t I = 0; I != N; ++I)
    RetireOrder[I] = I;
  std::sort(RetireOrder.begin(), RetireOrder.end(),
            [this](uint32_t A, uint32_t B) { return RetireAt[A] < RetireAt[B]; });

  RowSlot.assign(N, -1);
  ChainEpoch.assign(NumChains, 0);
  BestSuccOfChain.assign(NumChains, 0);
}

uint32_t *WindowedReach::rowFor(uint32_t Node) {
  int32_t Slot = RowSlot[Node];
  if (Slot < 0) {
    if (!FreeSlots.empty()) {
      Slot = FreeSlots.back();
      FreeSlots.pop_back();
      std::memset(Rows.data() + static_cast<size_t>(Slot) * NumChains, 0,
                  NumChains * sizeof(uint32_t));
    } else {
      Slot = static_cast<int32_t>(Rows.size() / NumChains);
      Rows.resize(Rows.size() + NumChains, 0);
    }
    RowSlot[Node] = Slot;
    ++LiveRowCount;
    HighWaterRows = std::max(HighWaterRows, LiveRowCount);
  }
  return Rows.data() + static_cast<size_t>(Slot) * NumChains;
}

void WindowedReach::freeRow(uint32_t Node) {
  int32_t Slot = RowSlot[Node];
  if (Slot < 0)
    return;
  RowSlot[Node] = -1;
  FreeSlots.push_back(Slot);
  --LiveRowCount;
}

void WindowedReach::admit(uint32_t Node) {
  std::span<const uint32_t> Succ = G.successors(NodeId(Node));
  if (Succ.empty())
    return;
  // Push only to the *earliest* successor on each chain.  A saturated
  // graph carries transitively redundant long edges (a notify keeps
  // edges to every later wait it orders), and pushing each of them
  // would materialize a row per far-future target.  Dropping an edge
  // to a later same-chain successor loses nothing: chains follow graph
  // edges (greedyChainCover extends along successors), the earliest
  // same-chain successor of any node includes its own chain-next, so
  // the surviving chain path re-delivers the folded facts hop by hop
  // before the dropped target is ever admitted -- the pruned push
  // graph has the same transitive closure, hence identical rows.
  ++Epoch;
  TouchedChains.clear();
  for (uint32_t S : Succ) {
    const uint32_t C = Cover.ChainOf[S];
    if (ChainEpoch[C] != Epoch) {
      ChainEpoch[C] = Epoch;
      BestSuccOfChain[C] = S;
      TouchedChains.push_back(C);
    } else if (Cover.PosInChain[S] < Cover.PosInChain[BestSuccOfChain[C]]) {
      BestSuccOfChain[C] = S;
    }
  }
  const uint32_t C = Cover.ChainOf[Node];
  const uint32_t P = Cover.PosInChain[Node] + 1;
  for (uint32_t TC : TouchedChains) {
    uint32_t *Dst = rowFor(BestSuccOfChain[TC]);
    // rowFor can grow the arena; re-derive the source row after it.
    int32_t WSlot = RowSlot[Node];
    if (WSlot >= 0) {
      const uint32_t *Src =
          Rows.data() + static_cast<size_t>(WSlot) * NumChains;
      for (uint32_t I = 0; I != NumChains; ++I)
        Dst[I] = std::max(Dst[I], Src[I]);
    }
    Dst[C] = std::max(Dst[C], P);
  }
}

void WindowedReach::advanceTo(uint32_t RecordCursor) {
  const uint32_t N = static_cast<uint32_t>(G.numNodes());
  while (NextAdmit < N &&
         G.recordOfNode(NodeId(NextAdmit)) <= RecordCursor) {
    // Retire interleaved with admission: queries only ever run at the
    // final cursor, so a horizon strictly before the record being
    // admitted is already dead -- and RetireAt >= the node's own
    // record, so anything retiring here was admitted (and pushed) in
    // an earlier iteration or call.  Without this, a coarse cursor
    // jump (the scan advances at sweep cadence) would transiently
    // materialize a row for every record in the jump.
    const uint32_t R = G.recordOfNode(NodeId(NextAdmit));
    while (RetirePtr < N && RetireAt[RetireOrder[RetirePtr]] < R) {
      freeRow(RetireOrder[RetirePtr]);
      ++RetirePtr;
    }
    admit(NextAdmit);
    ++NextAdmit;
  }
  while (RetirePtr < N && RetireAt[RetireOrder[RetirePtr]] < RecordCursor) {
    freeRow(RetireOrder[RetirePtr]);
    ++RetirePtr;
  }
}

bool WindowedReach::orderedCrossTask(uint32_t A, uint32_t B) const {
  if (A == B)
    return false;
  const uint32_t E = std::min(A, B), L = std::max(A, B);
  // Cross-task, so hb(L, E) is structurally false: lastNodeAtOrBefore(E)
  // precedes firstNodeAtOrAfter(L) in id order and every edge points
  // forward.  ordered() is exactly hb(E, L).
  NodeId P = G.firstNodeAtOrAfter(E);
  NodeId Q = G.lastNodeAtOrBefore(L);
  if (!P.isValid() || !Q.isValid())
    return false;
  assert(Q.index() < NextAdmit && "query ahead of the admission cursor");
  assert(RetireAt[Q.index()] >= L && "query target already retired");
  int32_t Slot = RowSlot[Q.index()];
  if (Slot < 0)
    return false; // empty row: nothing reaches Q
  const uint32_t *Row = Rows.data() + static_cast<size_t>(Slot) * NumChains;
  return Row[Cover.ChainOf[P.index()]] >= Cover.PosInChain[P.index()] + 1;
}

size_t WindowedReach::memoryBytes() const {
  return Rows.capacity() * sizeof(uint32_t) +
         RowSlot.capacity() * sizeof(int32_t) +
         RetireAt.capacity() * sizeof(uint32_t) +
         RetireOrder.capacity() * sizeof(uint32_t) +
         ChainEpoch.capacity() * sizeof(uint64_t) +
         BestSuccOfChain.capacity() * sizeof(uint32_t) +
         TouchedChains.capacity() * sizeof(uint32_t) +
         FreeSlots.capacity() * sizeof(int32_t) +
         Cover.ChainOf.capacity() * sizeof(uint32_t) +
         Cover.PosInChain.capacity() * sizeof(uint32_t);
}
