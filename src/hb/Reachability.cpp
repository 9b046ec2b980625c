//===- hb/Reachability.cpp - Reachability oracles over the HB DAG ----------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/Reachability.h"

#include "support/Resolve.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

using namespace cafa;

namespace {

//===----------------------------------------------------------------------===//
// Column-strip parallel sweeps
//===----------------------------------------------------------------------===//
//
// The closure oracle runs one reverse-topological row sweep: node I
// absorbs {S} union row(S) for each successor S, and because ids ascend
// in trace order every absorbed row is already final.  The sweep
// parallelizes by *columns*, not rows: partition the word range
// [0, WordsPerRow) into contiguous strips and give each worker the
// complete descending row loop restricted to its strip.  Words of
// row(S) inside strip T are only ever written by worker T, and worker
// T finalizes them before reaching row I < S -- so no worker ever reads
// a word another worker may still write, and each strip independently
// maintains the closure invariant over its own columns.  The union of
// the strips is, word for word, the one-strip sweep's output: the
// parallel path is bit-identical by construction, not by tolerance, and
// the single strip [0, WordsPerRow) *is* the sequential sweep.

/// Column strips for a sweep over rows of \p WordsPerRow words, as K+1
/// cuts (Cuts[0]=0, Cuts[K]=WordsPerRow).  K is caller + helpers,
/// clamped so every strip holds at least two words, and 1 without a
/// pool or for small matrices where fork/join overhead would dominate.
/// The union for an edge with head S touches words [S>>6, WordsPerRow),
/// so the load on word W is the number of edge heads at or below it
/// (plus a constant clear/scan floor); cuts equalize the per-strip load
/// sum.
std::vector<size_t> columnStrips(const HbGraph &G, size_t WordsPerRow,
                                 const WorkerPool *Pool) {
  size_t K = Pool && G.numNodes() >= 128
                 ? std::min<size_t>(Pool->helperThreads() + 1, WordsPerRow / 2)
                 : 1;
  if (K < 2)
    return {0, WordsPerRow};
  std::vector<uint64_t> Heads(WordsPerRow, 0);
  for (size_t I = 0, N = G.numNodes(); I != N; ++I)
    for (uint32_t S : G.successors(NodeId(static_cast<uint32_t>(I))))
      ++Heads[S >> 6];
  std::vector<uint64_t> Load(WordsPerRow);
  uint64_t Acc = 0, Total = 0;
  for (size_t W = 0; W != WordsPerRow; ++W) {
    Acc += Heads[W];
    Load[W] = Acc + 1;
    Total += Load[W];
  }
  std::vector<size_t> Cuts;
  Cuts.reserve(K + 1);
  Cuts.push_back(0);
  uint64_t Cum = 0;
  for (size_t W = 0; W + 1 < WordsPerRow && Cuts.size() != K; ++W) {
    Cum += Load[W];
    size_t NextCut = Cuts.size(); // boundary index about to be placed
    size_t WordsLeft = WordsPerRow - (W + 1);
    size_t CutsLeft = K - NextCut;
    // Cut when this strip carries its share, or when every remaining
    // word is needed to give the remaining strips one word each.
    if (WordsLeft == CutsLeft ||
        static_cast<double>(Cum) * K >= static_cast<double>(Total) * NextCut)
      Cuts.push_back(W + 1);
  }
  Cuts.push_back(WordsPerRow);
  return Cuts;
}

/// Runs strip sweep \p Sweep(T) for every strip T of \p Cuts: inline
/// for one strip, else across the pool.
void runStrips(WorkerPool *Pool, const std::vector<size_t> &Cuts,
               const std::function<void(size_t)> &Sweep) {
  if (Cuts.size() == 2)
    Sweep(0);
  else
    Pool->parallelFor(Cuts.size() - 1, Sweep);
}

/// One strip's share of a full closure rebuild: clear then re-derive
/// words [Lo, Hi) of every row, in descending row order.
void refreshRowsStrip(const HbGraph &G, std::vector<BitVec> &Rows, size_t Lo,
                      size_t Hi) {
  for (BitVec &Row : Rows)
    Row.clearWords(Lo, Hi);
  for (size_t I = G.numNodes(); I-- > 0;) {
    BitVec &Row = Rows[I];
    for (uint32_t S : G.successors(NodeId(static_cast<uint32_t>(I)))) {
      size_t SW = S >> 6;
      if (SW >= Hi)
        continue; // this edge only touches higher strips
      if (SW >= Lo)
        Row.set(S);
      Row.orWithRange(Rows[S], SW > Lo ? SW : Lo, Hi);
    }
  }
}

/// Budget-tracked allocation of one N x N row matrix.  Counts each row
/// as it is committed and aborts past the budget (0 = unlimited),
/// releasing everything so a failed probe leaves no high-water mark
/// behind.  \p Used carries footprint already committed by the caller
/// (the dirty flags).
bool allocateRowMatrix(std::vector<BitVec> &Rows, size_t N, size_t Budget,
                       size_t Used) {
  Rows.resize(N);
  for (BitVec &Row : Rows) {
    Row.resize(N);
    if (Budget) {
      Used += Row.memoryBytes();
      if (Used > Budget) {
        Rows.clear();
        Rows.shrink_to_fit();
        return false;
      }
    }
  }
  return true;
}

} // namespace

bool IncrementalClosureReachability::allocateRows() {
  size_t N = G.numNodes();
  if (Rows.size() == N && (N == 0 || Rows.back().size() == N))
    return !Exceeded;
  // One strip's dirty flags are committed up front and counted against
  // the budget: a fixpoint run will allocate them anyway.
  StripDirty.assign(1, std::vector<uint8_t>(N, 0));
  if (!allocateRowMatrix(Rows, N, Budget, StripDirty[0].capacity())) {
    StripDirty.clear();
    Exceeded = true;
    return false;
  }
  return true;
}

void IncrementalClosureReachability::refresh() {
  if (!allocateRows())
    return; // budget exceeded: the ladder discards this oracle
  // Node ids ascend in trace-record order and every edge points forward,
  // so descending node id is a reverse topological order: successors'
  // rows are final when a node is processed.  A row holds only bits
  // above its own node, so each union can start at the successor's word.
  std::vector<size_t> Cuts =
      columnStrips(G, Rows.empty() ? 0 : Rows.front().numWords(), Pool);
  runStrips(Pool, Cuts, [&](size_t T) {
    refreshRowsStrip(G, Rows, Cuts[T], Cuts[T + 1]);
  });
  KnownEdges = G.numEdges();
}

void IncrementalClosureReachability::addEdges(
    std::span<const HbEdge> Edges) {
  // The protocol: the rule engine inserts exactly one round's edges into
  // the graph, then hands that batch here.  If the graph drifted (nodes
  // appeared, or edges were added behind our back), the delta cannot be
  // expressed -- rebuild.
  if (Rows.size() != G.numNodes() ||
      KnownEdges + Edges.size() != G.numEdges()) {
    refresh();
    return;
  }
  KnownEdges = G.numEdges();
  if (Edges.empty())
    return;

  // Sort the batch by source id descending so one reverse-topological
  // sweep consumes it with a moving cursor.
  SortedBatch.assign(Edges.begin(), Edges.end());
  std::sort(SortedBatch.begin(), SortedBatch.end(),
            [](const HbEdge &A, const HbEdge &B) { return B.From < A.From; });

  // Nodes above the largest batch source cannot reach any new edge (all
  // paths to it would have to run backward), so the sweep starts there.
  uint32_t MaxFrom = SortedBatch.front().From.value();

  // Each strip runs the complete descending sweep over its own words
  // with strip-local dirty flags: a successor dirty only in *other*
  // strips has unchanged words in this strip, already contained by the
  // closure invariant, so skipping its re-absorb is a no-op -- every
  // strip's words come out exactly as the one-strip sweep leaves them.
  std::vector<size_t> Cuts =
      columnStrips(G, Rows.empty() ? 0 : Rows.front().numWords(), Pool);
  StripDirty.resize(Cuts.size() - 1);
  for (std::vector<uint8_t> &SD : StripDirty)
    SD.assign(G.numNodes(), 0);
  runStrips(Pool, Cuts, [&](size_t T) {
    sweepStrip(StripDirty[T], Cuts[T], Cuts[T + 1], MaxFrom);
  });
}

void IncrementalClosureReachability::sweepStrip(std::vector<uint8_t> &Dirt,
                                                size_t Lo, size_t Hi,
                                                uint32_t MaxFrom) {
  size_t Next = 0;
  for (uint32_t I = MaxFrom + 1; I-- > 0;) {
    BitVec &Row = Rows[I];
    bool Changed = false;
    // Absorb this node's batch edges: row gains {To} union row(To).
    // To > I, and the sweep already finalized every node above I, so
    // row(To) is final for this batch.
    for (; Next != SortedBatch.size() && SortedBatch[Next].From.value() == I;
         ++Next) {
      uint32_t To = SortedBatch[Next].To.value();
      assert(To > I && "HB edges must point forward in trace order");
      size_t TW = To >> 6;
      if (TW >= Hi)
        continue; // lands entirely in higher strips
      if (TW >= Lo && !Row.test(To)) {
        Row.set(To);
        Changed = true;
      }
      Changed |= Row.orWithRange(Rows[To], TW > Lo ? TW : Lo, Hi);
    }
    // Re-absorb every successor whose row grew earlier in this sweep;
    // clean successors are already contained by the closure invariant.
    for (uint32_t S : G.successors(NodeId(I)))
      if (Dirt[S]) {
        size_t SW = S >> 6;
        if (SW < Hi)
          Changed |= Row.orWithRange(Rows[S], SW > Lo ? SW : Lo, Hi);
      }
    Dirt[I] = Changed;
  }
}

size_t IncrementalClosureReachability::memoryBytes() const {
  size_t Total = SortedBatch.capacity() * sizeof(HbEdge);
  for (const BitVec &Row : Rows)
    Total += Row.memoryBytes();
  for (const std::vector<uint8_t> &SD : StripDirty)
    Total += SD.capacity();
  return Total;
}

BfsReachability::BfsReachability(const HbGraph &G)
    : G(G), VisitedPos(G.trace().numTasks(), 0),
      VisitedVersion(G.trace().numTasks(), 0) {}

bool BfsReachability::reaches(NodeId From, NodeId To) const {
  if (From == To)
    return false;
  ++Version;

  TaskId ToTask = G.taskOfNode(To);
  uint32_t ToPos = G.posOfNode(To);
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
// Chain cover
//===----------------------------------------------------------------------===//

void cafa::greedyChainCover(const HbGraph &G, ChainCover &Out) {
  size_t N = G.numNodes();
  Out.ChainOf.assign(N, ChainCover::Unassigned);
  Out.PosInChain.assign(N, 0);
  Out.NumChains = 0;
  // Greedy path cover: walk ids ascending, start a chain at every
  // unassigned node, extend along the smallest-id unassigned successor.
  // Edges point forward in id order, so every chain's members ascend --
  // which makes a chain's position order its id order, and makes the
  // walk O(N + E) total.  The cover is a pure function of the adjacency
  // lists: determinism is what lets a resume and the windowed frontier
  // recompute the very same cover.
  for (uint32_t I = 0, E = static_cast<uint32_t>(N); I != E; ++I) {
    if (Out.ChainOf[I] != ChainCover::Unassigned)
      continue;
    uint32_t C = Out.NumChains++;
    uint32_t U = I;
    for (uint32_t Pos = 0;; ++Pos) {
      Out.ChainOf[U] = C;
      Out.PosInChain[U] = Pos;
      uint32_t NextU = ChainCover::Unassigned;
      for (uint32_t S : G.successors(NodeId(U)))
        if (Out.ChainOf[S] == ChainCover::Unassigned && S < NextU)
          NextU = S;
      if (NextU == ChainCover::Unassigned)
        break;
      U = NextU;
    }
  }
}

//===----------------------------------------------------------------------===//
// Row projection
//===----------------------------------------------------------------------===//

NodeProjection::NodeProjection(std::vector<NodeId> Members)
    : Nodes(std::move(Members)) {
  std::vector<std::pair<uint32_t, uint32_t>> ById; // (node id, member)
  ById.reserve(Nodes.size());
  bool Identity = true;
  for (uint32_t K = 0, E = static_cast<uint32_t>(Nodes.size()); K != E; ++K) {
    if (!Nodes[K].isValid()) {
      Identity = false;
      continue;
    }
    if (!ById.empty() && ById.back().first >= Nodes[K].index())
      Identity = false;
    ById.push_back({Nodes[K].index(), K});
  }
  if (!Identity)
    std::sort(ById.begin(), ById.end());
  for (uint32_t R = 0, E = static_cast<uint32_t>(ById.size()); R != E; ++R) {
    uint32_t Id = ById[R].first;
    assert((R == 0 || ById[R - 1].first != Id) && "members must be distinct");
    if (Words.empty() || Words.back().Index != Id >> 6)
      Words.push_back({Id >> 6, R, 0});
    Words.back().Bits |= uint64_t(1) << (Id & 63);
  }
  if (!Identity)
    for (auto [Id, K] : ById)
      ByRank.push_back(K);
}

namespace {

/// ORs \p V, one word's extracted member bits, into \p Out at bit
/// offset \p Rank (spilling into the next word when it straddles).
inline void depositAt(uint64_t *Out, uint32_t Rank, uint64_t V) {
  uint64_t *D = Out + (Rank >> 6);
  unsigned Shift = Rank & 63;
  D[0] |= V << Shift;
  if (Shift && (V >> (64 - Shift)))
    D[1] |= V >> (64 - Shift);
}

#if defined(__x86_64__)
/// The word-parallel gather: each member word's bits of \p Row are
/// extracted in one pext and land at their rank, which is their member
/// index when the projection's ids ascend.
__attribute__((target("bmi2"))) void
gatherPext(const BitVec &Row, const NodeProjection::Word *W,
           const NodeProjection::Word *E, uint64_t *Out) {
  for (; W != E; ++W)
    if (uint64_t V = _pext_u64(Row.word(W->Index), W->Bits))
      depositAt(Out, W->Rank, V);
}

bool cpuHasBmi2() {
  static const bool Has = __builtin_cpu_supports("bmi2");
  return Has;
}
#endif

} // namespace

size_t Reachability::project(NodeId From, const NodeProjection &P, size_t Lo,
                             const uint64_t *Want, uint64_t *Out) const {
  const size_t K = P.size(), NW = (K + 63) / 64;
  std::memset(Out, 0, NW * 8);
  if (Lo >= K)
    return 0;
  const BitVec *Rows = rowsOrNull();
  if (!Rows) {
    // No rows to gather from: ask for each wanted member.
    size_t Queried = 0;
    for (size_t WI = Lo >> 6; WI != NW; ++WI) {
      uint64_t M = Want ? Want[WI] : ~uint64_t(0);
      if (WI == Lo >> 6)
        M &= ~uint64_t(0) << (Lo & 63);
      if (WI + 1 == NW && K % 64)
        M &= (uint64_t(1) << (K % 64)) - 1;
      for (; M; M &= M - 1) {
        unsigned B = static_cast<unsigned>(__builtin_ctzll(M));
        NodeId To = P.Nodes[WI * 64 + B];
        if (!To.isValid())
          continue;
        ++Queried;
        if (reaches(From, To))
          Out[WI] |= uint64_t(1) << B;
      }
    }
    return Queried;
  }

  // A row holds only ids above its own node, and with ascending member
  // ids nothing before member Lo's word can land at or past Lo.
  const BitVec &Row = Rows[From.index()];
  const bool Identity = P.ByRank.empty();
  uint32_t StartWord = From.index() >> 6;
  if (Identity)
    StartWord = std::max<uint32_t>(StartWord, P.Nodes[Lo].index() >> 6);
  const NodeProjection::Word *W = std::lower_bound(
      P.Words.data(), P.Words.data() + P.Words.size(), StartWord,
      [](const NodeProjection::Word &X, uint32_t V) { return X.Index < V; });
  const NodeProjection::Word *E = P.Words.data() + P.Words.size();
  size_t Gathered = static_cast<size_t>(E - W);
#if defined(__x86_64__)
  if (Identity && cpuHasBmi2()) {
    gatherPext(Row, W, E, Out);
    W = E;
  }
#endif
  for (; W != E; ++W) {
    for (uint64_t M = Row.word(W->Index) & W->Bits; M; M &= M - 1) {
      uint64_t Below = W->Bits & ((M & -M) - 1);
      uint32_t R = W->Rank + static_cast<uint32_t>(__builtin_popcountll(Below));
      uint32_t Member = Identity ? R : P.ByRank[R];
      Out[Member >> 6] |= uint64_t(1) << (Member & 63);
    }
  }
  // Keep members [Lo, K) that Want asks for.
  std::memset(Out, 0, (Lo >> 6) * 8);
  Out[Lo >> 6] &= ~uint64_t(0) << (Lo & 63);
  if (Want)
    for (size_t WI = Lo >> 6; WI != NW; ++WI)
      Out[WI] &= Want[WI];
  return Gathered;
}

//===----------------------------------------------------------------------===//
// ChainReachability
//===----------------------------------------------------------------------===//

ChainReachability::ChainReachability(const HbGraph &G, size_t BudgetBytes,
                                     WorkerPool *Pool)
    : G(G), Budget(BudgetBytes), Pool(Pool), Search(G) {
  refresh();
}

void ChainReachability::decompose() {
  ChainCover Cover;
  Cover.ChainOf = std::move(ChainOf);
  Cover.PosInChain = std::move(PosInChain);
  greedyChainCover(G, Cover);
  ChainOf = std::move(Cover.ChainOf);
  PosInChain = std::move(Cover.PosInChain);
  NumChains = Cover.NumChains;
}

void ChainReachability::maybeBootstrap() {
  // The bootstrap is a speed device, never a memory commitment the
  // caller did not sign off on: engage it only when the embedded
  // closure's (deliberately pessimistic) estimate fits both the
  // structural cap and whatever byte budget the ladder probe imposed.
  size_t Allowance =
      Budget && Budget < MaxBootstrapBytes ? Budget : MaxBootstrapBytes;
  if (estimateReachabilityMemory(G.numNodes(), ReachMode::Incremental) >
      Allowance) {
    Boot.reset();
    return;
  }
  if (!Boot)
    Boot = std::make_unique<IncrementalClosureReachability>(G, 0, Pool);
  else
    Boot->refresh();
}

size_t ChainReachability::baseBytes() const {
  return ChainOf.capacity() * 4 + PosInChain.capacity() * 4 +
         Dirty.capacity() + SortedBatch.capacity() * sizeof(HbEdge) +
         Search.memoryBytes();
}

bool ChainReachability::buildClocks() {
  ClocksValid = false;
  Clocks.clear();
  Clocks.shrink_to_fit();
  // Two gates keep the matrix near-linear: the structural cap (a wide
  // cover means the fixpoint has not yet serialized the queues -- clocks
  // now would be quadratic-shaped), and the byte budget (the ladder's
  // measured probe).  Failing either is not an error: the search phase
  // answers every query correctly in O(N), and a later round re-tries.
  if (NumChains > MaxChainsForClocks)
    return false;
  size_t N = G.numNodes();
  size_t C = NumChains;
  if (Budget && baseBytes() + N * C * 4 > Budget)
    return false;
  Clocks.assign(N * C, Unset);
  // Same reverse-topological sweep as the closure rebuild, over clock
  // rows instead of bitset rows: node I absorbs, per chain, the minimum
  // of {S's own position} and S's clock row, for each successor S.
  for (size_t I = N; I-- > 0;) {
    uint32_t *Row = Clocks.data() + I * C;
    for (uint32_t S : G.successors(NodeId(static_cast<uint32_t>(I)))) {
      uint32_t P = PosInChain[S];
      if (P < Row[ChainOf[S]])
        Row[ChainOf[S]] = P;
      const uint32_t *SRow = Clocks.data() + size_t(S) * C;
      for (size_t K = 0; K != C; ++K)
        if (SRow[K] < Row[K])
          Row[K] = SRow[K];
    }
  }
  ClocksValid = true;
  return true;
}

void ChainReachability::refresh() {
  if (Exceeded)
    return; // the ladder discards this oracle
  size_t N = G.numNodes();
  decompose();
  Dirty.assign(N, 0);
  if (Budget && baseBytes() > Budget) {
    // Not even the linear structures fit: unusable, step the ladder.
    // Release everything so the failed probe leaves no high-water mark.
    Exceeded = true;
    ChainOf.clear();
    ChainOf.shrink_to_fit();
    PosInChain.clear();
    PosInChain.shrink_to_fit();
    Dirty.clear();
    Dirty.shrink_to_fit();
    Clocks.clear();
    Clocks.shrink_to_fit();
    NumChains = 0;
    ClocksValid = false;
    Boot.reset();
    return;
  }
  KnownEdges = G.numEdges();
  if (buildClocks())
    Boot.reset(); // clocks beat rows: the same queries at linear memory
  else
    maybeBootstrap();
}

bool ChainReachability::reaches(NodeId From, NodeId To) const {
  if (!ClocksValid)
    return Boot ? Boot->reaches(From, To) : Search.reaches(From, To);
  // Prefix property: From reaches chain c's member at position p iff its
  // frontier clock for c is <= p.  A node never reaches itself: every
  // reachable node has a larger id, and chain members ascend in id, so
  // Row[chain(From)] > pos(From) always.
  return Clocks[From.index() * size_t(NumChains) + ChainOf[To.index()]] <=
         PosInChain[To.index()];
}

void ChainReachability::addEdges(std::span<const HbEdge> Edges) {
  // Same drift protocol as the incremental closure: the graph must hold
  // exactly the edges we know about plus this batch, else rebuild.
  if (ChainOf.size() != G.numNodes() ||
      KnownEdges + Edges.size() != G.numEdges()) {
    refresh();
    return;
  }
  KnownEdges = G.numEdges();
  if (Edges.empty())
    return;

  if (!ClocksValid) {
    // Search phase.  In the bootstrap tier the embedded closure absorbs
    // the batch (queries and rows keep flowing through it); in the
    // frugal tier queries read live edges and the batch needs no
    // propagation.  Either way this round's real work is re-deriving the
    // cover and checking whether it collapsed enough to commit the
    // clocks, which release the rows.
    if (Boot)
      Boot->addEdges(Edges);
    decompose();
    if (buildClocks())
      Boot.reset();
    return;
  }

  // Incremental clock update: the same descending dirty-row sweep as
  // IncrementalClosureReachability::addEdges, with "row grew" now
  // meaning "some chain clock decreased".  The two conditions are
  // equivalent (a clock entry decreasing is exactly new nodes becoming
  // reachable), so the Dirty flags come out element-wise identical to
  // the closure oracle's.
  SortedBatch.assign(Edges.begin(), Edges.end());
  std::sort(SortedBatch.begin(), SortedBatch.end(),
            [](const HbEdge &A, const HbEdge &B) { return B.From < A.From; });
  uint32_t MaxFrom = SortedBatch.front().From.value();
  Dirty.assign(G.numNodes(), 0);
  size_t C = NumChains;

  size_t Next = 0;
  for (uint32_t I = MaxFrom + 1; I-- > 0;) {
    uint32_t *Row = Clocks.data() + size_t(I) * C;
    bool Changed = false;
    // Absorb this node's batch edges: the row gains {To} (To's own
    // position in its chain) union To's clock row, both final -- the
    // sweep already finalized every node above I.
    for (; Next != SortedBatch.size() && SortedBatch[Next].From.value() == I;
         ++Next) {
      uint32_t To = SortedBatch[Next].To.value();
      assert(To > I && "HB edges must point forward in trace order");
      uint32_t P = PosInChain[To];
      if (P < Row[ChainOf[To]]) {
        Row[ChainOf[To]] = P;
        Changed = true;
      }
      const uint32_t *TRow = Clocks.data() + size_t(To) * C;
      for (size_t K = 0; K != C; ++K)
        if (TRow[K] < Row[K]) {
          Row[K] = TRow[K];
          Changed = true;
        }
    }
    // Re-absorb every successor whose row grew earlier in this sweep;
    // clean successors are already contained by the clock invariant.
    for (uint32_t S : G.successors(NodeId(I)))
      if (Dirty[S]) {
        const uint32_t *SRow = Clocks.data() + size_t(S) * C;
        for (size_t K = 0; K != C; ++K)
          if (SRow[K] < Row[K]) {
            Row[K] = SRow[K];
            Changed = true;
          }
      }
    Dirty[I] = Changed;
  }
}

size_t ChainReachability::memoryBytes() const {
  return baseBytes() + Clocks.capacity() * 4 +
         (Boot ? Boot->memoryBytes() : 0);
}

ReachMode cafa::resolveReachMode(ReachMode Requested) {
  // Request > environment > default via the shared precedence template
  // (0 = auto for the thread knobs, Auto here).
  return resolveRequestEnv<ReachMode>(
      Requested, ReachMode::Auto, "CAFA_REACH",
      [](const char *Env) -> std::optional<ReachMode> {
        if (std::strcmp(Env, "incremental") == 0)
          return ReachMode::Incremental;
        if (std::strcmp(Env, "chain") == 0)
          return ReachMode::Chain;
        if (std::strcmp(Env, "bfs") == 0)
          return ReachMode::Bfs;
        return std::nullopt;
      },
      [] { return ReachMode::Incremental; });
}

std::unique_ptr<Reachability> cafa::makeReachability(const HbGraph &G,
                                                     ReachMode Mode,
                                                     size_t BudgetBytes,
                                                     WorkerPool *Pool) {
  switch (resolveReachMode(Mode)) {
  case ReachMode::Bfs:
    // No precomputed state: nothing to budget, nothing to sweep.
    return std::make_unique<BfsReachability>(G);
  case ReachMode::Chain:
    return std::make_unique<ChainReachability>(G, BudgetBytes, Pool);
  case ReachMode::Incremental:
  case ReachMode::Auto: // resolveReachMode never returns Auto
    break;
  }
  return std::make_unique<IncrementalClosureReachability>(G, BudgetBytes,
                                                          Pool);
}

const char *cafa::reachModeName(ReachMode Mode) {
  switch (Mode) {
  case ReachMode::Bfs:
    return "bfs";
  case ReachMode::Incremental:
    return "incremental";
  case ReachMode::Chain:
    return "chain";
  case ReachMode::Auto:
    return "auto";
  }
  return "unknown";
}

size_t cafa::estimateReachabilityMemory(size_t NumNodes, ReachMode Mode) {
  // One closure row is N bits, rounded up to whole 64-bit words.
  size_t RowBytes = ((NumNodes + 63) / 64) * 8;
  switch (resolveReachMode(Mode)) {
  case ReachMode::Incremental:
  case ReachMode::Auto: // resolveReachMode never returns Auto
    // Rows, plus one strip's per-node dirty flags.
    return NumNodes * RowBytes + NumNodes;
  case ReachMode::Chain: {
    // Linear structures (chain ids, positions, dirty flags, search
    // scratch, container overhead) at ~48 bytes/node, plus the
    // clock matrix at the largest shape buildClocks() will ever commit:
    // 4 bytes per (node, chain) with chains capped structurally.  Errs
    // high -- the measured cover is usually far narrower than the cap.
    size_t Cap = NumNodes < ChainReachability::MaxChainsForClocks
                     ? NumNodes
                     : size_t(ChainReachability::MaxChainsForClocks);
    return NumNodes * 48 + NumNodes * 4 * Cap;
  }
  case ReachMode::Bfs:
    // Per-task visited-position/version scratch plus the worklist; tasks
    // never outnumber nodes, so per-node is a safe upper bound.
    return NumNodes * 12;
  }
  return NumNodes * RowBytes;
}
