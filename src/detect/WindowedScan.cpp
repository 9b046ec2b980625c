//===- detect/WindowedScan.cpp - Windowed streaming detection ---------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The bounded-memory counterpart of the batch pair scan in
// UseFreeDetector.cpp (docs/windowed-analysis.md).  What it keeps of its
// own is the enumeration, the retention, and the WindowedDetectFrontier
// cursor; the filters, deadline ladder, commit and classification are
// DetectShared.h, shared with the batch scan.  Two extraction passes
// over the record stream:
//
//  - Pass A (PrePassSink) counts and indexes without retaining bodies:
//    use ordinals keyed by read record, per-cell last-use/last-free
//    records (the retention horizons), per-(task, cell) alloc spans,
//    and the global query horizon for the frontier reachability rows.
//
//  - Pass B (WindowScanSink) streams accesses in record order.  A pair
//    (use, free) is evaluated exactly once, at the record of its later
//    element: when a free streams by it meets the retained uses of its
//    cell, and when a promoted read streams by it meets the retained
//    frees.  Retained accesses drop at their pass-A horizon -- the
//    record after which no future counterpart can pair with them --
//    swept every WindowEvents records (the window is only the sweep
//    cadence, which is why every window size emits identical reports).
//    Happens-before queries go to WindowedReach, whose frontier rows
//    advance with the same cursor.
//
// Surviving pairs are tiny ordinal tuples; the commit runs once at the
// end, over the survivors sorted into the batch scan's (use, free)
// order -- so the two detectors' reports are byte-identical on every
// complete run.
//
//===----------------------------------------------------------------------===//

#include "detect/UseFreeDetector.h"

#include "detect/DetectShared.h"
#include "hb/WindowedReach.h"
#include "support/Resolve.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace cafa;
using namespace cafa::detail;

uint64_t cafa::resolveWindowEvents(uint64_t Requested) {
  return resolveRequestEnv<uint64_t>(
      Requested, 0, "CAFA_WINDOW",
      [](const char *S) -> std::optional<uint64_t> {
        char *End = nullptr;
        unsigned long long V = std::strtoull(S, &End, 10);
        if (End == S || *End != '\0' || V == 0)
          return std::nullopt;
        return static_cast<uint64_t>(V);
      },
      [] { return DetectorOptions::WindowOff; });
}

namespace {

/// Pass A: derives every per-cell and per-task horizon the streaming
/// scan needs, without retaining any access body.
class PrePassSink final : public AccessSink {
public:
  struct UsePromo {
    uint32_t Ordinal = 0;
    uint32_t DerefRecord = 0;
  };

  /// read record -> promotion (only promoted reads become uses).
  std::unordered_map<uint32_t, UsePromo> PromoByReadRecord;
  /// use ordinal -> read record / free ordinal -> free record (resume
  /// validation and stable identity).
  std::vector<uint32_t> UseRecordByOrd;
  std::vector<uint32_t> FreeRecordByOrd;
  /// Per cell: last promoted-read record / last free record (0 when
  /// none -- a record-0 access yields the same horizon arithmetic).
  std::vector<uint32_t> LastUseReadByVar;
  std::vector<uint32_t> LastFreeByVar;
  std::vector<uint8_t> HasUseByVar;
  std::vector<uint8_t> HasFreeByVar;
  AllocSpans Allocs;
  /// Last record that is the later element of any candidate pair
  /// (over-approximated by the last access record overall).
  uint32_t QueryHorizon = 0;
  uint64_t NumAllocs = 0;
  uint64_t NumBranches = 0;

  void onUse(PtrAccess Use, size_t Ordinal) override {
    assert(Ordinal == UseRecordByOrd.size() && "promotion order broken");
    PromoByReadRecord.emplace(
        Use.Record,
        UsePromo{static_cast<uint32_t>(Ordinal), Use.DerefRecord});
    UseRecordByOrd.push_back(Use.Record);
    uint32_t V = Use.Var.index();
    growVar(V);
    LastUseReadByVar[V] = std::max(LastUseReadByVar[V], Use.Record);
    HasUseByVar[V] = 1;
    QueryHorizon = std::max(QueryHorizon, Use.Record);
  }

  void onFree(PtrAccess Free) override {
    FreeRecordByOrd.push_back(Free.Record);
    uint32_t V = Free.Var.index();
    growVar(V);
    LastFreeByVar[V] = std::max(LastFreeByVar[V], Free.Record);
    HasFreeByVar[V] = 1;
    QueryHorizon = std::max(QueryHorizon, Free.Record);
  }

  void onAlloc(PtrAccess Alloc) override {
    ++NumAllocs;
    Allocs.add(Alloc);
  }

  void onBranch(GuardBranch Br) override {
    (void)Br;
    ++NumBranches;
  }

  bool hasUse(uint32_t V) const {
    return V < HasUseByVar.size() && HasUseByVar[V];
  }
  bool hasFree(uint32_t V) const {
    return V < HasFreeByVar.size() && HasFreeByVar[V];
  }

private:
  void growVar(uint32_t V) {
    if (V >= LastUseReadByVar.size()) {
      LastUseReadByVar.resize(V + 1, 0);
      LastFreeByVar.resize(V + 1, 0);
      HasUseByVar.resize(V + 1, 0);
      HasFreeByVar.resize(V + 1, 0);
    }
  }
};

/// One retained use: body plus ordinal plus the memoized if-guard
/// verdict (-1 unknown).
struct RetUse {
  PtrAccess A;
  uint32_t Ord = 0;
  int8_t GuardMemo = -1;
};

struct RetFree {
  PtrAccess A;
  uint32_t Ord = 0;
};

/// Everything retained for one pointer cell, dropped kind-by-kind as
/// the sweep passes each kind's horizon.
struct VarBucket {
  std::vector<RetUse> Uses;
  std::vector<RetFree> Frees;
  /// frame id -> branches of this cell in that frame (record order).
  std::unordered_map<uint64_t, std::vector<GuardBranch>> BranchesByFrame;
  size_t UseBytes = 0, FreeBytes = 0, BranchBytes = 0;

  bool empty() const {
    return Uses.empty() && Frees.empty() && BranchesByFrame.empty();
  }
};

/// First dynamic instance per static site pair, maintained online so
/// the commit phase has the access bodies without retaining one per
/// survivor.
struct MinInst {
  uint32_t UseOrd = ~0u, FreeOrd = ~0u;
  PtrAccess Use, Free;
  bool HasBodies = false;
};

/// Pass B: the streaming scan itself.
class WindowScanSink final : public AccessSink {
public:
  WindowScanSink(const Trace &T, const DetectorOptions &Options,
                 const PrePassSink &Pre, WindowedReach &WR,
                 RaceReport &Report, uint64_t Window,
                 WindowedDetectCheckpointing *Ckpt)
      : Ladder(Options, Report, Ckpt), T(T), Pre(Pre), WR(WR),
        Report(Report), Window(Window), Ckpt(Ckpt),
        Filter(T, Options, Pre.Allocs) {
    NextSweepRecord = static_cast<uint64_t>(Window);
    buildSweepSchedule();
  }

  /// The deadline ladder; detectUseFreeRacesWindowed marks it shed on a
  /// shed resume and closes it once the scan returns.
  DeadlineLadder Ladder;

  // Scan results, read by the driver after streamAccesses returns.
  std::vector<WindowedDetectFrontier::SurvivorEntry> Survivors;
  std::map<StaticKey, MinInst> MinInstances;
  size_t RetainedHighWaterBytes = 0;
  size_t OverlayHighWaterBytes = 0;

  // Resume state, seeded by the driver before the scan.
  uint32_t ResumeCursor = 0;
  uint64_t ResumeSkip = 0;
  std::unordered_set<uint32_t> NeededUseOrds, NeededFreeOrds;
  std::unordered_map<uint32_t, PtrAccess> CapturedUses, CapturedFrees;

  void onPtrRead(uint32_t Record, TaskId Task, VarId Var, MethodId Method,
                 uint32_t Pc, uint64_t Frame,
                 const std::vector<uint32_t> &SortedLockset) override {
    auto It = Pre.PromoByReadRecord.find(Record);
    if (It == Pre.PromoByReadRecord.end())
      return; // this read is never dereferenced: not a use
    const uint32_t Ord = It->second.Ordinal;
    const uint32_t V = Var.index();

    PtrAccess Use;
    Use.Record = Record;
    Use.Task = Task;
    Use.Var = Var;
    Use.Method = Method;
    Use.Pc = Pc;
    Use.Frame = Frame;
    Use.DerefRecord = It->second.DerefRecord;
    Use.Lockset = SortedLockset;

    if (!NeededUseOrds.empty() && NeededUseOrds.count(Ord))
      CapturedUses.emplace(Ord, Use);

    if (!Pre.hasFree(V))
      return; // the cell is never freed: no pairs, ever
    if (!Ladder.outOfTime())
      WR.advanceTo(Record);

    int8_t Memo = -1;
    auto BIt = Buckets.find(V);
    if (BIt != Buckets.end()) {
      // Pairs whose later element is this use, against every earlier
      // free of the cell (all still retained: the free sub-bucket's
      // horizon is the cell's last promoted read, i.e. >= Record).
      for (const RetFree &F : BIt->second.Frees) {
        handlePair(Use, Ord, Memo, F.A, F.Ord, Record);
        if (Ladder.outOfTime())
          return;
      }
    }
    if (Pre.LastFreeByVar[V] > Record) {
      // Future frees of this cell exist: retain the use until the last
      // of them has streamed by.
      VarBucket &B = Buckets[V];
      size_t Bytes = sizeof(RetUse) + Use.Lockset.capacity() * sizeof(uint32_t);
      B.UseBytes += Bytes;
      RetainedBytes += Bytes;
      B.Uses.push_back(RetUse{std::move(Use), Ord, Memo});
      noteOverlay();
    }
  }

  void onFree(PtrAccess Free) override {
    const uint32_t Ord = NextFreeOrd++;
    const uint32_t V = Free.Var.index();
    if (!NeededFreeOrds.empty() && NeededFreeOrds.count(Ord))
      CapturedFrees.emplace(Ord, Free);
    if (!Pre.hasUse(V))
      return; // the cell is never used: no pairs, ever
    if (!Ladder.outOfTime())
      WR.advanceTo(Free.Record);

    auto BIt = Buckets.find(V);
    if (BIt != Buckets.end()) {
      // Pairs whose later element is this free, against every retained
      // earlier use of the cell.
      for (RetUse &U : BIt->second.Uses) {
        handlePair(U.A, U.Ord, U.GuardMemo, Free, Ord, Free.Record);
        if (Ladder.outOfTime())
          return;
      }
    }
    if (Pre.LastUseReadByVar[V] > Free.Record) {
      VarBucket &B = Buckets[V];
      size_t Bytes =
          sizeof(RetFree) + Free.Lockset.capacity() * sizeof(uint32_t);
      B.FreeBytes += Bytes;
      RetainedBytes += Bytes;
      B.Frees.push_back(RetFree{std::move(Free), Ord});
      noteOverlay();
    }
  }

  void onBranch(GuardBranch Br) override {
    if (!Br.Var.isValid())
      return; // unmatched branches never guard anything
    const uint32_t V = Br.Var.index();
    if (!Pre.hasUse(V) || !Pre.hasFree(V))
      return; // no pairs on this cell: isGuarded is never consulted
    if (Br.Record >= Pre.LastUseReadByVar[V])
      return; // guards only reads after it; none are coming
    VarBucket &B = Buckets[V];
    B.BranchBytes += sizeof(GuardBranch);
    RetainedBytes += sizeof(GuardBranch);
    B.BranchesByFrame[Br.Frame].push_back(std::move(Br));
    noteOverlay();
  }

  bool onRecordDone(uint32_t Record) override {
    PairsDoneThisRecord = 0;
    if (static_cast<uint64_t>(Record) >= NextSweepRecord) {
      NextSweepRecord = static_cast<uint64_t>(Record) + Window;
      if (!Ladder.outOfTime()) {
        WR.advanceTo(Record);
        sweep(Record);
        noteOverlay();
      }
    }
    return !Ladder.outOfTime();
  }

  /// Snapshot at the next unprocessed pair of \p Record.
  WindowedDetectFrontier freeze(uint32_t Record, uint64_t Done) const {
    WindowedDetectFrontier F;
    F.CursorRecord = Record;
    F.PairsDoneAtCursor = Done;
    F.FiltersShed = Ladder.shed();
    F.Filters = Report.Filters;
    F.Survivors = Survivors;
    return F;
  }

private:
  void buildSweepSchedule() {
    for (uint32_t V = 0,
                  E = static_cast<uint32_t>(Pre.LastUseReadByVar.size());
         V != E; ++V) {
      if (!Pre.HasUseByVar[V] || !Pre.HasFreeByVar[V])
        continue; // nothing of this cell is ever retained
      uint32_t LastUse = Pre.LastUseReadByVar[V];
      uint32_t LastFree = Pre.LastFreeByVar[V];
      // Frees serve use-reads up to the last one; uses serve frees up
      // to the last one; branches serve if-guard checks at any pair
      // admission, bounded by the later of the two.
      Schedule.push_back({LastUse, V, KindFrees});
      Schedule.push_back({LastFree, V, KindUses});
      Schedule.push_back({std::max(LastUse, LastFree), V, KindBranches});
    }
    std::sort(Schedule.begin(), Schedule.end(),
              [](const SweepEntry &A, const SweepEntry &B) {
                return std::tie(A.Horizon, A.Var, A.Kind) <
                       std::tie(B.Horizon, B.Var, B.Kind);
              });
  }

  void sweep(uint32_t Record) {
    while (SweepPtr < Schedule.size() &&
           Schedule[SweepPtr].Horizon <= Record) {
      const SweepEntry &E = Schedule[SweepPtr++];
      auto It = Buckets.find(E.Var);
      if (It == Buckets.end())
        continue;
      VarBucket &B = It->second;
      switch (E.Kind) {
      case KindFrees:
        RetainedBytes -= B.FreeBytes;
        B.FreeBytes = 0;
        B.Frees.clear();
        B.Frees.shrink_to_fit();
        break;
      case KindUses:
        RetainedBytes -= B.UseBytes;
        B.UseBytes = 0;
        B.Uses.clear();
        B.Uses.shrink_to_fit();
        break;
      case KindBranches:
        RetainedBytes -= B.BranchBytes;
        B.BranchBytes = 0;
        B.BranchesByFrame.clear();
        break;
      }
      if (B.empty())
        Buckets.erase(It);
    }
  }

  void noteOverlay() {
    RetainedHighWaterBytes = std::max(RetainedHighWaterBytes, RetainedBytes);
    size_t Overlay = RetainedBytes +
                     WR.liveRows() * WR.numChains() * sizeof(uint32_t);
    OverlayHighWaterBytes = std::max(OverlayHighWaterBytes, Overlay);
  }

  bool isGuarded(const PtrAccess &Use, int8_t &Memo) {
    if (Memo >= 0)
      return Memo != 0;
    bool Guarded = false;
    auto BIt = Buckets.find(Use.Var.index());
    if (BIt != Buckets.end()) {
      auto FIt = BIt->second.BranchesByFrame.find(Use.Frame);
      if (FIt != BIt->second.BranchesByFrame.end()) {
        for (const GuardBranch &Br : FIt->second) {
          if (branchGuardsUse(T, Br, Use)) {
            Guarded = true;
            break;
          }
        }
      }
    }
    Memo = Guarded ? 1 : 0;
    return Guarded;
  }

  /// Evaluates one (use, free) pair at its admission record.
  void handlePair(const PtrAccess &Use, uint32_t UseOrd, int8_t &Memo,
                  const PtrAccess &Free, uint32_t FreeOrd,
                  uint32_t AdmitRecord) {
    if (Ladder.outOfTime())
      return;
    // Resume replay: pairs admitted before the frozen cursor (and the
    // first PairsDoneAtCursor pairs at it) are already reflected in the
    // restored counters and survivors.
    if (AdmitRecord < ResumeCursor ||
        (AdmitRecord == ResumeCursor && PairsDoneThisRecord < ResumeSkip)) {
      ++PairsDoneThisRecord;
      return;
    }
    if (Ladder.due(1)) {
      if (Ladder.poll())
        Ckpt->Save(freeze(AdmitRecord, PairsDoneThisRecord));
      if (Ladder.outOfTime())
        return;
    }
    ++PairsDoneThisRecord;

    bool SameLooper = false;
    if (!Filter.survives(
            Use, Free, Ladder.shed(), Report.Filters, SameLooper,
            [&] { return WR.orderedCrossTask(Use.Record, Free.Record); },
            [&] { return isGuarded(Use, Memo); }))
      return;

    Survivors.push_back({UseOrd, FreeOrd, Use.Record, Free.Record,
                         Use.Method.value(), Use.Pc, Free.Method.value(),
                         Free.Pc, static_cast<uint8_t>(SameLooper)});
    MinInst &M = MinInstances[staticKey(Use, Free)];
    if (std::make_pair(UseOrd, FreeOrd) < std::make_pair(M.UseOrd, M.FreeOrd)) {
      M.UseOrd = UseOrd;
      M.FreeOrd = FreeOrd;
      M.Use = Use;
      M.Free = Free;
      M.HasBodies = true;
    }
  }

  enum Kind : uint8_t { KindFrees = 0, KindUses = 1, KindBranches = 2 };
  struct SweepEntry {
    uint32_t Horizon;
    uint32_t Var;
    uint8_t Kind;
  };

  const Trace &T;
  const PrePassSink &Pre;
  WindowedReach &WR;
  RaceReport &Report;
  const uint64_t Window;
  WindowedDetectCheckpointing *Ckpt;
  const PairFilter Filter;

  std::unordered_map<uint32_t, VarBucket> Buckets;
  std::vector<SweepEntry> Schedule;
  size_t SweepPtr = 0;
  uint64_t NextSweepRecord = 0;
  size_t RetainedBytes = 0;
  uint32_t NextFreeOrd = 0;
  uint64_t PairsDoneThisRecord = 0;
};

/// Fallback body capture for the rare resume-then-cut-again corner: a
/// restored survivor's first instance may stream after the new cut, so
/// its body was never captured.  One targeted pass fills the gaps and
/// stops as soon as everything is in hand.
class CaptureSink final : public AccessSink {
public:
  CaptureSink(const PrePassSink &Pre,
              const std::unordered_set<uint32_t> &WantUses,
              const std::unordered_set<uint32_t> &WantFrees,
              std::unordered_map<uint32_t, PtrAccess> &Uses,
              std::unordered_map<uint32_t, PtrAccess> &Frees)
      : Pre(Pre), WantUses(WantUses), WantFrees(WantFrees), Uses(Uses),
        Frees(Frees), Remaining(WantUses.size() + WantFrees.size()) {}

  void onPtrRead(uint32_t Record, TaskId Task, VarId Var, MethodId Method,
                 uint32_t Pc, uint64_t Frame,
                 const std::vector<uint32_t> &SortedLockset) override {
    auto It = Pre.PromoByReadRecord.find(Record);
    if (It == Pre.PromoByReadRecord.end())
      return;
    uint32_t Ord = It->second.Ordinal;
    if (!WantUses.count(Ord) || Uses.count(Ord))
      return;
    PtrAccess Use;
    Use.Record = Record;
    Use.Task = Task;
    Use.Var = Var;
    Use.Method = Method;
    Use.Pc = Pc;
    Use.Frame = Frame;
    Use.DerefRecord = It->second.DerefRecord;
    Use.Lockset = SortedLockset;
    Uses.emplace(Ord, std::move(Use));
    --Remaining;
  }

  void onFree(PtrAccess Free) override {
    uint32_t Ord = NextFreeOrd++;
    if (WantFrees.count(Ord) && !Frees.count(Ord)) {
      Frees.emplace(Ord, std::move(Free));
      --Remaining;
    }
  }

  bool onRecordDone(uint32_t) override { return Remaining > 0; }

private:
  const PrePassSink &Pre;
  const std::unordered_set<uint32_t> &WantUses;
  const std::unordered_set<uint32_t> &WantFrees;
  std::unordered_map<uint32_t, PtrAccess> &Uses;
  std::unordered_map<uint32_t, PtrAccess> &Frees;
  uint32_t NextFreeOrd = 0;
  size_t Remaining = 0;
};

} // namespace

RaceReport cafa::detectUseFreeRacesWindowed(
    const Trace &T, const TaskIndex &Index, const HbIndex &Hb,
    const DetectorOptions &Options, uint64_t WindowEvents,
    const DerefResolver *Resolver, WindowedDetectStats *Stats,
    WindowedDetectCheckpointing *Ckpt) {
  assert(WindowEvents != 0 && WindowEvents != DetectorOptions::WindowOff &&
         "callers resolve the window first");
  RaceReport Report = beginReport(Hb);

  // Pass A: horizons and ordinals, no bodies.
  PrePassSink Pre;
  StreamExtractCounts Counts = streamAccesses(T, Resolver, Pre);

  WindowedReach WR(Hb.graph(), Pre.QueryHorizon);
  WindowScanSink Scan(T, Options, Pre, WR, Report, WindowEvents, Ckpt);

  // Resume: validate the frontier's survivors against the pass-A
  // ordinals; any mismatch silently degrades to a full scan.
  if (Ckpt && Ckpt->Resume) {
    const WindowedDetectFrontier &R = *Ckpt->Resume;
    bool Ok = R.CursorRecord <= T.numRecords();
    for (const WindowedDetectFrontier::SurvivorEntry &S : R.Survivors) {
      if (S.UseOrd >= Pre.UseRecordByOrd.size() ||
          Pre.UseRecordByOrd[S.UseOrd] != S.UseRecord ||
          S.FreeOrd >= Pre.FreeRecordByOrd.size() ||
          Pre.FreeRecordByOrd[S.FreeOrd] != S.FreeRecord) {
        Ok = false;
        break;
      }
    }
    if (Ok) {
      Scan.ResumeCursor = R.CursorRecord;
      Scan.ResumeSkip = R.PairsDoneAtCursor;
      Scan.Survivors = R.Survivors;
      Report.Filters = R.Filters;
      if (R.FiltersShed)
        Scan.Ladder.markShed();
      // Seed the per-key first instances; their bodies stream by
      // during the replay and are captured by ordinal.
      for (const WindowedDetectFrontier::SurvivorEntry &S : R.Survivors) {
        StaticKey Key{S.UseMethod, S.UsePc, S.FreeMethod, S.FreePc};
        MinInst &M = Scan.MinInstances[Key];
        if (std::make_pair(S.UseOrd, S.FreeOrd) <
            std::make_pair(M.UseOrd, M.FreeOrd)) {
          M.UseOrd = S.UseOrd;
          M.FreeOrd = S.FreeOrd;
          M.HasBodies = false;
        }
      }
      for (const auto &[Key, M] : Scan.MinInstances) {
        (void)Key;
        Scan.NeededUseOrds.insert(M.UseOrd);
        Scan.NeededFreeOrds.insert(M.FreeOrd);
      }
      Ckpt->ResumeAccepted = true;
    }
  }

  // Pass B: the scan.
  streamAccesses(T, Resolver, Scan);
  Scan.Ladder.finish();

  // Fill any first-instance bodies the replay captured; chase the rare
  // stragglers (resumed survivors cut off again before their records)
  // with one targeted pass.
  {
    std::unordered_set<uint32_t> MissUses, MissFrees;
    for (auto &[Key, M] : Scan.MinInstances) {
      (void)Key;
      if (M.HasBodies)
        continue;
      if (!Scan.CapturedUses.count(M.UseOrd))
        MissUses.insert(M.UseOrd);
      if (!Scan.CapturedFrees.count(M.FreeOrd))
        MissFrees.insert(M.FreeOrd);
    }
    if (!MissUses.empty() || !MissFrees.empty()) {
      CaptureSink Capture(Pre, MissUses, MissFrees, Scan.CapturedUses,
                          Scan.CapturedFrees);
      streamAccesses(T, Resolver, Capture);
    }
    for (auto &[Key, M] : Scan.MinInstances) {
      (void)Key;
      if (M.HasBodies)
        continue;
      M.Use = Scan.CapturedUses.at(M.UseOrd);
      M.Free = Scan.CapturedFrees.at(M.FreeOrd);
      M.HasBodies = true;
    }
  }

  // Commit the survivors in the batch scan's order (use-major by
  // promotion ordinal, frees in record order within).
  std::sort(Scan.Survivors.begin(), Scan.Survivors.end(),
            [](const WindowedDetectFrontier::SurvivorEntry &A,
               const WindowedDetectFrontier::SurvivorEntry &B) {
              return std::tie(A.UseOrd, A.FreeOrd) <
                     std::tie(B.UseOrd, B.FreeOrd);
            });
  RaceCommitter Committer(Report);
  for (const WindowedDetectFrontier::SurvivorEntry &S : Scan.Survivors) {
    StaticKey Key{S.UseMethod, S.UsePc, S.FreeMethod, S.FreePc};
    if (UseFreeRace *Race = Committer.commit(Key, S.SameLooper)) {
      const MinInst &M = Scan.MinInstances.at(Key);
      assert(M.UseOrd == S.UseOrd && M.FreeOrd == S.FreeOrd &&
             "sorted first survivor is the per-key minimum");
      Race->Use = M.Use;
      Race->Free = M.Free;
    }
  }
  classifyRaces(Hb, Report);

  if (Stats) {
    Stats->WindowEvents = WindowEvents;
    Stats->Chains = WR.numChains();
    Stats->ReachHighWaterRows = WR.highWaterRows();
    Stats->ReachHighWaterBytes = WR.highWaterRowBytes();
    Stats->RetainedHighWaterBytes = Scan.RetainedHighWaterBytes;
    Stats->OverlayHighWaterBytes = Scan.OverlayHighWaterBytes;
    Stats->NumUses = Pre.UseRecordByOrd.size();
    Stats->NumFrees = Pre.FreeRecordByOrd.size();
    Stats->NumAllocs = Pre.NumAllocs;
    Stats->NumBranches = Pre.NumBranches;
    Stats->UnmatchedReads = Counts.UnmatchedReads;
    Stats->UnmatchedDerefs = Counts.UnmatchedDerefs;
  }
  return Report;
}
