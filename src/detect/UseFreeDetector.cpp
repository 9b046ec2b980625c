//===- detect/UseFreeDetector.cpp - The CAFA race detector -------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The pair scan (docs/windowed-analysis.md).  A pair (use, free) of one
// pointer cell is evaluated exactly once, at the record of its later
// access: when a free comes by it meets the retained uses of its cell,
// and when a use's read record comes by it meets the retained frees.  A
// retained access drops at its horizon -- the record after which no
// future counterpart can pair with it -- in sweeps every window records;
// the cadence changes what stays resident, never a pair.  Everything a
// pair goes through after enumeration (filters, deadline ladder, the
// (b)/(c) split) is DetectShared.h.
//
// The scan reads one of two sources, which hand it the same accesses in
// the same record order under the same ordinals:
//
//  - an extracted AccessDb (detectUseFreeRaces): the horizons, ordinals
//    and alloc spans are read off the tables, and the uses (by read
//    record), frees and branches are merged in record order;
//
//  - the trace stream (detectUseFreeRacesWindowed): a pre-pass derives
//    the same plan without keeping any access body, and a second
//    extraction pass feeds the scan, each use at its read record.
//
// The scan commits online, one entry per static (use site, free site)
// pair holding its first instance by (use ordinal, free ordinal), so its
// state and its frontier stay O(static races), and the report lists the
// races in the order a use-major scan would commit them.  A scan cut
// under either source resumes under either.
//
//===----------------------------------------------------------------------===//

#include "detect/UseFreeDetector.h"

#include "detect/DetectShared.h"
#include "support/Resolve.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <numeric>
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

bool cafa::isUseIfGuarded(const Trace &T, const AccessDb &Db,
                          const PtrAccess &Use) {
  for (const GuardBranch &Br : Db.Branches)
    if (branchGuardsUse(T, Br, Use))
      return true;
  return false;
}

namespace {

/// What the scan knows before its first record: each access's record
/// by ordinal (what a resume validates against), per cell the last
/// use-read and last free record (the retention horizons), and the
/// alloc spans of the intra-event-alloc filter.
struct ScanPlan {
  std::vector<uint32_t> UseRecords, FreeRecords;
  std::vector<uint32_t> LastUseRead, LastFree;
  std::vector<uint8_t> HasUse, HasFree;
  AllocSpans Allocs;

  /// Adds the next use in promotion order.
  void addUse(const PtrAccess &Use) {
    UseRecords.push_back(Use.Record);
    uint32_t V = grow(Use.Var);
    LastUseRead[V] = std::max(LastUseRead[V], Use.Record);
    HasUse[V] = 1;
  }

  /// Adds the next free in record order.
  void addFree(const PtrAccess &Free) {
    FreeRecords.push_back(Free.Record);
    uint32_t V = grow(Free.Var);
    LastFree[V] = std::max(LastFree[V], Free.Record);
    HasFree[V] = 1;
  }

  bool hasUse(uint32_t V) const { return V < HasUse.size() && HasUse[V]; }
  bool hasFree(uint32_t V) const { return V < HasFree.size() && HasFree[V]; }

private:
  uint32_t grow(VarId Var) {
    uint32_t V = Var.index();
    if (V >= HasUse.size()) {
      LastUseRead.resize(V + 1, 0);
      LastFree.resize(V + 1, 0);
      HasUse.resize(V + 1, 0);
      HasFree.resize(V + 1, 0);
    }
    return V;
  }
};

/// One retained access: its body, its ordinal, and for a use the
/// memoized if-guard verdict (-1 unknown).
struct Retained {
  PtrAccess A;
  uint32_t Ord = 0;
  int8_t GuardMemo = -1;
};

/// Everything retained for one pointer cell, dropped kind by kind as
/// the sweep passes each kind's horizon.
struct VarBucket {
  std::vector<Retained> Uses, Frees;
  /// frame id -> branches of this cell in that frame (record order).
  std::unordered_map<uint64_t, std::vector<GuardBranch>> BranchesByFrame;
  size_t UseBytes = 0, FreeBytes = 0, BranchBytes = 0;

  bool empty() const {
    return Uses.empty() && Frees.empty() && BranchesByFrame.empty();
  }
};

/// One committed race: the first surviving instance of its static pair
/// by (use ordinal, free ordinal), the bodies of that instance once
/// known, and how many instances survived.
struct Commit {
  uint32_t UseOrd = 0, FreeOrd = 0;
  uint32_t Count = 0;
  bool SameLooper = false;
  bool HasBodies = false;
  PtrAccess Use, Free;
};

class PairScan {
public:
  PairScan(const Trace &T, const HbIndex &Hb, const DetectorOptions &Options,
           const ScanPlan &Plan, RaceReport &Report, uint64_t Window,
           DetectCheckpointing *Ckpt)
      : T(T), Hb(Hb), Plan(Plan), Report(Report), Window(Window),
        Ckpt(Ckpt), Ladder(Options, Report, Ckpt),
        Filter(T, Hb, Options, Plan.Allocs), NextSweepRecord(Window) {
    buildSweepSchedule();
    if (Ckpt && Ckpt->Resume)
      resume(*Ckpt->Resume);
  }

  /// A use, at its read record.
  void onUse(const PtrAccess &Use, uint32_t Ord) {
    if (!NeededUses.empty() && NeededUses.count(Ord))
      CapturedUses.emplace(Ord, Use);
    const uint32_t V = Use.Var.index();
    if (!Plan.hasFree(V))
      return; // the cell is never freed: no pairs, ever
    int8_t Memo = -1;
    auto It = Buckets.find(V);
    if (It != Buckets.end()) {
      // Every earlier free of the cell is still retained: the frees'
      // horizon is the cell's last use read, at or after this one.
      for (const Retained &F : It->second.Frees)
        if (!evaluate(Use, Ord, Memo, F.A, F.Ord, Use.Record))
          return;
    }
    if (Plan.LastFree[V] > Use.Record) {
      // Frees of this cell are still to come: keep the use until the
      // last of them has gone by.
      VarBucket &B = Buckets[V];
      retain(B.Uses, B.UseBytes, Use, Ord, Memo);
    }
  }

  /// A free, at its record.
  void onFree(const PtrAccess &Free, uint32_t Ord) {
    if (!NeededFrees.empty() && NeededFrees.count(Ord))
      CapturedFrees.emplace(Ord, Free);
    const uint32_t V = Free.Var.index();
    if (!Plan.hasUse(V))
      return; // the cell is never used: no pairs, ever
    auto It = Buckets.find(V);
    if (It != Buckets.end())
      for (Retained &U : It->second.Uses)
        if (!evaluate(U.A, U.Ord, U.GuardMemo, Free, Ord, Free.Record))
          return;
    if (Plan.LastUseRead[V] > Free.Record) {
      VarBucket &B = Buckets[V];
      retain(B.Frees, B.FreeBytes, Free, Ord, -1);
    }
  }

  /// A guarded branch, at its record.
  void onBranch(const GuardBranch &Br) {
    if (!Br.Var.isValid())
      return; // unmatched branches never guard anything
    const uint32_t V = Br.Var.index();
    if (!Plan.hasUse(V) || !Plan.hasFree(V))
      return; // no pairs on this cell: isGuarded is never consulted
    if (Br.Record >= Plan.LastUseRead[V])
      return; // guards only reads after it; none are coming
    VarBucket &B = Buckets[V];
    B.BranchBytes += sizeof(GuardBranch);
    RetainedBytes += sizeof(GuardBranch);
    B.BranchesByFrame[Br.Frame].push_back(Br);
    noteOverlay();
  }

  /// Ends \p Record, sweeping at the window cadence.  False once the
  /// scan is cut.
  bool onRecordDone(uint32_t Record) {
    PairsDoneThisRecord = 0;
    if (Record >= NextSweepRecord) {
      NextSweepRecord = static_cast<uint64_t>(Record) + Window;
      sweep(Record);
    }
    return !Ladder.outOfTime();
  }

  /// Closes the scan: the ladder, the committed races in the order of
  /// their first instances, and the (b)/(c) split.
  void finish() {
    Ladder.finish();
    std::vector<Commit *> Order;
    Order.reserve(Commits.size());
    for (auto &[Key, C] : Commits) {
      (void)Key;
      if (!C.HasBodies) {
        // A resumed entry whose first instance came before the cursor:
        // the replay up to the cursor brought both bodies by.
        C.Use = CapturedUses.at(C.UseOrd);
        C.Free = CapturedFrees.at(C.FreeOrd);
      }
      Order.push_back(&C);
    }
    std::sort(Order.begin(), Order.end(), [](const Commit *A, const Commit *B) {
      return std::tie(A->UseOrd, A->FreeOrd) < std::tie(B->UseOrd, B->FreeOrd);
    });
    for (Commit *C : Order) {
      UseFreeRace &Race = Report.Races.emplace_back();
      Race.Use = std::move(C->Use);
      Race.Free = std::move(C->Free);
      Race.Category = C->SameLooper ? RaceCategory::IntraThread
                                    : RaceCategory::InterThread;
      Race.DynamicCount = C->Count;
    }
    classifyRaces(Hb, Report);
  }

  size_t overlayHighWaterBytes() const { return OverlayHighWaterBytes; }

private:
  /// Evaluates one pair at \p Record, the record of its later access.
  /// False once the scan is cut.
  bool evaluate(const PtrAccess &Use, uint32_t UseOrd, int8_t &Memo,
                const PtrAccess &Free, uint32_t FreeOrd, uint32_t Record) {
    // Pairs before the resume cursor are already in the restored
    // counters and commits.
    if (Record < ResumeCursor ||
        (Record == ResumeCursor && PairsDoneThisRecord < ResumeSkip)) {
      ++PairsDoneThisRecord;
      return true;
    }
    if (Ladder.due(1)) {
      if (Ladder.poll())
        Ckpt->Save(freeze(Record));
      if (Ladder.outOfTime())
        return false;
    }
    ++PairsDoneThisRecord;
    bool SameLooper = false;
    if (Filter.survives(Use, Free, Ladder.shed(), Report.Filters, SameLooper,
                        [&] { return isGuarded(Use, Memo); }))
      commit(Use, UseOrd, Free, FreeOrd, SameLooper);
    return true;
  }

  void commit(const PtrAccess &Use, uint32_t UseOrd, const PtrAccess &Free,
              uint32_t FreeOrd, bool SameLooper) {
    auto [It, New] = Commits.try_emplace(staticKey(Use, Free));
    Commit &C = It->second;
    ++C.Count;
    if (New || std::tie(UseOrd, FreeOrd) < std::tie(C.UseOrd, C.FreeOrd)) {
      C.UseOrd = UseOrd;
      C.FreeOrd = FreeOrd;
      C.SameLooper = SameLooper;
      C.Use = Use;
      C.Free = Free;
      C.HasBodies = true;
    }
  }

  /// The scan at the next unevaluated pair of \p Record.
  DetectFrontier freeze(uint32_t Record) const {
    DetectFrontier F;
    F.CursorRecord = Record;
    F.PairsDoneAtCursor = PairsDoneThisRecord;
    F.FiltersShed = Ladder.shed();
    F.Filters = Report.Filters;
    F.Races.reserve(Commits.size());
    for (const auto &[Key, C] : Commits)
      F.Races.push_back({C.UseOrd, C.FreeOrd, Plan.UseRecords[C.UseOrd],
                         Plan.FreeRecords[C.FreeOrd], Key.UseMethod,
                         Key.UsePc, Key.FreeMethod, Key.FreePc, C.Count,
                         static_cast<uint8_t>(C.SameLooper)});
    return F;
  }

  /// Restores a frozen scan if \p R fits these accesses: every entry
  /// names a use and a free at their recorded records, both at or before
  /// the cursor, so the replay up to the cursor brings their bodies by.
  /// Anything else belongs to another trace or extractor, and the scan
  /// silently starts from scratch -- always correct, just slower.
  void resume(const DetectFrontier &R) {
    if (R.CursorRecord > T.numRecords())
      return;
    std::map<StaticKey, Commit> Restored;
    for (const DetectFrontier::RaceEntry &E : R.Races) {
      bool Fits = E.UseOrd < Plan.UseRecords.size() &&
                  Plan.UseRecords[E.UseOrd] == E.UseRecord &&
                  E.FreeOrd < Plan.FreeRecords.size() &&
                  Plan.FreeRecords[E.FreeOrd] == E.FreeRecord &&
                  E.UseRecord <= R.CursorRecord &&
                  E.FreeRecord <= R.CursorRecord && E.DynamicCount > 0;
      Commit C;
      C.UseOrd = E.UseOrd;
      C.FreeOrd = E.FreeOrd;
      C.Count = E.DynamicCount;
      C.SameLooper = E.SameLooper != 0;
      StaticKey Key{E.UseMethod, E.UsePc, E.FreeMethod, E.FreePc};
      if (!Fits || !Restored.try_emplace(Key, std::move(C)).second)
        return;
    }
    Commits = std::move(Restored);
    for (const auto &[Key, C] : Commits) {
      (void)Key;
      NeededUses.insert(C.UseOrd);
      NeededFrees.insert(C.FreeOrd);
    }
    ResumeCursor = R.CursorRecord;
    ResumeSkip = R.PairsDoneAtCursor;
    Report.Filters = R.Filters;
    if (R.FiltersShed)
      Ladder.markShed();
    Ckpt->ResumeAccepted = true;
  }

  bool isGuarded(const PtrAccess &Use, int8_t &Memo) {
    if (Memo >= 0)
      return Memo != 0;
    bool Guarded = false;
    auto BIt = Buckets.find(Use.Var.index());
    if (BIt != Buckets.end()) {
      auto FIt = BIt->second.BranchesByFrame.find(Use.Frame);
      if (FIt != BIt->second.BranchesByFrame.end())
        for (const GuardBranch &Br : FIt->second)
          if (branchGuardsUse(T, Br, Use)) {
            Guarded = true;
            break;
          }
    }
    Memo = Guarded ? 1 : 0;
    return Guarded;
  }

  void retain(std::vector<Retained> &List, size_t &ListBytes,
              const PtrAccess &A, uint32_t Ord, int8_t Memo) {
    size_t Bytes = sizeof(Retained) + A.Lockset.size() * sizeof(uint32_t);
    ListBytes += Bytes;
    RetainedBytes += Bytes;
    List.push_back(Retained{A, Ord, Memo});
    noteOverlay();
  }

  void noteOverlay() {
    OverlayHighWaterBytes = std::max(OverlayHighWaterBytes, RetainedBytes);
  }

  enum Kind : uint8_t { KindFrees = 0, KindUses = 1, KindBranches = 2 };
  struct SweepEntry {
    uint32_t Horizon;
    uint32_t Var;
    uint8_t Kind;
  };

  void buildSweepSchedule() {
    for (uint32_t V = 0, E = static_cast<uint32_t>(Plan.HasUse.size());
         V != E; ++V) {
      if (!Plan.HasUse[V] || !Plan.HasFree[V])
        continue; // nothing of this cell is ever retained
      uint32_t LastUse = Plan.LastUseRead[V];
      uint32_t LastFree = Plan.LastFree[V];
      // Frees serve use reads up to the last one; uses serve frees up
      // to the last one; branches serve if-guard checks at any pair,
      // bounded by the later of the two.
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
        std::vector<Retained>().swap(B.Frees);
        break;
      case KindUses:
        RetainedBytes -= B.UseBytes;
        B.UseBytes = 0;
        std::vector<Retained>().swap(B.Uses);
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

  const Trace &T;
  const HbIndex &Hb;
  const ScanPlan &Plan;
  RaceReport &Report;
  const uint64_t Window;
  DetectCheckpointing *Ckpt;
  DeadlineLadder Ladder;
  const PairFilter Filter;

  std::unordered_map<uint32_t, VarBucket> Buckets;
  std::vector<SweepEntry> Schedule;
  size_t SweepPtr = 0;
  uint64_t NextSweepRecord;
  size_t RetainedBytes = 0, OverlayHighWaterBytes = 0;
  uint64_t PairsDoneThisRecord = 0;

  std::map<StaticKey, Commit> Commits;

  // Resume state: the cursor, and the first-instance bodies the replay
  // captures by ordinal.
  uint32_t ResumeCursor = 0;
  uint64_t ResumeSkip = 0;
  std::unordered_set<uint32_t> NeededUses, NeededFrees;
  std::unordered_map<uint32_t, PtrAccess> CapturedUses, CapturedFrees;
};

/// The stream source's pre-pass: the scan plan, and which pointer reads
/// are promoted to uses, without keeping any access body.
class PlanSink final : public AccessSink {
public:
  struct Promotion {
    uint32_t Ordinal = 0;
    uint32_t DerefRecord = 0;
  };

  explicit PlanSink(ScanPlan &Plan) : Plan(Plan) {}

  /// read record -> its promotion (only promoted reads are uses).
  std::unordered_map<uint32_t, Promotion> PromoByRead;

  void onUse(PtrAccess Use, size_t Ordinal) override {
    PromoByRead.emplace(Use.Record, Promotion{static_cast<uint32_t>(Ordinal),
                                              Use.DerefRecord});
    Plan.addUse(Use);
  }
  void onFree(PtrAccess Free) override { Plan.addFree(Free); }
  void onAlloc(PtrAccess Alloc) override { Plan.Allocs.add(Alloc); }

private:
  ScanPlan &Plan;
};

/// The stream source's scan pass: hands the scan each use at its read
/// record, rebuilt from the read and the pre-pass's promotion.
class StreamSink final : public AccessSink {
public:
  StreamSink(const PlanSink &Pre, PairScan &Scan) : Pre(Pre), Scan(Scan) {}

  void onPtrRead(uint32_t Record, TaskId Task, VarId Var, MethodId Method,
                 uint32_t Pc, uint64_t Frame,
                 const std::vector<uint32_t> &SortedLockset) override {
    auto It = Pre.PromoByRead.find(Record);
    if (It == Pre.PromoByRead.end())
      return; // this read is never dereferenced: not a use
    PtrAccess Use;
    Use.Record = Record;
    Use.Task = Task;
    Use.Var = Var;
    Use.Method = Method;
    Use.Pc = Pc;
    Use.Frame = Frame;
    Use.DerefRecord = It->second.DerefRecord;
    Use.Lockset = SortedLockset;
    Scan.onUse(Use, It->second.Ordinal);
  }
  void onFree(PtrAccess Free) override { Scan.onFree(Free, NextFreeOrd++); }
  void onBranch(GuardBranch Br) override { Scan.onBranch(Br); }
  bool onRecordDone(uint32_t Record) override {
    return Scan.onRecordDone(Record);
  }

private:
  const PlanSink &Pre;
  PairScan &Scan;
  uint32_t NextFreeOrd = 0;
};

} // namespace

RaceReport cafa::detectUseFreeRaces(const Trace &T, const TaskIndex &,
                                    const AccessDb &Db, const HbIndex &Hb,
                                    const DetectorOptions &Options,
                                    DetectCheckpointing *Ckpt) {
  ScanPlan Plan;
  for (const PtrAccess &Use : Db.Uses)
    Plan.addUse(Use);
  for (const PtrAccess &Free : Db.Frees)
    Plan.addFree(Free);
  for (const PtrAccess &Alloc : Db.Allocs)
    Plan.Allocs.add(Alloc);
  // Uses come in promotion order; the scan takes them at their reads.
  std::vector<uint32_t> UsesByRead(Db.Uses.size());
  std::iota(UsesByRead.begin(), UsesByRead.end(), 0u);
  std::sort(UsesByRead.begin(), UsesByRead.end(), [&](uint32_t A, uint32_t B) {
    return Db.Uses[A].Record < Db.Uses[B].Record;
  });

  RaceReport Report = beginReport(Hb);
  // The tables stay resident anyway; sweeping at every record keeps the
  // scan's copies to the accesses that can still pair.
  PairScan Scan(T, Hb, Options, Plan, Report, /*Window=*/1, Ckpt);
  constexpr uint32_t None = ~0u;
  size_t U = 0, F = 0, B = 0;
  for (;;) {
    uint32_t UseRec = U != UsesByRead.size() ? Db.Uses[UsesByRead[U]].Record
                                             : None;
    uint32_t FreeRec = F != Db.Frees.size() ? Db.Frees[F].Record : None;
    uint32_t BrRec = B != Db.Branches.size() ? Db.Branches[B].Record : None;
    uint32_t Record = std::min({UseRec, FreeRec, BrRec});
    if (Record == None)
      break;
    if (Record == UseRec) {
      Scan.onUse(Db.Uses[UsesByRead[U]], UsesByRead[U]);
      ++U;
    } else if (Record == FreeRec) {
      Scan.onFree(Db.Frees[F], static_cast<uint32_t>(F));
      ++F;
    } else {
      Scan.onBranch(Db.Branches[B++]);
    }
    if (!Scan.onRecordDone(Record))
      break;
  }
  Scan.finish();
  return Report;
}

RaceReport cafa::detectUseFreeRacesWindowed(
    const Trace &T, const TaskIndex &, const HbIndex &Hb,
    const DetectorOptions &Options, uint64_t WindowEvents,
    const DerefResolver *Resolver, WindowedDetectStats *Stats,
    DetectCheckpointing *Ckpt) {
  assert(WindowEvents != 0 && WindowEvents != DetectorOptions::WindowOff &&
         "callers resolve the window first");
  ScanPlan Plan;
  PlanSink Pre(Plan);
  streamAccesses(T, Resolver, Pre);

  RaceReport Report = beginReport(Hb);
  PairScan Scan(T, Hb, Options, Plan, Report, WindowEvents, Ckpt);
  StreamSink Sink(Pre, Scan);
  streamAccesses(T, Resolver, Sink);
  Scan.finish();

  if (Stats) {
    Stats->WindowEvents = WindowEvents;
    Stats->OverlayHighWaterBytes = Scan.overlayHighWaterBytes();
    Stats->NumUses = Plan.UseRecords.size();
    Stats->NumFrees = Plan.FreeRecords.size();
  }
  return Report;
}

RaceReport cafa::detectUseFreeRaces(const Trace &T,
                                    const DetectorOptions &Options) {
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  HbIndex Hb(T, Index, Options.Hb);
  return detectUseFreeRaces(T, Index, Db, Hb, Options);
}
