//===- detect/UseFreeDetector.cpp - The CAFA race detector -------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The batch pair scan over a fully materialized AccessDb: uses in
// promotion order outer, the frees of the use's cell in record order
// inner, fanned out over the analysis worker pool in blocks.  What it
// keeps of its own is that enumeration, the per-(frame, cell) branch
// index its if-guard lookups read, and the DetectFrontier cursor.
// Everything a pair goes through after enumeration -- filters,
// deadline ladder, commit, classification -- is DetectShared.h, shared
// with the windowed streaming scan (WindowedScan.cpp).
//
//===----------------------------------------------------------------------===//

#include "detect/UseFreeDetector.h"

#include "detect/DetectShared.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <unordered_map>

using namespace cafa;
using namespace cafa::detail;

namespace {

/// Indexes built once per detection run.
struct DetectIndexes {
  /// var id -> indices into Db.Frees.
  std::vector<std::vector<uint32_t>> FreesByVar;
  AllocSpans Allocs;
  /// (task, frame, var) -> indices into Db.Branches.
  std::unordered_map<uint64_t, std::vector<uint32_t>> BranchesByFrameVar;
  /// Memoized if-guard verdicts per use (-1 unknown, 0 no, 1 yes).
  std::vector<int8_t> GuardedMemo;

  static uint64_t frameVarKey(uint64_t Frame, VarId Var) {
    // Frame ids are globally unique, so (frame, var) needs no task.
    return (Frame << 20) ^ Var.value();
  }

  DetectIndexes(const AccessDb &Db) {
    uint32_t MaxVar = 0;
    for (const PtrAccess &A : Db.Frees)
      MaxVar = std::max(MaxVar, A.Var.value() + 1);
    for (const PtrAccess &A : Db.Uses)
      MaxVar = std::max(MaxVar, A.Var.value() + 1);
    FreesByVar.resize(MaxVar);
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Frees.size()); I != E;
         ++I)
      FreesByVar[Db.Frees[I].Var.index()].push_back(I);
    for (const PtrAccess &A : Db.Allocs)
      Allocs.add(A);
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Branches.size());
         I != E; ++I) {
      const GuardBranch &Br = Db.Branches[I];
      if (Br.Var.isValid())
        BranchesByFrameVar[frameVarKey(Br.Frame, Br.Var)].push_back(I);
    }
    GuardedMemo.assign(Db.Uses.size(), -1);
  }
};

} // namespace

bool cafa::isUseIfGuarded(const Trace &T, const AccessDb &Db,
                          const PtrAccess &Use) {
  for (const GuardBranch &Br : Db.Branches)
    if (branchGuardsUse(T, Br, Use))
      return true;
  return false;
}

RaceReport cafa::detectUseFreeRaces(const Trace &T, const TaskIndex &Index,
                                    const AccessDb &Db, const HbIndex &Hb,
                                    const DetectorOptions &Options,
                                    DetectCheckpointing *Ckpt) {
  RaceReport Report = beginReport(Hb);
  DeadlineLadder Ladder(Options, Report, Ckpt);
  DetectIndexes Ix(Db);
  const PairFilter Filter(T, Hb, Options, Ix.Allocs);

  auto isGuarded = [&](uint32_t UseIdx) {
    int8_t &Memo = Ix.GuardedMemo[UseIdx];
    if (Memo >= 0)
      return Memo != 0;
    const PtrAccess &Use = Db.Uses[UseIdx];
    bool Guarded = false;
    auto It = Ix.BranchesByFrameVar.find(
        DetectIndexes::frameVarKey(Use.Frame, Use.Var));
    if (It != Ix.BranchesByFrameVar.end()) {
      for (uint32_t BrIdx : It->second) {
        if (branchGuardsUse(T, Db.Branches[BrIdx], Use)) {
          Guarded = true;
          break;
        }
      }
    }
    Memo = Guarded ? 1 : 0;
    return Guarded;
  };

  // Resume path: restore the races, counters, and cursor of a frozen
  // scan.  Records are validated against the freshly extracted accesses
  // -- any mismatch means the frontier belongs to a different trace or
  // extractor and the scan silently restarts from scratch, which is
  // always correct, just slower.
  uint32_t StartUse = 0, StartFree = 0;
  if (Ckpt && Ckpt->Resume) {
    const DetectFrontier &R = *Ckpt->Resume;
    std::unordered_map<uint32_t, uint32_t> UseByRecord, FreeByRecord;
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Uses.size()); I != E;
         ++I)
      UseByRecord.emplace(Db.Uses[I].Record, I);
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Frees.size()); I != E;
         ++I)
      FreeByRecord.emplace(Db.Frees[I].Record, I);
    bool Ok = R.UseIdx <= Db.Uses.size();
    if (Ok && R.UseIdx < Db.Uses.size()) {
      const PtrAccess &U = Db.Uses[R.UseIdx];
      Ok = U.Var.index() < Ix.FreesByVar.size()
               ? R.FreePos <= Ix.FreesByVar[U.Var.index()].size()
               : R.FreePos == 0;
    }
    std::vector<UseFreeRace> Restored;
    for (const DetectFrontier::RaceEntry &E : R.Races) {
      auto UIt = UseByRecord.find(E.UseRecord);
      auto FIt = FreeByRecord.find(E.FreeRecord);
      if (UIt == UseByRecord.end() || FIt == FreeByRecord.end() ||
          E.Category > static_cast<uint8_t>(RaceCategory::Conventional)) {
        Ok = false;
        break;
      }
      UseFreeRace Race;
      Race.Use = Db.Uses[UIt->second];
      Race.Free = Db.Frees[FIt->second];
      Race.Category = static_cast<RaceCategory>(E.Category);
      Race.DynamicCount = E.DynamicCount;
      Restored.push_back(std::move(Race));
    }
    if (Ok) {
      StartUse = R.UseIdx;
      StartFree = R.FreePos;
      if (R.FiltersShed)
        Ladder.markShed();
      Report.Filters = R.Filters;
      Report.Races = std::move(Restored);
      Ckpt->ResumeAccepted = true;
    }
  }
  RaceCommitter Committer(Report);

  // Snapshots the scan at the next unprocessed pair (\p UseIdx, \p J).
  auto freezeScan = [&](uint32_t UseIdx, uint32_t J) {
    DetectFrontier F;
    F.UseIdx = UseIdx;
    F.FreePos = J;
    F.FiltersShed = Ladder.shed();
    F.Filters = Report.Filters;
    F.Races.reserve(Report.Races.size());
    for (const UseFreeRace &Race : Report.Races)
      F.Races.push_back({Race.Use.Record, Race.Free.Record,
                         static_cast<uint8_t>(Race.Category),
                         Race.DynamicCount});
    return F;
  };

  // Polls the ladder with the next unprocessed pair at (\p UseIdx, \p J);
  // false once the scan is cut.
  auto pollClock = [&](uint32_t UseIdx, uint32_t J) {
    if (Ladder.poll())
      Ckpt->Save(freezeScan(UseIdx, J));
    return !Ladder.outOfTime();
  };

  // The per-pair verdict, pure given the frozen shed state, which is
  // what makes it safe to evaluate from worker threads.  GuardedMemo
  // stays safe in parallel because uses are partitioned: exactly one
  // worker ever touches a given use's memo slot.
  auto evalPair = [&](uint32_t UseIdx, uint32_t FreeIdx, bool Shed,
                      FilterCounters &C, bool &SameLooper) {
    const PtrAccess &Use = Db.Uses[UseIdx];
    const PtrAccess &Free = Db.Frees[FreeIdx];
    return Filter.survives(Use, Free, Shed, C, SameLooper,
                           [&] { return isGuarded(UseIdx); });
  };

  // Sequential commit of one surviving pair, in scan order.
  auto commitPair = [&](uint32_t UseIdx, uint32_t FreeIdx,
                        bool SameLooper) {
    const PtrAccess &Use = Db.Uses[UseIdx];
    const PtrAccess &Free = Db.Frees[FreeIdx];
    if (UseFreeRace *Race =
            Committer.commit(staticKey(Use, Free), SameLooper)) {
      Race->Use = Use;
      Race->Free = Free;
    }
  };

  const uint32_t UE = static_cast<uint32_t>(Db.Uses.size());

  // Parallel analysis mode (Options.Hb.Threads, docs/robustness.md):
  // uses are scanned in contiguous blocks; each block fans its pairs
  // out across workers as per-worker survivor lists, then the
  // survivors are committed in scan order.  Every per-pair verdict is
  // pure given the frozen shed state, and the commit order equals the
  // sequential scan's, so reports are bit-identical at every thread
  // count.  Requires an oracle whose queries are safe from many
  // threads (row-backed closures; the BFS floor mutates scratch).
  unsigned Threads = resolveAnalysisThreads(Options.Hb.Threads);
  bool Parallel =
      Threads > 1 && Hb.concurrentQueriesSafe() && Db.Uses.size() >= 64;
  WorkerPool Pool(Parallel ? Threads - 1 : 0);

  if (!Parallel) {
    for (uint32_t UseIdx = StartUse; UseIdx != UE && !Ladder.outOfTime();
         ++UseIdx) {
      const PtrAccess &Use = Db.Uses[UseIdx];
      if (Use.Var.index() >= Ix.FreesByVar.size())
        continue;
      const std::vector<uint32_t> &FreeList =
          Ix.FreesByVar[Use.Var.index()];
      for (uint32_t J = UseIdx == StartUse ? StartFree : 0,
                    JE = static_cast<uint32_t>(FreeList.size());
           J != JE; ++J) {
        if (Ladder.due(1) && !pollClock(UseIdx, J))
          break;
        bool SameLooper = false;
        if (evalPair(UseIdx, FreeList[J], Ladder.shed(), Report.Filters,
                     SameLooper))
          commitPair(UseIdx, FreeList[J], SameLooper);
      }
    }
  } else {
    // Blocks match the sequential clock cadence when the clock matters,
    // so deadline cuts and cadence saves land at comparable pair counts;
    // otherwise they are sized for throughput.
    const uint64_t BlockPairs =
        Ladder.clockWanted() ? DeadlineLadder::PollPairs : 65536;
    const uint64_t ChunkPairs =
        std::max<uint64_t>(BlockPairs / (Pool.helperThreads() + 1), 512);
    struct Survivor {
      uint32_t UseIdx, FreeIdx;
      bool SameLooper;
    };
    struct Chunk {
      uint32_t UseBegin, UseEnd;
      FilterCounters C;
      std::vector<Survivor> Out;
    };
    // Pairs of a use before the scan cursor (only the resume use can
    // have any).
    auto SkippedPairs = [&](uint32_t UseIdx, uint64_t N) {
      return UseIdx == StartUse ? std::min<uint64_t>(N, StartFree) : 0;
    };
    uint32_t UseIdx = StartUse;
    while (UseIdx < UE && !Ladder.outOfTime()) {
      // Carve the next block of ~BlockPairs pairs into contiguous
      // per-worker chunks balanced by pair count.
      std::vector<Chunk> Chunks;
      uint64_t InBlock = 0, InChunk = 0;
      uint32_t ChunkBegin = UseIdx, U = UseIdx;
      for (; U < UE && InBlock < BlockPairs; ++U) {
        const PtrAccess &Use = Db.Uses[U];
        uint64_t N = Use.Var.index() < Ix.FreesByVar.size()
                         ? Ix.FreesByVar[Use.Var.index()].size()
                         : 0;
        N -= SkippedPairs(U, N);
        InBlock += N;
        InChunk += N;
        if (InChunk >= ChunkPairs) {
          Chunks.push_back({ChunkBegin, U + 1, {}, {}});
          ChunkBegin = U + 1;
          InChunk = 0;
        }
      }
      if (ChunkBegin < U)
        Chunks.push_back({ChunkBegin, U, {}, {}});
      const bool Shed = Ladder.shed(); // frozen for the whole block
      Pool.parallelFor(Chunks.size(), [&](size_t CI) {
        Chunk &Ch = Chunks[CI];
        for (uint32_t UI = Ch.UseBegin; UI != Ch.UseEnd; ++UI) {
          const PtrAccess &Use = Db.Uses[UI];
          if (Use.Var.index() >= Ix.FreesByVar.size())
            continue;
          const std::vector<uint32_t> &FreeList =
              Ix.FreesByVar[Use.Var.index()];
          for (uint32_t J = UI == StartUse ? StartFree : 0,
                        JE = static_cast<uint32_t>(FreeList.size());
               J != JE; ++J) {
            bool SameLooper = false;
            if (evalPair(UI, FreeList[J], Shed, Ch.C, SameLooper))
              Ch.Out.push_back({UI, FreeList[J], SameLooper});
          }
        }
      });
      for (Chunk &Ch : Chunks) {
        Report.Filters.OrderedByHb += Ch.C.OrderedByHb;
        Report.Filters.SameTask += Ch.C.SameTask;
        Report.Filters.LocksetProtected += Ch.C.LocksetProtected;
        Report.Filters.IfGuardFiltered += Ch.C.IfGuardFiltered;
        Report.Filters.IntraEventAlloc += Ch.C.IntraEventAlloc;
        Report.Filters.CandidatePairs += Ch.C.CandidatePairs;
        for (const Survivor &S : Ch.Out)
          commitPair(S.UseIdx, S.FreeIdx, S.SameLooper);
      }
      UseIdx = U;
      // Same cadence as the sequential scan: poll once PollPairs pairs
      // have been evaluated since the last poll, with the cursor at the
      // next unprocessed pair.  No trailing poll after the final block
      // -- a finished scan is complete, not cut.
      if (Ladder.due(InBlock) && UseIdx < UE)
        pollClock(UseIdx, UseIdx == StartUse ? StartFree : 0);
    }
  }
  Ladder.finish();
  classifyRaces(Hb, Report);
  return Report;
}

RaceReport cafa::detectUseFreeRaces(const Trace &T,
                                    const DetectorOptions &Options) {
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  HbIndex Hb(T, Index, Options.Hb);
  return detectUseFreeRaces(T, Index, Db, Hb, Options);
}
