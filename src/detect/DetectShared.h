//===- detect/DetectShared.h - The per-pair pipeline ------------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a candidate (use, free) pair goes through after the pair
/// scan (UseFreeDetector.cpp) enumerates it: the hb-deadline preamble,
/// the deadline ladder and its checkpoint cadence, the filter pipeline
/// with its happens-before query to the HbIndex, the intra-event-alloc
/// index, and the closing (b)/(c) classification.  The reference scan
/// in tests/ReferenceScan.h runs the same pieces over every pair of an
/// AccessDb, and the differential suites pin the scan's reports against
/// it byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_DETECT_DETECTSHARED_H
#define CAFA_DETECT_DETECTSHARED_H

#include "detect/UseFreeDetector.h"
#include "hb/ConventionalOrder.h"
#include "support/Timer.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace cafa {
namespace detail {

/// Returns true if both tasks are events processed by the same looper
/// (the scope in which the commutativity heuristics apply).
inline bool sameLooperEvents(const Trace &T, TaskId A, TaskId B) {
  const TaskInfo &IA = T.taskInfo(A);
  const TaskInfo &IB = T.taskInfo(B);
  return IA.Kind == TaskKind::Event && IB.Kind == TaskKind::Event &&
         IA.Queue.isValid() && IA.Queue == IB.Queue;
}

/// Returns true if two sorted locksets share an element.
inline bool locksetsIntersect(const std::vector<uint32_t> &A,
                              const std::vector<uint32_t> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] == B[J])
      return true;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return false;
}

/// Figure 6: returns true if a use at \p UsePc is inside the region the
/// branch proves non-null.
inline bool pcInGuardRegion(const Trace &T, const GuardBranch &Br,
                            uint32_t UsePc) {
  uint32_t CodeSize = T.methodInfo(Br.Method).CodeSize;
  if (Br.Kind == BranchKind::IfEqz) {
    // Logged when NOT taken; the fall-through path is non-null.
    if (Br.TargetPc > Br.Pc)
      return UsePc > Br.Pc && UsePc < Br.TargetPc; // forward: until target
    return UsePc > Br.Pc && UsePc < CodeSize;      // backward: to func end
  }
  // IfNez / IfEq: logged when taken; the target path is non-null.
  if (Br.TargetPc > Br.Pc)
    return UsePc >= Br.TargetPc && UsePc < CodeSize; // forward jump
  return UsePc >= Br.TargetPc && UsePc < Br.Pc;      // backward jump
}

/// Returns true if \p Br guards \p Use: same task, same frame instance,
/// same matched pointer, branch executed before the use, use pc inside
/// the non-null region.
inline bool branchGuardsUse(const Trace &T, const GuardBranch &Br,
                            const PtrAccess &Use) {
  if (Br.Task != Use.Task || Br.Frame != Use.Frame ||
      !Br.Var.isValid() || Br.Var != Use.Var)
    return false;
  if (Br.Record >= Use.Record)
    return false;
  return pcInGuardRegion(T, Br, Use.Pc);
}

/// Deduplication key: the static (use site, free site) pair.
struct StaticKey {
  uint32_t UseMethod, UsePc, FreeMethod, FreePc;
  bool operator<(const StaticKey &O) const {
    return std::tie(UseMethod, UsePc, FreeMethod, FreePc) <
           std::tie(O.UseMethod, O.UsePc, O.FreeMethod, O.FreePc);
  }
};

inline StaticKey staticKey(const PtrAccess &Use, const PtrAccess &Free) {
  return {Use.Method.value(), Use.Pc, Free.Method.value(), Free.Pc};
}

/// Starts a scan's report over \p Hb, carrying its relation.  A
/// fixpoint cut by its deadline under-approximates the relation, so
/// extra candidates may survive the ordering filter: the report is
/// flagged "hb-deadline", naming the unsaturated rule families, and
/// every race in it is provisional.
inline RaceReport beginReport(const HbIndex &Hb) {
  RaceReport Report;
  Report.Relation = Hb.relation();
  if (!Hb.degradation().DeadlineExceeded)
    return Report;
  Report.Partial = true;
  Report.PartialCause = "hb-deadline";
  const std::vector<std::string> &Rules = Hb.degradation().UnsaturatedRules;
  if (!Rules.empty()) {
    Report.PartialDetail = "unsaturated rules:";
    for (size_t I = 0; I != Rules.size(); ++I)
      Report.PartialDetail += (I ? ", " : " ") + Rules[I];
  }
  return Report;
}

/// Per (task, cell) span [first, last] of allocation records.  The
/// intra-event-alloc filter only asks whether an event allocates a cell
/// after a record or before one, and the span answers both.
class AllocSpans {
public:
  void add(const PtrAccess &Alloc) {
    auto It = Spans.try_emplace(key(Alloc.Task, Alloc.Var), Alloc.Record,
                                Alloc.Record).first;
    It->second.first = std::min(It->second.first, Alloc.Record);
    It->second.second = std::max(It->second.second, Alloc.Record);
  }
  bool anyAfter(TaskId Task, VarId Var, uint32_t Record) const {
    auto It = Spans.find(key(Task, Var));
    return It != Spans.end() && It->second.second > Record;
  }
  bool anyBefore(TaskId Task, VarId Var, uint32_t Record) const {
    auto It = Spans.find(key(Task, Var));
    return It != Spans.end() && It->second.first < Record;
  }

private:
  static uint64_t key(TaskId Task, VarId Var) {
    return (static_cast<uint64_t>(Task.value()) << 32) | Var.value();
  }
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> Spans;
};

/// The per-pair filter pipeline, pure given its arguments.
class PairFilter {
public:
  PairFilter(const Trace &T, const HbIndex &Hb, const DetectorOptions &Options,
             const AllocSpans &Allocs)
      : T(T), Hb(Hb), Options(Options), Allocs(Allocs) {}

  /// Runs one candidate pair through the filters in their fixed order --
  /// same task, ordered, lockset, same looper, if-guard, intra-event
  /// alloc -- and counts it into \p C under the first that suppresses
  /// it.  The ordering filter asks the index's oracle, and \p Guarded()
  /// whether a branch proves the use non-null; each runs only when the
  /// pipeline gets that far.  \p Shed drops the lockset and if-guard
  /// filters.  Returns true when the pair survives, with \p SameLooper
  /// set for a Table 1 (a) race.
  template <class GuardedFn>
  bool survives(const PtrAccess &Use, const PtrAccess &Free, bool Shed,
                FilterCounters &C, bool &SameLooper,
                GuardedFn &&Guarded) const {
    ++C.CandidatePairs;
    if (Use.Task == Free.Task) {
      ++C.SameTask;
      return false;
    }
    if (Hb.ordered(Use.Record, Free.Record)) {
      ++C.OrderedByHb;
      return false;
    }
    if (Options.LocksetFilter && !Shed &&
        locksetsIntersect(Use.Lockset, Free.Lockset)) {
      ++C.LocksetProtected;
      return false;
    }
    SameLooper = sameLooperEvents(T, Use.Task, Free.Task);
    if (SameLooper) {
      if (Options.IfGuardFilter && !Shed && Guarded()) {
        ++C.IfGuardFiltered;
        return false;
      }
      if (Options.IntraEventAllocFilter &&
          (Allocs.anyAfter(Free.Task, Free.Var, Free.Record) ||
           Allocs.anyBefore(Use.Task, Use.Var, Use.Record))) {
        ++C.IntraEventAlloc;
        return false;
      }
    }
    return true;
  }

private:
  const Trace &T;
  const HbIndex &Hb;
  const DetectorOptions &Options;
  const AllocSpans &Allocs;
};

/// The deadline ladder (DetectorOptions::DeadlineMillis) and checkpoint
/// cadence of one scan, timed from construction.  Rung 1 sheds the
/// lockset and if-guard filters and doubles the budget; rung 2 cuts the
/// scan.  Shedding only ever un-suppresses pairs, so a shed report's
/// race set is a superset of the complete run's.  A clock read per pair
/// would dominate the scan, so the scan polls every PollPairs pairs.
class DeadlineLadder {
public:
  static constexpr uint64_t PollPairs = 4096;

  DeadlineLadder(const DetectorOptions &Options, RaceReport &Report,
                 const DetectCheckpointing *Ckpt)
      : Options(Options), Report(Report), CanSave(Ckpt && Ckpt->Save),
        SaveEveryMillis(Ckpt ? Ckpt->EveryMillis : 0),
        WantClock(Options.DeadlineMillis > 0 ||
                  (CanSave && SaveEveryMillis > 0)),
        Limit(Options.DeadlineMillis) {}

  bool shed() const { return Shed; }
  bool outOfTime() const { return OutOfTime; }

  /// Rung 1: flags the report "filters-shed" and doubles the budget.
  void markShed() {
    Shed = true;
    Limit = Options.DeadlineMillis * 2;
    Report.Partial = true;
    if (Report.PartialCause.empty())
      Report.PartialCause = "filters-shed";
    if (Report.PartialDetail.empty())
      Report.PartialDetail =
          "lockset and if-guard filters shed mid-scan; extra races "
          "possible, none missing from the scanned region";
  }

  /// Counts \p Pairs more evaluated pairs; true (and the count restarts)
  /// once a poll is due.
  bool due(uint64_t Pairs) {
    if (!WantClock || (SincePoll += Pairs) < PollPairs)
      return false;
    SincePoll = 0;
    return true;
  }

  /// Reads the clock with the scan at its next unprocessed pair and
  /// climbs the ladder if the budget is spent.  Returns true when the
  /// scan must hand a frontier of that pair to its checkpoint hook: a
  /// cadence tick, or the cut itself (the unprocessed pair is exactly
  /// where a resumed scan picks up).
  bool poll() {
    double Elapsed = Clock.elapsedWallMillis();
    if (Options.DeadlineMillis > 0 && Elapsed > Limit) {
      if (!Shed && (Options.LocksetFilter || Options.IfGuardFilter)) {
        markShed();
        return false;
      }
      OutOfTime = true;
      return CanSave;
    }
    if (CanSave && SaveEveryMillis > 0 &&
        Elapsed - LastSaveMs >= SaveEveryMillis) {
      LastSaveMs = Elapsed;
      return true;
    }
    return false;
  }

  /// Closes the report of a cut scan: "filters-shed" promotes to
  /// "detect-deadline"; an earlier "hb-deadline" keeps priority (the
  /// first deadline hit wins).
  void finish() {
    if (!OutOfTime)
      return;
    Report.Partial = true;
    if (Report.PartialCause.empty() || Report.PartialCause == "filters-shed")
      Report.PartialCause = "detect-deadline";
    if (Shed && Report.PartialCause == "detect-deadline")
      Report.PartialDetail =
          "filters shed, then the extended budget expired; scan cut";
  }

private:
  const DetectorOptions &Options;
  RaceReport &Report;
  const bool CanSave;
  const double SaveEveryMillis;
  const bool WantClock;
  Timer Clock;
  double Limit;
  double LastSaveMs = 0;
  uint64_t SincePoll = 0;
  bool Shed = false;
  bool OutOfTime = false;
};

/// Table 1's (b)/(c) split, run once after the scan over every
/// committed cross-looper race: (c) when a conventional thread-based
/// order leaves it unordered too, (b) otherwise.  Skipped (all (b))
/// when \p Hb is a deadline-cut fixpoint -- the split is a refinement,
/// not a soundness requirement, and a run already past its budget
/// spends nothing more on it.  Each race is one ConventionalOrder search
/// over \p Hb's own graph in each direction, set up the first time a
/// race crosses loopers.
inline void classifyRaces(const HbIndex &Hb, RaceReport &Report) {
  const bool Enabled = !Hb.degradation().DeadlineExceeded;
  std::optional<ConventionalOrder> Conv;
  for (UseFreeRace &Race : Report.Races) {
    if (Race.Category == RaceCategory::IntraThread)
      continue;
    if (Enabled && !Conv)
      Conv.emplace(Hb.graph());
    Race.Category = Conv && !Conv->ordered(Race.Use.Record, Race.Free.Record)
                        ? RaceCategory::Conventional
                        : RaceCategory::InterThread;
  }
}

} // namespace detail
} // namespace cafa

#endif // CAFA_DETECT_DETECTSHARED_H
