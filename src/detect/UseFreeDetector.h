//===- detect/UseFreeDetector.h - The CAFA race detector -------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The use-free race detector of Section 4: candidate (use, free) pairs
/// on the same pointer cell that are unordered under the causality model,
/// with three suppression mechanisms -- lockset mutual exclusion (the
/// Section 3.2 stand-in for the removed unlock->lock edges), and the
/// if-guard and intra-event-allocation commutativity heuristics of
/// Section 4.3 (both applicable only between events of one looper).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_DETECT_USEFREEDETECTOR_H
#define CAFA_DETECT_USEFREEDETECTOR_H

#include "detect/RaceReport.h"
#include "hb/HbIndex.h"

#include <functional>

namespace cafa {

/// Detector configuration (defaults reproduce the paper's tool).
struct DetectorOptions {
  /// Causality model construction.
  HbOptions Hb;
  /// Apply the if-guard commutativity heuristic.
  bool IfGuardFilter = true;
  /// Apply the intra-event-allocation commutativity heuristic.
  bool IntraEventAllocFilter = true;
  /// Suppress pairs protected by a common lock.
  bool LocksetFilter = true;
  /// Graceful degradation: when positive, a wall-clock budget in
  /// milliseconds for the candidate-pair scan, measured from detector
  /// entry.  The deadline is a two-rung ladder (docs/robustness.md):
  /// the first expiry sheds the lockset and if-guard filters for the
  /// rest of the scan -- cheaper per pair, strictly more races
  /// reported, never fewer -- flags the report Partial with
  /// PartialCause = "filters-shed", and extends the budget to 2x so
  /// the leaner scan can finish.  If even that expires (or no
  /// sheddable filter is enabled), the scan stops where it stands and
  /// PartialCause becomes "detect-deadline".  analyzeTrace treats
  /// DeadlineMillis as the *whole-pipeline* budget and hands the
  /// detector whatever the extract and happens-before phases left
  /// over.  0 = off.
  double DeadlineMillis = 0;
  /// Windowed streaming scan (docs/windowed-analysis.md).  0 = auto:
  /// the CAFA_WINDOW environment variable decides; when it is unset
  /// the batch scan runs, unless analyzeTrace sheds to the windowed
  /// scan under memory pressure.  WindowOff pins the batch scan
  /// regardless of the environment.  Any other value runs the
  /// windowed scan with retirement sweeps every WindowEvents records.
  /// The two scans emit byte-identical reports; the window trades
  /// resident overlay memory for a second extraction pass.
  uint64_t WindowEvents = 0;
  /// Sentinel for WindowEvents: never use the windowed scan.
  static constexpr uint64_t WindowOff = ~0ull;
};

/// Resolves DetectorOptions::WindowEvents with request > environment
/// (CAFA_WINDOW, a positive record count) > default (WindowOff)
/// precedence.
uint64_t resolveWindowEvents(uint64_t Requested);

/// Everything needed to freeze the candidate-pair scan at a pair
/// boundary and restore it in another process.  The scan order
/// (Db.Uses outer, FreesByVar[use.var] inner) is deterministic, so a
/// cursor plus the accumulated races and counters resumes to exactly
/// the report an uninterrupted scan produces.
struct DetectFrontier {
  /// Next unprocessed pair: use index into Db.Uses, position into that
  /// use's FreesByVar list.  Everything lexicographically below has been
  /// scanned and is reflected in Races/Filters.
  uint32_t UseIdx = 0;
  uint32_t FreePos = 0;
  /// The deadline ladder's first rung had already shed the lockset and
  /// if-guard filters when this frontier was frozen; a resume continues
  /// with them shed (and the report flagged accordingly), so the
  /// resumed report equals the uninterrupted shed run's.
  bool FiltersShed = false;
  FilterCounters Filters;
  /// One reported race, keyed by the trace records of its first dynamic
  /// instance (stable across processes; the full PtrAccess is
  /// rehydrated from a freshly extracted AccessDb on resume).  A
  /// cross-looper race's Category may be the (b) placeholder: the (b)/(c)
  /// split runs once, after the scan.
  struct RaceEntry {
    uint32_t UseRecord = 0;
    uint32_t FreeRecord = 0;
    uint8_t Category = 0;
    uint32_t DynamicCount = 1;
  };
  std::vector<RaceEntry> Races;
};

/// Checkpoint hooks for a detector scan.  Save, when set, is called at
/// cadence ticks (EveryMillis of wall time since detector entry,
/// polled at the same ~4k-pair granularity as the deadline clock) and
/// always when the detect deadline cuts the scan.  Resume seeds the
/// scan from a saved frontier; the detector validates it against the
/// extracted accesses and sets ResumeAccepted, silently starting from
/// scratch on any mismatch (a stale frontier must degrade to a clean
/// run, never a wrong report).
template <class Frontier> struct ScanCheckpointing {
  double EveryMillis = 0;
  std::function<void(const Frontier &)> Save;
  const Frontier *Resume = nullptr;
  bool ResumeAccepted = false;
};

using DetectCheckpointing = ScanCheckpointing<DetectFrontier>;

/// Frozen state of the windowed streaming scan (WindowedScan.cpp) at a
/// pair boundary.  Unlike the batch DetectFrontier, races are not yet
/// committed when the scan freezes -- dedup and classification run once
/// at the end over the survivor set -- so the frontier carries the
/// surviving pairs instead, identified by their stable use/free
/// ordinals (positions in promotion/record order, identical across
/// processes by construction).
struct WindowedDetectFrontier {
  /// First record whose admitted pairs are not fully processed.
  uint32_t CursorRecord = 0;
  /// Pairs admitted at CursorRecord that were already processed (the
  /// within-record enumeration order -- retained-bucket insertion
  /// order -- is deterministic, so a count is a cursor).
  uint64_t PairsDoneAtCursor = 0;
  bool FiltersShed = false;
  FilterCounters Filters;
  /// One surviving pair.  Records and sites ride along for validation
  /// and for rebuilding the dedup key without the access bodies.
  struct SurvivorEntry {
    uint32_t UseOrd = 0, FreeOrd = 0;
    uint32_t UseRecord = 0, FreeRecord = 0;
    uint32_t UseMethod = 0, UsePc = 0, FreeMethod = 0, FreePc = 0;
    uint8_t SameLooper = 0;
  };
  std::vector<SurvivorEntry> Survivors;
};

using WindowedDetectCheckpointing = ScanCheckpointing<WindowedDetectFrontier>;

/// Observability counters of one windowed scan, surfaced in the
/// analyzer's stats block and the scaling bench.
struct WindowedDetectStats {
  /// Retirement sweep cadence actually used (records).
  uint64_t WindowEvents = 0;
  /// Chain count of the frontier reachability rows.
  uint32_t Chains = 0;
  /// Peak simultaneously-live reachability rows / their bytes.
  size_t ReachHighWaterRows = 0;
  size_t ReachHighWaterBytes = 0;
  /// Peak bytes of retained (not yet retired) accesses and branches.
  size_t RetainedHighWaterBytes = 0;
  /// Peak of the combined analysis overlay (rows + retained accesses),
  /// sampled at every insertion and sweep.
  size_t OverlayHighWaterBytes = 0;
  /// Extraction tallies.  The windowed path never materializes an
  /// AccessDb, so analyzeTrace fills its trace stats from these.
  uint64_t NumUses = 0, NumFrees = 0, NumAllocs = 0, NumBranches = 0;
  uint64_t UnmatchedReads = 0, UnmatchedDerefs = 0;
};

/// Windowed streaming detection over a *final* (post-fixpoint) \p Hb:
/// two extraction passes (a counting pre-pass deriving retention
/// horizons, then the scan itself), pairs evaluated as their later
/// access streams by, accesses retired once no future counterpart can
/// pair with them.  Emits a report byte-identical to the batch
/// detectUseFreeRaces at every window size -- the window is only the
/// retirement sweep cadence -- while never holding the full access
/// tables or a full reachability closure resident.  \p WindowEvents
/// must be a concrete cadence (not 0/WindowOff; callers resolve
/// first).
RaceReport detectUseFreeRacesWindowed(
    const Trace &T, const TaskIndex &Index, const HbIndex &Hb,
    const DetectorOptions &Options, uint64_t WindowEvents,
    const DerefResolver *Resolver = nullptr,
    WindowedDetectStats *Stats = nullptr,
    WindowedDetectCheckpointing *Ckpt = nullptr);

/// Runs the full CAFA pipeline on \p T: extract accesses, build the
/// causality model, detect and filter use-free races, classify.
RaceReport detectUseFreeRaces(const Trace &T, const DetectorOptions &Options);

/// Same, but reuses an already-extracted \p Db and built \p Hb (the
/// benchmarks time phases separately).  \p Ckpt, when non-null, enables
/// crash-safe checkpoint/resume of the pair scan (see
/// DetectCheckpointing).
RaceReport detectUseFreeRaces(const Trace &T, const TaskIndex &Index,
                              const AccessDb &Db, const HbIndex &Hb,
                              const DetectorOptions &Options,
                              DetectCheckpointing *Ckpt = nullptr);

/// Returns true if \p Use is proven safe by a guarded branch, per the
/// Figure 6 pc-interval rules.  Exposed for unit testing.
bool isUseIfGuarded(const Trace &T, const AccessDb &Db, const PtrAccess &Use);

} // namespace cafa

#endif // CAFA_DETECT_USEFREEDETECTOR_H
