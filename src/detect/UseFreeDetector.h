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
  /// Where the pair scan reads its accesses from
  /// (docs/windowed-analysis.md).  0 = auto: the CAFA_WINDOW environment
  /// variable decides; when it is unset the scan reads an extracted
  /// AccessDb, unless analyzeTrace sheds to the trace stream under
  /// memory pressure.  WindowOff pins the AccessDb regardless of the
  /// environment.  Any other value streams the trace in two extraction
  /// passes and retires retained accesses every WindowEvents records.
  /// Both sources feed one scan, so the report is the same; the window
  /// trades the resident access tables for a second extraction pass.
  uint64_t WindowEvents = 0;
  /// Sentinel for WindowEvents: scan an extracted AccessDb.
  static constexpr uint64_t WindowOff = ~0ull;
};

/// Resolves DetectorOptions::WindowEvents with request > environment
/// (CAFA_WINDOW, a positive record count) > default (WindowOff)
/// precedence.
uint64_t resolveWindowEvents(uint64_t Requested);

/// The pair scan frozen at a pair boundary.  The scan evaluates each
/// (use, free) pair once, at the record of its later access, in an
/// order that depends only on the trace, so a record cursor plus the
/// committed races and counters resumes to exactly the report an
/// uninterrupted scan produces -- under either access source.  Uses and
/// frees are named by ordinal: a use's position in promotion order (its
/// index in AccessDb::Uses), a free's in record order.
struct DetectFrontier {
  /// First record whose pairs are not all evaluated.
  uint32_t CursorRecord = 0;
  /// Pairs of CursorRecord already evaluated (the order within a record
  /// is fixed, so a count is a cursor).
  uint64_t PairsDoneAtCursor = 0;
  /// The deadline ladder's first rung had already shed the lockset and
  /// if-guard filters when this frontier was frozen; a resume continues
  /// with them shed (and the report flagged accordingly), so the
  /// resumed report equals the uninterrupted shed run's.
  bool FiltersShed = false;
  FilterCounters Filters;
  /// One committed race: its static (use site, free site) pair, its
  /// first dynamic instance by (use ordinal, free ordinal), how many
  /// instances survived so far, and whether the first one is between
  /// events of one looper.  The records ride along for validation; a
  /// resume takes the access bodies from the replayed records.
  struct RaceEntry {
    uint32_t UseOrd = 0, FreeOrd = 0;
    uint32_t UseRecord = 0, FreeRecord = 0;
    uint32_t UseMethod = 0, UsePc = 0, FreeMethod = 0, FreePc = 0;
    uint32_t DynamicCount = 0;
    uint8_t SameLooper = 0;
  };
  std::vector<RaceEntry> Races;
};

/// Checkpoint hooks for the pair scan.  Save, when set, is called at
/// cadence ticks (EveryMillis of wall time since detector entry, polled
/// at the same ~4k-pair granularity as the deadline clock) and always
/// when the detect deadline cuts the scan.  Resume seeds the scan from
/// a saved frontier; the scan validates it against the accesses and
/// sets ResumeAccepted, silently starting from scratch on any mismatch
/// (a stale frontier must degrade to a clean run, never a wrong
/// report).
struct DetectCheckpointing {
  double EveryMillis = 0;
  std::function<void(const DetectFrontier &)> Save;
  const DetectFrontier *Resume = nullptr;
  bool ResumeAccepted = false;
};

/// Observability counters of one scan over the trace stream, surfaced
/// in the analyzer's stats block and the scaling bench.
struct WindowedDetectStats {
  /// Retirement sweep cadence actually used (records).
  uint64_t WindowEvents = 0;
  /// Always 0: the scan keeps no reachability rows of its own.  Kept
  /// only because the benchmark harness still prints it.
  size_t ReachHighWaterRows = 0;
  /// Peak bytes of retained (not yet retired) accesses and branches,
  /// sampled at every insertion.
  size_t OverlayHighWaterBytes = 0;
  /// Uses and frees the pre-pass extracted (the stream source keeps no
  /// AccessDb to count them in).
  uint64_t NumUses = 0, NumFrees = 0;
};

/// The pair scan over the trace stream, against a *final*
/// (post-fixpoint) \p Hb: a counting pre-pass derives the retention
/// horizons, and a second extraction pass feeds the scan, which retires
/// accesses once no future counterpart can pair with them.  Emits the
/// report of detectUseFreeRaces over an extracted AccessDb at every
/// window size -- the window is only the retirement sweep cadence --
/// while never holding the full access tables resident.
/// \p WindowEvents must be a concrete cadence (not 0/WindowOff; callers
/// resolve first).
RaceReport detectUseFreeRacesWindowed(
    const Trace &T, const TaskIndex &Index, const HbIndex &Hb,
    const DetectorOptions &Options, uint64_t WindowEvents,
    const DerefResolver *Resolver = nullptr,
    WindowedDetectStats *Stats = nullptr,
    DetectCheckpointing *Ckpt = nullptr);

/// Runs the full CAFA pipeline on \p T: extract accesses, build the
/// causality model, detect and filter use-free races, classify.
RaceReport detectUseFreeRaces(const Trace &T, const DetectorOptions &Options);

/// The pair scan over an already-extracted \p Db and built \p Hb (the
/// benchmarks time phases separately).  \p Ckpt, when non-null, enables
/// crash-safe checkpoint/resume of the scan (see DetectCheckpointing).
RaceReport detectUseFreeRaces(const Trace &T, const TaskIndex &Index,
                              const AccessDb &Db, const HbIndex &Hb,
                              const DetectorOptions &Options,
                              DetectCheckpointing *Ckpt = nullptr);

/// Returns true if \p Use is proven safe by a guarded branch, per the
/// Figure 6 pc-interval rules, by a linear search of \p Db.Branches
/// (the unit tests and the reference scan in tests/ ask it).
bool isUseIfGuarded(const Trace &T, const AccessDb &Db, const PtrAccess &Use);

} // namespace cafa

#endif // CAFA_DETECT_USEFREEDETECTOR_H
