//===- detect/Baselines.h - Low-level race detector baseline ---*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The naive low-level detector Section 4.1 argues against: every pair of
/// conflicting memory accesses (read-write or write-write on the same
/// cell, scalar or pointer) that is unordered under the causality model
/// counts as a race.  On ConnectBot the paper reports 1,664 such races in
/// a 30-second trace -- versus 3 use-free reports -- which is the shape
/// the naive_vs_cafa benchmark reproduces.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_DETECT_BASELINES_H
#define CAFA_DETECT_BASELINES_H

#include "hb/HbIndex.h"
#include "trace/Trace.h"

namespace cafa {

/// Result of the naive low-level scan.
struct NaiveRaceResult {
  /// Distinct static races: unordered (pc, pc, cell) pairs with a write.
  uint64_t StaticRaces = 0;
  /// Dynamic pairs that established a new static race (repeats of an
  /// already-counted static pair are skipped before the HB query).
  uint64_t DynamicRaces = 0;
  /// Dynamic pairs skipped by the per-cell scan cap.
  uint64_t CappedPairs = 0;
};

/// Options for the naive detector.
struct NaiveDetectorOptions {
  /// Cap on dynamic pairs examined per memory cell (keeps the scan
  /// tractable on noisy cells; capped cells are counted, not hidden).
  uint64_t MaxPairsPerCell = 400'000;
  /// Suppress pairs whose accesses hold a common lock (both the paper's
  /// tool and conventional detectors do).
  bool LocksetFilter = true;
};

/// Counts low-level races in \p T under the causality model \p Hb.
NaiveRaceResult detectLowLevelRaces(const Trace &T, const HbIndex &Hb,
                                    const NaiveDetectorOptions &Options);

} // namespace cafa

#endif // CAFA_DETECT_BASELINES_H
