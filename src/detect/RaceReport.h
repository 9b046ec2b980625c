//===- detect/RaceReport.h - Detector output structures --------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detector's output: use-free races deduplicated to static (use
/// site, free site) pairs, with their Table 1 classification and the
/// filter counters that explain what was pruned.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_DETECT_RACEREPORT_H
#define CAFA_DETECT_RACEREPORT_H

#include "detect/Accesses.h"

#include <memory>
#include <string>
#include <vector>

namespace cafa {

struct HbFrontier;

/// Table 1 true-race categories (assigned by the detector; whether the
/// race is actually harmful is the evaluation harness's ground truth).
enum class RaceCategory : uint8_t {
  /// (a) between two events of the same looper thread.
  IntraThread,
  /// (b) between threads, missed by a conventional detector.
  InterThread,
  /// (c) between threads, also found by a conventional detector.
  Conventional,
};

/// Returns "a"/"b"/"c" for rendering.
const char *raceCategoryName(RaceCategory C);

/// One reported use-free race (deduplicated static pair; the recorded
/// accesses are the first dynamic instance observed).
struct UseFreeRace {
  PtrAccess Use;
  PtrAccess Free;
  RaceCategory Category = RaceCategory::IntraThread;
  /// Number of dynamic (use, free) instances collapsed into this entry.
  uint32_t DynamicCount = 1;
};

/// Why a candidate pair was suppressed.
struct FilterCounters {
  uint64_t OrderedByHb = 0;       ///< not a race: happens-before ordered
  uint64_t SameTask = 0;          ///< same task: program order
  uint64_t LocksetProtected = 0;  ///< common lock across threads
  uint64_t IfGuardFiltered = 0;   ///< use proven non-null by a guard
  uint64_t IntraEventAlloc = 0;   ///< allocation masks the free/use
  uint64_t CandidatePairs = 0;    ///< dynamic pairs examined
};

/// The full detector output for one trace.
struct RaceReport {
  std::vector<UseFreeRace> Races;
  FilterCounters Filters;
  /// True when the analysis hit a degradation deadline and stopped
  /// early: the happens-before relation may under-approximate (extra
  /// candidates survive) and candidate pairs past the cutoff were never
  /// scanned (races may be missing).  Consumers must not treat a
  /// partial report as a clean bill of health.
  bool Partial = false;
  /// Machine-readable cause when Partial is set: "hb-deadline" (the
  /// fixpoint was cut -- rounds lost), "filters-shed" (the detect
  /// deadline's first rung dropped the lockset/if-guard filters but the
  /// scan completed: extra races possible, none missing), or
  /// "detect-deadline" (the pair scan was cut).  The first deadline hit
  /// wins, except that "filters-shed" promotes to "detect-deadline"
  /// when the extended budget also expires.
  std::string PartialCause;
  /// Elaboration of PartialCause, when one exists.  For "hb-deadline"
  /// this names the rule families the cut left short of their fixpoint
  /// (e.g. "unsaturated rules: atomicity, event-queue") -- the missing
  /// edges are drawn from exactly these rules, so every reported race is
  /// *provisional*: it may be ordered away once the fixpoint saturates.
  /// Empty when Partial is false or no detail is known.
  std::string PartialDetail;
  /// The happens-before relation the report was detected against
  /// (HbIndex::relation()): saturated, or cut short for an "hb-deadline"
  /// report.  Confirmation resumes it instead of deriving it again.
  /// Null when the analysis ran another model or with a rule family
  /// ablated.  Never rendered; copies of a report share it.
  std::shared_ptr<const HbFrontier> Relation;

  size_t numRaces() const { return Races.size(); }
  size_t countCategory(RaceCategory C) const;

  /// True when the races in this report could still be ordered away by
  /// a saturated fixpoint: the happens-before relation was cut short,
  /// so "unordered" verdicts are provisional.  Detect-deadline cuts do
  /// not set this -- the relation was complete, only the scan stopped.
  bool racesProvisional() const { return Partial && PartialCause == "hb-deadline"; }
};

} // namespace cafa

#endif // CAFA_DETECT_RACEREPORT_H
