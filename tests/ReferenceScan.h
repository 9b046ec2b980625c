//===- tests/ReferenceScan.h - The pair scan, stated plainly ---*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// referenceScan, the report every pair scan is pinned against: every
/// (use, free) pair of an AccessDb on one pointer cell, use-major (uses
/// in promotion order, frees in record order), through the detector's
/// filters (detect/DetectShared.h), committed in that order -- one race
/// per static (use site, free site) pair, its first surviving instance
/// kept and later ones counted.  No indexes, threads, deadline or
/// resume: the scan's retention, online commit and record-order
/// enumeration must all land on this report, under either access
/// source.  The detector, windowed-scan and app suites and the fuzz
/// driver compare against it.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TESTS_REFERENCESCAN_H
#define CAFA_TESTS_REFERENCESCAN_H

#include "detect/DetectShared.h"

#include <map>

namespace cafa {

/// The reference report for \p Db against the relation of \p Hb.
inline RaceReport referenceScan(const Trace &T, const AccessDb &Db,
                                const HbIndex &Hb,
                                const DetectorOptions &Options) {
  using namespace detail;
  RaceReport Report = beginReport(Hb);
  AllocSpans Allocs;
  for (const PtrAccess &Alloc : Db.Allocs)
    Allocs.add(Alloc);
  const PairFilter Filter(T, Hb, Options, Allocs);
  std::map<StaticKey, size_t> RaceOf;
  for (const PtrAccess &Use : Db.Uses)
    for (const PtrAccess &Free : Db.Frees) {
      if (Free.Var != Use.Var)
        continue;
      bool SameLooper = false;
      if (!Filter.survives(Use, Free, /*Shed=*/false, Report.Filters,
                           SameLooper,
                           [&] { return isUseIfGuarded(T, Db, Use); }))
        continue;
      auto [It, New] =
          RaceOf.try_emplace(staticKey(Use, Free), Report.Races.size());
      if (!New) {
        ++Report.Races[It->second].DynamicCount;
        continue;
      }
      UseFreeRace &Race = Report.Races.emplace_back();
      Race.Use = Use;
      Race.Free = Free;
      Race.Category = SameLooper ? RaceCategory::IntraThread
                                 : RaceCategory::InterThread;
    }
  classifyRaces(Hb, Report);
  return Report;
}

/// The reference report for \p T: its accesses extracted and its
/// relation built under \p Options.Hb.
inline RaceReport referenceScan(const Trace &T,
                                const DetectorOptions &Options) {
  TaskIndex Index(T);
  HbIndex Hb(T, Index, Options.Hb);
  return referenceScan(T, extractAccesses(T, Index), Hb, Options);
}

} // namespace cafa

#endif // CAFA_TESTS_REFERENCESCAN_H
