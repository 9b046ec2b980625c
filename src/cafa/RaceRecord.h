//===- cafa/RaceRecord.h - First-class race data model ---------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one race data model every CAFA layer shares.  A RaceRecord is a
/// self-contained description of one reported use-free race: names are
/// resolved strings (no Trace needed to interpret it), so the same value
/// travels from the detector's report through JSON rendering, the fleet
/// supervisor's re-parse of worker output, the RaceStore journal, and
/// the confirmation subsystem's verdicts -- instead of four parallel
/// representations re-deriving each other.
///
/// A RaceDocument is one trace's full report: the records plus the
/// filter counters and the partial-analysis markers.  ReportJson renders
/// and parses it (renderRaceReportJson / parseRaceReportJson);
/// buildRaceDocument() lifts the detector's trace-bound RaceReport into
/// one.  The rendering of a verdict-free document is byte-identical to
/// the pre-RaceDocument output (golden-pinned), so the refactor is
/// invisible to stored corpora and downstream tooling.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_CAFA_RACERECORD_H
#define CAFA_CAFA_RACERECORD_H

#include "detect/RaceReport.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cafa {

/// Machine-triage verdict for one race, produced by the confirmation
/// subsystem (src/confirm/): replay the trace's scenario under a
/// synthesized schedule that puts the free before the use and see
/// whether the predicted crash manifests.
enum class ConfirmVerdict : uint8_t {
  /// Confirmation was not attempted (the default for every report).
  None = 0,
  /// A flipping schedule reproduced the crash at the predicted use
  /// site: the race is real.
  Confirmed = 1,
  /// Every flipping schedule violates happens-before: the pair cannot
  /// be reordered, the report is a false positive.
  Infeasible = 2,
  /// The exploration budget ran out without reproducing the crash;
  /// the race remains unproven either way.
  Unconfirmed = 3,
};

/// Returns "confirmed" / "infeasible" / "unconfirmed"; empty for None.
const char *confirmVerdictName(ConfirmVerdict V);

/// Inverse of confirmVerdictName.  Returns false (leaving \p Out
/// untouched) for unknown names; the empty string parses to None.
bool confirmVerdictFromName(const std::string &Name, ConfirmVerdict &Out);

/// Merge lattice for cross-trace aggregation: the verdict carrying the
/// best evidence wins.  A crash reproduced in any trace beats a
/// refutation in another (their schedules differ), which beats an
/// exhausted budget, which beats not having tried.
ConfirmVerdict mergeConfirmVerdicts(ConfirmVerdict A, ConfirmVerdict B);

/// One reported use-free race, fully resolved.  Method and task names
/// are strings so the value is meaningful without the originating Trace
/// (the fleet supervisor and the race store run in processes that never
/// see one); record ids locate the dynamic instance inside that trace.
struct RaceRecord {
  std::string UseMethod;
  uint32_t UsePc = 0;
  std::string UseTask;
  uint32_t UseRecord = 0;
  std::string FreeMethod;
  uint32_t FreePc = 0;
  std::string FreeTask;
  uint32_t FreeRecord = 0;
  std::string Category; ///< "a" / "b" / "c"
  uint32_t DynamicCount = 1;
  ConfirmVerdict Verdict = ConfirmVerdict::None;
};

/// One trace's full race report in the shared model.
struct RaceDocument {
  std::vector<RaceRecord> Races;
  FilterCounters Filters;
  bool Partial = false;
  std::string PartialCause;
  std::string PartialDetail;
  /// The happens-before relation was cut, so every race may still be
  /// ordered away by the saturated fixpoint (RaceReport's
  /// racesProvisional()).
  bool Provisional = false;
};

/// Lifts one race into the shared model, resolving names against \p T.
RaceRecord buildRaceRecord(const UseFreeRace &Race, const Trace &T);

/// Lifts the detector's trace-bound report into the shared model,
/// resolving names against \p T.  Verdicts start as None.
RaceDocument buildRaceDocument(const RaceReport &Report, const Trace &T);

} // namespace cafa

#endif // CAFA_CAFA_RACERECORD_H
