//===- confirm/Confirm.h - Race confirmation by controlled replay -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine triage for predicted use-free races (the paper's Section 7
/// "we manually verified" step, automated): given a race the detector
/// predicted over a scenario-backed trace, synthesize a reordered
/// schedule that dispatches the freeing task before the using task,
/// re-execute the deterministic simulator under that schedule
/// (rt/Runtime.h's ScheduleOverride hook), and label the race by what
/// the replay actually did:
///
///  - *confirmed*: the replay crashed -- threw a null-pointer exception
///    at exactly the dereference site the detector predicted.  The race
///    is real and harmful; no human needs to look at it.
///  - *infeasible*: every free-before-use schedule violates the
///    happens-before relation (the pair is ordered, or same-task), so no
///    legal reordering can produce the crash.  The report row was noise
///    -- typically a provisional race from a deadline-cut relation.
///    The relation is the analysis's own, carried by the report
///    (RaceReport::Relation) and resumed, not derived again: a saturated
///    one is used as is, a deadline-cut one is resumed to saturation, and
///    a report without one gets the relation rebuilt from round zero.
///  - *unconfirmed*: the schedule budget ran out without a crash.  The
///    race stays a prediction; a human (or a bigger budget) decides.
///
/// Verdicts are *evidence-ordered*, not exploration-ordered: confirmed
/// beats infeasible beats unconfirmed (cafa/RaceRecord.h's
/// mergeConfirmVerdicts), and a confirmed verdict is trustworthy by
/// construction -- it is backed by an actual crash at the predicted
/// site, so a mis-resolved schedule pick can waste budget but can never
/// mislabel a false race as confirmed.
///
/// Exploration is bounded partial-order reduction in miniature (after
/// Maiya et al.'s EventRacer-to-replay loop): the primary schedule holds
/// the using task until the freeing task completes; refinement schedules
/// additionally hold interfering allocator tasks (writers that could
/// re-fill the freed cell and mask the crash) until the use has run.
/// Schedules are tried in a deterministic order and the per-race work
/// fans out across a WorkerPool; per-race result slots are merged in
/// race order, so the summary is byte-identical at every thread count.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_CONFIRM_CONFIRM_H
#define CAFA_CONFIRM_CONFIRM_H

#include "cafa/RaceRecord.h"
#include "rt/Runtime.h"

#include <string>
#include <vector>

namespace cafa {

/// Knobs for one confirmation pass.
struct ConfirmOptions {
  /// Schedules tried per race before giving up (the exploration
  /// budget), counting the primary flip.  0 = auto: the CAFA_CONFIRM
  /// environment variable if set, else 4 (request > env > default,
  /// like every other knob; see resolveConfirmBound).
  unsigned MaxSchedules = 0;
  /// Worker threads for the happens-before build and the per-race
  /// replay fan-out.  0 = auto (CAFA_ANALYSIS_THREADS, then hardware
  /// concurrency).  Any count produces byte-identical verdicts.
  unsigned Threads = 0;
  /// Base options for the replay runs.  Tracing and stream mirroring
  /// are forced off (replays only need the crash sites); the schedule
  /// override is owned by the explorer.
  RuntimeOptions Rt;
};

/// What confirmation concluded about one race.
struct RaceConfirmation {
  ConfirmVerdict Verdict = ConfirmVerdict::Unconfirmed;
  /// Replays actually executed for this race (0 for infeasible races,
  /// which are decided without running anything).
  unsigned SchedulesTried = 0;
  /// Deterministic human-readable evidence: the crash site and the
  /// schedule that reproduced it, why the pair is infeasible, or why
  /// exploration gave up.
  std::string Detail;
};

/// The whole pass: one entry per race, parallel to RaceReport::Races.
struct ConfirmSummary {
  std::vector<RaceConfirmation> PerRace;
  unsigned Confirmed = 0;
  unsigned Infeasible = 0;
  unsigned Unconfirmed = 0;
  /// Total replay executions across all races.
  uint64_t SchedulesRun = 0;
  /// Fixpoint rounds confirmation ran itself to saturate the relation:
  /// 0 when the report carried a saturated relation, the rounds still
  /// missing when it carried a deadline-cut one, and the whole fixpoint
  /// when it carried none or one that does not fit the trace.  The same
  /// at every thread count; verdicts never depend on it.
  uint32_t FixpointRounds = 0;
};

/// Resolves the schedule budget: \p Requested unless 0, else the
/// CAFA_CONFIRM environment variable (positive integers), else 4.
/// Capped at 1024.
unsigned resolveConfirmBound(unsigned Requested);

/// Confirms every race in \p Report by bounded schedule exploration
/// over \p S.  \p T must be the trace \p Report was detected on, and
/// \p S the scenario that produced \p T -- picks naming the racing
/// tasks are computed from \p T's task table and resolved against the
/// replay's creation order, which is why the scenario must match.
///
/// The report is treated as untrusted claims: same-task and
/// happens-before-ordered pairs come back infeasible even though the
/// detector normally filters them -- that is exactly the triage needed
/// for provisional races out of deadline-cut partial reports.  Order is
/// judged against the saturated relation: the report's own when it
/// carries a saturated one, its cut frontier resumed to saturation for
/// an "hb-deadline" report, and a relation rebuilt from round zero when
/// the report carries none or one that does not fit \p T (HbIndex
/// ignores it).  Every path yields the same relation, so verdicts are
/// identical; ConfirmSummary::FixpointRounds tells them apart.
ConfirmSummary confirmRaces(const Scenario &S, const Trace &T,
                            const RaceReport &Report,
                            const ConfirmOptions &Options = ConfirmOptions());

/// Stamps \p Summary's verdicts onto \p Doc, which must have been built
/// from the same report (buildRaceDocument keeps race order).
void applyConfirmVerdicts(const ConfirmSummary &Summary, RaceDocument &Doc);

} // namespace cafa

#endif // CAFA_CONFIRM_CONFIRM_H
