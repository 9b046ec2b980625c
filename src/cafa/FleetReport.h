//===- cafa/FleetReport.h - Cross-trace race aggregation -------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet supervisor's cross-trace report: per-job RaceDocument
/// values (worker JSON parsed once, by ReportJson's parseRaceReportJson)
/// are merged by *static race identity* -- the (use method, use pc,
/// free method, free pc) tuple that already deduplicates dynamic
/// instances within one trace -- so the same race reported from a
/// million users' traces collapses into one aggregate entry with an
/// occurrence count, the best confirmation verdict seen, and exemplar
/// trace paths, instead of being re-triaged once per trace.
///
/// The aggregate is deterministic by construction: jobs appear in
/// manifest order, merged races in lexicographic static-key order, and
/// no wall-clock data enters the JSON rendering.  Running the same batch
/// twice (at any worker count, with any interleaving of job completions)
/// yields byte-identical aggregate JSON.  See docs/fleet.md.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_CAFA_FLEETREPORT_H
#define CAFA_CAFA_FLEETREPORT_H

#include "cafa/RaceRecord.h"
#include "support/Status.h"
#include "support/StringInterner.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cafa {

/// Per-job metadata carried into the aggregate.
struct FleetJobStatus {
  std::string Id;
  std::string TracePath;
  /// Terminal supervisor state: "done", "done:partial",
  /// "failed:<cause>" (docs/fleet.md lists the causes), or
  /// "interrupted" (the batch was stopped before this job finished;
  /// its checkpoint remains resumable).
  std::string State;
  unsigned Attempts = 0;
  int ExitCode = -1;
  /// Some attempt completed from a predecessor's checkpoint (exit 4).
  bool Resumed = false;
  /// The accepted report was partial (exit 3).
  bool Partial = false;
  /// Races the job's report contributed to the merge.
  size_t Races = 0;
};

/// Merges per-job reports into one fleet report.
class FleetAggregator {
public:
  /// Exemplar trace paths kept per aggregated race.
  static constexpr unsigned MaxExemplars = 3;

  /// Records \p Job and merges \p Report's races (null for jobs that
  /// produced no report, i.e. terminal failures).  Call in manifest
  /// order -- job rows and exemplar lists preserve insertion order.
  void addJob(const FleetJobStatus &Job, const RaceDocument *Report);

  /// Distinct static races across all merged reports.
  size_t numDistinctRaces() const { return Merged.size(); }

  /// Jobs whose report was flagged partial; their races may
  /// under-approximate, so the aggregate marks them.
  size_t numPartialJobs() const;

  /// Renders the aggregate as JSON (schema in docs/fleet.md).
  std::string renderJson() const;

  /// Renders a human-readable summary.
  std::string renderText() const;

private:
  struct MergedRace {
    StrId UseMethod;
    uint32_t UsePc = 0;
    StrId FreeMethod;
    uint32_t FreePc = 0;
    std::string Category;
    uint32_t Jobs = 0;            ///< jobs whose report contains this race
    uint64_t DynamicCount = 0;    ///< summed across jobs
    bool FromPartial = false;     ///< seen only in partial reports so far
    /// Best confirmation evidence across jobs (mergeConfirmVerdicts);
    /// None until some job ran confirmation.
    ConfirmVerdict Verdict = ConfirmVerdict::None;
    std::vector<std::string> Exemplars; ///< first MaxExemplars trace paths
  };

  /// Sorted copy of the merged table (lexicographic static key).
  std::vector<const MergedRace *> sortedRaces() const;

  StringInterner Methods;
  /// Keyed by interned (use method, use pc, free method, free pc).
  std::map<std::array<uint32_t, 4>, MergedRace> Merged;
  std::vector<FleetJobStatus> JobRows;
};

} // namespace cafa

#endif // CAFA_CAFA_FLEETREPORT_H
