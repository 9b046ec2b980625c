//===- cafa/Cafa.h - Public facade of the CAFA library ---------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-stop public API.  A downstream user typically does:
///
/// \code
///   Scenario S = buildMyApp();                  // or apps::buildMyTracks()
///   Trace T = runScenario(S, RuntimeOptions()); // instrumented execution
///   AnalysisResult R = analyzeTrace(T, DetectorOptions());
///   std::cout << renderRaceReport(R.Report, T);
/// \endcode
///
/// Everything the facade exposes is also reachable through the individual
/// libraries (rt, hb, detect) for finer control.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_CAFA_CAFA_H
#define CAFA_CAFA_CAFA_H

#include "cafa/Checkpoint.h"
#include "cafa/ReportJson.h"
#include "detect/Baselines.h"
#include "detect/DerefDataflow.h"
#include "detect/GroundTruth.h"
#include "detect/UseFreeDetector.h"
#include "rt/Runtime.h"
#include "trace/TraceStats.h"

namespace cafa {

/// Timings and statistics from one offline analysis.
struct AnalysisResult {
  RaceReport Report;
  HbRuleStats HbStats;
  TraceStats TraceStatistics;
  /// Phase wall times in milliseconds.
  double ExtractMillis = 0;
  double HbBuildMillis = 0;
  double DetectMillis = 0;
  /// Approximate happens-before memory (graph + reachability oracle).
  size_t HbMemoryBytes = 0;
  /// What the graceful-degradation ladder did to the primary
  /// happens-before build (oracle downgrade under Hb.MemLimitBytes,
  /// blown fixpoint deadline).  Report.Partial mirrors the deadline bit.
  HbDegradation Degradation;
  /// What the checkpoint/resume machinery did (see CheckpointOptions).
  /// Provenance only -- never feeds back into Report, so resumed runs
  /// stay bit-identical to uninterrupted ones.
  ResumeOutcome Resume;
  /// Retirement cadence of the scan over the trace stream, or 0 when it
  /// read an extracted AccessDb.  ExtractMillis is 0 on the stream --
  /// its extraction passes run inside DetectMillis and never
  /// materialize an AccessDb.
  uint64_t WindowEventsUsed = 0;
  /// The window was engaged by the memory-pressure ladder (the primary
  /// oracle had to be downgraded to fit Hb.MemLimitBytes) rather than
  /// by an explicit request or CAFA_WINDOW.
  bool WindowShedByMemory = false;
  /// Observability counters of the scan over the trace stream (zeroed
  /// when it read an AccessDb).
  WindowedDetectStats WindowedDetect;
};

/// Everything one offline analysis run can be configured with, in one
/// aggregate so analyzeTrace() needs exactly one overload:
///  - Detector: detection + happens-before tuning (detect/).
///  - Checkpoint: crash-safe snapshot/resume of the analysis phases
///    (cafa/Checkpoint.h); default-disabled.
///  - Resolver: Section 6.3 static-dataflow deref matching (removes
///    Type III false positives; requires the application bytecode).
struct AnalysisOptions {
  DetectorOptions Detector;
  CheckpointOptions Checkpoint;
  const DerefResolver *Resolver = nullptr;

  AnalysisOptions() = default;
  /// Implicit on purpose: `analyzeTrace(T, DetectorOptions{...})` --
  /// the overwhelmingly common call shape -- binds to the unified
  /// overload without touching the call site.
  AnalysisOptions(const DetectorOptions &Det) : Detector(Det) {}
};

/// Runs the full offline pipeline on \p T.
///
/// Degradation: Options.Detector.DeadlineMillis is interpreted here as
/// the budget for the *whole* pipeline; the happens-before and
/// detection phases each receive whatever the preceding phases left
/// over, so one number bounds the end-to-end analysis.  On expiry the
/// returned Report is flagged Partial with a machine-readable cause.
///
/// Checkpointing: with Options.Checkpoint enabled, analysis progress is
/// snapshotted into Checkpoint.Directory at the configured cadence and
/// always when a deadline cuts a phase; with Checkpoint.Resume, a
/// validated snapshot restores the interrupted fixpoint or pair scan
/// mid-flight and the run continues to a report bit-identical to an
/// uninterrupted one.  A corrupt or mismatched snapshot degrades to a
/// clean restart (Result.Resume says why) -- never a wrong answer.  The
/// snapshot is deleted once the analysis completes cleanly.
AnalysisResult analyzeTrace(const Trace &T,
                            const AnalysisOptions &Options = AnalysisOptions());

/// Runs scenario + analysis end to end.  \p Truth, when non-null, is
/// joined into a Table 1 row stored in \p RowOut.
AnalysisResult analyzeScenario(const Scenario &S,
                               const RuntimeOptions &RtOptions,
                               const DetectorOptions &DetOptions,
                               const GroundTruth *Truth = nullptr,
                               Table1Row *RowOut = nullptr);

} // namespace cafa

#endif // CAFA_CAFA_CAFA_H
