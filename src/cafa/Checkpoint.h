//===- cafa/Checkpoint.h - Crash-safe analysis checkpoints -----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safe checkpoint/resume for the offline analysis pipeline.
///
/// A snapshot freezes analysis progress at a consistent boundary -- a
/// happens-before fixpoint round or a detector pair-scan position --
/// into one versioned, checksummed file written atomically (temp file +
/// rename; see support/Snapshot.h).  analyzeTrace() takes snapshots at a
/// configurable cadence and always when a deadline cuts a phase, so an
/// interrupted or killed run can be resumed with
/// CheckpointOptions::Resume and continue to a report *bit-identical* to
/// an uninterrupted run.
///
/// A snapshot is only trusted after validation: file checksum, trace
/// content fingerprint + record count, and a digest of the semantic
/// analysis options.  Any mismatch -- corruption, a different trace, a
/// different rule configuration -- degrades to a clean restart with a
/// diagnostic, never a wrong answer.  See docs/robustness.md.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_CAFA_CHECKPOINT_H
#define CAFA_CAFA_CHECKPOINT_H

#include "detect/UseFreeDetector.h"
#include "support/Status.h"
#include "trace/Trace.h"

#include <functional>
#include <string>
#include <vector>

namespace cafa {

/// Checkpointing knobs for analyzeTrace().
struct CheckpointOptions {
  /// Directory holding the snapshot file; empty disables checkpointing.
  std::string Directory;
  /// Cadence in wall milliseconds between periodic snapshots.  0 means
  /// "only at deadline cuts" -- a cut phase always leaves a snapshot
  /// behind regardless of cadence.
  double EveryMillis = 0;
  /// Try to resume from an existing snapshot in Directory.  A missing,
  /// corrupt, or mismatched snapshot falls back to a clean start (the
  /// outcome says which).
  bool Resume = false;
  /// Called each time a snapshot has landed on disk.  A crash-testing
  /// hook: offline_analyzer's --chaos-kill-after-save dies here, so its
  /// kill follows the first save deterministically instead of racing
  /// the run's completion (which retires the snapshot).
  std::function<void()> AfterSave;

  bool enabled() const { return !Directory.empty(); }
};

/// Which phase a snapshot froze.
enum class SnapshotPhase : uint8_t {
  /// The happens-before fixpoint was mid-flight; the snapshot carries
  /// only the HB frontier.
  HbFixpoint = 0,
  /// The HB relation was saturated and the detector scan was mid-flight
  /// (or finished with a partial report); the snapshot carries both
  /// frontiers.
  Detect = 1,
};

/// A race identity that survives across processes: the static (use
/// site, free site) pair, plus its rendered label for diagnostics.
/// Partial reports store these so a resumed run can tell which of its
/// races were already present ("confirmed") and which provisional races
/// disappeared once the analysis completed ("retracted").
struct PartialRaceKey {
  uint32_t UseMethod = 0;
  uint32_t UsePc = 0;
  uint32_t FreeMethod = 0;
  uint32_t FreePc = 0;
  std::string Label;
};

/// Everything one snapshot file holds.
struct AnalysisSnapshot {
  /// Content hash of the trace the analysis ran over (traceFingerprint).
  uint64_t TraceFingerprint = 0;
  /// Record count, validated separately for a cheap first-line check.
  uint64_t NumRecords = 0;
  /// Digest of the semantic analysis options (detectorOptionsDigest).
  uint64_t OptionsDigest = 0;
  SnapshotPhase Phase = SnapshotPhase::HbFixpoint;
  HbFrontier Hb;
  /// The pair scan's frontier.  It names accesses by ordinal and
  /// record, which both access sources share, so a scan cut over an
  /// AccessDb resumes over the trace stream and the other way round.
  bool HasDetect = false;
  DetectFrontier Detect;
  /// Races of the partial report this snapshot accompanied, for the
  /// confirmed/retracted diff on resume.  Only final partial-result
  /// snapshots carry these.
  bool HasPartialRaces = false;
  std::vector<PartialRaceKey> PartialRaces;
};

/// What the resume path did, for diagnostics and exit codes.  Pure
/// provenance: nothing here feeds back into the analysis, so a resumed
/// run's report stays bit-identical to an uninterrupted one.
struct ResumeOutcome {
  /// Resume was requested (CheckpointOptions::Resume with a directory).
  bool Attempted = false;
  /// No snapshot file existed (fresh start, not an error).
  bool NoSnapshot = false;
  /// A snapshot was validated and the analysis continued from it.
  bool Resumed = false;
  /// Why a present snapshot was rejected (corrupt file, trace mismatch,
  /// options mismatch).  Empty when nothing was rejected.
  std::string RejectReason;
  /// Phase resumed from: "hb-fixpoint" or "detect" ("detect" only when
  /// the pair scan accepted the snapshot's frontier; a refused one
  /// leaves the relation resumed and the scan restarted).
  std::string Phase;
  /// Fixpoint rounds restored from the snapshot.
  uint32_t HbRoundsDone = 0;
  /// First checkpoint write that failed mid-run, if any (the analysis
  /// continues; only resumability is lost).
  std::string SaveError;
  /// The snapshot carried a partial report's races, so the fields below
  /// are meaningful.
  bool HasBaseline = false;
  /// Races present in both the partial baseline and the final report.
  uint32_t ConfirmedRaces = 0;
  /// Races only in the final report (the cut scan had not reached them).
  uint32_t NewRaces = 0;
  /// Labels of provisional races that disappeared once the fixpoint
  /// saturated -- the "could still disappear" candidates that did.
  std::vector<std::string> RetractedRaces;
};

/// Content hash of \p T: record count, table sizes, and every record's
/// fields.  Two traces collide only if they are byte-equivalent at the
/// record level, which is exactly the "same analysis input" criterion.
uint64_t traceFingerprint(const Trace &T);

/// Digest of the options that change analysis *results*: the causality
/// model, rule toggles, round cap, filters, classification, and whether
/// a deref resolver was attached.  Deliberately excludes pure
/// time/memory knobs (Reach, MemLimitBytes, DeadlineMillis, and the
/// windowed-scan cadence WindowEvents) -- those change how fast and in
/// how much memory the same answer arrives, and a snapshot taken under
/// one budget must remain resumable under another.
uint64_t detectorOptionsDigest(const DetectorOptions &Options,
                               bool HasResolver);

/// The snapshot file analyzeTrace() uses inside \p Directory.
std::string checkpointPath(const std::string &Directory);

/// Serializes \p Snap into \p Path atomically (temp file + fsync +
/// rename).  A crash mid-save leaves either the previous snapshot or
/// none -- never a torn file.
Status saveAnalysisSnapshot(const AnalysisSnapshot &Snap,
                            const std::string &Path);

/// Loads and validates the file framing (magic, version, checksum) and
/// payload structure of \p Path into \p Snap.  Trace/options validation
/// is the caller's job -- this function only guarantees the snapshot is
/// well-formed.
Status loadAnalysisSnapshot(AnalysisSnapshot &Snap, const std::string &Path);

} // namespace cafa

#endif // CAFA_CAFA_CHECKPOINT_H
