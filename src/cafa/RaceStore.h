//===- cafa/RaceStore.h - Persistent cross-trace race store ----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis daemon's persistent memory: an append-only, checksummed
/// journal of terminal job outcomes (per-job FleetReport rows plus their
/// parsed race reports).  Where runFleet's aggregate lives and dies with
/// one batch, the store accumulates across batches, daemon restarts,
/// and kill -9 -- occurrence counts keep growing as new traces arrive.
///
/// Durability model (built on support/DurableFile):
///
///  - every appendJob() is one framed record -- u32 payload length +
///    FNV-1a checksum + payload -- appended and fsync'd before the call
///    returns, so an acknowledged append survives a crash;
///  - a crash can tear only the *suffix* being appended.  open()
///    replays the journal and truncates at the first record that fails
///    its length or checksum check, recovering the store to its last
///    valid prefix (never rejecting the whole file);
///  - the header carries a schema fingerprint; a journal written by an
///    incompatible schema fails open() *without modifying the file*, so
///    a version skew never silently destroys data;
///  - compact() rewrites the journal canonically (atomic tmp + fsync +
///    rename), dropping any recovered-away garbage; the same set of
///    records always compacts to byte-identical journal bytes.
///
/// Rendering: renderJson()/renderText() feed the stored rows -- sorted
/// by job id -- through FleetAggregator.  Rows in state "done" are
/// normalized first (exit 4 becomes the 0/1 the races imply, resumed
/// and attempt counters reset), so the aggregate depends only on the
/// set of analyzed traces, not on the operational history of how many
/// daemon restarts it took: an interrupted-and-resumed batch renders
/// byte-identical to an uninterrupted one.  The raw operational fields
/// stay in the journal and surface through stats() for the daemon's
/// status endpoint.  See docs/server.md.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_CAFA_RACESTORE_H
#define CAFA_CAFA_RACESTORE_H

#include "cafa/FleetReport.h"
#include "support/Status.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cafa {

/// One replayed/stored journal entry: the job row as the supervisor saw
/// it (raw operational fields) plus the parsed report when one exists.
struct StoredJob {
  FleetJobStatus Row;
  RaceDocument Report;
  bool HasReport = false;
};

class RaceStore {
public:
  /// Counters for the daemon's status endpoint.  Raw values: resumed /
  /// attempts come straight from the journal, before any render-time
  /// normalization.
  struct Stats {
    size_t Jobs = 0;              ///< stored terminal jobs
    size_t Done = 0;
    size_t Partial = 0;
    size_t Failed = 0;
    /// Jobs whose stored row has Resumed set -- completions that
    /// adopted a predecessor's checkpoint (exit 4).  This is the
    /// restart-accounting the chaos suite pins.
    size_t ResumedCompletions = 0;
    size_t DistinctRaces = 0;
    size_t JournalBytes = 0;      ///< current on-disk journal size
    /// open() found and truncated a torn/corrupt tail.
    bool RecoveredTail = false;
    size_t RecoveredBytes = 0;    ///< bytes dropped by the truncation
    /// Replayed records skipped because an earlier record already
    /// claimed their job id (should not happen in normal operation).
    size_t DuplicatesDropped = 0;
  };

  /// Fingerprint of the record schema this build reads and writes,
  /// stamped into every journal header.
  static uint64_t schemaFingerprint();

  /// Opens (creating if absent) the journal at \p Path and replays it.
  /// A torn or corrupt tail is truncated away -- the store recovers to
  /// its last valid prefix.  A header from an incompatible schema or
  /// format version fails without touching the file.
  Status open(const std::string &Path);

  bool isOpen() const { return Open; }
  const std::string &path() const { return JournalPath; }

  /// Appends one terminal job outcome (the same row/report pair
  /// FleetAggregator::addJob takes), fsync'd before returning.
  /// Rejects duplicate ids and the non-final "interrupted" state (an
  /// interrupted job is resumable work, not a result).
  Status appendJob(const FleetJobStatus &Row,
                   const RaceDocument *Report);

  bool hasJob(const std::string &Id) const;
  size_t numJobs() const { return Jobs.size(); }
  const std::vector<StoredJob> &jobs() const { return Jobs; }

  /// Rewrites the journal canonically in place (atomic replace),
  /// dropping truncated-away garbage.  Byte-deterministic: the same
  /// stored records always produce the same journal bytes.
  Status compact();

  /// Current counters (DistinctRaces is computed on the fly).
  Stats stats() const;

  /// The cross-batch aggregate (FleetAggregator schema), rows sorted by
  /// job id and normalized as described in the file comment.
  std::string renderJson() const;
  std::string renderText() const;

private:
  Status replay(const std::string &Data);

  bool Open = false;
  std::string JournalPath;
  std::vector<StoredJob> Jobs;
  std::map<std::string, size_t> Index; ///< job id -> Jobs index
  size_t JournalBytes = 0;
  bool RecoveredTail = false;
  size_t RecoveredBytes = 0;
  size_t DuplicatesDropped = 0;
};

} // namespace cafa

#endif // CAFA_CAFA_RACESTORE_H
