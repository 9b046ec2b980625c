//===- cafa/RaceStore.cpp - Persistent cross-trace race store -----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Journal layout:
//
//   +--------+---------+---------------------+
//   | magic  | version | schema fingerprint  |   20-byte header
//   | 8 B    | u32 LE  | u64 LE              |
//   +--------+---------+---------------------+
//   | u32 len | u64 fnv1a(payload) | payload |   record, repeated
//   +---------+--------------------+---------+
//
// Records are encoded with support/Snapshot's SnapshotWriter (fixed
// little-endian primitives, length-prefixed strings) and decoded with
// SnapshotReader::setPayload after the frame checksum passes.  The
// replay stops -- and truncates -- at the first frame whose length
// overruns the file or whose checksum fails: an append tears only at
// the tail, so everything before the first bad frame is intact by
// construction, and everything after it is unreachable anyway (frame
// boundaries cannot be re-synchronized past a corrupt length).
//
//===----------------------------------------------------------------------===//

#include "cafa/RaceStore.h"

#include "support/DurableFile.h"
#include "support/Snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace cafa;

namespace {

constexpr char JournalMagic[8] = {'C', 'A', 'F', 'A', 'R', 'S', 'T', '1'};
constexpr uint32_t JournalVersion = 1;
constexpr size_t HeaderBytes = 8 + 4 + 8;
constexpr size_t FrameBytes = 4 + 8; // u32 length + u64 checksum
/// Upper bound on one record; a corrupt length field past this is
/// rejected without trusting it.
constexpr uint32_t MaxRecordBytes = 64u << 20;

std::string encodeHeader() {
  std::string Out;
  Out.append(JournalMagic, sizeof(JournalMagic));
  appendLe(Out, JournalVersion, 4);
  appendLe(Out, RaceStore::schemaFingerprint(), 8);
  return Out;
}

/// Record payload: the stored row plus its optional report.
std::string encodeRecord(const StoredJob &Job) {
  SnapshotWriter W;
  W.str(Job.Row.Id);
  W.str(Job.Row.TracePath);
  W.str(Job.Row.State);
  W.u32(Job.Row.Attempts);
  // Exit codes can be -1 (signal deaths); two's-complement through u64.
  W.u64(static_cast<uint64_t>(static_cast<int64_t>(Job.Row.ExitCode)));
  W.u8(Job.Row.Resumed ? 1 : 0);
  W.u8(Job.Row.Partial ? 1 : 0);
  W.u8(Job.HasReport ? 1 : 0);
  if (Job.HasReport) {
    W.u8(Job.Report.Partial ? 1 : 0);
    W.str(Job.Report.PartialCause);
    W.u32(static_cast<uint32_t>(Job.Report.Races.size()));
    for (const RaceRecord &Race : Job.Report.Races) {
      W.str(Race.UseMethod);
      W.u32(Race.UsePc);
      W.str(Race.UseTask);
      W.u32(Race.UseRecord);
      W.str(Race.FreeMethod);
      W.u32(Race.FreePc);
      W.str(Race.FreeTask);
      W.u32(Race.FreeRecord);
      W.str(Race.Category);
      W.u32(Race.DynamicCount);
      W.u8(static_cast<uint8_t>(Race.Verdict));
    }
  }

  std::string Out;
  const std::string &Payload = W.buffer();
  appendLe(Out, Payload.size(), 4);
  appendLe(Out, fnv1a64(Payload.data(), Payload.size()), 8);
  Out.append(Payload);
  return Out;
}

bool decodeRecord(std::string Payload, StoredJob &Out) {
  SnapshotReader R;
  R.setPayload(std::move(Payload));
  StoredJob Job;
  uint64_t Exit;
  uint8_t Resumed, Partial, HasReport;
  if (!R.str(Job.Row.Id) || !R.str(Job.Row.TracePath) ||
      !R.str(Job.Row.State) || !R.u32(Job.Row.Attempts) || !R.u64(Exit) ||
      !R.u8(Resumed) || !R.u8(Partial) || !R.u8(HasReport))
    return false;
  Job.Row.ExitCode =
      static_cast<int>(static_cast<int64_t>(Exit));
  Job.Row.Resumed = Resumed != 0;
  Job.Row.Partial = Partial != 0;
  Job.HasReport = HasReport != 0;
  if (Job.HasReport) {
    uint8_t ReportPartial;
    uint32_t NumRaces;
    if (!R.u8(ReportPartial) || !R.str(Job.Report.PartialCause) ||
        !R.u32(NumRaces))
      return false;
    Job.Report.Partial = ReportPartial != 0;
    Job.Report.Races.reserve(NumRaces);
    for (uint32_t I = 0; I != NumRaces; ++I) {
      RaceRecord Race;
      uint8_t Verdict;
      if (!R.str(Race.UseMethod) || !R.u32(Race.UsePc) ||
          !R.str(Race.UseTask) || !R.u32(Race.UseRecord) ||
          !R.str(Race.FreeMethod) || !R.u32(Race.FreePc) ||
          !R.str(Race.FreeTask) || !R.u32(Race.FreeRecord) ||
          !R.str(Race.Category) || !R.u32(Race.DynamicCount) ||
          !R.u8(Verdict))
        return false;
      if (Verdict > static_cast<uint8_t>(ConfirmVerdict::Unconfirmed))
        return false; // checksum ok but not a verdict: treat as corrupt
      Race.Verdict = static_cast<ConfirmVerdict>(Verdict);
      Job.Report.Races.push_back(std::move(Race));
    }
    Job.Row.Races = Job.Report.Races.size();
  }
  if (!R.atEnd())
    return false;
  Out = std::move(Job);
  return true;
}

std::string readFileOrFail(const std::string &Path, bool &Exists,
                           bool &ReadOk) {
  Exists = false;
  ReadOk = true;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return "";
  Exists = true;
  std::string Data;
  char Chunk[1 << 16];
  for (size_t N; (N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0;)
    Data.append(Chunk, N);
  ReadOk = std::ferror(F) == 0;
  std::fclose(F);
  return Data;
}

} // namespace

uint64_t RaceStore::schemaFingerprint() {
  // Hash of the record schema description; any field change here (or in
  // encodeRecord) must change this string, bumping the fingerprint so
  // old journals are refused instead of mis-decoded.
  static const char Schema[] =
      "racestore.v2:id,trace,state,attempts:u32,exit:i64,resumed:u8,"
      "partial:u8,report?{partial:u8,cause,races[use,usePc:u32,useTask,"
      "useRec:u32,free,freePc:u32,freeTask,freeRec:u32,category,"
      "dynamic:u32,confirm:u8]}";
  return fnv1a64(Schema, sizeof(Schema) - 1);
}

Status RaceStore::open(const std::string &Path) {
  Open = false;
  JournalPath = Path;
  Jobs.clear();
  Index.clear();
  JournalBytes = 0;
  RecoveredTail = false;
  RecoveredBytes = 0;
  DuplicatesDropped = 0;

  bool Exists, ReadOk;
  std::string Data = readFileOrFail(Path, Exists, ReadOk);
  if (Exists && !ReadOk)
    return Status::error("cannot read race store '" + Path + "'");

  if (!Exists || Data.empty()) {
    // Fresh store: publish the header durably before acknowledging.
    std::string Header = encodeHeader();
    if (Status S = durableAppend(Path, Header); !S.ok())
      return S;
    JournalBytes = Header.size();
    Open = true;
    return Status::success();
  }

  if (Data.size() < HeaderBytes) {
    // The initial header append itself tore (crash during store
    // creation).  Nothing valid exists yet; start over.
    std::string Header = encodeHeader();
    if (Status S = durableWrite(Path, Header); !S.ok())
      return S;
    RecoveredTail = true;
    RecoveredBytes = Data.size();
    JournalBytes = Header.size();
    Open = true;
    return Status::success();
  }

  // The guard rails: never decode records from a file this build does
  // not understand, and never "fix" such a file either.
  if (std::memcmp(Data.data(), JournalMagic, sizeof(JournalMagic)) != 0)
    return Status::error("'" + Path + "' is not a race store journal");
  uint32_t Version = static_cast<uint32_t>(readLe(Data.data() + 8, 4));
  if (Version != JournalVersion)
    return Status::error("race store '" + Path + "' has version " +
                         std::to_string(Version) + " (this build reads " +
                         std::to_string(JournalVersion) + ")");
  uint64_t Fingerprint = readLe(Data.data() + 12, 8);
  if (Fingerprint != schemaFingerprint())
    return Status::error(
        "race store '" + Path +
        "' was written by an incompatible schema (fingerprint mismatch); "
        "refusing to touch it");

  if (Status S = replay(Data); !S.ok())
    return S;
  Open = true;
  return Status::success();
}

Status RaceStore::replay(const std::string &Data) {
  size_t Pos = HeaderBytes;
  while (Pos < Data.size()) {
    size_t Remaining = Data.size() - Pos;
    if (Remaining < FrameBytes)
      break; // torn frame header
    uint32_t Len = static_cast<uint32_t>(readLe(Data.data() + Pos, 4));
    uint64_t Checksum = readLe(Data.data() + Pos + 4, 8);
    if (Len > MaxRecordBytes || Len > Remaining - FrameBytes)
      break; // torn or corrupt length
    const char *Payload = Data.data() + Pos + FrameBytes;
    if (fnv1a64(Payload, Len) != Checksum)
      break; // bit flip or torn payload
    StoredJob Job;
    if (!decodeRecord(std::string(Payload, Len), Job))
      break; // checksum ok but undecodable: treat as corrupt
    if (Index.count(Job.Row.Id)) {
      ++DuplicatesDropped;
    } else {
      Index[Job.Row.Id] = Jobs.size();
      Jobs.push_back(std::move(Job));
    }
    Pos += FrameBytes + Len;
  }

  JournalBytes = Pos;
  if (Pos < Data.size()) {
    // Recover to the last valid prefix: drop the torn/corrupt tail so
    // future appends extend a clean journal.  Frame boundaries cannot
    // be trusted past a bad frame, so everything after it goes too.
    RecoveredTail = true;
    RecoveredBytes = Data.size() - Pos;
#if defined(__unix__) || defined(__APPLE__)
    if (::truncate(JournalPath.c_str(), static_cast<off_t>(Pos)) != 0)
      return Status::error("cannot truncate torn tail of '" +
                           JournalPath + "'");
#else
    // No truncate on this platform: rewrite the valid prefix atomically.
    if (Status S = durableWrite(JournalPath, Data.substr(0, Pos)); !S.ok())
      return S;
#endif
  }
  return Status::success();
}

Status RaceStore::appendJob(const FleetJobStatus &Row,
                            const RaceDocument *Report) {
  if (!Open)
    return Status::error("race store is not open");
  if (Row.Id.empty())
    return Status::error("race store job with empty id");
  if (Row.State == "interrupted")
    return Status::error("race store refuses non-final state "
                         "'interrupted' for job '" +
                         Row.Id + "'");
  if (Index.count(Row.Id))
    return Status::error("race store already holds job '" + Row.Id + "'");

  StoredJob Job;
  Job.Row = Row;
  Job.HasReport = Report != nullptr;
  if (Report) {
    Job.Report = *Report;
    Job.Row.Races = Report->Races.size();
  } else {
    Job.Row.Races = 0;
  }

  std::string Record = encodeRecord(Job);
  if (Status S = durableAppend(JournalPath, Record); !S.ok())
    return S;
  JournalBytes += Record.size();
  Index[Job.Row.Id] = Jobs.size();
  Jobs.push_back(std::move(Job));
  return Status::success();
}

bool RaceStore::hasJob(const std::string &Id) const {
  return Index.count(Id) != 0;
}

Status RaceStore::compact() {
  if (!Open)
    return Status::error("race store is not open");
  std::string Canonical = encodeHeader();
  for (const StoredJob &Job : Jobs)
    Canonical.append(encodeRecord(Job));
  if (Status S = durableWrite(JournalPath, Canonical); !S.ok())
    return S;
  JournalBytes = Canonical.size();
  // The rewrite disposed of whatever the recovery truncated around.
  RecoveredTail = false;
  RecoveredBytes = 0;
  DuplicatesDropped = 0;
  return Status::success();
}

RaceStore::Stats RaceStore::stats() const {
  Stats S;
  S.Jobs = Jobs.size();
  S.JournalBytes = JournalBytes;
  S.RecoveredTail = RecoveredTail;
  S.RecoveredBytes = RecoveredBytes;
  S.DuplicatesDropped = DuplicatesDropped;
  FleetAggregator Aggregator;
  for (const StoredJob &Job : Jobs) {
    if (Job.Row.State.rfind("failed:", 0) == 0)
      ++S.Failed;
    else if (Job.Row.Partial)
      ++S.Partial;
    else
      ++S.Done;
    S.ResumedCompletions += Job.Row.Resumed ? 1 : 0;
    Aggregator.addJob(Job.Row, Job.HasReport ? &Job.Report : nullptr);
  }
  S.DistinctRaces = Aggregator.numDistinctRaces();
  return S;
}

namespace {

/// Render-time normalization: a "done" job's analysis result is fully
/// determined by its trace, so the operational history of *getting* it
/// (resumed-from-checkpoint exit 4, retry counts) is erased here --
/// that is what makes an interrupted-and-resumed batch render
/// byte-identical to an uninterrupted one.  Partial and failed rows
/// keep their raw fields: there the operational history *is* the
/// result.  Raw values remain in the journal and in stats().
FleetJobStatus normalizedRow(const StoredJob &Job) {
  FleetJobStatus Row = Job.Row;
  if (Row.State == "done") {
    Row.ExitCode = Job.HasReport && !Job.Report.Races.empty() ? 1 : 0;
    Row.Resumed = false;
    Row.Attempts = 1;
  }
  return Row;
}

FleetAggregator buildAggregator(const std::vector<StoredJob> &Jobs) {
  // Id order, not insertion order: batches may arrive in any
  // interleaving across restarts, and the aggregate must not care.
  std::vector<const StoredJob *> Sorted;
  Sorted.reserve(Jobs.size());
  for (const StoredJob &Job : Jobs)
    Sorted.push_back(&Job);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const StoredJob *A, const StoredJob *B) {
              return A->Row.Id < B->Row.Id;
            });
  FleetAggregator Aggregator;
  for (const StoredJob *Job : Sorted)
    Aggregator.addJob(normalizedRow(*Job),
                      Job->HasReport ? &Job->Report : nullptr);
  return Aggregator;
}

} // namespace

std::string RaceStore::renderJson() const {
  return buildAggregator(Jobs).renderJson();
}

std::string RaceStore::renderText() const {
  return buildAggregator(Jobs).renderText();
}
