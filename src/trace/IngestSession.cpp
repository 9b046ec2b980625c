//===- trace/IngestSession.cpp - Unified trace ingestion API --------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Sharded salvage ingestion.  The session cuts the input byte stream into
// shards at line boundaries (the salvage parser's natural
// resynchronization points), lexes shards concurrently in a small worker
// pool, and merges the lexed fragments strictly in original byte order
// through one SalvageMachine.  Because every stateful decision happens in
// the merge pass, the Trace and IngestReport are bit-identical at every
// thread count; the workers only move the embarrassingly parallel
// tokenize/parse/intern work off the merge thread.
//
// Shard cuts depend only on the input bytes and IngestOptions::ShardBytes
// -- never on scheduling -- which makes the merge checkpoint meaningful:
// a snapshot taken after shard k describes a prefix of the input that any
// later run can verify by re-hashing, then skip.
//
// Ingest snapshot layout (magic "CAFAING1", via support/Snapshot framing):
//   u64 options digest   (semantic salvage options; thread count and
//                         shard size deliberately excluded -- they
//                         cannot change the output)
//   u64 prefix bytes     (input bytes fully merged at snapshot time)
//   u64 prefix FNV-1a    (hash of exactly those bytes)
//   u64 shards merged    (progress accounting for the resume outcome)
//   ...                  SalvageMachine::encodeState payload
//
//===----------------------------------------------------------------------===//

#include "trace/IngestSession.h"

#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/Snapshot.h"
#include "support/WorkerPool.h"
#include "trace/SalvageEngine.h"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>

using namespace cafa;

namespace {

constexpr const char IngestSnapshotMagic[] = "CAFAING1";
constexpr uint32_t IngestSnapshotVersion = 1;
constexpr uint64_t FnvSeed = 0xcbf29ce484222325ull;

} // namespace

std::string IngestReport::summary() const {
  std::string S = formatString(
      "ingest: %llu lines, %llu records kept, %llu lines dropped, "
      "%llu repaired, %llu synthesized",
      static_cast<unsigned long long>(LinesTotal),
      static_cast<unsigned long long>(RecordsKept),
      static_cast<unsigned long long>(LinesDropped),
      static_cast<unsigned long long>(RecordsRepaired),
      static_cast<unsigned long long>(RecordsSynthesized));
  if (TableEntriesSynthesized)
    S += formatString(", %llu placeholder table entries",
                      static_cast<unsigned long long>(TableEntriesSynthesized));
  if (UnsentEventBegins)
    S += formatString(", %llu unsent event begins",
                      static_cast<unsigned long long>(UnsentEventBegins));
  if (MissingHeader)
    S += ", header missing";
  if (TruncatedFinalLine)
    S += ", final line truncated";
  for (const IngestDiagnostic &D : Diagnostics) {
    if (D.LineNo)
      S += formatString("\n  line %zu: %s", D.LineNo, D.Message.c_str());
    else
      S += formatString("\n  end of input: %s", D.Message.c_str());
  }
  if (IncidentsTotal > Diagnostics.size())
    S += formatString(
        "\n  ... and %llu more incidents",
        static_cast<unsigned long long>(IncidentsTotal - Diagnostics.size()));
  S += '\n';
  return S;
}

std::string cafa::ingestCheckpointPath(const std::string &Directory) {
  return Directory + "/ingest.snapshot";
}

unsigned IngestSession::resolveThreads(unsigned Requested) {
  return resolveWorkerThreads(Requested, "CAFA_INGEST_THREADS");
}

//===----------------------------------------------------------------------===//
// Session implementation
//===----------------------------------------------------------------------===//

struct IngestSession::Impl {
  IngestOptions Opt;
  unsigned Threads;
  uint64_t ShardBytes;
  ingest::SalvageMachine Machine;
  IngestResumeOutcome Resume;

  bool Finished = false;
  bool UsedRawFeed = false;
  bool AnyInput = false;
  char LastByte = '\n';

  // Bytes fed but not yet cut into a shard.  The mmap path bypasses
  // this entirely for full shards and only copies the sub-shard tail.
  std::string Buffer;

  // Mappings backing zero-copy shard views; they must outlive every
  // in-flight lex job, so they are retired only with the session.
  std::vector<MappedFile> Mappings;

  // Sequential cut-time bookkeeping: hash/offset of everything already
  // cut into shards (== the merged prefix once those shards merge).  The
  // hash is only kept with a checkpoint directory, the one place it is
  // read (writeSnapshot).
  uint64_t DispatchHash = FnvSeed;
  uint64_t DispatchOffset = 0;
  uint64_t NextIndex = 0;

  // Merge bookkeeping (session thread only).
  uint64_t NextMerge = 0;
  uint64_t TotalShardsMerged = 0; ///< incl. shards skipped by resume
  uint64_t MergedThisRun = 0;
  uint64_t BytesSinceSnap = 0;
  bool WroteSnapshot = false;
  bool AbortRequested = false;

  /// One shard travelling through the pool.  Text is the bytes to lex:
  /// a borrowed view into a MappedFile for the zero-copy file path, or
  /// a view of Owned for the streamed feed() path.
  struct Job {
    uint64_t Index = 0;
    uint64_t Bytes = 0;
    uint64_t EndHash = 0;   ///< prefix hash through this shard, if kept
    uint64_t EndOffset = 0; ///< prefix bytes through this shard
    std::string_view Text;
    std::string Owned; ///< backing storage when the bytes are not mapped
    ingest::ShardFragment Frag;
    bool Done = false;
  };

  // Shared worker pool (lazy-started; helpers only exist when
  // Threads > 1 -- the 1-thread path lexes inline in dispatchShard).
  // Mu/DoneCv guard the per-job Done flags and the in-flight window;
  // the pool itself only moves lexShard calls onto helper threads.
  std::mutex Mu;
  std::condition_variable DoneCv;
  std::map<uint64_t, std::shared_ptr<Job>> InFlight;
  WorkerPool Pool;

  explicit Impl(const IngestOptions &Options)
      : Opt(Options), Threads(IngestSession::resolveThreads(Options.Threads)),
        ShardBytes(Options.ShardBytes ? Options.ShardBytes : 1),
        Machine(Options.Salvage), Pool(Threads > 1 ? Threads : 0) {}

  bool checkpointEnabled() const { return !Opt.CheckpointDirectory.empty(); }

  /// Digest of every option that can change the *output*.  Thread count
  /// and shard size are excluded: they only change scheduling, so a
  /// resume may legally use different values.
  uint64_t optionsDigest() const {
    uint64_t H = FnvSeed;
    H = fnv1a64Mix(H, Opt.Salvage.Strict ? 1 : 0);
    H = fnv1a64Mix(H, Opt.Salvage.MaxDiagnostics);
    H = fnv1a64Mix(H, Opt.Salvage.MaxDroppedLines);
    uint64_t RatioBits;
    std::memcpy(&RatioBits, &Opt.Salvage.MaxDroppedRatio, sizeof(RatioBits));
    H = fnv1a64Mix(H, RatioBits);
    H = fnv1a64Mix(H, Opt.Salvage.MaxSynthesizedEntries);
    H = fnv1a64Mix(H, Opt.Salvage.MaxEntityId);
    H = fnv1a64Mix(H, Opt.Salvage.RepairTruncation ? 1 : 0);
    return H;
  }

  // --- Merge ------------------------------------------------------------

  /// Applies one lexed shard to the machine, in index order.  Session
  /// thread only.
  void applyJob(const Job &J) {
    if (AbortRequested || Machine.failed())
      return;
    Machine.beginShard(J.Frag.Names);
    const bool FinalShard = J.Frag.EndsWithoutNewline;
    for (const ingest::LexedLine &L : J.Frag.Lines) {
      // A truncated final line is marked just before it is processed --
      // but only if the machine has not already hard-failed, so the flag
      // placement is failure-order sensitive.
      if (FinalShard && L.RelLine == J.Frag.LineCount && !Machine.failed())
        Machine.noteTruncatedFinalLine();
      Machine.admit(L);
      if (Machine.failed())
        break;
    }
    if (FinalShard && !Machine.failed())
      Machine.noteTruncatedFinalLine();
    Machine.endShard(J.Frag.LineCount);

    ++TotalShardsMerged;
    ++MergedThisRun;
    BytesSinceSnap += J.Bytes;
    if (!Machine.failed())
      maybeSnapshot(J);
    if (Opt.DebugAbortAfterShards &&
        MergedThisRun >= Opt.DebugAbortAfterShards)
      AbortRequested = true;
  }

  void maybeSnapshot(const Job &J) {
    if (!checkpointEnabled() || BytesSinceSnap < Opt.CheckpointEveryBytes)
      return;
    writeSnapshot(J.EndHash, J.EndOffset);
    BytesSinceSnap = 0;
  }

  void writeSnapshot(uint64_t PrefixHash, uint64_t PrefixBytes) {
    SnapshotWriter W;
    W.u64(optionsDigest());
    W.u64(PrefixBytes);
    W.u64(PrefixHash);
    W.u64(TotalShardsMerged);
    Machine.encodeState(W);
    Status S =
        W.writeFileAtomic(ingestCheckpointPath(Opt.CheckpointDirectory),
                          IngestSnapshotMagic, IngestSnapshotVersion);
    // Checkpointing is best-effort: a write failure must not fail the
    // ingest, it only costs resume coverage.
    if (S.ok())
      WroteSnapshot = true;
  }

  /// Merges every consecutive completed fragment starting at NextMerge.
  /// Called with \p L held; the machine work runs unlocked so workers
  /// are never stalled behind the merge.
  void drainReadyLocked(std::unique_lock<std::mutex> &L) {
    for (;;) {
      std::vector<std::shared_ptr<Job>> Ready;
      auto It = InFlight.find(NextMerge);
      while (It != InFlight.end() && It->second->Done) {
        Ready.push_back(It->second);
        InFlight.erase(It);
        ++NextMerge;
        It = InFlight.find(NextMerge);
      }
      if (Ready.empty())
        return;
      L.unlock();
      for (const std::shared_ptr<Job> &J : Ready)
        applyJob(*J);
      L.lock();
    }
  }

  // --- Sharding ---------------------------------------------------------

  /// Hashes (when checkpointing), lexes (inline or on the pool), and
  /// merges one shard whose Text view (and Owned backing, if any) is
  /// already set.
  void dispatchShard(std::shared_ptr<Job> J) {
    J->Index = NextIndex++;
    J->Bytes = J->Text.size();
    if (checkpointEnabled())
      DispatchHash = fnv1a64(J->Text.data(), J->Text.size(), DispatchHash);
    DispatchOffset += J->Text.size();
    J->EndHash = DispatchHash;
    J->EndOffset = DispatchOffset;

    if (Threads <= 1) {
      ingest::lexShard(J->Text, J->Frag);
      applyJob(*J);
      return;
    }

    {
      std::unique_lock<std::mutex> L(Mu);
      // Backpressure: keep at most ~2 fragments per worker in flight so
      // a fast reader cannot buffer the whole dump in lexed form.
      const size_t MaxInFlight = static_cast<size_t>(Threads) * 2 + 2;
      for (;;) {
        drainReadyLocked(L);
        if (InFlight.size() < MaxInFlight)
          break;
        DoneCv.wait(L);
      }
      InFlight.emplace(J->Index, J);
    }
    Pool.submit([this, J] {
      ingest::lexShard(J->Text, J->Frag);
      J->Text = {};
      std::string().swap(J->Owned); // free any copied bytes eagerly
      std::lock_guard<std::mutex> L(Mu);
      J->Done = true;
      DoneCv.notify_all();
    });
  }

  /// Streamed-path shard: the session owns the bytes.
  void dispatchOwnedShard(std::string Text) {
    auto J = std::make_shared<Job>();
    J->Owned = std::move(Text);
    J->Text = J->Owned;
    dispatchShard(std::move(J));
  }

  /// Zero-copy shard: \p Text borrows from a mapping in Mappings, which
  /// outlives the pool, so no copy is ever made.
  void dispatchMappedShard(std::string_view Text) {
    auto J = std::make_shared<Job>();
    J->Text = Text;
    dispatchShard(std::move(J));
  }

  /// Cuts every full shard off the front of \p Data and dispatches it.
  /// A shard ends at the first newline at or past ShardBytes, so cut
  /// points (and with them prefix hashes and merge order) are a function
  /// of the bytes alone, whichever path feeds them.  Shards of a mapping
  /// (\p Borrowed) are dispatched as views, which the mapping outlives;
  /// any other bytes are copied.  Returns the uncut sub-shard tail, or
  /// an empty view once the machine has hard-failed.
  std::string_view cutFullShards(std::string_view Data, bool Borrowed) {
    while (!Machine.failed() && !AbortRequested &&
           Data.size() >= ShardBytes) {
      size_t NL = Data.find('\n', static_cast<size_t>(ShardBytes - 1));
      if (NL == std::string_view::npos)
        return Data; // a longer-than-shard line: wait for its newline
      if (Borrowed)
        dispatchMappedShard(Data.substr(0, NL + 1));
      else
        dispatchOwnedShard(std::string(Data.substr(0, NL + 1)));
      Data.remove_prefix(NL + 1);
    }
    if (Machine.failed() || AbortRequested)
      return {}; // hard-failed: drop the remaining stream
    return Data;
  }

  /// Cuts the full shards out of Buffer; \p Final also flushes the
  /// unterminated tail as the last shard.  The consumed prefix is erased
  /// once, so one large feed() chunk is not shifted once per shard.
  void cutShards(bool Final) {
    std::string_view Tail = cutFullShards(Buffer, /*Borrowed=*/false);
    if (Final && !Tail.empty()) {
      dispatchOwnedShard(std::string(Tail));
      Tail = {};
    }
    Buffer.erase(0, Buffer.size() - Tail.size());
  }

  // --- Input ------------------------------------------------------------

  void feedImpl(std::string_view Chunk) {
    if (Finished || Chunk.empty())
      return;
    AnyInput = true;
    LastByte = Chunk.back();
    if (Machine.failed() || AbortRequested)
      return; // hard-failed: drop the remaining stream, keep LastByte
    Buffer.append(Chunk);
    cutShards(/*Final=*/false);
  }

  /// feedImpl twin for a mapped file: full shards are dispatched as
  /// borrowed views (no copy), only the sub-shard tail lands in Buffer.
  void feedMapped(std::string_view Data) {
    if (Finished || Data.empty())
      return;
    AnyInput = true;
    LastByte = Data.back();
    if (Machine.failed() || AbortRequested)
      return;
    if (!Buffer.empty()) {
      // Mixed with raw feed(): a shard straddles the copied tail and
      // the mapping, so fall back to the copying path for this file.
      Buffer.append(Data);
      cutShards(/*Final=*/false);
      return;
    }
    Buffer.assign(cutFullShards(Data, /*Borrowed=*/true));
  }

  void rejectResume(std::string Reason) {
    Resume.RejectReason = std::move(Reason);
  }

  static void rewindStream(std::ifstream &IS) {
    IS.clear();
    IS.seekg(0, std::ios::beg);
  }

  /// Loads the ingest snapshot and checks its header against this
  /// session's options.  Returns false with the outcome recorded when
  /// there is no usable snapshot.
  bool loadSnapshotHeader(SnapshotReader &R, uint64_t &PrefixBytes,
                          uint64_t &PrefixHash, uint64_t &Shards) {
    const std::string Path = ingestCheckpointPath(Opt.CheckpointDirectory);
    {
      std::ifstream Probe(Path, std::ios::binary);
      if (!Probe) {
        Resume.NoSnapshot = true;
        return false;
      }
    }
    Status S = R.loadFile(Path, IngestSnapshotMagic, IngestSnapshotVersion);
    if (!S.ok()) {
      rejectResume(S.message());
      return false;
    }
    uint64_t Digest;
    if (!R.u64(Digest) || !R.u64(PrefixBytes) || !R.u64(PrefixHash) ||
        !R.u64(Shards)) {
      rejectResume("ingest snapshot header malformed");
      return false;
    }
    if (Digest != optionsDigest()) {
      rejectResume("ingest options changed since the snapshot was taken");
      return false;
    }
    return true;
  }

  /// Installs the restored machine state.  Shared tail of the two
  /// resume paths once the prefix hash has been verified.
  bool acceptResume(SnapshotReader &R, uint64_t PrefixBytes,
                    uint64_t PrefixHash, uint64_t Shards, char PrefixLast) {
    ingest::SalvageMachine Restored(Opt.Salvage);
    if (!Restored.decodeState(R) || !R.atEnd()) {
      rejectResume("ingest snapshot payload corrupt");
      return false;
    }
    Machine = std::move(Restored);
    Resume.Resumed = true;
    Resume.BytesSkipped = PrefixBytes;
    Resume.ShardsSkipped = Shards;
    DispatchHash = PrefixHash;
    DispatchOffset = PrefixBytes;
    TotalShardsMerged = Shards;
    if (PrefixBytes > 0) {
      AnyInput = true;
      LastByte = PrefixLast;
    }
    return true;
  }

  /// Mapped-file resume: re-hashes the claimed prefix straight out of
  /// the mapping.  Returns the prefix length to skip (0 when not
  /// resuming).  Rejections fall back to a clean full restart; a
  /// resume can never produce a wrong merge, only save or not save
  /// work.
  uint64_t tryResumeMapped(std::string_view Data) {
    SnapshotReader R;
    uint64_t PrefixBytes, PrefixHash, Shards;
    if (!loadSnapshotHeader(R, PrefixBytes, PrefixHash, Shards))
      return 0;
    if (PrefixBytes > Data.size()) {
      rejectResume("ingest snapshot covers more input than the file holds");
      return 0;
    }
    if (fnv1a64(Data.data(), PrefixBytes, FnvSeed) != PrefixHash) {
      rejectResume("input prefix does not match the ingest snapshot");
      return 0;
    }
    char PrefixLast = PrefixBytes > 0 ? Data[PrefixBytes - 1] : '\n';
    if (!acceptResume(R, PrefixBytes, PrefixHash, Shards, PrefixLast))
      return 0;
    return PrefixBytes;
  }

  /// Buffered-stream resume, leaving \p IS positioned after the covered
  /// prefix on success and rewound to the start on rejection.
  void tryResume(std::ifstream &IS) {
    SnapshotReader R;
    uint64_t PrefixBytes, PrefixHash, Shards;
    if (!loadSnapshotHeader(R, PrefixBytes, PrefixHash, Shards))
      return;

    // Re-hash the file prefix the snapshot claims to cover.
    uint64_t H = FnvSeed;
    uint64_t Left = PrefixBytes;
    char PrefixLast = '\n';
    char Buf[1 << 16];
    while (Left > 0 && IS) {
      size_t Want = Left < sizeof(Buf) ? static_cast<size_t>(Left)
                                       : sizeof(Buf);
      IS.read(Buf, static_cast<std::streamsize>(Want));
      std::streamsize N = IS.gcount();
      if (N <= 0)
        break;
      H = fnv1a64(Buf, static_cast<size_t>(N), H);
      PrefixLast = Buf[N - 1];
      Left -= static_cast<uint64_t>(N);
    }
    if (Left > 0) {
      rewindStream(IS);
      rejectResume("ingest snapshot covers more input than the file holds");
      return;
    }
    if (H != PrefixHash) {
      rewindStream(IS);
      rejectResume("input prefix does not match the ingest snapshot");
      return;
    }

    if (!acceptResume(R, PrefixBytes, PrefixHash, Shards, PrefixLast))
      rewindStream(IS);
  }

  bool resumeWanted() const { return Opt.Resume && checkpointEnabled(); }

  /// True when the resume gate passes (a resume needs the file to be
  /// the session's whole input, or the prefix hash is meaningless).
  bool resumeGate() {
    Resume.Attempted = true;
    if (UsedRawFeed || AnyInput) {
      rejectResume("resume requires the file to be the session's only "
                   "input");
      return false;
    }
    return true;
  }

  Status feedFileImpl(const std::string &Path) {
    if (Finished)
      return Status::error("IngestSession::feedFile() after finish()");

    // Budget pre-flight: refuse a regular file that exceeds the input
    // budget up front -- a clean usage error beats an OOM kill halfway
    // through the slurp.  Non-regular inputs (pipes) have no size to
    // check and stream as before.
    if (Opt.MaxInputBytes) {
      int64_t Size = MappedFile::regularFileSize(Path);
      if (Size >= 0 && static_cast<uint64_t>(Size) > Opt.MaxInputBytes)
        return Status::error(formatString(
            "input '%s' is %llu bytes, over the %llu-byte memory budget; "
            "use --window to stream it or raise the memory limit",
            Path.c_str(), static_cast<unsigned long long>(Size),
            static_cast<unsigned long long>(Opt.MaxInputBytes)));
    }

    // Fast path: map the file and lex shards straight out of the page
    // cache -- the byte stream is never copied into a resident string.
    MappedFile MF;
    if (MF.open(Path) == MappedFile::Outcome::Mapped) {
      Mappings.push_back(std::move(MF));
      std::string_view Data = Mappings.back().contents();
      uint64_t Skip = 0;
      if (resumeWanted() && resumeGate())
        Skip = tryResumeMapped(Data);
      feedMapped(Data.substr(Skip));
      return Status::success();
    }

    // Buffered fallback: pipes, devices, empty files, files a mapping
    // attempt rejected.  Missing files surface their error here, with
    // the same message either way.
    std::ifstream IS(Path, std::ios::binary);
    if (!IS)
      return Status::error(
          formatString("cannot open '%s' for reading", Path.c_str()));

    if (resumeWanted() && resumeGate())
      tryResume(IS);

    char Buf[1 << 16];
    while (IS) {
      IS.read(Buf, sizeof(Buf));
      std::streamsize N = IS.gcount();
      if (N > 0)
        feedImpl(std::string_view(Buf, static_cast<size_t>(N)));
    }
    return Status::success();
  }

  // --- Finish -----------------------------------------------------------

  Status finishImpl(Trace &Out, IngestReport &ReportOut) {
    if (Finished)
      return Status::error("IngestSession::finish() called twice");
    Finished = true;

    cutShards(/*Final=*/true);
    if (Threads > 1) {
      std::unique_lock<std::mutex> L(Mu);
      for (;;) {
        drainReadyLocked(L);
        if (InFlight.empty())
          break;
        DoneCv.wait(L);
      }
    }

    if (AbortRequested)
      return Status::error(formatString(
          "ingest interrupted after %llu shards (DebugAbortAfterShards)",
          static_cast<unsigned long long>(MergedThisRun)));

    // A stream that did not end in a newline has a truncated final line
    // -- unless the machine already hard-failed earlier, in which case
    // the tail was never consumed (matching the streaming reader).
    if (AnyInput && LastByte != '\n' && !Machine.failed())
      Machine.noteTruncatedFinalLine();

    Status S = Machine.finish(Out, ReportOut);

    // Retire our own snapshot on success; foreign/rejected snapshots we
    // neither resumed from nor overwrote are preserved for inspection.
    if (S.ok() && checkpointEnabled() && (WroteSnapshot || Resume.Resumed))
      std::remove(ingestCheckpointPath(Opt.CheckpointDirectory).c_str());
    return S;
  }
};

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

IngestSession::IngestSession(const IngestOptions &Options)
    : P(new Impl(Options)) {}

IngestSession::~IngestSession() = default;

void IngestSession::feed(std::string_view Chunk) {
  P->UsedRawFeed = true;
  P->feedImpl(Chunk);
}

Status IngestSession::feedFile(const std::string &Path) {
  return P->feedFileImpl(Path);
}

Status IngestSession::finish(Trace &Out, IngestReport &ReportOut) {
  return P->finishImpl(Out, ReportOut);
}

const IngestResumeOutcome &IngestSession::resumeOutcome() const {
  return P->Resume;
}

Status cafa::ingestTrace(const std::string &Text, Trace &Out,
                         IngestReport &Report, const IngestOptions &Options) {
  IngestSession S(Options);
  S.feed(Text);
  return S.finish(Out, Report);
}

Status cafa::ingestTraceFile(const std::string &Path, Trace &Out,
                             IngestReport &Report,
                             const IngestOptions &Options) {
  IngestSession S(Options);
  Status FS = S.feedFile(Path);
  if (!FS.ok())
    return FS;
  return S.finish(Out, Report);
}
