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
// -- never on scheduling.
//
//===----------------------------------------------------------------------===//

#include "trace/IngestSession.h"

#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/WorkerPool.h"
#include "trace/SalvageEngine.h"

#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>

using namespace cafa;

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

  bool Finished = false;
  bool AnyInput = false;
  char LastByte = '\n';

  // Bytes fed but not yet cut into a shard.  The mmap path bypasses
  // this entirely for full shards and only copies the sub-shard tail.
  std::string Buffer;

  // Mappings backing zero-copy shard views; they must outlive every
  // in-flight lex job, so they are retired only with the session.
  std::vector<MappedFile> Mappings;

  // Shard indices: the next one to cut, and the next one to merge
  // (session thread only).
  uint64_t NextIndex = 0;
  uint64_t NextMerge = 0;

  /// One shard travelling through the pool.  Text is the bytes to lex:
  /// a borrowed view into a MappedFile for the zero-copy file path, or
  /// a view of Owned for the streamed feed() path.
  struct Job {
    uint64_t Index = 0;
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

  // --- Merge ------------------------------------------------------------

  /// Applies one lexed shard to the machine, in index order.  Session
  /// thread only.
  void applyJob(const Job &J) {
    if (Machine.failed())
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

  /// Lexes (inline or on the pool) and merges one shard whose Text view
  /// (and Owned backing, if any) is already set.
  void dispatchShard(std::shared_ptr<Job> J) {
    J->Index = NextIndex++;
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
  /// points (and with them merge order) are a function of the bytes
  /// alone, whichever path feeds them.  Shards of a mapping
  /// (\p Borrowed) are dispatched as views, which the mapping outlives;
  /// any other bytes are copied.  Returns the uncut sub-shard tail, or
  /// an empty view once the machine has hard-failed.
  std::string_view cutFullShards(std::string_view Data, bool Borrowed) {
    while (!Machine.failed() && Data.size() >= ShardBytes) {
      size_t NL = Data.find('\n', static_cast<size_t>(ShardBytes - 1));
      if (NL == std::string_view::npos)
        return Data; // a longer-than-shard line: wait for its newline
      if (Borrowed)
        dispatchMappedShard(Data.substr(0, NL + 1));
      else
        dispatchOwnedShard(std::string(Data.substr(0, NL + 1)));
      Data.remove_prefix(NL + 1);
    }
    if (Machine.failed())
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
    if (Machine.failed())
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
    if (Machine.failed())
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
      feedMapped(Mappings.back().contents());
      return Status::success();
    }

    // Buffered fallback: pipes, devices, empty files, files a mapping
    // attempt rejected.  Missing files surface their error here, with
    // the same message either way.
    std::ifstream IS(Path, std::ios::binary);
    if (!IS)
      return Status::error(
          formatString("cannot open '%s' for reading", Path.c_str()));

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

    // A stream that did not end in a newline has a truncated final line
    // -- unless the machine already hard-failed earlier, in which case
    // the tail was never consumed (matching the streaming reader).
    if (AnyInput && LastByte != '\n' && !Machine.failed())
      Machine.noteTruncatedFinalLine();

    return Machine.finish(Out, ReportOut);
  }
};

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

IngestSession::IngestSession(const IngestOptions &Options)
    : P(new Impl(Options)) {}

IngestSession::~IngestSession() = default;

void IngestSession::feed(std::string_view Chunk) { P->feedImpl(Chunk); }

Status IngestSession::feedFile(const std::string &Path) {
  return P->feedFileImpl(Path);
}

Status IngestSession::finish(Trace &Out, IngestReport &ReportOut) {
  return P->finishImpl(Out, ReportOut);
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
