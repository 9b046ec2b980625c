//===- tests/integration/IngestCheckpointTest.cpp -----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Crash-safe checkpoint/resume for the *ingest* phase (the merge side of
// sharded ingestion), mirroring CheckpointTest.cpp's contract for the
// analysis phases: an interrupted merge leaves a snapshot, a resumed run
// skips the merged prefix and produces a Trace and IngestReport
// bit-identical to an uninterrupted one, and every corrupt or mismatched
// snapshot degrades to a clean full re-ingest -- never a wrong merge.
//
//===----------------------------------------------------------------------===//

#include "trace/FaultInjector.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/stat.h>

using namespace cafa;

namespace {

/// A damaged multi-shard dump: big enough that tiny shards make dozens
/// of merge steps, damaged enough that the report is non-trivial.
std::string buildDamagedDump() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("work", 256);
  TaskId A = TB.addThread("producer");
  TaskId B = TB.addThread("consumer");
  TB.begin(A);
  for (uint32_t I = 0; I != 400; ++I) {
    TB.lockAcquire(A, 1);
    TB.write(A, I % 13, I);
    TB.ptrWrite(A, I % 7, I % 3, M, I % 250);
    TB.lockRelease(A, 1);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 400; ++I) {
    TB.ptrRead(B, I % 7, I % 3, M, I % 250);
    TB.deref(B, I % 3, DerefKind::Invoke, M, I % 250);
  }
  TB.end(B);
  std::string Text = serializeTrace(TB.take());
  for (uint64_t I = 0; I != 12; ++I) {
    FaultKind Kind = static_cast<FaultKind>(1 + I % (NumFaultKinds - 1));
    Text = injectFault(Text, Kind, /*Seed=*/0xfeed + I).Text;
  }
  return Text;
}

std::string freshDir(const char *Name) {
  std::string Dir = uniqueScratchDir() + "/" + Name;
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

std::string writeDump(const std::string &Dir, const char *Name,
                      const std::string &Text) {
  std::string Path = Dir + "/" + Name;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  return Path;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Options that force many small shards and a snapshot after every
/// merged shard, so DebugAbortAfterShards lands mid-stream.
IngestOptions tinyShardOptions(const std::string &Dir) {
  IngestOptions O;
  O.Threads = 2;
  O.ShardBytes = 512;
  O.CheckpointDirectory = Dir;
  O.CheckpointEveryBytes = 1;
  return O;
}

struct Result {
  Status St = Status::success();
  std::string Serialized;
  std::string Summary;
};

Result ingestFile(const std::string &Path, const IngestOptions &O,
                  IngestResumeOutcome *OutcomeOut = nullptr) {
  IngestSession S(O);
  Status FS = S.feedFile(Path);
  Result R;
  if (!FS.ok()) {
    R.St = FS;
    return R;
  }
  Trace T;
  IngestReport Rep;
  R.St = S.finish(T, Rep);
  if (OutcomeOut)
    *OutcomeOut = S.resumeOutcome();
  if (R.St.ok())
    R.Serialized = serializeTrace(T);
  R.Summary = Rep.summary();
  return R;
}

} // namespace

TEST(IngestCheckpointTest, InterruptedMergeResumesBitIdentical) {
  std::string Dump = buildDamagedDump();
  std::string Dir = freshDir("resume");
  std::string Path = writeDump(Dir, "dump.trace", Dump);

  // Uninterrupted reference (no checkpointing involved at all).
  IngestOptions Plain;
  Plain.Threads = 2;
  Plain.ShardBytes = 512;
  Result Ref = ingestFile(Path, Plain);
  ASSERT_TRUE(Ref.St.ok()) << Ref.St.message();

  // Crash after 5 merged shards; the snapshot cadence of one byte means
  // the last merged shard is always durable.
  IngestOptions Crash = tinyShardOptions(Dir);
  Crash.DebugAbortAfterShards = 5;
  Result Cut = ingestFile(Path, Crash);
  ASSERT_FALSE(Cut.St.ok());
  EXPECT_NE(Cut.St.message().find("interrupted"), std::string::npos);
  ASSERT_TRUE(fileExists(ingestCheckpointPath(Dir)));

  // Resume: the merged prefix is skipped, the result is bit-identical,
  // and the snapshot is retired on success.
  IngestOptions Resume = tinyShardOptions(Dir);
  Resume.Resume = true;
  IngestResumeOutcome Outcome;
  Result Resumed = ingestFile(Path, Resume, &Outcome);
  ASSERT_TRUE(Resumed.St.ok()) << Resumed.St.message();
  EXPECT_TRUE(Outcome.Attempted);
  EXPECT_TRUE(Outcome.Resumed) << Outcome.RejectReason;
  EXPECT_EQ(Outcome.ShardsSkipped, 5u);
  EXPECT_GT(Outcome.BytesSkipped, 0u);
  EXPECT_EQ(Resumed.Serialized, Ref.Serialized);
  EXPECT_EQ(Resumed.Summary, Ref.Summary);
  EXPECT_FALSE(fileExists(ingestCheckpointPath(Dir)));
}

TEST(IngestCheckpointTest, ResumeAcrossDifferentShardSizeAndThreads) {
  // Shard size and thread count are scheduling knobs, not semantic
  // options: a snapshot cut under one configuration must resume cleanly
  // under another, with identical results.
  std::string Dump = buildDamagedDump();
  std::string Dir = freshDir("resched");
  std::string Path = writeDump(Dir, "dump.trace", Dump);

  Result Ref = ingestFile(Path, IngestOptions());
  ASSERT_TRUE(Ref.St.ok());

  IngestOptions Crash = tinyShardOptions(Dir);
  Crash.DebugAbortAfterShards = 3;
  ASSERT_FALSE(ingestFile(Path, Crash).St.ok());

  IngestOptions Resume;
  Resume.Threads = 8;
  Resume.ShardBytes = 4096; // different cut pattern for the tail
  Resume.CheckpointDirectory = Dir;
  Resume.Resume = true;
  IngestResumeOutcome Outcome;
  Result Resumed = ingestFile(Path, Resume, &Outcome);
  ASSERT_TRUE(Resumed.St.ok());
  EXPECT_TRUE(Outcome.Resumed) << Outcome.RejectReason;
  EXPECT_EQ(Resumed.Serialized, Ref.Serialized);
  EXPECT_EQ(Resumed.Summary, Ref.Summary);
}

TEST(IngestCheckpointTest, CorruptSnapshotRejectsToCleanRestart) {
  std::string Dump = buildDamagedDump();
  std::string Dir = freshDir("corrupt");
  std::string Path = writeDump(Dir, "dump.trace", Dump);

  Result Ref = ingestFile(Path, IngestOptions());
  ASSERT_TRUE(Ref.St.ok());

  IngestOptions Crash = tinyShardOptions(Dir);
  Crash.DebugAbortAfterShards = 4;
  ASSERT_FALSE(ingestFile(Path, Crash).St.ok());

  // Flip one byte in the middle of the snapshot payload.
  std::string SnapPath = ingestCheckpointPath(Dir);
  std::ifstream In(SnapPath, std::ios::binary);
  std::string Snap((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Snap.size(), 64u);
  Snap[Snap.size() / 2] ^= 0x40;
  std::ofstream Out(SnapPath, std::ios::binary | std::ios::trunc);
  Out.write(Snap.data(), static_cast<std::streamsize>(Snap.size()));
  Out.close();

  IngestOptions Resume = tinyShardOptions(Dir);
  Resume.Resume = true;
  IngestResumeOutcome Outcome;
  Result Resumed = ingestFile(Path, Resume, &Outcome);
  ASSERT_TRUE(Resumed.St.ok());
  EXPECT_TRUE(Outcome.Attempted);
  EXPECT_FALSE(Outcome.Resumed);
  EXPECT_FALSE(Outcome.RejectReason.empty());
  EXPECT_EQ(Resumed.Serialized, Ref.Serialized);
  EXPECT_EQ(Resumed.Summary, Ref.Summary);
}

TEST(IngestCheckpointTest, SnapshotForDifferentInputIsRejected) {
  std::string DumpA = buildDamagedDump();
  // A different stream: a leading comment line shifts every byte after
  // it, so the snapshotted prefix of A can never re-hash over B.
  std::string DumpB = "# a different capture of the same app\n" + DumpA;

  std::string Dir = freshDir("mismatch");
  std::string PathA = writeDump(Dir, "a.trace", DumpA);
  std::string PathB = writeDump(Dir, "b.trace", DumpB);

  Result RefB = ingestFile(PathB, IngestOptions());
  ASSERT_TRUE(RefB.St.ok());

  IngestOptions Crash = tinyShardOptions(Dir);
  Crash.DebugAbortAfterShards = 4;
  ASSERT_FALSE(ingestFile(PathA, Crash).St.ok());

  // Resuming the *other* file against A's snapshot must hash-mismatch
  // and re-ingest B from scratch.
  IngestOptions Resume = tinyShardOptions(Dir);
  Resume.Resume = true;
  IngestResumeOutcome Outcome;
  Result Resumed = ingestFile(PathB, Resume, &Outcome);
  ASSERT_TRUE(Resumed.St.ok());
  EXPECT_FALSE(Outcome.Resumed);
  EXPECT_NE(Outcome.RejectReason.find("does not match"), std::string::npos)
      << Outcome.RejectReason;
  EXPECT_EQ(Resumed.Serialized, RefB.Serialized);
  EXPECT_EQ(Resumed.Summary, RefB.Summary);
}

TEST(IngestCheckpointTest, SnapshotUnderDifferentOptionsIsRejected) {
  std::string Dump = buildDamagedDump();
  std::string Dir = freshDir("opts");
  std::string Path = writeDump(Dir, "dump.trace", Dump);

  IngestOptions Crash = tinyShardOptions(Dir);
  Crash.DebugAbortAfterShards = 4;
  ASSERT_FALSE(ingestFile(Path, Crash).St.ok());

  // Different semantic salvage options -> different digest -> rejected.
  IngestOptions Resume = tinyShardOptions(Dir);
  Resume.Resume = true;
  Resume.Salvage.MaxDiagnostics = 64;
  IngestResumeOutcome Outcome;
  Result Resumed = ingestFile(Path, Resume, &Outcome);
  ASSERT_TRUE(Resumed.St.ok());
  EXPECT_FALSE(Outcome.Resumed);
  EXPECT_NE(Outcome.RejectReason.find("options changed"),
            std::string::npos)
      << Outcome.RejectReason;

  // And it must equal a clean run under the *new* options.
  IngestOptions Plain;
  Plain.Salvage.MaxDiagnostics = 64;
  Result Ref = ingestFile(Path, Plain);
  ASSERT_TRUE(Ref.St.ok());
  EXPECT_EQ(Resumed.Serialized, Ref.Serialized);
  EXPECT_EQ(Resumed.Summary, Ref.Summary);
}

TEST(IngestCheckpointTest, MissingSnapshotIsAFreshRunNotAnError) {
  std::string Dump = buildDamagedDump();
  std::string Dir = freshDir("fresh");
  std::string Path = writeDump(Dir, "dump.trace", Dump);

  IngestOptions Resume = tinyShardOptions(Dir);
  Resume.Resume = true;
  IngestResumeOutcome Outcome;
  Result R = ingestFile(Path, Resume, &Outcome);
  ASSERT_TRUE(R.St.ok());
  EXPECT_TRUE(Outcome.Attempted);
  EXPECT_TRUE(Outcome.NoSnapshot);
  EXPECT_FALSE(Outcome.Resumed);

  Result Ref = ingestFile(Path, IngestOptions());
  ASSERT_TRUE(Ref.St.ok());
  EXPECT_EQ(R.Serialized, Ref.Serialized);
  EXPECT_EQ(R.Summary, Ref.Summary);
}

TEST(IngestCheckpointTest, CoexistsWithAnalysisCheckpointInOneDirectory) {
  // The two phases snapshot into distinct files of the same directory;
  // neither may clobber the other.
  std::string Dir = freshDir("coexist");
  EXPECT_NE(ingestCheckpointPath(Dir).find("ingest.snapshot"),
            std::string::npos);

  std::string Dump = buildDamagedDump();
  std::string Path = writeDump(Dir, "dump.trace", Dump);

  // Plant a fake analysis snapshot; an interrupted ingest must leave it
  // alone, and the resumed ingest must not consume it.
  std::string AnalysisSnap = Dir + "/analysis.snapshot";
  {
    std::ofstream Out(AnalysisSnap, std::ios::binary);
    Out << "not-an-ingest-snapshot";
  }

  IngestOptions Crash = tinyShardOptions(Dir);
  Crash.DebugAbortAfterShards = 3;
  ASSERT_FALSE(ingestFile(Path, Crash).St.ok());
  EXPECT_TRUE(fileExists(AnalysisSnap));
  ASSERT_TRUE(fileExists(ingestCheckpointPath(Dir)));

  IngestOptions Resume = tinyShardOptions(Dir);
  Resume.Resume = true;
  IngestResumeOutcome Outcome;
  Result R = ingestFile(Path, Resume, &Outcome);
  ASSERT_TRUE(R.St.ok());
  EXPECT_TRUE(Outcome.Resumed) << Outcome.RejectReason;
  EXPECT_TRUE(fileExists(AnalysisSnap));
  EXPECT_FALSE(fileExists(ingestCheckpointPath(Dir)));
  std::remove(AnalysisSnap.c_str());
}
