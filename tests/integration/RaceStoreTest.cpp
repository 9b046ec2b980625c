//===- tests/integration/RaceStoreTest.cpp ------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The persistent race store under corruption: every failure a torn
// append or a flipped bit can produce must recover to the last valid
// prefix of the journal -- never to an empty store, and never to
// mis-decoded records.  Incompatible journals (wrong magic, version, or
// schema fingerprint) are refused *without modifying the file*, so a
// build skew cannot destroy data.  Compaction is byte-deterministic:
// the same stored records always produce the same journal bytes.
//
// The corruption offsets are computed from the store's own observable
// layout (stats().JournalBytes after each append), not hard-coded, so
// the tests survive record-size changes as long as the framing
// invariants hold.
//
//===----------------------------------------------------------------------===//

#include "cafa/RaceStore.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace cafa;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
}

class RaceStoreTest : public testing::Test {
protected:
  std::string Scratch;

  void SetUp() override {
    Scratch = uniqueScratchDir();
  }

  /// A done row with a one-race report.
  static void doneJob(const std::string &Id, FleetJobStatus &Row,
                      RaceDocument &Report) {
    Row = FleetJobStatus();
    Row.Id = Id;
    Row.TracePath = "/traces/" + Id + ".trace";
    Row.State = "done";
    Row.Attempts = 1;
    Row.ExitCode = 1;
    RaceRecord Race;
    Race.UseMethod = "View.draw";
    Race.UsePc = 12;
    Race.UseTask = "ui";
    Race.FreeMethod = "Activity.onDestroy";
    Race.FreePc = 34;
    Race.FreeTask = "lifecycle";
    Race.Category = "a";
    Race.DynamicCount = 2;
    Report = RaceDocument();
    Report.Races.push_back(Race);
  }

  /// Opens a fresh store and appends \p N done jobs, returning the
  /// journal size after each append (RecordEnd[0] is the header-only
  /// size before any record).
  void seedStore(const std::string &Path, int N, RaceStore &Store,
                 std::vector<size_t> &SizeAfter) {
    ASSERT_TRUE(Store.open(Path).ok());
    SizeAfter.push_back(Store.stats().JournalBytes);
    for (int I = 0; I < N; ++I) {
      FleetJobStatus Row;
      RaceDocument Report;
      doneJob("job" + std::to_string(I), Row, Report);
      ASSERT_TRUE(Store.appendJob(Row, &Report).ok());
      SizeAfter.push_back(Store.stats().JournalBytes);
    }
  }
};

TEST_F(RaceStoreTest, AppendReplayRoundTrip) {
  std::string Path = Scratch + "/roundtrip.journal";
  {
    RaceStore Store;
    ASSERT_TRUE(Store.open(Path).ok());
    EXPECT_EQ(Store.numJobs(), 0u);

    FleetJobStatus Row;
    RaceDocument Report;
    doneJob("alpha", Row, Report);
    Row.Resumed = true; // raw operational fields must round-trip
    Row.ExitCode = 4;
    ASSERT_TRUE(Store.appendJob(Row, &Report).ok());

    FleetJobStatus Failed;
    Failed.Id = "broken";
    Failed.TracePath = "/traces/broken.trace";
    Failed.State = "failed:unreadable";
    Failed.Attempts = 1;
    Failed.ExitCode = 2;
    ASSERT_TRUE(Store.appendJob(Failed, nullptr).ok());
  }
  RaceStore Replayed;
  ASSERT_TRUE(Replayed.open(Path).ok());
  ASSERT_EQ(Replayed.numJobs(), 2u);
  EXPECT_TRUE(Replayed.hasJob("alpha"));
  EXPECT_TRUE(Replayed.hasJob("broken"));
  const StoredJob &Alpha = Replayed.jobs()[0];
  EXPECT_EQ(Alpha.Row.State, "done");
  EXPECT_EQ(Alpha.Row.ExitCode, 4);
  EXPECT_TRUE(Alpha.Row.Resumed);
  ASSERT_TRUE(Alpha.HasReport);
  ASSERT_EQ(Alpha.Report.Races.size(), 1u);
  EXPECT_EQ(Alpha.Report.Races[0].UseMethod, "View.draw");
  EXPECT_EQ(Alpha.Report.Races[0].DynamicCount, 2u);
  const StoredJob &Broken = Replayed.jobs()[1];
  EXPECT_EQ(Broken.Row.ExitCode, 2);
  EXPECT_FALSE(Broken.HasReport);

  RaceStore::Stats S = Replayed.stats();
  EXPECT_EQ(S.Jobs, 2u);
  EXPECT_EQ(S.Done, 1u);
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.ResumedCompletions, 1u);
  EXPECT_EQ(S.DistinctRaces, 1u);
  EXPECT_FALSE(S.RecoveredTail);
}

TEST_F(RaceStoreTest, TornAppendTruncatesToLastValidPrefix) {
  std::string Path = Scratch + "/torn.journal";
  std::vector<size_t> SizeAfter;
  {
    RaceStore Store;
    seedStore(Path, 3, Store, SizeAfter);
  }
  std::string Full = slurp(Path);
  ASSERT_EQ(Full.size(), SizeAfter[3]);

  // Cut mid-record-3 at several depths: inside the frame header and
  // inside the payload.  Every cut must recover exactly jobs 0 and 1.
  for (size_t Cut : {SizeAfter[2] + 3, SizeAfter[2] + 12 + 5,
                     SizeAfter[3] - 1}) {
    spit(Path, Full.substr(0, Cut));
    RaceStore Store;
    ASSERT_TRUE(Store.open(Path).ok()) << "cut at " << Cut;
    EXPECT_EQ(Store.numJobs(), 2u) << "cut at " << Cut;
    EXPECT_TRUE(Store.hasJob("job0"));
    EXPECT_TRUE(Store.hasJob("job1"));
    EXPECT_FALSE(Store.hasJob("job2"));
    RaceStore::Stats S = Store.stats();
    EXPECT_TRUE(S.RecoveredTail);
    EXPECT_EQ(S.RecoveredBytes, Cut - SizeAfter[2]);
    // The truncation is physical: the file is back to the valid prefix
    // and the next append extends a clean journal.
    struct stat St;
    ASSERT_EQ(::stat(Path.c_str(), &St), 0);
    EXPECT_EQ(static_cast<size_t>(St.st_size), SizeAfter[2]);
    FleetJobStatus Row;
    RaceDocument Report;
    doneJob("job2", Row, Report);
    ASSERT_TRUE(Store.appendJob(Row, &Report).ok());
  }

  // After the last loop iteration re-appended job2, a replay sees all
  // three again -- recovery lost only the torn suffix, nothing else.
  RaceStore Replayed;
  ASSERT_TRUE(Replayed.open(Path).ok());
  EXPECT_EQ(Replayed.numJobs(), 3u);
  EXPECT_FALSE(Replayed.stats().RecoveredTail);
}

TEST_F(RaceStoreTest, BitFlipDropsTheRecordAndEverythingAfterIt) {
  std::string Path = Scratch + "/bitflip.journal";
  std::vector<size_t> SizeAfter;
  {
    RaceStore Store;
    seedStore(Path, 3, Store, SizeAfter);
  }
  std::string Full = slurp(Path);
  // Flip one payload byte inside record 2 (the middle one).
  std::string Damaged = Full;
  Damaged[SizeAfter[1] + 12 + 4] ^= 0x20;
  spit(Path, Damaged);

  RaceStore Store;
  ASSERT_TRUE(Store.open(Path).ok());
  // Prefix semantics: record 2 fails its checksum, and record 3 --
  // although intact on disk -- is unreachable past a frame that cannot
  // be trusted.  Never an empty store, though: job0 survives.
  EXPECT_EQ(Store.numJobs(), 1u);
  EXPECT_TRUE(Store.hasJob("job0"));
  RaceStore::Stats S = Store.stats();
  EXPECT_TRUE(S.RecoveredTail);
  EXPECT_EQ(S.RecoveredBytes, Full.size() - SizeAfter[1]);
}

TEST_F(RaceStoreTest, IncompatibleJournalsRefusedWithoutModification) {
  std::string Path = Scratch + "/incompat.journal";
  std::vector<size_t> SizeAfter;
  {
    RaceStore Store;
    seedStore(Path, 1, Store, SizeAfter);
  }
  std::string Good = slurp(Path);

  // Stale schema fingerprint (bytes 12..19 of the header).
  std::string Stale = Good;
  Stale[12] ^= 0xFF;
  spit(Path, Stale);
  {
    RaceStore Store;
    Status S = Store.open(Path);
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("fingerprint"), std::string::npos);
    EXPECT_FALSE(Store.isOpen());
    // Refusal must not "fix" the file: a newer build may still read it.
    EXPECT_EQ(slurp(Path), Stale);
  }

  // Wrong format version (bytes 8..11).
  std::string Versioned = Good;
  Versioned[8] = 0x7F;
  spit(Path, Versioned);
  {
    RaceStore Store;
    Status S = Store.open(Path);
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("version"), std::string::npos);
    EXPECT_EQ(slurp(Path), Versioned);
  }

  // Not a journal at all.
  spit(Path, "PK\x03\x04 definitely a zip file, left alone");
  {
    RaceStore Store;
    ASSERT_FALSE(Store.open(Path).ok());
    EXPECT_EQ(slurp(Path),
              std::string("PK\x03\x04 definitely a zip file, left alone"));
  }
}

TEST_F(RaceStoreTest, TornHeaderStartsFresh) {
  // A crash during store *creation* can tear the 20-byte header
  // itself.  Nothing valid ever existed, so this -- and only this --
  // case resets to a fresh store.
  std::string Path = Scratch + "/tornheader.journal";
  spit(Path, "CAFA");
  RaceStore Store;
  ASSERT_TRUE(Store.open(Path).ok());
  EXPECT_EQ(Store.numJobs(), 0u);
  RaceStore::Stats S = Store.stats();
  EXPECT_TRUE(S.RecoveredTail);
  EXPECT_EQ(S.RecoveredBytes, 4u);
}

TEST_F(RaceStoreTest, CompactionIsByteDeterministic) {
  std::string PathA = Scratch + "/compact_a.journal";
  std::string PathB = Scratch + "/compact_b.journal";
  std::vector<size_t> SizeA, SizeB;
  RaceStore A, B;
  seedStore(PathA, 3, A, SizeA);
  seedStore(PathB, 3, B, SizeB);

  // Store A suffers a torn append and re-appends the lost job; store B
  // was never damaged.  After compaction both journals hold the same
  // records -- and must be byte-identical.
  std::string FullA = slurp(PathA);
  spit(PathA, FullA.substr(0, SizeA[3] - 7));
  RaceStore ARec;
  ASSERT_TRUE(ARec.open(PathA).ok());
  ASSERT_TRUE(ARec.stats().RecoveredTail);
  FleetJobStatus Row;
  RaceDocument Report;
  doneJob("job2", Row, Report);
  ASSERT_TRUE(ARec.appendJob(Row, &Report).ok());
  ASSERT_TRUE(ARec.compact().ok());
  EXPECT_FALSE(ARec.stats().RecoveredTail);

  EXPECT_EQ(slurp(PathA), slurp(PathB));

  // Compacting an already-canonical journal is a byte-level no-op.
  ASSERT_TRUE(B.compact().ok());
  EXPECT_EQ(slurp(PathA), slurp(PathB));

  // And the compacted journal replays to the same store.
  RaceStore Replayed;
  ASSERT_TRUE(Replayed.open(PathA).ok());
  EXPECT_EQ(Replayed.numJobs(), 3u);
}

TEST_F(RaceStoreTest, ConfirmVerdictRoundTripsThroughJournal) {
  std::string Path = Scratch + "/verdict.journal";
  {
    RaceStore Store;
    ASSERT_TRUE(Store.open(Path).ok());
    FleetJobStatus Row;
    RaceDocument Report;
    doneJob("triaged", Row, Report);
    Report.Races[0].Verdict = ConfirmVerdict::Confirmed;
    RaceRecord Refuted = Report.Races[0];
    Refuted.UsePc = 99; // distinct static site
    Refuted.Verdict = ConfirmVerdict::Infeasible;
    Report.Races.push_back(Refuted);
    ASSERT_TRUE(Store.appendJob(Row, &Report).ok());
  }
  RaceStore Replayed;
  ASSERT_TRUE(Replayed.open(Path).ok());
  ASSERT_EQ(Replayed.numJobs(), 1u);
  const StoredJob &Job = Replayed.jobs()[0];
  ASSERT_EQ(Job.Report.Races.size(), 2u);
  EXPECT_EQ(Job.Report.Races[0].Verdict, ConfirmVerdict::Confirmed);
  EXPECT_EQ(Job.Report.Races[1].Verdict, ConfirmVerdict::Infeasible);
  // The verdict flows into the rendered aggregate...
  EXPECT_NE(Replayed.renderJson().find("\"confirm\": \"confirmed\""),
            std::string::npos);
  EXPECT_NE(Replayed.renderJson().find("\"confirm\": \"infeasible\""),
            std::string::npos);
  // ...while a verdict-free journal keeps its pre-confirmation bytes.
  RaceStore Plain;
  std::vector<size_t> Sizes;
  seedStore(Scratch + "/plain.journal", 1, Plain, Sizes);
  EXPECT_EQ(Plain.renderJson().find("\"confirm\""), std::string::npos);
}

TEST_F(RaceStoreTest, RejectsDuplicatesInterruptedAndUnopened) {
  RaceStore Unopened;
  FleetJobStatus Row;
  RaceDocument Report;
  doneJob("x", Row, Report);
  EXPECT_FALSE(Unopened.appendJob(Row, &Report).ok());

  RaceStore Store;
  ASSERT_TRUE(Store.open(Scratch + "/rejects.journal").ok());
  ASSERT_TRUE(Store.appendJob(Row, &Report).ok());
  EXPECT_FALSE(Store.appendJob(Row, &Report).ok()) << "duplicate id";

  FleetJobStatus Interrupted;
  Interrupted.Id = "cut-short";
  Interrupted.TracePath = "/traces/cut.trace";
  Interrupted.State = "interrupted";
  EXPECT_FALSE(Store.appendJob(Interrupted, nullptr).ok())
      << "interrupted is resumable work, not a result";

  FleetJobStatus Empty;
  Empty.State = "done";
  EXPECT_FALSE(Store.appendJob(Empty, nullptr).ok()) << "empty id";
}

TEST_F(RaceStoreTest, RenderNormalizesOperationalHistoryAway) {
  // Store A's job took the scenic route: interrupted daemon, restart,
  // resumed from checkpoint (exit 4, resumed, 3 attempts).  Store B's
  // identical job completed first try.  The rendered aggregates must be
  // byte-identical -- that is the whole point of the store's render
  // normalization (docs/server.md).
  RaceStore A, B;
  ASSERT_TRUE(A.open(Scratch + "/norm_a.journal").ok());
  ASSERT_TRUE(B.open(Scratch + "/norm_b.journal").ok());

  FleetJobStatus Row;
  RaceDocument Report;
  doneJob("resumed", Row, Report);
  Row.ExitCode = 4;
  Row.Resumed = true;
  Row.Attempts = 3;
  ASSERT_TRUE(A.appendJob(Row, &Report).ok());

  doneJob("resumed", Row, Report);
  ASSERT_TRUE(B.appendJob(Row, &Report).ok());

  EXPECT_EQ(A.renderJson(), B.renderJson());
  EXPECT_EQ(A.renderText(), B.renderText());
  // The raw history is not lost: stats still proves the resume.
  EXPECT_EQ(A.stats().ResumedCompletions, 1u);
  EXPECT_EQ(B.stats().ResumedCompletions, 0u);

  // Failed rows keep their operational fields: there the history *is*
  // the result.
  FleetJobStatus Failed;
  Failed.Id = "wedged";
  Failed.TracePath = "/traces/wedged.trace";
  Failed.State = "failed:hung";
  Failed.Attempts = 3;
  Failed.ExitCode = -1;
  ASSERT_TRUE(A.appendJob(Failed, nullptr).ok());
  EXPECT_NE(A.renderJson().find("\"attempts\": 3"), std::string::npos);
}

TEST_F(RaceStoreTest, RenderSortsByJobIdNotInsertionOrder) {
  // Batches arrive in whatever order users submit them; the aggregate
  // must not care.  Same records, opposite insertion orders.
  RaceStore Forward, Backward;
  ASSERT_TRUE(Forward.open(Scratch + "/order_f.journal").ok());
  ASSERT_TRUE(Backward.open(Scratch + "/order_b.journal").ok());

  FleetJobStatus Row;
  RaceDocument Report;
  for (const char *Id : {"aaa", "mmm", "zzz"}) {
    doneJob(Id, Row, Report);
    ASSERT_TRUE(Forward.appendJob(Row, &Report).ok());
  }
  for (const char *Id : {"zzz", "mmm", "aaa"}) {
    doneJob(Id, Row, Report);
    ASSERT_TRUE(Backward.appendJob(Row, &Report).ok());
  }
  EXPECT_EQ(Forward.renderJson(), Backward.renderJson());
  EXPECT_EQ(Forward.renderText(), Backward.renderText());
  // Occurrence counts accumulated: one race seen from three jobs.
  EXPECT_NE(Forward.renderJson().find("\"jobs\": 3, \"dynamicCount\": 6"),
            std::string::npos)
      << Forward.renderJson();
}

} // namespace
