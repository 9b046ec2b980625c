//===- tests/trace/IngestSessionTest.cpp --------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The sharded-ingestion contract: the Trace and IngestReport coming out
// of IngestSession are bit-identical at every thread count and every
// shard size -- on pristine dumps, on every damaged fixture, and on 100
// randomized FaultInjector corruptions with shard boundaries landing
// mid-record.  Plus strict reading honouring its strong error
// guarantee (the output Trace is untouched on failure).
//
//===----------------------------------------------------------------------===//

#include "trace/FaultInjector.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cafa;

namespace {

/// Everything observable about one ingestion run, rendered to bytes so
/// two runs can be diffed with a single string comparison.
struct IngestOutcome {
  bool Ok = false;
  std::string StatusMessage;
  std::string SerializedTrace; ///< empty when !Ok
  std::string ReportSummary;
  uint64_t InternedNames = 0;

  bool operator==(const IngestOutcome &O) const {
    return Ok == O.Ok && StatusMessage == O.StatusMessage &&
           SerializedTrace == O.SerializedTrace &&
           ReportSummary == O.ReportSummary &&
           InternedNames == O.InternedNames;
  }
};

IngestOutcome runIngest(const std::string &Text, unsigned Threads,
                        uint64_t ShardBytes,
                        const SalvageOptions &Salvage = SalvageOptions()) {
  IngestOptions O;
  O.Salvage = Salvage;
  O.Threads = Threads;
  O.ShardBytes = ShardBytes;
  Trace T;
  IngestReport R;
  Status S = ingestTrace(Text, T, R, O);
  IngestOutcome Out;
  Out.Ok = S.ok();
  Out.StatusMessage = S.ok() ? "" : S.message();
  if (S.ok()) {
    Out.SerializedTrace = serializeTrace(T);
    Out.InternedNames = T.names().size();
  }
  Out.ReportSummary = R.summary();
  return Out;
}

std::string describe(const IngestOutcome &O) {
  return "ok=" + std::string(O.Ok ? "yes" : "no") + " status='" +
         O.StatusMessage + "'\nreport:\n" + O.ReportSummary;
}

/// A representative well-formed trace exercising every side table and
/// most record kinds, serialized to text.
std::string buildRichTraceText(uint32_t Volume) {
  TraceBuilder TB;
  MethodId M0 = TB.addMethod("onCreate", 128);
  MethodId M1 = TB.addMethod("handleMessage", 256);
  QueueId Q = TB.addQueue("main-queue");
  ListenerId L = TB.addListener("onClick");
  TaskId Main = TB.addThread("main");
  TaskId Worker = TB.addThread("worker");
  TaskId Ev1 = TB.addEvent("ev-click", Q);
  TaskId Ev2 = TB.addEvent("ev-delayed", Q, /*DelayMs=*/25);

  TB.begin(Main);
  TB.methodEnter(Main, M0, 1);
  TB.registerListener(Main, L);
  TB.write(Main, 7, 1);
  TB.send(Main, Ev1);
  TB.fork(Main, Worker);
  TB.methodExit(Main, M0, 1);
  TB.end(Main);

  TB.begin(Worker);
  for (uint32_t I = 0; I != Volume; ++I) {
    TB.lockAcquire(Worker, 3);
    TB.write(Worker, 100 + (I % 17), I);
    TB.ptrWrite(Worker, 50 + (I % 5), I % 3, M1, I);
    TB.lockRelease(Worker, 3);
  }
  TB.end(Worker);

  TB.begin(Ev1);
  TB.performListener(Ev1, L);
  TB.methodEnter(Ev1, M1, 2);
  TB.read(Ev1, 7);
  for (uint32_t I = 0; I != Volume; ++I) {
    TB.ptrRead(Ev1, 50 + (I % 5), I % 3, M1, I);
    TB.deref(Ev1, I % 3, DerefKind::Invoke, M1, I);
  }
  TB.send(Ev1, Ev2);
  TB.methodExit(Ev1, M1, 2);
  TB.end(Ev1);

  TB.begin(Ev2);
  TB.wait(Ev2, 9);
  TB.notify(Ev2, 9);
  TB.ipcSend(Ev2, 77);
  TB.ipcRecv(Ev2, 77);
  TB.end(Ev2);

  return serializeTrace(TB.take());
}

std::string fixturePath(const std::string &Name) {
  return std::string(CAFA_TRACE_FIXTURE_DIR) + "/" + Name;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Every fixture file name, sorted, read from the directory so that a
/// new fixture is never left out.
std::vector<std::string> allFixtures() {
  std::vector<std::string> Names;
  if (DIR *D = ::opendir(CAFA_TRACE_FIXTURE_DIR)) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 6 && Name.rfind(".trace") == Name.size() - 6)
        Names.push_back(Name);
    }
    ::closedir(D);
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bit-identity across thread counts and shard sizes
//===----------------------------------------------------------------------===//

TEST(IngestSessionTest, ShardedMatchesSingleThreadOnEveryFixture) {
  std::vector<std::string> Names = allFixtures();
  ASSERT_GE(Names.size(), 13u);
  for (const std::string &Name : Names) {
    SCOPED_TRACE(Name);
    std::string Text = readFileOrDie(fixturePath(Name));
    // Reference: one thread, one shard (the whole input).
    IngestOutcome Ref = runIngest(Text, 1, /*ShardBytes=*/UINT64_MAX);
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      // Shard sizes chosen to cut mid-line, mid-record, and mid-token:
      // 1 forces a shard per line, 7 lands inside most tokens.
      for (uint64_t ShardBytes : {1ull, 7ull, 64ull, 4096ull}) {
        IngestOutcome Got = runIngest(Text, Threads, ShardBytes);
        EXPECT_TRUE(Got == Ref)
            << "threads=" << Threads << " shard=" << ShardBytes
            << "\n--- reference ---\n"
            << describe(Ref) << "\n--- got ---\n"
            << describe(Got);
      }
    }
  }
}

TEST(IngestSessionTest, PristineTraceSurvivesShardingUnchanged) {
  std::string Text = buildRichTraceText(50);
  IngestOutcome Ref = runIngest(Text, 1, UINT64_MAX);
  ASSERT_TRUE(Ref.Ok) << describe(Ref);
  EXPECT_EQ(Ref.SerializedTrace, Text); // lossless round-trip
  for (unsigned Threads : {2u, 4u}) {
    IngestOutcome Got = runIngest(Text, Threads, 128);
    EXPECT_TRUE(Got == Ref) << describe(Got);
  }
}

TEST(IngestSessionTest, ReportsAreByteIdenticalAt1And2And8Threads) {
  // A damaged dump with plenty of diagnostics: the report -- counters,
  // diagnostic text, and diagnostic ORDER -- must not depend on worker
  // scheduling in any way.
  std::string Text = buildRichTraceText(40);
  for (uint64_t I = 0; I != 25; ++I) {
    FaultKind Kind = static_cast<FaultKind>(1 + I % (NumFaultKinds - 1));
    Text = injectFault(Text, Kind, /*Seed=*/0xabcdef + I).Text;
  }
  SalvageOptions SOpt;
  SOpt.MaxDiagnostics = 64; // keep every diagnostic comparable
  IngestOutcome One = runIngest(Text, 1, 96, SOpt);
  IngestOutcome Two = runIngest(Text, 2, 96, SOpt);
  IngestOutcome Eight = runIngest(Text, 8, 96, SOpt);
  EXPECT_TRUE(Two == One) << "--- 1 thread ---\n"
                          << describe(One) << "\n--- 2 threads ---\n"
                          << describe(Two);
  EXPECT_TRUE(Eight == One) << "--- 1 thread ---\n"
                            << describe(One) << "\n--- 8 threads ---\n"
                            << describe(Eight);
}

TEST(IngestSessionTest, RandomizedDifferential100Seeds) {
  // 100 seeds x (random damage, random shard size, random thread count):
  // the sharded merge must match the single-thread single-shard
  // reference bit for bit, including when shard cuts land mid-record.
  const std::string Base = buildRichTraceText(30);
  for (uint64_t Seed = 0; Seed != 100; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    // splitmix64 over the seed: cheap, deterministic, well mixed.
    auto Next = [State = Seed + 0x9e3779b97f4a7c15ull]() mutable {
      State += 0x9e3779b97f4a7c15ull;
      uint64_t Z = State;
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
      return Z ^ (Z >> 31);
    };
    std::string Text = Base;
    uint64_t Rounds = 1 + Next() % 8;
    for (uint64_t I = 0; I != Rounds; ++I) {
      FaultKind Kind = static_cast<FaultKind>(Next() % NumFaultKinds);
      Text = injectFault(Text, Kind, Next()).Text;
    }
    IngestOutcome Ref = runIngest(Text, 1, UINT64_MAX);
    uint64_t ShardBytes = 1 + Next() % (Text.size() + 1);
    unsigned Threads = 1 + static_cast<unsigned>(Next() % 8);
    IngestOutcome Got = runIngest(Text, Threads, ShardBytes);
    EXPECT_TRUE(Got == Ref)
        << "threads=" << Threads << " shard=" << ShardBytes
        << " damage-rounds=" << Rounds << "\n--- reference ---\n"
        << describe(Ref) << "\n--- got ---\n"
        << describe(Got);
  }
}

TEST(IngestSessionTest, StrictModeAndBudgetsFailIdenticallyWhenSharded) {
  std::string Text = buildRichTraceText(10);
  Text = injectFault(Text, FaultKind::GarbageLine, 42).Text;
  Text = injectFault(Text, FaultKind::CorruptField, 43).Text;

  SalvageOptions Strict;
  Strict.Strict = true;
  IngestOutcome StrictRef = runIngest(Text, 1, UINT64_MAX, Strict);
  ASSERT_FALSE(StrictRef.Ok);
  for (unsigned Threads : {2u, 8u}) {
    IngestOutcome Got = runIngest(Text, Threads, 32, Strict);
    EXPECT_TRUE(Got == StrictRef) << describe(Got);
  }

  SalvageOptions Budget;
  Budget.MaxDroppedLines = 0; // first dropped line blows the budget
  IngestOutcome BudgetRef = runIngest(Text, 1, UINT64_MAX, Budget);
  ASSERT_FALSE(BudgetRef.Ok);
  for (unsigned Threads : {2u, 8u}) {
    IngestOutcome Got = runIngest(Text, Threads, 32, Budget);
    EXPECT_TRUE(Got == BudgetRef) << describe(Got);
  }
}

TEST(IngestSessionTest, ChunkedFeedMatchesOneShot) {
  std::string Text = buildRichTraceText(20);
  Text = injectFault(Text, FaultKind::TruncateAtOffset, 7).Text;

  IngestOutcome Ref = runIngest(Text, 2, 64);

  IngestOptions O;
  O.Threads = 2;
  O.ShardBytes = 64;
  IngestSession S(O);
  // Feed in awkward prime-sized chunks so chunk boundaries and shard
  // boundaries never coincide.
  for (size_t I = 0; I < Text.size(); I += 131)
    S.feed(std::string_view(Text).substr(I, 131));
  Trace T;
  IngestReport R;
  Status St = S.finish(T, R);
  ASSERT_EQ(St.ok(), Ref.Ok);
  if (St.ok()) {
    EXPECT_EQ(serializeTrace(T), Ref.SerializedTrace);
  }
  EXPECT_EQ(R.summary(), Ref.ReportSummary);
}

//===----------------------------------------------------------------------===//
// Session surface
//===----------------------------------------------------------------------===//

TEST(IngestSessionTest, FinishTwiceFails) {
  IngestSession S;
  Trace T;
  IngestReport R;
  EXPECT_TRUE(S.finish(T, R).ok());
  Status Again = S.finish(T, R);
  EXPECT_FALSE(Again.ok());
  EXPECT_NE(Again.message().find("finish() called twice"),
            std::string::npos);
}

TEST(IngestSessionTest, FeedFileReportsMissingFile) {
  IngestSession S;
  Status St = S.feedFile("/nonexistent/definitely-not-here.trace");
  EXPECT_FALSE(St.ok());
  EXPECT_NE(St.message().find("cannot open"), std::string::npos);
}

TEST(IngestSessionTest, ResolveThreadsHonorsEnvironment) {
  // CI legs run the whole suite under CAFA_INGEST_THREADS; stash any
  // ambient value so the hardware-default probe below is really
  // env-free, and restore it on the way out.
  const char *Ambient = ::getenv("CAFA_INGEST_THREADS");
  std::string Saved = Ambient ? Ambient : "";
  ::unsetenv("CAFA_INGEST_THREADS");

  unsigned HwDefault = IngestSession::resolveThreads(0);
  EXPECT_GE(HwDefault, 1u);
  EXPECT_EQ(IngestSession::resolveThreads(5), 5u);
  EXPECT_EQ(IngestSession::resolveThreads(100000), 256u); // capped

  ::setenv("CAFA_INGEST_THREADS", "3", 1);
  EXPECT_EQ(IngestSession::resolveThreads(0), 3u);
  // Explicit request beats the environment.
  EXPECT_EQ(IngestSession::resolveThreads(2), 2u);
  ::setenv("CAFA_INGEST_THREADS", "not-a-number", 1);
  EXPECT_EQ(IngestSession::resolveThreads(0), HwDefault);

  if (Ambient)
    ::setenv("CAFA_INGEST_THREADS", Saved.c_str(), 1);
  else
    ::unsetenv("CAFA_INGEST_THREADS");
}

TEST(IngestSessionTest, StrictReadingRejectsAnyRepair) {
  std::string Good = buildRichTraceText(5);
  std::string Bad = injectFault(Good, FaultKind::GarbageLine, 11).Text;

  IngestOptions O;
  O.Salvage.Strict = true;

  // A pristine dump parses cleanly and keeps every record.
  {
    Trace T;
    IngestReport R;
    ASSERT_TRUE(ingestTrace(Good, T, R, O).ok());
    EXPECT_EQ(R.RecordsKept, T.numRecords());
    EXPECT_TRUE(R.clean());
  }

  // A damaged dump fails at its first damaged line, leaving the output
  // Trace untouched (strong guarantee) — while default salvage still
  // repairs the same text.
  {
    Trace T;
    IngestReport R;
    Status St = ingestTrace(Bad, T, R, O);
    ASSERT_FALSE(St.ok());
    EXPECT_NE(St.message().find("strict mode: line"), std::string::npos);
    EXPECT_EQ(T.numRecords(), 0u);
    EXPECT_EQ(T.numTasks(), 0u);

    Trace Repaired;
    IngestReport SalvageReport;
    EXPECT_TRUE(ingestTrace(Bad, Repaired, SalvageReport).ok());
    EXPECT_GT(Repaired.numRecords(), 0u);
    EXPECT_FALSE(SalvageReport.clean());
  }
}
