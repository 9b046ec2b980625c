//===- tests/integration/WindowedAnalysisTest.cpp -----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pipeline-level contract of the pair scan's two access sources
// (docs/windowed-analysis.md): over an extracted AccessDb and over the
// trace stream at every window size and oracle the analyzer renders the
// reference scan's report (tests/ReferenceScan.h), the memory-pressure
// ladder sheds to the stream without changing a byte, a detect scan cut
// under either source resumes under the other (the frontier names
// accesses by ordinal and record, and WindowEvents is excluded from the
// options digest), SIGKILL mid-windowed-run resumes byte-identical at
// the process level, and an input too big for --mem-limit fails with a
// clean usage error unless a window streams it.
//
// AccessDb runs pin WindowEvents = WindowOff: these tests also run under
// the windowed CI leg, where CAFA_WINDOW is set for the whole suite and
// would otherwise silently turn them into stream runs.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "rt/Runtime.h"
#include "support/Rng.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include "ReferenceScan.h"
#include "TestScratch.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace cafa;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> fixtureFiles() {
  std::vector<std::string> Files;
  if (DIR *D = ::opendir(CAFA_TRACE_FIXTURE_DIR)) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 6 && Name.rfind(".trace") == Name.size() - 6)
        Files.push_back(std::string(CAFA_TRACE_FIXTURE_DIR) + "/" + Name);
    }
    ::closedir(D);
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

using Render = std::pair<std::string, std::string>;

/// Both renderings of an analysis at \p Window, ordered by the \p Reach
/// oracle.
Render renderWith(const Trace &T, uint64_t Window, ReachMode Reach) {
  DetectorOptions Opt;
  Opt.WindowEvents = Window;
  Opt.Hb.Reach = Reach;
  AnalysisResult R = analyzeTrace(T, Opt);
  if (Window != DetectorOptions::WindowOff) {
    EXPECT_EQ(R.WindowEventsUsed, Window);
    EXPECT_EQ(R.ExtractMillis, 0.0);
  } else {
    EXPECT_EQ(R.WindowEventsUsed, 0u);
  }
  return {renderRaceReport(R.Report, T), renderRaceReportJson(R.Report, T)};
}

/// Both renderings of the reference scan of \p T under the chain oracle.
Render renderReference(const Trace &T) {
  DetectorOptions Opt;
  Opt.Hb.Reach = ReachMode::Chain;
  RaceReport R = referenceScan(T, Opt);
  return {renderRaceReport(R, T), renderRaceReportJson(R, T)};
}

TEST(WindowedAnalysisTest, FixturesByteIdenticalAcrossWindowSizes) {
  std::vector<std::string> Files = fixtureFiles();
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    Trace T;
    IngestReport Ingest;
    Status S = ingestTrace(readFile(Path), T, Ingest);
    if (!S.ok())
      continue; // rejected fixtures are ingest-layer tests, not ours
    auto [RefText, RefJson] = renderReference(T);
    for (uint64_t Window : {DetectorOptions::WindowOff, uint64_t(64),
                            uint64_t(4096)}) {
      auto [Text, Json] = renderWith(T, Window, ReachMode::Auto);
      EXPECT_EQ(Text, RefText) << "window " << Window;
      EXPECT_EQ(Json, RefJson) << "window " << Window;
    }
  }
}

/// Random structurally valid trace with enough queue traffic to exercise
/// the rule-engine scans and enough pointer traffic to give the detector
/// real pairs (the generator AnalysisThreadsTest pins thread parity
/// with; duplicated by project convention).
Trace randomPtrTrace(uint64_t Seed, size_t Steps) {
  Rng R(Seed);
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 65536);

  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I)
    Queues.push_back(TB.addQueue("q" + std::to_string(I)));

  struct LiveTask {
    TaskId Id;
    bool IsEvent;
    QueueId Queue;
  };
  std::vector<LiveTask> Running, Pending;
  std::vector<TaskId> ActivePerQueue(Queues.size(), TaskId::invalid());
  for (int I = 0, E = 2 + static_cast<int>(R.below(2)); I != E; ++I) {
    TaskId T = TB.addThread("thread" + std::to_string(I));
    TB.begin(T);
    Running.push_back({T, false, QueueId()});
  }

  size_t EventCounter = 0;
  uint32_t Pc = 0;
  for (size_t Step = 0; Step != Steps && !Running.empty(); ++Step) {
    LiveTask &Actor = Running[R.below(Running.size())];
    switch (R.below(10)) {
    case 0: { // send a new event
      QueueId Q = Queues[R.below(Queues.size())];
      bool AtFront = R.chance(1, 5);
      uint64_t Delay = AtFront ? 0 : R.below(4);
      TaskId E = TB.addEvent("event" + std::to_string(EventCounter++), Q,
                             Delay, AtFront, false);
      if (AtFront)
        TB.sendAtFront(Actor.Id, E);
      else
        TB.send(Actor.Id, E, Delay);
      Pending.push_back({E, true, Q});
      break;
    }
    case 1: { // begin a pending event on an idle queue
      for (size_t I = 0; I != Pending.size(); ++I) {
        LiveTask &P = Pending[I];
        if (ActivePerQueue[P.Queue.index()].isValid())
          continue;
        TB.begin(P.Id);
        ActivePerQueue[P.Queue.index()] = P.Id;
        Running.push_back(P);
        Pending.erase(Pending.begin() + static_cast<long>(I));
        break;
      }
      break;
    }
    case 2: { // end an event
      if (Actor.IsEvent && Running.size() > 1) {
        ActivePerQueue[Actor.Queue.index()] = TaskId::invalid();
        TB.end(Actor.Id);
        Running.erase(Running.begin() + (&Actor - Running.data()));
      }
      break;
    }
    case 3: { // lock-guarded access pair
      uint32_t Var = static_cast<uint32_t>(R.below(4));
      uint32_t Lock = static_cast<uint32_t>(R.below(2));
      TB.lockAcquire(Actor.Id, Lock);
      TB.ptrRead(Actor.Id, Var, 9 + Var, M, ++Pc);
      TB.deref(Actor.Id, 9 + Var, DerefKind::Invoke, M, ++Pc);
      TB.lockRelease(Actor.Id, Lock);
      break;
    }
    case 4: // free a cell
      TB.ptrWrite(Actor.Id, static_cast<uint32_t>(R.below(4)), 0, M, ++Pc);
      break;
    default: { // use a cell
      uint32_t Var = static_cast<uint32_t>(R.below(4));
      TB.ptrRead(Actor.Id, Var, 9 + Var, M, ++Pc);
      TB.deref(Actor.Id, 9 + Var, DerefKind::Invoke, M, ++Pc);
      break;
    }
    }
  }
  for (const LiveTask &L : Running)
    TB.end(L.Id);
  return TB.take();
}

class RandomWindowParityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomWindowParityTest, ReportsByteIdenticalAcrossWindowSizes) {
  Trace T = randomPtrTrace(GetParam() * 0x9E3779B97F4A7C15ull + 3, 250);
  ASSERT_TRUE(validateTrace(T).ok()) << validateTrace(T).message();
  auto [RefText, RefJson] = renderReference(T);
  // Both sources: the AccessDb, and the stream at window 64 -- which is
  // deliberately pathological: most traces span a few thousand records,
  // so the scan sweeps dozens of times per run -- and at 1024.  The
  // oracle is an input too: under Bfs the scan's queries are searches.
  for (ReachMode Reach : {ReachMode::Chain, ReachMode::Bfs})
    for (uint64_t Window :
         {DetectorOptions::WindowOff, uint64_t(64), uint64_t(1024)}) {
      auto [Text, Json] = renderWith(T, Window, Reach);
      ASSERT_EQ(Text, RefText) << "seed " << GetParam() << " "
                               << reachModeName(Reach) << " window " << Window;
      ASSERT_EQ(Json, RefJson) << "seed " << GetParam() << " "
                               << reachModeName(Reach) << " window " << Window;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds100, RandomWindowParityTest,
                         testing::Range<uint64_t>(0, 100));

Trace buildAppTrace() {
  apps::AppBuilder App("windowed");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(300);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  return runScenario(Model.S, RuntimeOptions());
}

std::string freshCheckpointDir(const char *Name) {
  std::string Dir = uniqueScratchDir() + "/" + Name;
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

TEST(WindowedAnalysisTest, DeadlineCutResumesWindowedByteIdentical) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("cut");

  DetectorOptions Win;
  Win.WindowEvents = 64;
  AnalysisResult Clean = analyzeTrace(T, Win);
  ASSERT_FALSE(Clean.Report.Partial);

  DetectorOptions Tiny = Win;
  Tiny.DeadlineMillis = 1e-6;
  AnalysisOptions CutOpt(Tiny);
  CutOpt.Checkpoint.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, CutOpt);
  ASSERT_TRUE(Cut.Report.Partial);

  AnalysisOptions ResumeOpt(Win);
  ResumeOpt.Checkpoint.Directory = Dir;
  ResumeOpt.Checkpoint.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, ResumeOpt);
  ASSERT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  EXPECT_FALSE(Resumed.Report.Partial);
  EXPECT_EQ(renderRaceReportJson(Resumed.Report, T),
            renderRaceReportJson(Clean.Report, T));
  EXPECT_EQ(renderRaceReport(Resumed.Report, T),
            renderRaceReport(Clean.Report, T));
  std::remove(checkpointPath(Dir).c_str());
}

// Two unordered threads with 70 uses x 70 frees of one cell: 4900
// candidate pairs, past the scan's 4096-pair clock poll, so a save
// cadence lands one detect snapshot mid-scan.
Trace buildWideScanTrace() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 256);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 70; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 70; ++I)
    TB.ptrWrite(B, 5, 0, M, 100 + I);
  TB.end(B);
  return TB.take();
}

TEST(WindowedAnalysisTest, CrossSourceResumeContinuesTheDetectScan) {
  // WindowEvents is excluded from the options digest, and the detect
  // frontier names accesses by ordinal and record, which both sources
  // share: a scan cut under --window=64 resumes with the window off and
  // the other way round, continuing from the cut (phase "detect") to
  // the uninterrupted report.
  Trace T = buildWideScanTrace();
  DetectorOptions Db;
  Db.WindowEvents = DetectorOptions::WindowOff;
  DetectorOptions Win;
  Win.WindowEvents = 64;
  AnalysisResult Clean = analyzeTrace(T, Db);
  ASSERT_FALSE(Clean.Report.Partial);
  ASSERT_EQ(Clean.Report.Filters.CandidatePairs, 4900u);
  std::string CleanText = renderRaceReport(Clean.Report, T);
  std::string CleanJson = renderRaceReportJson(Clean.Report, T);

  struct Direction {
    const char *Name;
    DetectorOptions CutAs, ResumeAs;
  };
  const Direction Directions[] = {{"window-to-db", Win, Db},
                                  {"db-to-window", Db, Win}};
  for (const Direction &D : Directions) {
    SCOPED_TRACE(D.Name);
    std::string Dir = freshCheckpointDir(D.Name);
    std::string Path = checkpointPath(Dir);

    // Save at every cadence point and keep the detect snapshot: the
    // scan's one poll, 4096 pairs in.  The run then completes and
    // retires its file, so put the kept one back as if the run had
    // been killed after that save.
    AnalysisOptions CutOpt(D.CutAs);
    CutOpt.Checkpoint.Directory = Dir;
    CutOpt.Checkpoint.EveryMillis = 1e-9;
    std::string Kept;
    CutOpt.Checkpoint.AfterSave = [&] {
      AnalysisSnapshot Snap;
      if (loadAnalysisSnapshot(Snap, Path).ok() && Snap.HasDetect)
        Kept = readFile(Path);
    };
    AnalysisResult Cut = analyzeTrace(T, CutOpt);
    EXPECT_EQ(renderRaceReportJson(Cut.Report, T), CleanJson);
    ASSERT_FALSE(Kept.empty());
    std::ofstream(Path, std::ios::binary) << Kept;

    AnalysisOptions ResumeOpt(D.ResumeAs);
    ResumeOpt.Checkpoint.Directory = Dir;
    ResumeOpt.Checkpoint.Resume = true;
    AnalysisResult Resumed = analyzeTrace(T, ResumeOpt);
    EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
    EXPECT_EQ(Resumed.Resume.Phase, "detect");
    EXPECT_FALSE(Resumed.Report.Partial);
    EXPECT_EQ(renderRaceReport(Resumed.Report, T), CleanText);
    EXPECT_EQ(renderRaceReportJson(Resumed.Report, T), CleanJson);
    std::remove(Path.c_str());
  }
}

TEST(WindowedAnalysisTest, MemoryPressureLadderShedsToTheWindow) {
  // The auto ladder must engage only when nothing was requested: pin
  // the environment for the duration (the windowed CI leg exports
  // CAFA_WINDOW for the whole suite).
  char *SavedEnv = std::getenv("CAFA_WINDOW");
  std::string SavedVal = SavedEnv ? SavedEnv : "";
  ::unsetenv("CAFA_WINDOW");

  Trace T = buildAppTrace();
  DetectorOptions Batch;
  Batch.WindowEvents = DetectorOptions::WindowOff;
  AnalysisResult Clean = analyzeTrace(T, Batch);

  // A 1-byte budget downgrades the reachability oracle; the ladder
  // then sheds the detect phase to the windowed scan as well, whose
  // queries the BFS floor then answers.  Pin the chain request: the
  // reach-bfs CI leg's CAFA_REACH would otherwise start at the floor,
  // where there is nothing to downgrade.
  DetectorOptions Squeezed;
  Squeezed.Hb.Reach = ReachMode::Chain;
  Squeezed.Hb.MemLimitBytes = 1;
  AnalysisResult R = analyzeTrace(T, Squeezed);
  EXPECT_TRUE(R.Degradation.DowngradedForMemory);
  EXPECT_TRUE(R.WindowShedByMemory);
  EXPECT_EQ(R.WindowEventsUsed, 65536u);
  EXPECT_GT(R.WindowedDetect.OverlayHighWaterBytes, 0u);
  // Shedding is a memory decision, never a result decision.
  EXPECT_EQ(renderRaceReportJson(R.Report, T),
            renderRaceReportJson(Clean.Report, T));

  // An explicit WindowOff beats the ladder.
  DetectorOptions Pinned = Squeezed;
  Pinned.WindowEvents = DetectorOptions::WindowOff;
  AnalysisResult P = analyzeTrace(T, Pinned);
  EXPECT_FALSE(P.WindowShedByMemory);
  EXPECT_EQ(P.WindowEventsUsed, 0u);
  EXPECT_EQ(renderRaceReportJson(P.Report, T),
            renderRaceReportJson(Clean.Report, T));

  if (SavedEnv)
    ::setenv("CAFA_WINDOW", SavedVal.c_str(), 1);
}

TEST(WindowedAnalysisTest, WindowedFrontierSurvivesSnapshotRoundTrip) {
  // A frontier frozen by a deadline cut on the trace stream comes back
  // from the snapshot file field for field.
  Trace T = buildWideScanTrace();
  TaskIndex Index(T);
  DetectorOptions Tiny;
  Tiny.LocksetFilter = false;
  Tiny.IfGuardFilter = false;
  Tiny.DeadlineMillis = 1e-6;
  HbIndex Hb(T, Index, Tiny.Hb);
  DetectFrontier Saved;
  DetectCheckpointing CutCk;
  CutCk.Save = [&](const DetectFrontier &F) { Saved = F; };
  RaceReport Cut =
      detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 64, nullptr, nullptr,
                                 &CutCk);
  ASSERT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_FALSE(Saved.Races.empty());

  AnalysisSnapshot Snap;
  Snap.NumRecords = T.numRecords();
  Snap.Phase = SnapshotPhase::Detect;
  Snap.Hb = Hb.exportFrontier();
  Snap.HasDetect = true;
  Snap.Detect = Saved;
  std::string Dir = freshCheckpointDir("roundtrip");
  std::string Path = checkpointPath(Dir);
  ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());

  AnalysisSnapshot Back;
  ASSERT_TRUE(loadAnalysisSnapshot(Back, Path).ok());
  ASSERT_TRUE(Back.HasDetect);
  const DetectFrontier &F = Back.Detect;
  EXPECT_EQ(F.CursorRecord, Saved.CursorRecord);
  EXPECT_EQ(F.PairsDoneAtCursor, Saved.PairsDoneAtCursor);
  EXPECT_EQ(F.FiltersShed, Saved.FiltersShed);
  EXPECT_EQ(F.Filters.CandidatePairs, Saved.Filters.CandidatePairs);
  EXPECT_GT(F.Filters.CandidatePairs, 0u);
  ASSERT_EQ(F.Races.size(), Saved.Races.size());
  for (size_t I = 0; I != F.Races.size(); ++I) {
    const DetectFrontier::RaceEntry &E = F.Races[I], &W = Saved.Races[I];
    ASSERT_EQ(std::tie(E.UseOrd, E.FreeOrd, E.UseRecord, E.FreeRecord),
              std::tie(W.UseOrd, W.FreeOrd, W.UseRecord, W.FreeRecord));
    ASSERT_EQ(std::tie(E.UseMethod, E.UsePc, E.FreeMethod, E.FreePc),
              std::tie(W.UseMethod, W.UsePc, W.FreeMethod, W.FreePc));
    ASSERT_EQ(E.DynamicCount, W.DynamicCount);
    ASSERT_EQ(E.SameLooper, W.SameLooper);
  }
  std::remove(Path.c_str());
}

/// fork/exec the analyzer capturing stdout+stderr; SIGKILL after
/// \p KillAfterMillis unless it exits first.  CAFA_WINDOW is scrubbed
/// from the child environment: these tests pass the window (or its
/// absence) explicitly and must mean it even under the windowed CI leg.
struct RunResult {
  int ExitCode = -1;
  bool Killed = false;
  std::string Out, Err;
};

RunResult runAnalyzer(const std::vector<std::string> &Args,
                      const std::string &ScratchDir,
                      int KillAfterMillis = -1) {
  RunResult R;
  std::string OutPath = ScratchDir + "/stdout";
  std::string ErrPath = ScratchDir + "/stderr";
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::unsetenv("CAFA_WINDOW");
    std::freopen(OutPath.c_str(), "wb", stdout);
    std::freopen(ErrPath.c_str(), "wb", stderr);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(OFFLINE_ANALYZER_PATH));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(OFFLINE_ANALYZER_PATH, Argv.data());
    _exit(127);
  }
  if (Pid < 0) {
    ADD_FAILURE() << "fork failed";
    return R;
  }
  int Status = 0;
  if (KillAfterMillis >= 0) {
    int Waited = 0;
    for (;;) {
      pid_t Done = ::waitpid(Pid, &Status, WNOHANG);
      if (Done == Pid)
        break;
      if (Waited >= KillAfterMillis) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      ::usleep(1000);
      ++Waited;
    }
  } else {
    ::waitpid(Pid, &Status, 0);
  }
  R.Killed = WIFSIGNALED(Status);
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  R.Out = readFile(OutPath);
  R.Err = readFile(ErrPath);
  return R;
}

TEST(WindowedAnalysisTest, SigkillMidWindowedRunResumesByteIdentical) {
  std::string Scratch = uniqueScratchDir();
  std::string TracePath = Scratch + "/app.trace";

  apps::AppBuilder App("winkill");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(600);
  Table1Row Dummy;
  Trace T = runScenario(App.finish(Dummy).S, RuntimeOptions());
  ASSERT_TRUE(writeTraceFile(T, TracePath).ok());

  RunResult Ref =
      runAnalyzer({"analyze", TracePath, "--json", "--window=64"}, Scratch);
  ASSERT_FALSE(Ref.Killed);
  ASSERT_TRUE(Ref.ExitCode == 0 || Ref.ExitCode == 1);
  // The windowed run reports the same races as the batch run.
  RunResult Batch = runAnalyzer({"analyze", TracePath, "--json"}, Scratch);
  EXPECT_EQ(Ref.Out, Batch.Out);
  EXPECT_EQ(Ref.ExitCode, Batch.ExitCode);

  for (int Delay : {2, 8, 25}) {
    SCOPED_TRACE("kill after " + std::to_string(Delay) + "ms");
    std::string Dir = Scratch + "/kill_" + std::to_string(Delay);
    ::mkdir(Dir.c_str(), 0755);
    std::remove(checkpointPath(Dir).c_str());
    RunResult First =
        runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                     "--checkpoint-dir=" + Dir, "--checkpoint-every=1"},
                    Dir, Delay);
    if (!First.Killed) {
      EXPECT_EQ(First.Out, Ref.Out);
      continue;
    }
    RunResult Resumed =
        runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                     "--checkpoint-dir=" + Dir, "--checkpoint-every=1",
                     "--resume"},
                    Dir);
    ASSERT_FALSE(Resumed.Killed);
    EXPECT_TRUE(Resumed.ExitCode == 4 || Resumed.ExitCode == Ref.ExitCode);
    EXPECT_EQ(Resumed.Out, Ref.Out);
  }

  // Deterministic variant: the chaos hook kills the worker right after
  // its first snapshot save, wherever that save lands.
  std::string Dir = Scratch + "/chaos";
  ::mkdir(Dir.c_str(), 0755);
  std::remove(checkpointPath(Dir).c_str());
  RunResult Chaos =
      runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                   "--checkpoint-dir=" + Dir, "--checkpoint-every=1",
                   "--chaos-kill-after-save"},
                  Dir, 10000);
  ASSERT_NE(Chaos.ExitCode, 127);
  RunResult Recovered =
      runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                   "--checkpoint-dir=" + Dir, "--checkpoint-every=1",
                   "--resume"},
                  Dir);
  ASSERT_FALSE(Recovered.Killed);
  EXPECT_TRUE(Recovered.ExitCode == 4 || Recovered.ExitCode == Ref.ExitCode);
  EXPECT_EQ(Recovered.Out, Ref.Out);
}

TEST(WindowedAnalysisTest, OversizedInputNeedsAWindowToStream) {
  std::string Scratch = uniqueScratchDir();
  std::string TracePath = Scratch + "/app.trace";
  Trace T = buildAppTrace();
  ASSERT_TRUE(writeTraceFile(T, TracePath).ok());
  struct stat St;
  ASSERT_EQ(::stat(TracePath.c_str(), &St), 0);
  ASSERT_GT(St.st_size, 2048);

  // Without a window the whole input must fit the budget: the analyzer
  // fails up front with a usage error instead of OOMing mid-ingest.
  RunResult Refused = runAnalyzer(
      {"analyze", TracePath, "--json", "--mem-limit=2048"}, Scratch);
  EXPECT_EQ(Refused.ExitCode, 2);
  EXPECT_NE(Refused.Err.find("memory budget"), std::string::npos)
      << Refused.Err;

  // The same budget with a window streams the input and completes.
  RunResult Streamed = runAnalyzer(
      {"analyze", TracePath, "--json", "--mem-limit=2048", "--window=64"},
      Scratch);
  EXPECT_TRUE(Streamed.ExitCode == 0 || Streamed.ExitCode == 1)
      << Streamed.ExitCode << "\n"
      << Streamed.Err;
  RunResult Plain = runAnalyzer({"analyze", TracePath, "--json"}, Scratch);
  EXPECT_EQ(Streamed.Out, Plain.Out);
}

} // namespace
