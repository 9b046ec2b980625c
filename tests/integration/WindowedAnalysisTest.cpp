//===- tests/integration/WindowedAnalysisTest.cpp -----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pipeline-level contract of the windowed streaming analysis
// (docs/windowed-analysis.md): at every window size and thread count
// the analyzer renders byte-identical reports, the memory-pressure
// ladder sheds to the window without changing a byte, a run cut in
// either detect mode resumes in the other (the snapshot's happens-
// before frontier is mode-agnostic and WindowEvents is excluded from
// the options digest), SIGKILL mid-windowed-run resumes byte-identical
// at the process level, and an input too big for --mem-limit fails
// with a clean usage error unless a window streams it.
//
// Batch references pin WindowEvents = WindowOff: these tests also run
// under the windowed CI leg, where CAFA_WINDOW is set for the whole
// suite and would otherwise silently turn the reference windowed.
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

/// Both renderings of an analysis at \p Window / \p Threads.
std::pair<std::string, std::string> renderWith(const Trace &T,
                                               uint64_t Window,
                                               unsigned Threads) {
  DetectorOptions Opt;
  Opt.WindowEvents = Window;
  Opt.Hb.Threads = Threads;
  AnalysisResult R = analyzeTrace(T, Opt);
  if (Window != DetectorOptions::WindowOff) {
    EXPECT_EQ(R.WindowEventsUsed, Window);
    EXPECT_EQ(R.ExtractMillis, 0.0);
  } else {
    EXPECT_EQ(R.WindowEventsUsed, 0u);
  }
  return {renderRaceReport(R.Report, T), renderRaceReportJson(R.Report, T)};
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
    auto [RefText, RefJson] = renderWith(T, DetectorOptions::WindowOff, 1);
    for (uint64_t Window : {uint64_t(64), uint64_t(4096)})
      for (unsigned Threads : {1u, 4u}) {
        auto [Text, Json] = renderWith(T, Window, Threads);
        EXPECT_EQ(Text, RefText)
            << "window " << Window << ", " << Threads << " threads";
        EXPECT_EQ(Json, RefJson)
            << "window " << Window << ", " << Threads << " threads";
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
  auto [RefText, RefJson] = renderWith(T, DetectorOptions::WindowOff, 1);
  // Window 64 is deliberately pathological: most traces span a few
  // thousand records, so the scan sweeps dozens of times per run.
  for (uint64_t Window : {uint64_t(64), uint64_t(1024)})
    for (unsigned Threads : {1u, 4u}) {
      auto [Text, Json] = renderWith(T, Window, Threads);
      ASSERT_EQ(Text, RefText) << "seed " << GetParam() << " window "
                               << Window << " at " << Threads << " threads";
      ASSERT_EQ(Json, RefJson) << "seed " << GetParam() << " window "
                               << Window << " at " << Threads << " threads";
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

TEST(WindowedAnalysisTest, CrossModeResumeRecomputesNeverRejects) {
  // WindowEvents is excluded from the options digest on purpose: a
  // snapshot cut in one detect mode must resume in the other.  The
  // happens-before frontier is mode-agnostic; any frozen detect
  // frontier of the *other* mode is simply not applicable and the
  // detect phase recomputes from the restored relation.
  Trace T = buildAppTrace();
  DetectorOptions Batch;
  Batch.WindowEvents = DetectorOptions::WindowOff;
  DetectorOptions Win;
  Win.WindowEvents = 64;
  AnalysisResult Clean = analyzeTrace(T, Batch);
  ASSERT_FALSE(Clean.Report.Partial);
  std::string CleanJson = renderRaceReportJson(Clean.Report, T);

  struct Direction {
    const char *Name;
    DetectorOptions CutAs, ResumeAs;
  };
  const Direction Directions[] = {{"batch-to-windowed", Batch, Win},
                                  {"windowed-to-batch", Win, Batch}};
  for (const Direction &D : Directions) {
    SCOPED_TRACE(D.Name);
    std::string Dir = freshCheckpointDir(D.Name);
    DetectorOptions Tiny = D.CutAs;
    Tiny.DeadlineMillis = 1e-6;
    AnalysisOptions CutOpt(Tiny);
    CutOpt.Checkpoint.Directory = Dir;
    AnalysisResult Cut = analyzeTrace(T, CutOpt);
    ASSERT_TRUE(Cut.Report.Partial);

    AnalysisOptions ResumeOpt(D.ResumeAs);
    ResumeOpt.Checkpoint.Directory = Dir;
    ResumeOpt.Checkpoint.Resume = true;
    AnalysisResult Resumed = analyzeTrace(T, ResumeOpt);
    EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
    EXPECT_FALSE(Resumed.Report.Partial);
    EXPECT_EQ(renderRaceReportJson(Resumed.Report, T), CleanJson);
    std::remove(checkpointPath(Dir).c_str());
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
  // then sheds the detect phase to the windowed scan as well.
  DetectorOptions Squeezed;
  Squeezed.Hb.MemLimitBytes = 1;
  AnalysisResult R = analyzeTrace(T, Squeezed);
  EXPECT_TRUE(R.Degradation.DowngradedForMemory);
  EXPECT_TRUE(R.WindowShedByMemory);
  EXPECT_EQ(R.WindowEventsUsed, 65536u);
  EXPECT_GT(R.WindowedDetect.OverlayHighWaterBytes, 0u);
  // Shedding is a memory decision, never a result decision.
  EXPECT_EQ(renderRaceReportJson(R.Report, T),
            renderRaceReportJson(Clean.Report, T));

  // An explicit batch pin beats the ladder.
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
  AnalysisSnapshot Snap;
  Snap.TraceFingerprint = 0x1122334455667788ull;
  Snap.NumRecords = 42;
  Snap.OptionsDigest = 0x99aabbccddeeff00ull;
  Snap.Phase = SnapshotPhase::Detect;
  Snap.Hb.Saturated = true;
  Snap.HasWindowedDetect = true;
  Snap.WindowedDetect.CursorRecord = 37;
  Snap.WindowedDetect.PairsDoneAtCursor = 12;
  Snap.WindowedDetect.FiltersShed = true;
  Snap.WindowedDetect.Filters.CandidatePairs = 4242;
  Snap.WindowedDetect.Filters.SameTask = 7;
  Snap.WindowedDetect.Survivors = {{1, 2, 10, 20, 5, 6, 7, 8, 1},
                                   {3, 4, 30, 40, 9, 10, 11, 12, 0}};

  std::string Dir = freshCheckpointDir("roundtrip");
  std::string Path = checkpointPath(Dir);
  ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());

  AnalysisSnapshot Back;
  ASSERT_TRUE(loadAnalysisSnapshot(Back, Path).ok());
  ASSERT_TRUE(Back.HasWindowedDetect);
  EXPECT_EQ(Back.WindowedDetect.CursorRecord, 37u);
  EXPECT_EQ(Back.WindowedDetect.PairsDoneAtCursor, 12u);
  EXPECT_TRUE(Back.WindowedDetect.FiltersShed);
  EXPECT_EQ(Back.WindowedDetect.Filters.CandidatePairs, 4242u);
  EXPECT_EQ(Back.WindowedDetect.Filters.SameTask, 7u);
  ASSERT_EQ(Back.WindowedDetect.Survivors.size(), 2u);
  EXPECT_EQ(Back.WindowedDetect.Survivors[0].FreeRecord, 20u);
  EXPECT_EQ(Back.WindowedDetect.Survivors[0].SameLooper, 1u);
  EXPECT_EQ(Back.WindowedDetect.Survivors[1].FreePc, 12u);
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
