//===- tests/integration/AnalysisThreadsTest.cpp ------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The parallel-analysis determinism contract (docs/robustness.md): for
// every thread count, the analysis phase -- closure sweeps, rule-engine
// scans, detector pair scan -- must render byte-identical reports.
// Pinned three ways: over the committed trace fixtures, over randomized
// traces (100 seeds), and at the process level with SIGKILL landing
// mid-run while CAFA_ANALYSIS_THREADS=4.
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

/// Both renderings of an analysis at \p Threads analysis threads.
std::pair<std::string, std::string> renderAt(const Trace &T,
                                             unsigned Threads) {
  DetectorOptions Opt;
  Opt.Hb.Threads = Threads;
  AnalysisResult R = analyzeTrace(T, Opt);
  return {renderRaceReport(R.Report, T), renderRaceReportJson(R.Report, T)};
}

TEST(AnalysisThreadsTest, FixturesByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> Files = fixtureFiles();
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    Trace T;
    IngestReport Ingest;
    Status S = ingestTrace(readFile(Path), T, Ingest);
    if (!S.ok())
      continue; // rejected fixtures are ingest-layer tests, not ours
    auto [RefText, RefJson] = renderAt(T, 1);
    for (unsigned Threads : {2u, 4u, 8u}) {
      auto [Text, Json] = renderAt(T, Threads);
      EXPECT_EQ(Text, RefText) << Threads << " threads";
      EXPECT_EQ(Json, RefJson) << Threads << " threads";
    }
  }
}

/// Random structurally valid trace with enough queue traffic to exercise
/// the rule-engine scans and enough pointer traffic to give the detector
/// real pairs.
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

class RandomThreadParityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomThreadParityTest, ReportsByteIdenticalAcrossThreadCounts) {
  Trace T = randomPtrTrace(GetParam() * 2654435761u + 11, 250);
  ASSERT_TRUE(validateTrace(T).ok()) << validateTrace(T).message();
  auto [RefText, RefJson] = renderAt(T, 1);
  for (unsigned Threads : {4u, 8u}) {
    auto [Text, Json] = renderAt(T, Threads);
    ASSERT_EQ(Text, RefText) << "seed " << GetParam() << " at " << Threads
                             << " threads";
    ASSERT_EQ(Json, RefJson) << "seed " << GetParam() << " at " << Threads
                             << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds100, RandomThreadParityTest,
                         testing::Range<uint64_t>(0, 100));

TEST(AnalysisThreadsTest, CheckpointCutAtOneThreadResumesAtFour) {
  // Thread count is excluded from the checkpoint options digest on
  // purpose: a snapshot cut at one thread count must resume cleanly at
  // another and still match the uninterrupted report byte for byte.
  apps::AppBuilder App("xthreads");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.fillVolumeTo(300);
  Table1Row Dummy;
  Trace T = runScenario(App.finish(Dummy).S, RuntimeOptions());

  std::string Dir = uniqueScratchDir();

  DetectorOptions Ref;
  Ref.Hb.Threads = 1;
  AnalysisResult Clean = analyzeTrace(T, Ref);
  ASSERT_FALSE(Clean.Report.Partial);

  DetectorOptions Tiny = Ref;
  Tiny.DeadlineMillis = 1e-6;
  AnalysisOptions CutOpt(Tiny);
  CutOpt.Checkpoint.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, CutOpt);
  ASSERT_TRUE(Cut.Report.Partial);

  DetectorOptions Par;
  Par.Hb.Threads = 4;
  AnalysisOptions ResumeOpt(Par);
  ResumeOpt.Checkpoint.Directory = Dir;
  ResumeOpt.Checkpoint.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, ResumeOpt);
  ASSERT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  EXPECT_FALSE(Resumed.Report.Partial);
  EXPECT_EQ(renderRaceReportJson(Resumed.Report, T),
            renderRaceReportJson(Clean.Report, T));
  std::remove(checkpointPath(Dir).c_str());
}

/// fork/exec the analyzer with CAFA_ANALYSIS_THREADS=4 in the child's
/// environment, capturing stdout; SIGKILL after \p KillAfterMillis
/// unless it exits first (mirrors CrashRecoveryTest::runAnalyzer).
struct RunResult {
  int ExitCode = -1;
  bool Killed = false;
  std::string Out;
};

RunResult runParallelAnalyzer(const std::vector<std::string> &Args,
                              const std::string &ScratchDir,
                              int KillAfterMillis = -1) {
  RunResult R;
  std::string OutPath = ScratchDir + "/stdout";
  std::string ErrPath = ScratchDir + "/stderr";
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::setenv("CAFA_ANALYSIS_THREADS", "4", 1);
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
  return R;
}

TEST(AnalysisThreadsTest, SigkillUnderParallelAnalysisResumesByteIdentical) {
  std::string Scratch = uniqueScratchDir();
  std::string TracePath = Scratch + "/app.trace";

  apps::AppBuilder App("parkill");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(600);
  Table1Row Dummy;
  Trace T = runScenario(App.finish(Dummy).S, RuntimeOptions());
  ASSERT_TRUE(writeTraceFile(T, TracePath).ok());

  RunResult Ref =
      runParallelAnalyzer({"analyze", TracePath, "--json"}, Scratch);
  ASSERT_FALSE(Ref.Killed);
  ASSERT_TRUE(Ref.ExitCode == 0 || Ref.ExitCode == 1);

  for (int Delay : {2, 8, 25}) {
    SCOPED_TRACE("kill after " + std::to_string(Delay) + "ms");
    std::string Dir = Scratch + "/kill_" + std::to_string(Delay);
    ::mkdir(Dir.c_str(), 0755);
    std::remove(checkpointPath(Dir).c_str());
    RunResult First = runParallelAnalyzer({"analyze", TracePath, "--json",
                                           "--checkpoint-dir=" + Dir,
                                           "--checkpoint-every=1"},
                                          Dir, Delay);
    if (!First.Killed) {
      EXPECT_EQ(First.Out, Ref.Out);
      continue;
    }
    RunResult Resumed = runParallelAnalyzer(
        {"analyze", TracePath, "--json", "--checkpoint-dir=" + Dir,
         "--checkpoint-every=1", "--resume"},
        Dir);
    ASSERT_FALSE(Resumed.Killed);
    EXPECT_TRUE(Resumed.ExitCode == 4 || Resumed.ExitCode == Ref.ExitCode);
    EXPECT_EQ(Resumed.Out, Ref.Out);
  }
}

} // namespace
