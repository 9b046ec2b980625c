//===- tests/integration/CrashRecoveryTest.cpp --------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The checkpoint/resume guarantee at the process level: offline_analyzer
// is run as a subprocess, interrupted -- by a deadline cut or by SIGKILL
// at randomized points mid-analysis -- and resumed.  The resumed run's
// stdout must be byte-identical to an uninterrupted run's, in both text
// and JSON renderings, and a corrupted snapshot must fall back to a
// clean restart with a diagnostic.  Library-level coverage of the same
// machinery lives in CheckpointTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Checkpoint.h"
#include "rt/Runtime.h"
#include "trace/TraceIO.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace cafa;

namespace {

/// Result of one subprocess run of the analyzer.
struct RunResult {
  int ExitCode = -1;    // meaningful only when !Killed
  bool Killed = false;  // the parent SIGKILLed it mid-run
  std::string Out;      // captured stdout (the report)
  std::string Err;      // captured stderr (diagnostics)
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// fork/exec OFFLINE_ANALYZER_PATH with \p Args, capturing stdout and
/// stderr.  With \p KillAfterMillis >= 0 the child is SIGKILLed once
/// that much wall time passes (unless it exits first).
RunResult runAnalyzer(const std::vector<std::string> &Args,
                      const std::string &ScratchDir,
                      int KillAfterMillis = -1) {
  RunResult R;
  std::string OutPath = ScratchDir + "/stdout";
  std::string ErrPath = ScratchDir + "/stderr";

  pid_t Pid = ::fork();
  if (Pid == 0) {
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
    // Poll in 1ms steps so an early exit is observed before the kill.
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

/// One shared trace file (and a larger one for the kill tests), recorded
/// once per process.
class CrashRecoveryTest : public testing::Test {
protected:
  static std::string Scratch;
  static std::string TracePath;

  static void SetUpTestSuite() {
    Scratch = uniqueScratchDir();
    TracePath = Scratch + "/app.trace";

    apps::AppBuilder App("crashy");
    App.seedIntraThreadRace("alpha");
    App.seedInterThreadRace("beta");
    App.addGuardedCommutativePair("delta");
    App.fillVolumeTo(600);
    Table1Row Dummy;
    apps::AppModel Model = App.finish(Dummy);
    Trace T = runScenario(Model.S, RuntimeOptions());
    ASSERT_TRUE(writeTraceFile(T, TracePath).ok());
  }

  /// A fresh checkpoint dir with no stale snapshot.
  std::string freshDir(const std::string &Name) {
    std::string Dir = Scratch + "/" + Name;
    ::mkdir(Dir.c_str(), 0755);
    std::remove(checkpointPath(Dir).c_str());
    return Dir;
  }

  bool snapshotExists(const std::string &Dir) {
    struct stat St;
    return ::stat(checkpointPath(Dir).c_str(), &St) == 0;
  }
};

std::string CrashRecoveryTest::Scratch;
std::string CrashRecoveryTest::TracePath;

TEST_F(CrashRecoveryTest, DeadlineCutThenResumeMatchesByteForByte) {
  for (bool Json : {false, true}) {
    SCOPED_TRACE(Json ? "json" : "text");
    std::string Dir = freshDir(Json ? "cut_json" : "cut_text");
    std::vector<std::string> Render = {"analyze", TracePath};
    if (Json)
      Render.push_back("--json");

    RunResult Ref = runAnalyzer(Render, Dir);
    ASSERT_FALSE(Ref.Killed);
    ASSERT_TRUE(Ref.ExitCode == 0 || Ref.ExitCode == 1) << Ref.Err;
    ASSERT_FALSE(Ref.Out.empty());

    std::vector<std::string> Cut = Render;
    Cut.push_back("--deadline=0.000001");
    Cut.push_back("--checkpoint-dir=" + Dir);
    RunResult CutRun = runAnalyzer(Cut, Dir);
    ASSERT_FALSE(CutRun.Killed);
    EXPECT_EQ(CutRun.ExitCode, 3) << CutRun.Err;
    ASSERT_TRUE(snapshotExists(Dir)) << CutRun.Err;
    EXPECT_NE(CutRun.Out, Ref.Out); // the cut report really was partial

    std::vector<std::string> Resume = Render;
    Resume.push_back("--checkpoint-dir=" + Dir);
    Resume.push_back("--resume");
    RunResult Resumed = runAnalyzer(Resume, Dir);
    ASSERT_FALSE(Resumed.Killed);
    EXPECT_EQ(Resumed.ExitCode, 4) << Resumed.Err;
    EXPECT_NE(Resumed.Err.find("resumed from checkpoint"),
              std::string::npos)
        << Resumed.Err;
    EXPECT_EQ(Resumed.Out, Ref.Out);
    EXPECT_FALSE(snapshotExists(Dir)); // retired on clean completion
  }
}

TEST_F(CrashRecoveryTest, CorruptedSnapshotFallsBackToACleanRun) {
  std::string Dir = freshDir("corrupt");
  RunResult Ref = runAnalyzer({"analyze", TracePath, "--json"}, Dir);
  ASSERT_FALSE(Ref.Killed);

  RunResult Cut = runAnalyzer({"analyze", TracePath, "--json",
                               "--deadline=0.000001",
                               "--checkpoint-dir=" + Dir},
                              Dir);
  ASSERT_FALSE(Cut.Killed);
  ASSERT_TRUE(snapshotExists(Dir));

  // Flip one payload byte; the checksum must catch it.
  std::string Path = checkpointPath(Dir);
  std::string Bytes = readFile(Path);
  ASSERT_GT(Bytes.size(), 40u);
  Bytes[Bytes.size() - 5] = static_cast<char>(Bytes[Bytes.size() - 5] ^ 1);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  RunResult Resumed = runAnalyzer({"analyze", TracePath, "--json",
                                   "--checkpoint-dir=" + Dir, "--resume"},
                                  Dir);
  ASSERT_FALSE(Resumed.Killed);
  EXPECT_NE(Resumed.Err.find("checkpoint rejected"), std::string::npos)
      << Resumed.Err;
  // Clean restart: same report, and *not* exit 4 (nothing was resumed).
  EXPECT_EQ(Resumed.Out, Ref.Out);
  EXPECT_EQ(Resumed.ExitCode, Ref.ExitCode) << Resumed.Err;
}

TEST_F(CrashRecoveryTest, SigkillAtRandomizedPointsResumesByteIdentical) {
  RunResult Ref =
      runAnalyzer({"analyze", TracePath, "--json"}, freshDir("kill_ref"));
  ASSERT_FALSE(Ref.Killed);
  ASSERT_TRUE(Ref.ExitCode == 0 || Ref.ExitCode == 1) << Ref.Err;

  // Kill at spread-out points: some land before the first checkpoint
  // save, some mid-analysis, some after the run already finished.  The
  // invariant is the same everywhere: rerunning with --resume yields
  // exactly the reference report.
  const int KillDelaysMillis[] = {1, 3, 6, 12, 25, 50};
  for (int Delay : KillDelaysMillis) {
    SCOPED_TRACE("kill after " + std::to_string(Delay) + "ms");
    std::string Dir = freshDir("kill_" + std::to_string(Delay));
    RunResult First = runAnalyzer({"analyze", TracePath, "--json",
                                   "--checkpoint-dir=" + Dir,
                                   "--checkpoint-every=1"},
                                  Dir, Delay);
    if (!First.Killed) {
      // Finished before the kill landed; the run must simply be clean.
      EXPECT_EQ(First.Out, Ref.Out);
      continue;
    }

    RunResult Resumed = runAnalyzer({"analyze", TracePath, "--json",
                                     "--checkpoint-dir=" + Dir,
                                     "--checkpoint-every=1", "--resume"},
                                    Dir);
    ASSERT_FALSE(Resumed.Killed);
    // 4 when a snapshot was adopted, 0/1 when the kill landed before the
    // first save (fresh start) -- never 2/3, and always the same bytes.
    EXPECT_TRUE(Resumed.ExitCode == 4 || Resumed.ExitCode == Ref.ExitCode)
        << "exit " << Resumed.ExitCode << "\n"
        << Resumed.Err;
    EXPECT_EQ(Resumed.Out, Ref.Out) << Resumed.Err;
    EXPECT_FALSE(snapshotExists(Dir));
  }
}

TEST_F(CrashRecoveryTest, SigkillUnderChainOracleResumesByteIdentical) {
  // The SIGKILL sweep again with --reach=chain pinned on every leg: the
  // chain oracle's decomposition + clock matrix travels through the v3
  // snapshot and must land a report byte-identical to an uninterrupted
  // chain run -- which itself must match the default-oracle reference.
  RunResult Default =
      runAnalyzer({"analyze", TracePath, "--json"}, freshDir("ckill_def"));
  RunResult Ref = runAnalyzer({"analyze", TracePath, "--json",
                               "--reach=chain"},
                              freshDir("ckill_ref"));
  ASSERT_FALSE(Ref.Killed);
  ASSERT_TRUE(Ref.ExitCode == 0 || Ref.ExitCode == 1) << Ref.Err;
  EXPECT_EQ(Ref.Out, Default.Out); // oracle choice never changes a report

  const int KillDelaysMillis[] = {2, 8, 30};
  for (int Delay : KillDelaysMillis) {
    SCOPED_TRACE("kill after " + std::to_string(Delay) + "ms");
    std::string Dir = freshDir("ckill_" + std::to_string(Delay));
    RunResult First = runAnalyzer({"analyze", TracePath, "--json",
                                   "--reach=chain",
                                   "--checkpoint-dir=" + Dir,
                                   "--checkpoint-every=1"},
                                  Dir, Delay);
    if (!First.Killed) {
      EXPECT_EQ(First.Out, Ref.Out);
      continue;
    }

    RunResult Resumed = runAnalyzer({"analyze", TracePath, "--json",
                                     "--reach=chain",
                                     "--checkpoint-dir=" + Dir,
                                     "--checkpoint-every=1", "--resume"},
                                    Dir);
    ASSERT_FALSE(Resumed.Killed);
    EXPECT_TRUE(Resumed.ExitCode == 4 || Resumed.ExitCode == Ref.ExitCode)
        << "exit " << Resumed.ExitCode << "\n"
        << Resumed.Err;
    EXPECT_EQ(Resumed.Out, Ref.Out) << Resumed.Err;
    EXPECT_FALSE(snapshotExists(Dir));
  }
}

} // namespace
