//===- tests/integration/ExitCodesTest.cpp ------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins offline_analyzer's exit-code contract.  The fleet supervisor's
// retry policy keys off these codes (docs/robustness.md section 6,
// docs/fleet.md), so a renumbering that would silently change fleet
// behaviour must fail here first:
//
//   0  analysis completed, no races
//   1  analysis completed, races reported
//   2  usage error / unreadable trace (permanent -- fleet never retries)
//   3  deadline hit, degraded partial report (accepted as done:partial)
//   4  resumed from a checkpoint and completed (counts toward the
//      fleet's ResumedCompletions accounting)
//
// Also pins the cafa_server daemon's contract (docs/server.md): every
// flag, setup, or connection failure exits 2 before any state changes,
// and the usage text keeps documenting the 0/2/6 serve codes.  The
// daemon's happy-path codes (0 drained clean, 6 cut short by a signal)
// are exercised with a live daemon in ServerTest.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Checkpoint.h"
#include "rt/Runtime.h"
#include "trace/TraceIO.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace cafa;

namespace {

struct ExitRun {
  int ExitCode = -1;
  std::string Out;
  std::string Err;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

ExitRun runTool(const char *Binary, const std::vector<std::string> &Args,
                const std::string &ScratchDir) {
  ExitRun R;
  std::string OutPath = ScratchDir + "/ec_stdout";
  std::string ErrPath = ScratchDir + "/ec_stderr";
  pid_t Pid = ::fork();
  if (Pid == 0) {
    std::freopen(OutPath.c_str(), "wb", stdout);
    std::freopen(ErrPath.c_str(), "wb", stderr);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Binary));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Binary, Argv.data());
    _exit(127);
  }
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  R.Out = slurp(OutPath);
  R.Err = slurp(ErrPath);
  return R;
}

ExitRun runAnalyzer(const std::vector<std::string> &Args,
                    const std::string &ScratchDir) {
  return runTool(OFFLINE_ANALYZER_PATH, Args, ScratchDir);
}

class ExitCodesTest : public testing::Test {
protected:
  static std::string Scratch;
  static std::string RacyTrace;  // exits 1
  static std::string CleanTrace; // exits 0

  static void SetUpTestSuite() {
    Scratch = uniqueScratchDir();
    Table1Row Dummy;

    {
      apps::AppBuilder App("racy");
      App.seedIntraThreadRace("alpha");
      App.fillVolumeTo(400);
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      RacyTrace = Scratch + "/racy.trace";
      ASSERT_TRUE(writeTraceFile(T, RacyTrace).ok());
    }
    {
      apps::AppBuilder App("clean");
      App.addGuardedCommutativePair("quiet"); // well-synchronized only
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      CleanTrace = Scratch + "/clean.trace";
      ASSERT_TRUE(writeTraceFile(T, CleanTrace).ok());
    }
  }
};

std::string ExitCodesTest::Scratch;
std::string ExitCodesTest::RacyTrace;
std::string ExitCodesTest::CleanTrace;

TEST_F(ExitCodesTest, Exit0CleanTraceNoRaces) {
  ExitRun R = runAnalyzer({"analyze", CleanTrace}, Scratch);
  EXPECT_EQ(R.ExitCode, 0) << R.Err;
  EXPECT_NE(R.Out.find("0 use-free race(s)"), std::string::npos) << R.Out;
}

TEST_F(ExitCodesTest, Exit1RacesReported) {
  ExitRun R = runAnalyzer({"analyze", RacyTrace}, Scratch);
  EXPECT_EQ(R.ExitCode, 1) << R.Err;
}

TEST_F(ExitCodesTest, Exit2UsageAndUnreadableTrace) {
  // No arguments: usage error.
  ExitRun Usage = runAnalyzer({}, Scratch);
  EXPECT_EQ(Usage.ExitCode, 2);
  // The usage text documents the whole contract, including the chaos
  // hooks the fleet chaos suite drives.
  for (const char *Needle :
       {"0 no races", "1 races", "2 unreadable input",
        "3 degraded/partial analysis",
        "4 resumed from checkpoint and completed", "--chaos-hang-ms",
        "--chaos-kill-after-save", "--chaos-alloc-mb"})
    EXPECT_NE(Usage.Err.find(Needle), std::string::npos)
        << "usage text lost: " << Needle;

  // Missing file.
  ExitRun Missing =
      runAnalyzer({"analyze", Scratch + "/nope.trace"}, Scratch);
  EXPECT_EQ(Missing.ExitCode, 2) << Missing.Err;

  // Garbage bytes: unreadable, permanent, never retried by the fleet.
  std::string Garbage = Scratch + "/garbage.trace";
  {
    std::ofstream Out(Garbage, std::ios::binary);
    Out << "this is not a CAFA trace\n";
  }
  ExitRun Bad = runAnalyzer({"analyze", Garbage}, Scratch);
  EXPECT_EQ(Bad.ExitCode, 2) << Bad.Err;

  // --reach= names only the oracles the analyzer offers; the
  // full-rebuild closure is a test reference, not one of them.
  ExitRun Reach =
      runAnalyzer({"analyze", RacyTrace, "--reach=closure"}, Scratch);
  EXPECT_EQ(Reach.ExitCode, 2) << Reach.Err;

  // Chaos hooks are opt-in and validated: --chaos-kill-after-save is
  // meaningless without a checkpoint dir to watch.
  ExitRun Chaos =
      runAnalyzer({"analyze", RacyTrace, "--chaos-kill-after-save"},
                  Scratch);
  EXPECT_EQ(Chaos.ExitCode, 2) << Chaos.Err;
}

TEST_F(ExitCodesTest, DotReadsTheTraceAsAnalyzeDoes) {
  // A clean app trace: exit 0 and the Graphviz digest on stdout.
  ExitRun Clean = runAnalyzer({"dot", RacyTrace}, Scratch);
  EXPECT_EQ(Clean.ExitCode, 0) << Clean.Err;
  EXPECT_EQ(Clean.Out.rfind("digraph", 0), 0u) << Clean.Out;

  // A well-formed trace whose only fork targets a task it never
  // declares.  Salvage drops the fork (exit 3, like analyze); a reader
  // without salvage's reference checks let the graph index past the
  // task table.
  std::string Dangling =
      std::string(CAFA_TRACE_FIXTURE_DIR) + "/dangling_fork_target.trace";
  ExitRun Salvaged = runAnalyzer({"dot", Dangling}, Scratch);
  EXPECT_EQ(Salvaged.ExitCode, 3) << Salvaged.Err;
  EXPECT_NE(Salvaged.Err.find("fork target 99999"), std::string::npos)
      << Salvaged.Err;
  EXPECT_EQ(Salvaged.Out.rfind("digraph", 0), 0u) << Salvaged.Out;
  EXPECT_EQ(runAnalyzer({"analyze", Dangling}, Scratch).ExitCode, 3);

  // Unreadable input exits 2, as analyze does.
  ExitRun Missing = runAnalyzer({"dot", Scratch + "/nope.trace"}, Scratch);
  EXPECT_EQ(Missing.ExitCode, 2) << Missing.Err;
}

TEST_F(ExitCodesTest, Exit3DeadlineDegradesToPartial) {
  std::string Dir = Scratch + "/deg";
  ::mkdir(Dir.c_str(), 0755);
  ExitRun R = runAnalyzer({"analyze", RacyTrace, "--json",
                           "--deadline=0.000001",
                           "--checkpoint-dir=" + Dir},
                          Scratch);
  EXPECT_EQ(R.ExitCode, 3) << R.Err;
  EXPECT_NE(R.Out.find("\"partial\": true"), std::string::npos) << R.Out;
}

TEST_F(ExitCodesTest, Exit4ResumeFromCheckpointCompletes) {
  std::string Dir = Scratch + "/res";
  ::mkdir(Dir.c_str(), 0755);
  ExitRun Cut = runAnalyzer({"analyze", RacyTrace, "--json",
                             "--deadline=0.000001",
                             "--checkpoint-dir=" + Dir},
                            Scratch);
  ASSERT_EQ(Cut.ExitCode, 3) << Cut.Err;
  ExitRun Resumed = runAnalyzer({"analyze", RacyTrace, "--json",
                                 "--checkpoint-dir=" + Dir, "--resume"},
                                Scratch);
  EXPECT_EQ(Resumed.ExitCode, 4) << Resumed.Err;
  EXPECT_NE(Resumed.Err.find("resumed from checkpoint"),
            std::string::npos)
      << Resumed.Err;
}

TEST_F(ExitCodesTest, ServerUsageAndSetupErrorsExitTwo) {
  // No arguments / unknown subcommand: usage, exit 2, and the usage
  // text keeps documenting the serve and ctl contracts the other
  // suites rely on.
  ExitRun Usage = runTool(CAFA_SERVER_PATH, {}, Scratch);
  EXPECT_EQ(Usage.ExitCode, 2);
  for (const char *Needle :
       {"serve --socket=<path> --store=<path>", "ctl <socket> <command>",
        "submit <id> <trace>", "drain", "--max-queue",
        "--drain-grace", "0 drained clean, 2 usage/setup error",
        "6 drained with jobs cut short"})
    EXPECT_NE(Usage.Err.find(Needle), std::string::npos)
        << "usage text lost: " << Needle;
  EXPECT_EQ(runTool(CAFA_SERVER_PATH, {"bogus"}, Scratch).ExitCode, 2);

  // serve without the mandatory flags, or with an unknown one.
  EXPECT_EQ(runTool(CAFA_SERVER_PATH, {"serve"}, Scratch).ExitCode, 2);
  EXPECT_EQ(runTool(CAFA_SERVER_PATH,
                    {"serve", "--socket=" + Scratch + "/s.sock"},
                    Scratch)
                .ExitCode,
            2)
      << "missing --store must not start a daemon";
  EXPECT_EQ(runTool(CAFA_SERVER_PATH,
                    {"serve", "--socket=" + Scratch + "/s.sock",
                     "--store=" + Scratch + "/s.journal", "--frob"},
                    Scratch)
                .ExitCode,
            2);

  // Setup failures (unbindable socket path) exit 2 before the loop
  // ever runs.
  ExitRun Bind = runTool(
      CAFA_SERVER_PATH,
      {"serve", "--socket=" + Scratch + "/no/such/dir/s.sock",
       "--store=" + Scratch + "/never.journal"},
      Scratch);
  EXPECT_EQ(Bind.ExitCode, 2) << Bind.Err;

  // ctl: too few arguments is usage; an unreachable daemon is a
  // connection failure.  Both exit 2 (a daemon *refusal* exits 1,
  // pinned with a live daemon in ServerTest).
  EXPECT_EQ(runTool(CAFA_SERVER_PATH, {"ctl"}, Scratch).ExitCode, 2);
  ExitRun NoDaemon = runTool(
      CAFA_SERVER_PATH, {"ctl", Scratch + "/no-daemon.sock", "ping"},
      Scratch);
  EXPECT_EQ(NoDaemon.ExitCode, 2) << NoDaemon.Err;
}

} // namespace
