//===- tests/integration/ServerTest.cpp ---------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The analysis daemon end-to-end: a real cafa_server process on a real
// Unix socket, driven through the same serverRequest() client the ctl
// subcommand uses.  The two linchpin suites are restart accumulation --
// two daemon invocations over disjoint submissions must render a store
// aggregate byte-identical to one fleet batch over the union -- and the
// chaos pin: kill -9 the daemon mid-batch, restart it on the same store
// and checkpoint root, resubmit, and the final aggregate must be
// byte-identical to the uninterrupted run, with the resume visible only
// in the status endpoint's resumedCompletions accounting.
//
// No fixed sleeps anywhere: every wait polls the daemon's own status
// endpoint for the state it asserts, so the suite is immune to slow
// machines and never slower than the daemon itself.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "apps/AppKit.h"
#include "cafa/RaceStore.h"
#include "fleet/Fleet.h"
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

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Forks and execs `cafa_server serve <Args...>`, stderr to \p ErrPath.
pid_t spawnDaemon(const std::vector<std::string> &Args,
                  const std::string &ErrPath) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    std::freopen("/dev/null", "wb", stdout);
    std::freopen(ErrPath.c_str(), "wb", stderr);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(CAFA_SERVER_PATH));
    Argv.push_back(const_cast<char *>("serve"));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(CAFA_SERVER_PATH, Argv.data());
    _exit(127);
  }
  return Pid;
}

/// Reaps \p Pid, polling so a wedged daemon fails the test instead of
/// hanging ctest.  Returns the exit code, 128+sig for signal deaths,
/// -2 on timeout (after SIGKILLing the stray).
int waitForExit(pid_t Pid, int TimeoutSeconds = 60) {
  for (int Tick = 0; Tick < TimeoutSeconds * 100; ++Tick) {
    int St = 0;
    if (::waitpid(Pid, &St, WNOHANG) == Pid) {
      if (WIFEXITED(St))
        return WEXITSTATUS(St);
      if (WIFSIGNALED(St))
        return 128 + WTERMSIG(St);
      return -1;
    }
    ::usleep(10 * 1000);
  }
  ::kill(Pid, SIGKILL);
  ::waitpid(Pid, nullptr, 0);
  return -2;
}

/// One control-plane request; empty string on connection failure.
std::string ctl(const std::string &Socket, const std::string &Command) {
  std::string Response;
  if (!serverRequest(Socket, Command, Response).ok())
    return "";
  return Response;
}

/// Polls `<Command>` until the response contains \p Needle.  This is
/// the only wait primitive the suite uses.
testing::AssertionResult pollFor(const std::string &Socket,
                                 const std::string &Needle,
                                 const std::string &Command = "status",
                                 int TimeoutSeconds = 60) {
  std::string Last;
  for (int Tick = 0; Tick < TimeoutSeconds * 100; ++Tick) {
    Last = ctl(Socket, Command);
    if (Last.find(Needle) != std::string::npos)
      return testing::AssertionSuccess();
    ::usleep(10 * 1000);
  }
  return testing::AssertionFailure()
         << "daemon never reported \"" << Needle << "\"; last response:\n"
         << Last;
}

class ServerTest : public testing::Test {
protected:
  static std::string Scratch;
  static std::string RacyTrace;  // several races
  static std::string OtherTrace; // different race population
  static std::string CleanTrace; // no races

  static void SetUpTestSuite() {
    Scratch = uniqueScratchDir();
    Table1Row Dummy;

    {
      apps::AppBuilder App("server_racy");
      App.seedIntraThreadRace("alpha");
      App.seedInterThreadRace("beta");
      App.fillVolumeTo(600);
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      RacyTrace = Scratch + "/racy.trace";
      ASSERT_TRUE(writeTraceFile(T, RacyTrace).ok());
    }
    {
      apps::AppBuilder App("server_other");
      App.seedIntraThreadRace("gamma");
      App.fillVolumeTo(600);
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      OtherTrace = Scratch + "/other.trace";
      ASSERT_TRUE(writeTraceFile(T, OtherTrace).ok());
    }
    {
      apps::AppBuilder App("server_clean");
      App.addGuardedCommutativePair("quiet");
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      CleanTrace = Scratch + "/clean.trace";
      ASSERT_TRUE(writeTraceFile(T, CleanTrace).ok());
    }
  }

  /// Per-test state dir + the standard serve flags: real analyzer,
  /// fast checkpoints, zero-backoff retries.  Socket paths stay short
  /// (sun_path is 108 bytes).  The pid suffix keeps sites unique
  /// across parallel ctest processes and across earlier runs'
  /// leftover stores/checkpoints -- restart tests must restart into
  /// *this* run's state.
  struct Site {
    std::string Dir, Socket, Store, Root, ErrPath;
  };
  Site site(const char *Name) {
    Site S;
    S.Dir = Scratch + "/" + Name + "_" + std::to_string(::getpid());
    ::mkdir(S.Dir.c_str(), 0755);
    S.Socket = S.Dir + "/sock";
    S.Store = S.Dir + "/races.journal";
    S.Root = S.Dir + "/jobs";
    S.ErrPath = S.Dir + "/daemon.stderr";
    return S;
  }
  std::vector<std::string> serveArgs(const Site &S) {
    return {"--socket=" + S.Socket,
            "--store=" + S.Store,
            "--checkpoint-root=" + S.Root,
            "--analyzer=" OFFLINE_ANALYZER_PATH,
            "--checkpoint-every=0.01", // a save at every round boundary
            "--backoff-initial=0"};
  }

  /// Spawns a daemon and waits until its control plane answers.
  pid_t startDaemon(const Site &S, std::vector<std::string> Extra = {}) {
    std::vector<std::string> Args = serveArgs(S);
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    pid_t Pid = spawnDaemon(Args, S.ErrPath);
    EXPECT_TRUE(pollFor(S.Socket, "ok pong", "ping"))
        << slurp(S.ErrPath);
    return Pid;
  }
};

std::string ServerTest::Scratch;
std::string ServerTest::RacyTrace;
std::string ServerTest::OtherTrace;
std::string ServerTest::CleanTrace;

TEST_F(ServerTest, ControlPlaneLifecycle) {
  Site S = site("lifecycle");
  pid_t Pid = startDaemon(S);

  // Admission validates before it queues.
  EXPECT_EQ(ctl(S.Socket, "submit"), "err malformed\n");
  EXPECT_EQ(ctl(S.Socket, "submit ../evil " + RacyTrace),
            "err bad-id\n");
  EXPECT_EQ(ctl(S.Socket, "frobnicate"), "err unknown-command\n");

  // Queue one real analysis and one terminal failure.
  EXPECT_EQ(ctl(S.Socket, "submit racy " + RacyTrace), "ok queued racy\n");
  EXPECT_EQ(ctl(S.Socket, "submit bad " + S.Dir + "/missing.trace"),
            "ok queued bad\n");
  ASSERT_TRUE(pollFor(S.Socket, "\"store\": {\"jobs\": 2"));

  // Resubmitting a stored id is idempotent success, not an error.
  EXPECT_EQ(ctl(S.Socket, "submit racy " + RacyTrace), "ok exists racy\n");

  std::string Status = ctl(S.Socket, "status");
  EXPECT_NE(Status.find("\"draining\": false"), std::string::npos);
  EXPECT_NE(Status.find("\"state\": \"done\""), std::string::npos)
      << Status;
  EXPECT_NE(Status.find("\"state\": \"failed:unreadable\""),
            std::string::npos)
      << Status;

  std::string Report = ctl(S.Socket, "report");
  EXPECT_NE(Report.find("\"summary\""), std::string::npos) << Report;
  EXPECT_NE(Report.find("\"id\": \"racy\""), std::string::npos);
  EXPECT_NE(Report.find("\"failed\": 1"), std::string::npos) << Report;

  EXPECT_EQ(ctl(S.Socket, "compact"), "ok compacted\n");

  // Drain closes admission, then the daemon exits clean.  Everything
  // queued is already terminal here, so the daemon may exit before a
  // late submission even connects -- an explicit refusal and a gone
  // daemon both prove admission closed.
  EXPECT_EQ(ctl(S.Socket, "drain"), "ok draining\n");
  std::string Late = ctl(S.Socket, "submit late " + CleanTrace);
  EXPECT_TRUE(Late == "err draining\n" || Late.empty()) << Late;
  EXPECT_EQ(waitForExit(Pid), ServerExitClean) << slurp(S.ErrPath);

  // The socket is gone, the store persists -- and never admitted the
  // late job.
  struct stat St;
  EXPECT_NE(::stat(S.Socket.c_str(), &St), 0);
  EXPECT_EQ(::stat(S.Store.c_str(), &St), 0);
  RaceStore Replayed;
  ASSERT_TRUE(Replayed.open(S.Store).ok());
  EXPECT_EQ(Replayed.numJobs(), 2u);
  EXPECT_FALSE(Replayed.hasJob("late"));
}

TEST_F(ServerTest, QueueBoundAndSignalDrainExitSix) {
  Site S = site("bound");
  // One slot, no grace: SIGTERM checkpoint-kills immediately.
  pid_t Pid = startDaemon(S, {"--max-queue=1", "--drain-grace=0"});

  // The slot holder hangs far beyond the test's lifetime (extra
  // worker args ride the submit line, as docs/server.md specifies).
  EXPECT_EQ(ctl(S.Socket,
                "submit stuck " + CleanTrace + " --chaos-hang-ms=60000"),
            "ok queued stuck\n");
  EXPECT_TRUE(pollFor(S.Socket, "\"phase\": \"running\""));
  // Admission control: the queue is full while it runs...
  EXPECT_EQ(ctl(S.Socket, "submit next " + CleanTrace),
            "err queue-full\n");
  // ...but resubmitting the active id is not an admission.
  EXPECT_EQ(ctl(S.Socket, "submit stuck " + CleanTrace),
            "ok active stuck\n");

  // SIGTERM: fast drain.  The hung worker is checkpoint-killed, the
  // job ends "interrupted", and the exit code says so.
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  EXPECT_EQ(waitForExit(Pid), ServerExitInterrupted) << slurp(S.ErrPath);

  // Interrupted jobs are resumable work, not results: the store stays
  // empty, and a restarted daemon accepts the id again.
  pid_t Pid2 = startDaemon(S);
  std::string Status = ctl(S.Socket, "status");
  EXPECT_NE(Status.find("\"store\": {\"jobs\": 0"), std::string::npos)
      << Status;
  EXPECT_EQ(ctl(S.Socket, "submit stuck " + CleanTrace),
            "ok queued stuck\n");
  ASSERT_TRUE(pollFor(S.Socket, "\"store\": {\"jobs\": 1"));
  EXPECT_EQ(ctl(S.Socket, "drain"), "ok draining\n");
  EXPECT_EQ(waitForExit(Pid2), ServerExitClean) << slurp(S.ErrPath);
}

TEST_F(ServerTest, RestartAccumulationMatchesOneFleetBatch) {
  // Reference: one fleet batch over the union of both days' traces.
  FleetOptions Ref;
  Ref.AnalyzerPath = OFFLINE_ANALYZER_PATH;
  Ref.CheckpointRoot =
      Scratch + "/accum_ref_" + std::to_string(::getpid());
  Ref.CheckpointEveryMillis = 1;
  Ref.Backoff.InitialMillis = 0;
  FleetJob A, B;
  A.Id = "day1";
  A.TracePath = RacyTrace;
  B.Id = "day2";
  B.TracePath = OtherTrace;
  FleetResult RefResult;
  ASSERT_TRUE(runFleet({A, B}, Ref, RefResult).ok());
  ASSERT_GT(RefResult.DistinctRaces, 0u);

  // Daemon invocation one analyzes day1's trace, then drains.
  Site S = site("accum");
  pid_t Pid = startDaemon(S);
  EXPECT_EQ(ctl(S.Socket, "submit day1 " + RacyTrace),
            "ok queued day1\n");
  ASSERT_TRUE(pollFor(S.Socket, "\"store\": {\"jobs\": 1"));
  EXPECT_EQ(ctl(S.Socket, "drain"), "ok draining\n");
  ASSERT_EQ(waitForExit(Pid), ServerExitClean) << slurp(S.ErrPath);

  // Invocation two reopens the same store and adds day2's trace.  The
  // replayed journal answers for day1 ("ok exists") without re-running
  // anything.
  pid_t Pid2 = startDaemon(S);
  EXPECT_EQ(ctl(S.Socket, "submit day1 " + RacyTrace),
            "ok exists day1\n");
  EXPECT_EQ(ctl(S.Socket, "submit day2 " + OtherTrace),
            "ok queued day2\n");
  ASSERT_TRUE(pollFor(S.Socket, "\"store\": {\"jobs\": 2"));
  std::string Report = ctl(S.Socket, "report");
  EXPECT_EQ(ctl(S.Socket, "drain"), "ok draining\n");
  ASSERT_EQ(waitForExit(Pid2), ServerExitClean) << slurp(S.ErrPath);

  // The accumulated store renders byte-identical to the single batch:
  // same rows, same merged races, same occurrence counts.
  EXPECT_EQ(Report, RefResult.AggregateJson);
}

TEST_F(ServerTest, KillNineRestartResubmitIsByteIdentical) {
  // The acceptance-criteria chaos pin.  Reference first: an
  // uninterrupted daemon over both jobs.
  Site Ref = site("chaos_ref");
  pid_t RefPid = startDaemon(Ref);
  EXPECT_EQ(ctl(Ref.Socket, "submit jobA " + RacyTrace),
            "ok queued jobA\n");
  EXPECT_EQ(ctl(Ref.Socket, "submit jobB " + OtherTrace),
            "ok queued jobB\n");
  ASSERT_TRUE(pollFor(Ref.Socket, "\"store\": {\"jobs\": 2"));
  std::string RefReport = ctl(Ref.Socket, "report");
  EXPECT_EQ(ctl(Ref.Socket, "drain"), "ok draining\n");
  ASSERT_EQ(waitForExit(RefPid), ServerExitClean) << slurp(Ref.ErrPath);

  // Chaos leg.  jobA's worker SIGKILLs itself the moment its snapshot
  // lands; the huge backoff parks the retry so the daemon sits in a
  // deterministic mid-batch state: jobA in backoff with an orphanable
  // checkpoint, jobB completed and stored.
  Site S = site("chaos");
  pid_t Pid = startDaemon(
      S, {"--workers=1", "--backoff-initial=600000", "--seed=7"});
  EXPECT_EQ(ctl(S.Socket, "submit jobA " + RacyTrace +
                              " --chaos-kill-after-save"),
            "ok queued jobA\n");
  EXPECT_EQ(ctl(S.Socket, "submit jobB " + OtherTrace),
            "ok queued jobB\n");
  ASSERT_TRUE(pollFor(S.Socket, "\"id\": \"jobA\", \"phase\": \"backoff\""));
  ASSERT_TRUE(pollFor(S.Socket, "\"store\": {\"jobs\": 1"));

  // kill -9: no drain, no flush, no goodbye.
  ASSERT_EQ(::kill(Pid, SIGKILL), 0);
  EXPECT_EQ(waitForExit(Pid), 128 + SIGKILL);

  // Restart on the same store and checkpoint root; resubmit the
  // remainder.  jobB's result survived in the journal; jobA re-adopts
  // the orphaned checkpoint and completes by *resuming* it (exit 4).
  pid_t Pid2 = startDaemon(S);
  EXPECT_EQ(ctl(S.Socket, "submit jobB " + OtherTrace),
            "ok exists jobB\n");
  EXPECT_EQ(ctl(S.Socket, "submit jobA " + RacyTrace),
            "ok queued jobA\n");
  ASSERT_TRUE(pollFor(S.Socket, "\"store\": {\"jobs\": 2"));

  // The resume is real and visible in the raw accounting...
  std::string Status = ctl(S.Socket, "status");
  EXPECT_NE(Status.find("\"resumedCompletions\": 1"), std::string::npos)
      << Status;
  // ...and invisible in the report: byte-identical to the
  // uninterrupted run.
  EXPECT_EQ(ctl(S.Socket, "report"), RefReport);

  EXPECT_EQ(ctl(S.Socket, "drain"), "ok draining\n");
  ASSERT_EQ(waitForExit(Pid2), ServerExitClean) << slurp(S.ErrPath);

  // And the journal itself replays to the same aggregate after both
  // daemons are gone -- the store is the durable artifact, not the
  // daemon's memory.
  RaceStore Replayed;
  ASSERT_TRUE(Replayed.open(S.Store).ok());
  EXPECT_EQ(Replayed.renderJson(), RefReport);
  EXPECT_EQ(Replayed.stats().ResumedCompletions, 1u);
}

TEST_F(ServerTest, CtlBinarySpeaksTheProtocol) {
  Site S = site("ctlbin");
  pid_t Pid = startDaemon(S);

  auto runCtl = [&](const std::vector<std::string> &Args, int &Exit) {
    std::string OutPath = S.Dir + "/ctl.out";
    pid_t CtlPid = ::fork();
    if (CtlPid == 0) {
      std::freopen(OutPath.c_str(), "wb", stdout);
      std::freopen("/dev/null", "wb", stderr);
      std::vector<char *> Argv;
      Argv.push_back(const_cast<char *>(CAFA_SERVER_PATH));
      Argv.push_back(const_cast<char *>("ctl"));
      for (const std::string &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      ::execv(CAFA_SERVER_PATH, Argv.data());
      _exit(127);
    }
    Exit = waitForExit(CtlPid);
    return slurp(OutPath);
  };

  // ok replies exit 0; "err" replies exit 1; no daemon exits 2.
  int Exit = -1;
  EXPECT_EQ(runCtl({S.Socket, "ping"}, Exit), "ok pong\n");
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(runCtl({S.Socket, "frobnicate"}, Exit),
            "err unknown-command\n");
  EXPECT_EQ(Exit, 1);
  runCtl({S.Dir + "/no-such-socket", "ping"}, Exit);
  EXPECT_EQ(Exit, 2);

  EXPECT_EQ(ctl(S.Socket, "drain"), "ok draining\n");
  EXPECT_EQ(waitForExit(Pid), ServerExitClean) << slurp(S.ErrPath);
}

} // namespace
