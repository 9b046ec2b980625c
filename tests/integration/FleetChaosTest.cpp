//===- tests/integration/FleetChaosTest.cpp -----------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The fleet supervisor under chaos: a batch is seeded with workers that
// are SIGKILLed mid-analysis, hang forever, OOM inside an RLIMIT_AS
// jail, or chew on corrupt input -- and the batch must still terminate,
// with every healthy job's report byte-identical to a fault-free run
// and every faulty job in a deterministic terminal state.  The
// linchpin assertion is "retry is resume": a job whose worker died
// after saving a snapshot must complete on the retry with exit 4
// (resumed-from-checkpoint), not by redoing the analysis from scratch.
//
// The chaos itself is deterministic: the analyzer's --chaos-* hooks
// (kill-after-save, hang, alloc ballast) are injected per (job,
// attempt) through FleetOptions::ChaosArgsForAttempt, so every run
// replays the same fault schedule.
//
//===----------------------------------------------------------------------===//

#include "fleet/Fleet.h"

#include "apps/AppKit.h"
#include "rt/Runtime.h"
#include "trace/FaultInjector.h"
#include "trace/TraceIO.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define CAFA_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAFA_HAS_ASAN 1
#endif
#endif

using namespace cafa;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

class FleetChaosTest : public testing::Test {
protected:
  static std::string Scratch;
  static std::string RacyTrace;    // medium, several races
  static std::string OtherTrace;   // different race population
  static std::string CleanTrace;   // small, no races
  static std::string DamagedTrace; // FaultInjector-truncated RacyTrace
  static std::string GarbageTrace; // not a trace at all

  static void SetUpTestSuite() {
    Scratch = uniqueScratchDir();
    Table1Row Dummy;

    {
      apps::AppBuilder App("fleet_racy");
      App.seedIntraThreadRace("alpha");
      App.seedInterThreadRace("beta");
      App.fillVolumeTo(600);
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      RacyTrace = Scratch + "/racy.trace";
      ASSERT_TRUE(writeTraceFile(T, RacyTrace).ok());
    }
    {
      apps::AppBuilder App("fleet_other");
      App.seedIntraThreadRace("gamma");
      App.fillVolumeTo(600);
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      OtherTrace = Scratch + "/other.trace";
      ASSERT_TRUE(writeTraceFile(T, OtherTrace).ok());
    }
    {
      apps::AppBuilder App("fleet_clean");
      App.addGuardedCommutativePair("quiet");
      apps::AppModel Model = App.finish(Dummy);
      Trace T = runScenario(Model.S, RuntimeOptions());
      CleanTrace = Scratch + "/clean.trace";
      ASSERT_TRUE(writeTraceFile(T, CleanTrace).ok());
    }
    {
      // A logger stream that died mid-record: salvage must repair it
      // into a degraded (exit 3) analysis, not an unreadable one.  The
      // seed is chosen so the (deterministic) cut lands mid-file --
      // deep enough that records are genuinely lost, not in the
      // header where the result would be a benign short trace.
      InjectedFault Fault = injectFault(
          slurp(RacyTrace), FaultKind::TruncateAtOffset, /*Seed=*/6);
      DamagedTrace = Scratch + "/damaged.trace";
      std::ofstream Out(DamagedTrace, std::ios::binary);
      Out << Fault.Text;
    }
    {
      GarbageTrace = Scratch + "/garbage.trace";
      std::ofstream Out(GarbageTrace, std::ios::binary);
      Out << "not a CAFA trace\n";
    }
  }

  /// Common options: real analyzer, fast deterministic retries.
  FleetOptions baseOptions(const std::string &RootName) {
    FleetOptions Options;
    Options.AnalyzerPath = OFFLINE_ANALYZER_PATH;
    Options.CheckpointRoot = Scratch + "/" + RootName;
    // Snapshot at every fixpoint round boundary: a chaos kill then
    // lands mid-analysis however fast the analysis runs.
    Options.CheckpointEveryMillis = 0.01;
    Options.Backoff.InitialMillis = 0; // zero-sleep fast path
    return Options;
  }

  FleetJob job(const char *Id, const std::string &Trace) {
    FleetJob Job;
    Job.Id = Id;
    Job.TracePath = Trace;
    return Job;
  }

  const FleetJobResult *find(const FleetResult &R, const char *Id) {
    for (const FleetJobResult &Job : R.Jobs)
      if (Job.Id == Id)
        return &Job;
    return nullptr;
  }
};

std::string FleetChaosTest::Scratch;
std::string FleetChaosTest::RacyTrace;
std::string FleetChaosTest::OtherTrace;
std::string FleetChaosTest::CleanTrace;
std::string FleetChaosTest::DamagedTrace;
std::string FleetChaosTest::GarbageTrace;

TEST_F(FleetChaosTest, ChaosBatchTerminatesInDeterministicTerminalStates) {
  // Fault-free reference: what the healthy jobs must reproduce.
  FleetResult Ref;
  ASSERT_TRUE(runFleet({job("healthy", RacyTrace)}, baseOptions("ref"),
                       Ref)
                  .ok());
  ASSERT_EQ(Ref.Jobs[0].State, "done");
  ASSERT_FALSE(Ref.Jobs[0].ReportJson.empty());

  FleetOptions Options = baseOptions("chaos");
  Options.Workers = 3;
  Options.MaxAttempts = 2;
  Options.WatchdogMillis = 4000;
  Options.ChaosArgsForAttempt =
      [](const FleetJob &Job,
         unsigned Attempt) -> std::vector<std::string> {
    if (Job.Id == "kill_me" && Attempt == 1)
      return {"--chaos-kill-after-save"}; // SIGKILL once a snapshot lands
    if (Job.Id == "hang_me")
      return {"--chaos-hang-ms=60000"}; // far beyond the watchdog
    return {};
  };

  FleetResult Result;
  ASSERT_TRUE(runFleet({job("healthy", RacyTrace),
                        job("kill_me", RacyTrace),
                        job("hang_me", CleanTrace),
                        job("corrupt", DamagedTrace),
                        job("garbage", GarbageTrace)},
                       Options, Result)
                  .ok());
  ASSERT_EQ(Result.Jobs.size(), 5u);
  // Input order is preserved no matter which worker finished first.
  EXPECT_EQ(Result.Jobs[0].Id, "healthy");
  EXPECT_EQ(Result.Jobs[4].Id, "garbage");

  // Healthy job: untouched by its neighbours' chaos, byte-identical
  // report to the fault-free run.
  const FleetJobResult *Healthy = find(Result, "healthy");
  ASSERT_NE(Healthy, nullptr);
  EXPECT_EQ(Healthy->State, "done");
  EXPECT_EQ(Healthy->Attempts, 1u);
  EXPECT_EQ(Healthy->ReportJson, Ref.Jobs[0].ReportJson);

  // Killed worker: the retry *resumed* the dead worker's snapshot
  // (exit 4), and the resumed report is still byte-identical.
  const FleetJobResult *Killed = find(Result, "kill_me");
  ASSERT_NE(Killed, nullptr);
  EXPECT_EQ(Killed->State, "done");
  EXPECT_EQ(Killed->Attempts, 2u);
  EXPECT_TRUE(Killed->Resumed);
  EXPECT_EQ(Killed->FinalExitCode, 4) << Killed->History.back().Command;
  EXPECT_EQ(Killed->ReportJson, Ref.Jobs[0].ReportJson);
  ASSERT_EQ(Killed->History.size(), 2u);
  EXPECT_TRUE(Killed->History[0].Signaled);
  EXPECT_EQ(Killed->History[0].Signal, SIGKILL);
  EXPECT_EQ(Killed->History[0].Cause, "crash-SIGKILL");

  // Hung worker: watchdog-killed on every attempt, terminal failure.
  const FleetJobResult *Hung = find(Result, "hang_me");
  ASSERT_NE(Hung, nullptr);
  EXPECT_EQ(Hung->State, "failed:hung");
  EXPECT_EQ(Hung->Attempts, 2u);
  for (const FleetAttempt &A : Hung->History) {
    EXPECT_TRUE(A.TimedOut);
    EXPECT_EQ(A.Cause, "hung");
  }
  EXPECT_TRUE(Hung->ReportJson.empty());

  // Corrupt-but-salvageable input: the worker degrades (exit 3), the
  // fleet accepts the partial report without burning retries.
  const FleetJobResult *Corrupt = find(Result, "corrupt");
  ASSERT_NE(Corrupt, nullptr);
  EXPECT_EQ(Corrupt->State, "done:partial") << Corrupt->ReportJson;
  EXPECT_EQ(Corrupt->Attempts, 1u);
  EXPECT_EQ(Corrupt->FinalExitCode, 3);
  EXPECT_TRUE(Corrupt->Partial);

  // Unreadable input: permanent, exactly one attempt, never retried.
  const FleetJobResult *Garbage = find(Result, "garbage");
  ASSERT_NE(Garbage, nullptr);
  EXPECT_EQ(Garbage->State, "failed:unreadable");
  EXPECT_EQ(Garbage->Attempts, 1u);

  // Batch accounting: the exit-code-4 bookkeeping proves the resume.
  EXPECT_EQ(Result.Done, 2u);
  EXPECT_EQ(Result.Partial, 1u);
  EXPECT_EQ(Result.Failed, 2u);
  EXPECT_EQ(Result.Retries, 2u); // kill_me + one hang retry
  EXPECT_EQ(Result.ResumedCompletions, 1u);
}

TEST_F(FleetChaosTest, OomInsideRlimitJailRetriesAndCompletes) {
#ifdef CAFA_HAS_ASAN
  GTEST_SKIP() << "RLIMIT_AS jail conflicts with ASan shadow memory";
#endif
  FleetOptions Options = baseOptions("oom");
  Options.MaxAttempts = 2;
  Options.RlimitBytes = 512u << 20; // jail: 512 MiB of address space

  // Attempt 1 carries 1 GiB of ballast: the allocation blows the jail
  // (bad_alloc -> terminate -> SIGABRT).  Attempt 2 runs clean.
  Options.ChaosArgsForAttempt =
      [](const FleetJob &,
         unsigned Attempt) -> std::vector<std::string> {
    if (Attempt == 1)
      return {"--chaos-alloc-mb=1024"};
    return {};
  };

  FleetResult Result;
  ASSERT_TRUE(
      runFleet({job("oom_me", RacyTrace)}, Options, Result).ok());
  const FleetJobResult &Job = Result.Jobs[0];
  EXPECT_EQ(Job.State, "done") << Job.History.back().Cause;
  EXPECT_EQ(Job.Attempts, 2u);
  ASSERT_EQ(Job.History.size(), 2u);
  EXPECT_EQ(Job.History[0].Cause, "oom") << Job.History[0].Command;
  EXPECT_TRUE(Job.History[0].Signaled);
  EXPECT_FALSE(Job.ReportJson.empty());
}

TEST_F(FleetChaosTest, TwoJobsOneRootResumeIndependently) {
  // Regression: two jobs sharing one checkpoint *root* must not share a
  // snapshot.  Both workers are killed after saving; both retries must
  // resume from their own sub-directory and land their own report.
  FleetResult RefA, RefB;
  ASSERT_TRUE(
      runFleet({job("a", RacyTrace)}, baseOptions("tworef_a"), RefA)
          .ok());
  ASSERT_TRUE(
      runFleet({job("b", OtherTrace)}, baseOptions("tworef_b"), RefB)
          .ok());
  ASSERT_NE(RefA.Jobs[0].ReportJson, RefB.Jobs[0].ReportJson);

  FleetOptions Options = baseOptions("tworoot");
  Options.Workers = 2;
  Options.MaxAttempts = 3;
  Options.ChaosArgsForAttempt =
      [](const FleetJob &,
         unsigned Attempt) -> std::vector<std::string> {
    if (Attempt == 1)
      return {"--chaos-kill-after-save"};
    return {};
  };
  EXPECT_NE(fleetJobDir(Options.CheckpointRoot, "a"),
            fleetJobDir(Options.CheckpointRoot, "b"));

  FleetResult Result;
  ASSERT_TRUE(
      runFleet({job("a", RacyTrace), job("b", OtherTrace)}, Options,
               Result)
          .ok());
  for (const FleetJobResult &Job : Result.Jobs) {
    EXPECT_EQ(Job.State, "done") << Job.Id;
    EXPECT_EQ(Job.Attempts, 2u) << Job.Id;
    EXPECT_TRUE(Job.Resumed) << Job.Id;
  }
  // Each job resumed *its own* analysis: reports match their own
  // references, not each other's.
  EXPECT_EQ(Result.Jobs[0].ReportJson, RefA.Jobs[0].ReportJson);
  EXPECT_EQ(Result.Jobs[1].ReportJson, RefB.Jobs[0].ReportJson);
  EXPECT_EQ(Result.ResumedCompletions, 2u);

  // Both sub-directories really exist on disk.
  struct stat St;
  EXPECT_EQ(
      ::stat(fleetJobDir(Options.CheckpointRoot, "a").c_str(), &St), 0);
  EXPECT_EQ(
      ::stat(fleetJobDir(Options.CheckpointRoot, "b").c_str(), &St), 0);
}

TEST_F(FleetChaosTest, EscalationLadderTightensLimitsPerAttempt) {
  FleetOptions Options;
  Options.DeadlineMillis = 8000;
  Options.MemLimitBytes = 64u << 20;
  // Attempt 1 runs at the caller's limits; each retry halves them.
  EXPECT_DOUBLE_EQ(fleetDeadlineForAttempt(Options, 1), 8000);
  EXPECT_DOUBLE_EQ(fleetDeadlineForAttempt(Options, 2), 4000);
  EXPECT_DOUBLE_EQ(fleetDeadlineForAttempt(Options, 3), 2000);
  EXPECT_EQ(fleetMemLimitForAttempt(Options, 1, 0), 64u << 20);
  EXPECT_EQ(fleetMemLimitForAttempt(Options, 2, 0), 32u << 20);
  EXPECT_EQ(fleetMemLimitForAttempt(Options, 3, 0), 16u << 20);

  // No explicit deadline: retries derive one from the watchdog so the
  // worker can cut itself into a partial report before the next kill.
  FleetOptions WatchdogOnly;
  WatchdogOnly.WatchdogMillis = 4000;
  EXPECT_DOUBLE_EQ(fleetDeadlineForAttempt(WatchdogOnly, 1), 0);
  EXPECT_DOUBLE_EQ(fleetDeadlineForAttempt(WatchdogOnly, 2), 1000);

  // No explicit mem limit: retries derive one from the RLIMIT_AS jail,
  // floored at 1 MiB so the soft limit stays meaningful.
  FleetOptions JailOnly;
  JailOnly.RlimitBytes = 256u << 20;
  EXPECT_EQ(fleetMemLimitForAttempt(JailOnly, 1, 0), 0u);
  EXPECT_EQ(fleetMemLimitForAttempt(JailOnly, 2, 0), 64u << 20);
  EXPECT_EQ(fleetMemLimitForAttempt(JailOnly, 20, 0), 1u << 20);
  // A per-job jail overrides the fleet-wide one.
  EXPECT_EQ(fleetMemLimitForAttempt(JailOnly, 2, 64u << 20), 16u << 20);
}

TEST_F(FleetChaosTest, BatchFailsFastOnSetupErrors) {
  FleetResult Result;
  EXPECT_FALSE(runFleet({}, baseOptions("setup"), Result).ok());

  FleetOptions Bad = baseOptions("setup");
  Bad.AnalyzerPath = "/nonexistent/analyzer";
  EXPECT_FALSE(
      runFleet({job("x", RacyTrace)}, Bad, Result).ok());

  EXPECT_FALSE(runFleet({job("dup", RacyTrace), job("dup", RacyTrace)},
                        baseOptions("setup"), Result)
                   .ok());
}

TEST_F(FleetChaosTest, AggregateIsByteIdenticalAcrossWorkerCounts) {
  // The 20-job determinism batch: five traces, four jobs each, run at
  // different worker counts.  Completion interleavings differ wildly;
  // the aggregate JSON must not.
  const std::string Traces[] = {RacyTrace, OtherTrace, CleanTrace,
                                DamagedTrace, RacyTrace};
  auto batch = [&] {
    std::vector<FleetJob> Jobs;
    for (int Round = 0; Round < 4; ++Round)
      for (size_t T = 0; T < 5; ++T) {
        FleetJob J;
        J.Id = "j" + std::to_string(Round * 5 + T);
        J.TracePath = Traces[T];
        Jobs.push_back(J);
      }
    return Jobs;
  };

  FleetOptions Wide = baseOptions("det_wide");
  Wide.Workers = 4;
  FleetOptions Narrow = baseOptions("det_narrow");
  Narrow.Workers = 1;

  FleetResult A, B;
  ASSERT_TRUE(runFleet(batch(), Wide, A).ok());
  ASSERT_TRUE(runFleet(batch(), Narrow, B).ok());
  ASSERT_EQ(A.Jobs.size(), 20u);
  EXPECT_EQ(A.AggregateJson, B.AggregateJson);
  EXPECT_EQ(A.AggregateText, B.AggregateText);
  EXPECT_GT(A.DistinctRaces, 0u);
  // The same race from four copies of the same trace merged, not
  // quadrupled: distinct count is well below the summed per-job count.
  size_t SummedRaces = 0;
  for (const FleetJobResult &Job : A.Jobs)
    SummedRaces += Job.Parsed.Races.size();
  EXPECT_LT(A.DistinctRaces, SummedRaces);
}

/// The installed driver binary end-to-end: manifest in, aggregate out.
TEST_F(FleetChaosTest, DriverRunsAManifestEndToEnd) {
  std::string Dir = Scratch + "/driver";
  ::mkdir(Dir.c_str(), 0755);
  std::string ManifestPath = Dir + "/batch.manifest";
  {
    std::ofstream Out(ManifestPath);
    Out << "# driver smoke batch\n"
        << RacyTrace << "\n"
        << "named_job " << CleanTrace << "\n"
        << "bad " << GarbageTrace << "\n";
  }
  std::string OutPath = Dir + "/stdout";
  std::string ErrPath = Dir + "/stderr";

  const std::string Analyzer = "--analyzer=" OFFLINE_ANALYZER_PATH;
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    std::freopen(OutPath.c_str(), "wb", stdout);
    std::freopen(ErrPath.c_str(), "wb", stderr);
    const char *Argv[] = {CAFA_FLEET_PATH,  "run",
                          ManifestPath.c_str(), Analyzer.c_str(),
                          "--workers=2",    "--max-attempts=1",
                          "--json",         nullptr};
    ::execv(CAFA_FLEET_PATH, const_cast<char **>(Argv));
    _exit(127);
  }
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  ASSERT_TRUE(WIFEXITED(Status));
  // One job failed terminally (garbage): exit 5 outranks races.
  EXPECT_EQ(WEXITSTATUS(Status), 5) << slurp(ErrPath);

  std::string Json = slurp(OutPath);
  EXPECT_NE(Json.find("\"summary\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"id\": \"named_job\""), std::string::npos);
  EXPECT_NE(Json.find("\"state\": \"failed:unreadable\""),
            std::string::npos)
      << Json;
  std::string Err = slurp(ErrPath);
  EXPECT_NE(Err.find("1 failed"), std::string::npos) << Err;
}

/// SIGTERM mid-batch: the driver must stop cleanly with exit 6, mark
/// the unfinished jobs "interrupted", and still emit (and durably
/// write) the aggregate for the partial batch.
TEST_F(FleetChaosTest, DriverSigtermDrainsToExitSix) {
  // Pid-unique: the test polls for j1's worker-stdout file as the
  // "batch is running" signal, so a leftover from an earlier run
  // would fire the SIGTERM before the driver even starts.
  std::string Dir = Scratch + "/sigterm_" + std::to_string(::getpid());
  ::mkdir(Dir.c_str(), 0755);
  std::string ManifestPath = Dir + "/batch.manifest";
  {
    std::ofstream Out(ManifestPath);
    Out << "j1 " << CleanTrace << "\n"
        << "j2 " << CleanTrace << "\n";
  }
  std::string OutPath = Dir + "/stdout";
  std::string ErrPath = Dir + "/stderr";
  std::string AggPath = Dir + "/agg.json";
  std::string Root = Dir + "/fleet";

  // Every worker hangs far beyond the test: j1 wedges mid-analysis,
  // j2 never launches (one worker slot).
  const std::string Analyzer = "--analyzer=" OFFLINE_ANALYZER_PATH;
  const std::string RootArg = "--checkpoint-root=" + Root;
  const std::string OutputArg = "--output=" + AggPath;
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    std::freopen(OutPath.c_str(), "wb", stdout);
    std::freopen(ErrPath.c_str(), "wb", stderr);
    const char *Argv[] = {CAFA_FLEET_PATH,
                          "run",
                          ManifestPath.c_str(),
                          Analyzer.c_str(),
                          RootArg.c_str(),
                          OutputArg.c_str(),
                          "--workers=1",
                          "--worker-arg=--chaos-hang-ms=60000",
                          "--json",
                          nullptr};
    ::execv(CAFA_FLEET_PATH, const_cast<char **>(Argv));
    _exit(127);
  }

  // No fixed sleeps: j1's worker creates its stdout capture file the
  // moment it is spawned -- that is the "batch is genuinely running"
  // signal to send SIGTERM on.
  std::string J1Stdout = fleetJobDir(Root, "j1") + "/stdout";
  struct stat St;
  for (int Tick = 0; Tick < 30 * 100 && ::stat(J1Stdout.c_str(), &St);
       ++Tick)
    ::usleep(10 * 1000);
  ASSERT_EQ(::stat(J1Stdout.c_str(), &St), 0) << slurp(ErrPath);
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);

  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  ASSERT_TRUE(WIFEXITED(Status)) << "driver must drain, not die";
  EXPECT_EQ(WEXITSTATUS(Status), 6) << slurp(ErrPath);

  // The aggregate still came out -- stdout and the durable --output
  // copy agree -- flagged with the interrupted count.
  std::string Json = slurp(OutPath);
  EXPECT_EQ(Json, slurp(AggPath));
  EXPECT_NE(Json.find("\"interrupted\": 2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"state\": \"interrupted\""), std::string::npos);
  std::string Err = slurp(ErrPath);
  EXPECT_NE(Err.find("interrupted by signal"), std::string::npos) << Err;

  // The wedged worker did not outlive the drain: its checkpoint dir
  // remains (resumable), but the batch is over and nothing holds the
  // trace open.  A second, unsignalled run over the same manifest and
  // root completes normally.
  pid_t Pid2 = ::fork();
  ASSERT_GE(Pid2, 0);
  if (Pid2 == 0) {
    std::freopen(OutPath.c_str(), "wb", stdout);
    std::freopen(ErrPath.c_str(), "wb", stderr);
    const char *Argv[] = {CAFA_FLEET_PATH,  "run",
                          ManifestPath.c_str(), Analyzer.c_str(),
                          RootArg.c_str(),  "--workers=1",
                          "--json",         nullptr};
    ::execv(CAFA_FLEET_PATH, const_cast<char **>(Argv));
    _exit(127);
  }
  ::waitpid(Pid2, &Status, 0);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0) << slurp(ErrPath);
}

} // namespace
