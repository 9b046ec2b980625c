//===- fleet/Fleet.cpp - Supervised batch analysis ----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The supervisor is a single-threaded event loop over child processes:
//
//   pending --start--> running --exit--> accepted (done / done:partial)
//      ^                  |                  |
//      |                  v                  v
//   backoff <--retry-- failed attempt    terminal failed:<cause>
//
// Concurrency comes entirely from the children; the loop itself only
// forks, polls, and kills, so there is no shared mutable state to
// race on and the aggregate is assembled sequentially in input order.
//
// The state machine lives in FleetEngine so two callers can pump it:
// runFleet (batch mode: add every job, tick until all terminal) and the
// analysis daemon (src/server/), which injects jobs while earlier ones
// are still running.  An interrupt (signal-driven in both callers)
// lands every unfinished job in the terminal "interrupted" state with
// its checkpoint directory intact, so the work is resumable.
//
//===----------------------------------------------------------------------===//

#include "fleet/Fleet.h"

#include "cafa/ReportJson.h"
#include "support/Format.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <sys/stat.h>
#include <unistd.h>

using namespace cafa;

namespace {

/// Worker exit codes (the offline_analyzer contract, pinned by
/// tests/integration/ExitCodesTest).  The retry policy keys off these.
enum AnalyzerExit {
  ExitNoRaces = 0,
  ExitRaces = 1,
  ExitUnreadable = 2,
  ExitDegraded = 3,
  ExitResumed = 4,
  ExitSpawnFailure = 127, // Subprocess convention: exec never ran
};

std::string readFileOrEmpty(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "";
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

const char *signalName(int Sig) {
  switch (Sig) {
  case SIGKILL:
    return "SIGKILL";
  case SIGSEGV:
    return "SIGSEGV";
  case SIGABRT:
    return "SIGABRT";
  case SIGBUS:
    return "SIGBUS";
  case SIGTERM:
    return "SIGTERM";
  default:
    return "signal";
  }
}

/// Supervisor-side state of one job.  Owns the spec and the result so
/// the engine can accept jobs incrementally without a stable external
/// array to point into.
struct JobRun {
  enum class Phase { Pending, Running, Backoff, Terminal };

  FleetJob Spec;
  FleetJobResult Result;
  Phase State = Phase::Pending;
  /// Fresh object per attempt so exit state is unambiguous.
  std::unique_ptr<Subprocess> Child;
  unsigned Attempt = 0;          ///< attempts started so far
  uint64_t WatchdogNanos = 0;    ///< kill the child after this instant
  uint64_t NotBeforeNanos = 0;   ///< backoff release time
  uint64_t AttemptStartNanos = 0;
  bool KilledByWatchdog = false;
  Backoff Delays;
  std::string Dir, StdoutPath, StderrPath;

  JobRun() : Delays(BackoffPolicy()) {}
};

} // namespace

FleetJobStatus FleetJobResult::status() const {
  FleetJobStatus Row;
  Row.Id = Id;
  Row.TracePath = TracePath;
  Row.State = State;
  Row.Attempts = Attempts;
  Row.ExitCode = FinalExitCode;
  Row.Resumed = Resumed;
  Row.Partial = Partial;
  return Row;
}

std::string cafa::fleetJobDir(const std::string &Root,
                              const std::string &JobId) {
  return Root + "/" + JobId;
}

double cafa::fleetDeadlineForAttempt(const FleetOptions &Options,
                                     unsigned Attempt) {
  if (Attempt <= 1)
    return Options.DeadlineMillis;
  // Escalation: each retry halves the budget, starting from the
  // caller's deadline or -- when none was set -- from half the watchdog
  // so the worker cuts itself into a partial report before the
  // supervisor has to kill it again.
  double Base = Options.DeadlineMillis > 0 ? Options.DeadlineMillis
                : Options.WatchdogMillis > 0 ? Options.WatchdogMillis / 2
                                             : 0;
  if (Base <= 0)
    return 0;
  return Base / static_cast<double>(1u << (Attempt - 1));
}

size_t cafa::fleetMemLimitForAttempt(const FleetOptions &Options,
                                     unsigned Attempt,
                                     size_t JobRlimitBytes) {
  if (Attempt <= 1)
    return Options.MemLimitBytes;
  size_t Rlimit =
      JobRlimitBytes > 0 ? JobRlimitBytes : Options.RlimitBytes;
  size_t Base = Options.MemLimitBytes > 0 ? Options.MemLimitBytes
                : Rlimit > 0              ? Rlimit / 2
                                          : 0;
  if (Base == 0)
    return 0;
  size_t Shrunk = Base >> (Attempt - 1);
  // Keep the soft limit meaningful: below ~1 MiB the ladder's Bfs floor
  // is the answer anyway and further halving just loses precision.
  return Shrunk > (1u << 20) ? Shrunk : (1u << 20);
}

namespace {

/// Builds the worker command line for one attempt.
std::vector<std::string> workerArgv(const FleetOptions &Options,
                                    const FleetJob &Job,
                                    const std::string &JobDir,
                                    unsigned Attempt) {
  std::vector<std::string> Argv = {Options.AnalyzerPath, "analyze",
                                   Job.TracePath, "--json"};
  // Retry is resume: every attempt points at the job's own snapshot
  // directory and adopts whatever a dead predecessor left behind.
  Argv.push_back("--checkpoint-dir=" + JobDir);
  Argv.push_back("--resume");
  if (Options.CheckpointEveryMillis > 0)
    Argv.push_back(formatString("--checkpoint-every=%g",
                                Options.CheckpointEveryMillis));
  if (Options.AnalysisThreads > 0)
    Argv.push_back(
        formatString("--analysis-threads=%u", Options.AnalysisThreads));
  if (Options.IngestThreads > 0)
    Argv.push_back(
        formatString("--ingest-threads=%u", Options.IngestThreads));
  if (Options.WindowEvents > 0)
    Argv.push_back(formatString("--window=%llu",
                                static_cast<unsigned long long>(
                                    Options.WindowEvents)));
  if (Options.Strict)
    Argv.push_back("--strict");
  if (double Deadline = fleetDeadlineForAttempt(Options, Attempt);
      Deadline > 0)
    Argv.push_back(formatString("--deadline=%g", Deadline));
  if (size_t Mem =
          fleetMemLimitForAttempt(Options, Attempt, Job.RlimitBytes);
      Mem > 0)
    Argv.push_back(formatString("--mem-limit=%zu", Mem));
  for (const std::string &Extra : Job.ExtraArgs)
    Argv.push_back(Extra);
  if (Options.ChaosArgsForAttempt)
    for (const std::string &Extra :
         Options.ChaosArgsForAttempt(Job, Attempt))
      Argv.push_back(Extra);
  return Argv;
}

std::string joinCommand(const std::vector<std::string> &Argv) {
  std::string Out;
  for (size_t I = 0; I < Argv.size(); ++I) {
    if (I)
      Out += " ";
    Out += Argv[I];
  }
  return Out;
}

/// Starts attempt (Run.Attempt + 1) of \p Run's job.
void startAttempt(JobRun &Run, const FleetOptions &Options) {
  ++Run.Attempt;
  Run.KilledByWatchdog = false;
  Run.AttemptStartNanos = wallTimeNanos();
  if (Options.WatchdogMillis > 0)
    Run.WatchdogNanos =
        Run.AttemptStartNanos +
        static_cast<uint64_t>(Options.WatchdogMillis * 1e6);

  SubprocessOptions SubOpts;
  SubOpts.Argv = workerArgv(Options, Run.Spec, Run.Dir, Run.Attempt);
  SubOpts.StdoutPath = Run.StdoutPath;
  SubOpts.StderrPath = Run.StderrPath;
  SubOpts.MemLimitBytes = Run.Spec.RlimitBytes > 0 ? Run.Spec.RlimitBytes
                                                   : Options.RlimitBytes;

  FleetAttempt Attempt;
  Attempt.Attempt = Run.Attempt;
  Attempt.Command = joinCommand(SubOpts.Argv);
  Run.Result.History.push_back(Attempt);

  Run.Child = std::make_unique<Subprocess>();
  // A fork-time failure (fd/process exhaustion) leaves the child
  // un-started; the reap phase synthesizes the 127 spawn failure.
  (void)Run.Child->start(SubOpts);
  Run.State = JobRun::Phase::Running;
}

/// Classifies a finished attempt.  Returns true when the attempt's
/// report is accepted (job terminal in a done state).
bool classifyAttempt(JobRun &Run, const FleetOptions &Options,
                     const SubprocessExit &Exit) {
  FleetAttempt &Attempt = Run.Result.History.back();
  Attempt.WallMillis =
      static_cast<double>(wallTimeNanos() - Run.AttemptStartNanos) / 1e6;
  Attempt.ExitCode = Exit.Exited ? Exit.ExitCode : -1;
  Attempt.Signaled = Exit.Signaled;
  Attempt.Signal = Exit.Signal;
  Attempt.TimedOut = Run.KilledByWatchdog;

  FleetJobResult &Result = Run.Result;
  if (Exit.Exited) {
    switch (Exit.ExitCode) {
    case ExitNoRaces:
    case ExitRaces:
    case ExitResumed:
      Result.State = "done";
      Result.Partial = false;
      Result.Resumed |= Exit.ExitCode == ExitResumed;
      return true;
    case ExitDegraded:
      // The worker already degraded gracefully (salvaged input or a
      // deadline-cut partial report).  Retrying cannot improve on a
      // salvage incident, and a deadline cut is usually *our own*
      // escalation policy at work -- accept the partial report.
      Result.State = "done:partial";
      Result.Partial = true;
      return true;
    case ExitUnreadable:
      // Permanent: the input itself is bad; no retry can fix it.
      Attempt.Cause = "unreadable";
      break;
    case ExitSpawnFailure:
      // exec never ran (bad analyzer path); retrying would loop.
      Attempt.Cause = "spawn";
      break;
    default:
      Attempt.Cause = formatString("exit%d", Exit.ExitCode);
      break;
    }
  } else if (Exit.Signaled) {
    size_t Rlimit = Run.Spec.RlimitBytes > 0 ? Run.Spec.RlimitBytes
                                             : Options.RlimitBytes;
    if (Run.KilledByWatchdog)
      Attempt.Cause = "hung";
    else if (Exit.Signal == SIGABRT && Rlimit > 0)
      // Under an RLIMIT_AS jail, a blown allocation surfaces as
      // bad_alloc -> terminate -> SIGABRT.  Best-effort label; a
      // genuine assert also aborts, and retries handle both the same.
      Attempt.Cause = "oom";
    else
      Attempt.Cause = formatString("crash-%s", signalName(Exit.Signal));
  } else {
    Attempt.Cause = "spawn";
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// FleetEngine
//===----------------------------------------------------------------------===//

struct FleetEngine::Impl {
  FleetOptions Options;
  /// deque, not vector: addJob() while step() has children running must
  /// not move JobRun objects (each owns a live Subprocess).
  std::deque<JobRun> Runs;
  std::set<std::string> Ids;
  size_t Terminal = 0;
  size_t Running = 0;
  bool SetupDone = false;
  bool Launching = true;
  bool Interrupted = false;
  unsigned MaxAttempts = 1;
  unsigned Workers = 1;
};

FleetEngine::FleetEngine(const FleetOptions &Options)
    : I(std::make_unique<Impl>()) {
  I->Options = Options;
  I->MaxAttempts = Options.MaxAttempts > 0 ? Options.MaxAttempts : 1;
  I->Workers = Options.Workers > 0 ? Options.Workers : 1;
}

FleetEngine::~FleetEngine() {
  // Never leak workers past the engine: a caller that abandons the
  // batch (error path, daemon teardown) must not leave orphans running.
  for (JobRun &Run : I->Runs)
    if (Run.State == JobRun::Phase::Running && Run.Child &&
        Run.Child->running())
      Run.Child->kill(SIGKILL);
}

Status FleetEngine::setup() {
  if (I->Options.AnalyzerPath.empty())
    return Status::error("fleet needs an analyzer binary path");
  if (::access(I->Options.AnalyzerPath.c_str(), X_OK) != 0)
    return Status::error("analyzer binary not executable: " +
                         I->Options.AnalyzerPath);
  if (I->Options.CheckpointRoot.empty())
    return Status::error("fleet needs a checkpoint root directory");
  ::mkdir(I->Options.CheckpointRoot.c_str(), 0755);
  struct stat St;
  if (::stat(I->Options.CheckpointRoot.c_str(), &St) != 0 ||
      !S_ISDIR(St.st_mode))
    return Status::error("cannot create checkpoint root " +
                         I->Options.CheckpointRoot);
  I->SetupDone = true;
  return Status::success();
}

Status FleetEngine::addJob(const FleetJob &Job) {
  if (!I->SetupDone)
    return Status::error("fleet engine used before setup()");
  if (Job.Id.empty())
    return Status::error("fleet job with empty id");
  if (!I->Ids.insert(Job.Id).second)
    return Status::error("duplicate fleet job id '" + Job.Id + "'");

  size_t Index = I->Runs.size();
  I->Runs.emplace_back();
  JobRun &Run = I->Runs.back();
  Run.Spec = Job;
  Run.Result.Id = Job.Id;
  Run.Result.TracePath = Job.TracePath;
  Run.Dir = fleetJobDir(I->Options.CheckpointRoot, Job.Id);
  ::mkdir(Run.Dir.c_str(), 0755);
  Run.StdoutPath = Run.Dir + "/stdout";
  Run.StderrPath = Run.Dir + "/stderr";
  BackoffPolicy Policy = I->Options.Backoff;
  // Decorrelate the jobs' jitter streams deterministically.
  Policy.Seed = I->Options.Backoff.Seed + Index * 0x9E3779B97F4A7C15ull;
  Run.Delays = Backoff(Policy);

  // An interrupt already in effect applies to late arrivals too: the
  // job is terminal before it ever starts, checkpoint dir untouched.
  if (I->Interrupted) {
    Run.Result.State = "interrupted";
    Run.State = JobRun::Phase::Terminal;
    ++I->Terminal;
  }
  return Status::success();
}

void FleetEngine::step() {
  uint64_t Now = wallTimeNanos();

  // Launch phase: fill free worker slots in input order so scheduling
  // is reproducible given identical fault timings.
  if (I->Launching) {
    for (JobRun &Run : I->Runs) {
      if (I->Running >= I->Workers)
        break;
      bool Ready =
          Run.State == JobRun::Phase::Pending ||
          (Run.State == JobRun::Phase::Backoff && Now >= Run.NotBeforeNanos);
      if (!Ready)
        continue;
      startAttempt(Run, I->Options);
      ++I->Running;
    }
  }

  // Reap/watchdog phase.
  for (JobRun &Run : I->Runs) {
    if (Run.State != JobRun::Phase::Running)
      continue;
    bool Finished;
    SubprocessExit Exit;
    if (!Run.Child->running()) {
      // start() failed at fork time: synthesize the spawn failure.
      Finished = true;
      Exit.Exited = true;
      Exit.ExitCode = ExitSpawnFailure;
    } else if (Run.Child->poll()) {
      Finished = true;
      Exit = Run.Child->exitInfo();
    } else {
      if (Run.WatchdogNanos != 0 && Now >= Run.WatchdogNanos &&
          !Run.KilledByWatchdog) {
        Run.KilledByWatchdog = true;
        Run.Child->kill(SIGKILL);
      }
      Finished = false;
    }
    if (!Finished)
      continue;

    --I->Running;
    FleetJobResult &JobResult = Run.Result;
    JobResult.Attempts = Run.Attempt;
    if (classifyAttempt(Run, I->Options, Exit)) {
      // A worker that finished before an interrupt's SIGKILL landed
      // still counts: its report is complete and is accepted as usual.
      JobResult.FinalExitCode = Exit.ExitCode;
      JobResult.ReportJson = readFileOrEmpty(Run.StdoutPath);
      JobResult.ParseOk =
          parseRaceReportJson(JobResult.ReportJson, JobResult.Parsed)
              .ok();
      Run.State = JobRun::Phase::Terminal;
      ++I->Terminal;
      continue;
    }
    if (I->Interrupted) {
      // The kill we sent (or a coincident failure) during interrupt:
      // no retry, the job parks as resumable.
      JobResult.State = "interrupted";
      JobResult.FinalExitCode = Exit.Exited ? Exit.ExitCode : -1;
      Run.State = JobRun::Phase::Terminal;
      ++I->Terminal;
      continue;
    }
    const std::string &Cause = JobResult.History.back().Cause;
    bool Permanent = Cause == "unreadable" || Cause == "spawn";
    if (Permanent || Run.Attempt >= I->MaxAttempts) {
      JobResult.State = "failed:" + Cause;
      JobResult.FinalExitCode = Exit.Exited ? Exit.ExitCode : -1;
      Run.State = JobRun::Phase::Terminal;
      ++I->Terminal;
      continue;
    }
    double DelayMillis = Run.Delays.nextDelayMillis();
    JobResult.History.back().BackoffMillis = DelayMillis;
    Run.NotBeforeNanos =
        wallTimeNanos() + static_cast<uint64_t>(DelayMillis * 1e6);
    Run.State = JobRun::Phase::Backoff;
  }
}

void FleetEngine::stopLaunching() { I->Launching = false; }

void FleetEngine::interrupt() {
  if (I->Interrupted)
    return;
  I->Interrupted = true;
  I->Launching = false;
  for (JobRun &Run : I->Runs) {
    switch (Run.State) {
    case JobRun::Phase::Running:
      // SIGKILL now; the next step() reaps it into "interrupted" (or
      // accepts the report if the worker won the race and exited).
      if (Run.Child && Run.Child->running())
        Run.Child->kill(SIGKILL);
      break;
    case JobRun::Phase::Pending:
    case JobRun::Phase::Backoff:
      Run.Result.State = "interrupted";
      Run.Result.Attempts = Run.Attempt;
      Run.State = JobRun::Phase::Terminal;
      ++I->Terminal;
      break;
    case JobRun::Phase::Terminal:
      break;
    }
  }
}

bool FleetEngine::interrupted() const { return I->Interrupted; }

bool FleetEngine::allTerminal() const {
  return I->Terminal == I->Runs.size();
}

size_t FleetEngine::numJobs() const { return I->Runs.size(); }

size_t FleetEngine::numTerminal() const { return I->Terminal; }

size_t FleetEngine::numRunning() const { return I->Running; }

bool FleetEngine::hasJob(const std::string &Id) const {
  return I->Ids.count(Id) != 0;
}

const FleetJob &FleetEngine::job(size_t Index) const {
  return I->Runs[Index].Spec;
}

const FleetJobResult &FleetEngine::result(size_t Index) const {
  return I->Runs[Index].Result;
}

const char *FleetEngine::phase(size_t Index) const {
  switch (I->Runs[Index].State) {
  case JobRun::Phase::Pending:
    return "pending";
  case JobRun::Phase::Running:
    return "running";
  case JobRun::Phase::Backoff:
    return "backoff";
  case JobRun::Phase::Terminal:
    return "terminal";
  }
  return "terminal";
}

const FleetOptions &FleetEngine::options() const { return I->Options; }

//===----------------------------------------------------------------------===//
// runFleet
//===----------------------------------------------------------------------===//

Status cafa::runFleet(const std::vector<FleetJob> &Jobs,
                      const FleetOptions &Options, FleetResult &Result) {
  Result = FleetResult();
  if (Jobs.empty())
    return Status::error("fleet batch is empty");
  {
    // Validate the whole list before creating any per-job state so a
    // bad manifest fails without side effects beyond the root mkdir.
    std::set<std::string> Ids;
    for (const FleetJob &Job : Jobs) {
      if (Job.Id.empty())
        return Status::error("fleet job with empty id");
      if (!Ids.insert(Job.Id).second)
        return Status::error("duplicate fleet job id '" + Job.Id + "'");
    }
  }

  Timer BatchTimer;
  FleetEngine Engine(Options);
  if (Status S = Engine.setup(); !S.ok())
    return S;
  for (const FleetJob &Job : Jobs)
    if (Status S = Engine.addJob(Job); !S.ok())
      return S;

  while (!Engine.allTerminal()) {
    if (Options.StopFlag && *Options.StopFlag)
      Engine.interrupt();
    Engine.step();
    if (!Engine.allTerminal())
      ::usleep(500);
  }

  // Aggregate in input order.
  Result.Jobs.reserve(Jobs.size());
  for (size_t Index = 0; Index < Jobs.size(); ++Index)
    Result.Jobs.push_back(Engine.result(Index));

  FleetAggregator Aggregator;
  for (const FleetJobResult &Job : Result.Jobs) {
    Aggregator.addJob(Job.status(), Job.ParseOk ? &Job.Parsed : nullptr);

    if (Job.State.rfind("failed:", 0) == 0)
      ++Result.Failed;
    else if (Job.State == "interrupted")
      ++Result.Interrupted;
    else if (Job.Partial)
      ++Result.Partial;
    else
      ++Result.Done;
    Result.Retries += Job.Attempts > 0 ? Job.Attempts - 1 : 0;
    Result.ResumedCompletions += Job.Resumed ? 1 : 0;
  }
  Result.WasInterrupted = Engine.interrupted();
  Result.DistinctRaces = Aggregator.numDistinctRaces();
  Result.AggregateJson = Aggregator.renderJson();
  Result.AggregateText = Aggregator.renderText();
  Result.WallMillis = BatchTimer.elapsedWallMillis();
  return Status::success();
}
