//===- fleet/Fleet.h - Supervised batch analysis ---------------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet supervisor: runs a batch of trace analyses as isolated
/// child processes (fork/exec of offline_analyzer) and guarantees the
/// batch completes with a deterministic aggregate report even when
/// individual workers crash, hang, or exhaust memory.
///
/// Robustness moves up one level here.  PR 2 survived a corrupt record,
/// PR 3 survived a SIGKILL; the fleet survives *workers*: a per-job
/// watchdog kills hung children, failed attempts retry with capped
/// jittered backoff (support/Backoff.h), and -- the key reuse -- every
/// job owns a checkpoint sub-directory, so a retry *resumes from the
/// dead worker's last snapshot* instead of restarting.  PR 3's
/// crash-safety is the fleet's scheduling primitive, not a recovery
/// trick.
///
/// Repeated failures descend the degradation ladder: each retry passes a
/// tighter --deadline / --mem-limit so the worker sheds work gracefully
/// (a partial report) before the hard limits (watchdog, RLIMIT_AS jail)
/// kill it again.  A job that exhausts its attempts lands in a terminal
/// "failed:<cause>" state; the batch never wedges.  See docs/fleet.md
/// for the full state machine and policy tables.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_FLEET_FLEET_H
#define CAFA_FLEET_FLEET_H

#include "cafa/FleetReport.h"
#include "support/Backoff.h"
#include "support/Status.h"

#include <csignal>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cafa {

/// One analysis job in the batch.
struct FleetJob {
  std::string Id;        ///< unique, filesystem-safe (Manifest.h rules)
  std::string TracePath; ///< trace file handed to the worker
  /// RLIMIT_AS jail for this job's workers; 0 inherits
  /// FleetOptions::RlimitBytes.
  size_t RlimitBytes = 0;
  /// Extra analyzer arguments appended on every attempt.
  std::vector<std::string> ExtraArgs;
};

/// One worker attempt, for diagnostics and chaos-test pinning.
struct FleetAttempt {
  unsigned Attempt = 1;   ///< 1-based
  int ExitCode = -1;      ///< valid when the worker exited
  bool Signaled = false;
  int Signal = 0;
  bool TimedOut = false;  ///< the watchdog killed it
  double WallMillis = 0;
  double BackoffMillis = 0; ///< delay scheduled before the next attempt
  /// Why the attempt was not accepted ("hung", "oom", "crash",
  /// "unreadable", "spawn", "exit<code>"); empty for accepted attempts.
  std::string Cause;
  /// The exact worker command line, for replay and escalation pinning.
  std::string Command;
};

/// Terminal outcome of one job.
struct FleetJobResult {
  std::string Id;
  std::string TracePath;
  /// "done" | "done:partial" | "failed:<cause>" | "interrupted".
  /// "interrupted" means the supervisor was asked to stop before the job
  /// finished; its checkpoint directory is intact, so resubmitting the
  /// job against the same checkpoint root resumes it.
  std::string State;
  int FinalExitCode = -1;
  unsigned Attempts = 0;
  /// Some accepted attempt completed from a checkpoint (exit 4): the
  /// retry really did resume the dead worker's analysis.
  bool Resumed = false;
  bool Partial = false;
  /// stdout of the accepted attempt (the per-job JSON report); empty
  /// for failed jobs.
  std::string ReportJson;
  /// Parse of ReportJson when ParseOk.
  RaceDocument Parsed;
  bool ParseOk = false;
  std::vector<FleetAttempt> History;

  /// The job's row in a fleet aggregate.
  FleetJobStatus status() const;
};

/// Supervisor configuration.
struct FleetOptions {
  /// Path to the offline_analyzer binary (exec'd directly).
  std::string AnalyzerPath;
  /// Root directory for per-job state.  Each job gets its own
  /// sub-directory <root>/<job-id>/ holding its checkpoint snapshots
  /// and captured worker streams, so concurrent jobs can never collide
  /// on a snapshot file.
  std::string CheckpointRoot;
  /// Concurrent worker processes.
  unsigned Workers = 1;
  /// Attempts per job before the terminal failed state.
  unsigned MaxAttempts = 3;
  /// Wall-clock budget per attempt; a worker still running after this
  /// is SIGKILLed and the attempt classified "hung".  0 disables.
  double WatchdogMillis = 0;
  /// --checkpoint-every forwarded to workers (0 omits the flag;
  /// deadline cuts still snapshot).
  double CheckpointEveryMillis = 10;
  /// Default RLIMIT_AS jail for workers; 0 = no jail.
  size_t RlimitBytes = 0;
  /// Baseline soft limits passed to attempt 1 (0 omits the flag).
  /// Retries tighten these -- see deadlineForAttempt/memLimitForAttempt.
  double DeadlineMillis = 0;
  size_t MemLimitBytes = 0;
  /// Forwarded to workers when nonzero.
  unsigned AnalysisThreads = 0;
  unsigned IngestThreads = 0;
  /// Windowed streaming scan, forwarded as --window=<n> when nonzero
  /// (docs/windowed-analysis.md); reports stay byte-identical, so this
  /// is purely a worker-memory knob.
  uint64_t WindowEvents = 0;
  /// --strict ingestion.
  bool Strict = false;
  /// Retry-delay schedule; each job derives its own deterministic
  /// stream from (Backoff.Seed, job index).
  BackoffPolicy Backoff;
  /// Chaos hook (tests only): extra analyzer args for (job, attempt).
  std::function<std::vector<std::string>(const FleetJob &, unsigned)>
      ChaosArgsForAttempt;
  /// When non-null, polled once per supervision tick.  A nonzero value
  /// interrupts the batch: no further launches, running workers are
  /// killed (their checkpoints survive), and every unfinished job lands
  /// in the terminal "interrupted" state.  Signal handlers set the flag;
  /// sig_atomic_t keeps the read async-signal-safe.
  const volatile std::sig_atomic_t *StopFlag = nullptr;
};

/// What the whole batch did.
struct FleetResult {
  /// One entry per job, in input (manifest) order.
  std::vector<FleetJobResult> Jobs;
  /// The merged cross-trace report (cafa/FleetReport.h).
  std::string AggregateJson;
  std::string AggregateText;
  unsigned Done = 0;
  unsigned Partial = 0;
  unsigned Failed = 0;
  unsigned Retries = 0;
  /// Jobs where a retry completed from a checkpoint (exit 4) -- the
  /// chaos suite's "retry is resume" accounting.
  unsigned ResumedCompletions = 0;
  /// Jobs cut short by FleetOptions::StopFlag; their checkpoints remain
  /// resumable.
  unsigned Interrupted = 0;
  /// The batch ended via StopFlag rather than by finishing every job.
  bool WasInterrupted = false;
  size_t DistinctRaces = 0;
  double WallMillis = 0;
};

/// The checkpoint/stream sub-directory runFleet uses for one job.
std::string fleetJobDir(const std::string &Root, const std::string &JobId);

/// The soft limits the escalation ladder passes to attempt \p Attempt
/// (1-based).  Exposed for tests pinning the descent.
double fleetDeadlineForAttempt(const FleetOptions &Options,
                               unsigned Attempt);
size_t fleetMemLimitForAttempt(const FleetOptions &Options,
                               unsigned Attempt,
                               size_t JobRlimitBytes);

/// The re-entrant core of the supervisor: the same launch/reap/backoff
/// state machine runFleet runs to completion, exposed incrementally so
/// a long-lived caller (the analysis daemon, src/server/) can inject
/// jobs while earlier ones are still running and pump the loop from its
/// own event loop.
///
/// Usage: construct, setup(), then any interleaving of addJob() and
/// step() -- step() performs one supervision tick (launch into free
/// worker slots, reap/watchdog running children) and never blocks, so
/// the caller owns the cadence.  interrupt() is the drain-hard path:
/// running workers are SIGKILLed (checkpoints survive) and every
/// unfinished job lands in the terminal "interrupted" state.
class FleetEngine {
public:
  explicit FleetEngine(const FleetOptions &Options);
  ~FleetEngine();
  FleetEngine(const FleetEngine &) = delete;
  FleetEngine &operator=(const FleetEngine &) = delete;

  /// Validates the analyzer binary and creates the checkpoint root.
  /// Must succeed before the first addJob().
  Status setup();

  /// Adds one job to the batch.  Legal at any time after setup(),
  /// including while other jobs run -- this is what makes the engine a
  /// daemon building block.  Fails on an empty or duplicate id.
  Status addJob(const FleetJob &Job);

  /// One supervision tick: launch pending/ready jobs into free worker
  /// slots (input order), then reap finished children and fire
  /// watchdogs.  Non-blocking; callers sleep between ticks.
  void step();

  /// Stops launching new attempts (graceful drain).  Running workers
  /// keep running to completion; pending/backoff jobs stay queued.
  /// One-way: launching never resumes on this engine.
  void stopLaunching();

  /// Hard drain: stopLaunching() plus SIGKILL for running workers and
  /// immediate terminal "interrupted" state for every job that has not
  /// finished.  Idempotent.  Checkpoint directories survive, so the
  /// jobs are resumable by a later batch over the same root.
  void interrupt();

  bool interrupted() const;
  bool allTerminal() const;
  size_t numJobs() const;
  size_t numTerminal() const;
  size_t numRunning() const;
  bool hasJob(const std::string &Id) const;

  /// The job spec / result / live phase at submission index \p I.
  /// result() is final once phase() returns "terminal"; phase() is one
  /// of "pending" | "running" | "backoff" | "terminal".
  const FleetJob &job(size_t I) const;
  const FleetJobResult &result(size_t I) const;
  const char *phase(size_t I) const;

  const FleetOptions &options() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Runs the batch to completion.  Fails fast (before starting any
/// worker) on an empty/duplicate job list, a missing analyzer binary,
/// or an unusable checkpoint root; individual worker failures never
/// fail the batch -- they land in per-job terminal states.
///
/// Implemented on FleetEngine: all jobs are added up front, then the
/// loop ticks until every job is terminal, polling
/// FleetOptions::StopFlag between ticks.
Status runFleet(const std::vector<FleetJob> &Jobs,
                const FleetOptions &Options, FleetResult &Result);

} // namespace cafa

#endif // CAFA_FLEET_FLEET_H
