//===- rt/Runtime.h - Event-driven runtime simulator -----------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic discrete-event simulator standing in for the Android
/// stack.  It interprets mini-Dalvik code under the event-driven model of
/// Section 2.1: per-queue looper threads draining events in queued order
/// once their time constraints elapse (with sendAtFront jumping the
/// queue), regular threads with fork/join, monitors with wait/notify,
/// non-HB locks, listener registration/dispatch, and Binder RPC across
/// processes.  When tracing is enabled it plays the role of the paper's
/// customized ROM: every operation of Figure 3 plus the Section 5.3
/// low-level operations is appended to a logger device.
///
/// Determinism: scheduling depends only on the scenario and the options'
/// seed, never on tracing, so an instrumented and an uninstrumented run
/// execute the identical interleaving (this is what makes the Figure 8
/// slowdown comparison meaningful).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_RT_RUNTIME_H
#define CAFA_RT_RUNTIME_H

#include "ir/Module.h"
#include "rt/ObjectHeap.h"
#include "rt/Scenario.h"
#include "rt/Value.h"
#include "support/Status.h"
#include "trace/LoggerDevice.h"

#include <deque>
#include <queue>
#include <vector>

namespace cafa {

/// Names one dynamic task by (entry method, creation ordinal): the
/// Ordinal'th task created with entry \p Entry, counting from 0 in
/// creation order.  Trace task ids equal creation order and the trace's
/// task table records each task's entry handler, so a pick computed
/// from a trace selects the same dynamic task when the same scenario is
/// re-run -- this is how the confirmation subsystem names "the event
/// that freed" without a task-id channel between runs.
struct TaskPick {
  MethodId Entry;
  uint32_t Ordinal = 0;
};

/// One schedule-override constraint: do not start (dispatch) task
/// \p Held until task \p After has run to completion.  Held events stay
/// in their queue while later entries run -- exactly the reordering a
/// real looper exhibits when an earlier message carries a longer delay.
struct ScheduleConstraint {
  TaskPick Held;
  TaskPick After;
};

/// A set of hold-until constraints applied to one run.  Scheduling
/// still depends only on the scenario and the options (this struct is
/// part of the options), so the determinism contract holds: two runs
/// with the same scenario and the same override execute the identical
/// interleaving, traced or not.  Constraints that can never release
/// (the after-task never ends) expire at quiescence instead of
/// deadlocking the run -- see RuntimeStats::ScheduleHoldsExpired.
struct ScheduleOverride {
  std::vector<ScheduleConstraint> Constraints;

  bool empty() const { return Constraints.empty(); }
};

/// Knobs controlling one simulated run.
struct RuntimeOptions {
  /// Collect a trace (the "customized ROM"); false = stock ROM baseline.
  bool Tracing = true;
  /// Also serialize each record to the logger byte stream (realistic
  /// per-record cost; only meaningful when Tracing).
  bool MirrorStream = true;
  /// Host-CPU busy-work iterations per interpreted instruction (and per
  /// unit of a `work` instruction): the cost a real uninstrumented
  /// interpreter would pay.  The default stays small because every trace
  /// recording and every confirmation replay pays it; bench/fig8_slowdown
  /// sets its own calibrated value, which is what Figure 8's slowdown band
  /// depends on.
  uint32_t BaselineWorkUnits = 6;
  /// Hard cap on interpreted instructions (runaway guard).
  uint64_t MaxInstructions = 50'000'000;
  /// Hold-until constraints reordering task dispatch (empty = the
  /// default schedule).  Part of the options, so the determinism
  /// contract extends to overridden runs.
  ScheduleOverride Schedule;
};

/// Counters reported after a run.
struct RuntimeStats {
  uint64_t InstructionsExecuted = 0;
  uint64_t RecordsEmitted = 0;
  uint64_t NullPointerExceptions = 0;
  uint64_t TasksCreated = 0;
  uint64_t EventsProcessed = 0;
  /// Tasks still blocked when the simulation quiesced (usually a scenario
  /// bug: a wait with no notify or a join of a stuck thread).
  uint64_t BlockedAtQuiescence = 0;
  /// Final simulated time in microseconds.
  uint64_t SimEndMicros = 0;
  /// Host CPU nanoseconds consumed inside run().
  uint64_t HostCpuNanos = 0;
  /// Schedule-override constraints still unreleased when the run
  /// otherwise quiesced; their holds were expired so the remaining work
  /// could drain (the after-task never completed -- a pick that matched
  /// nothing, or a hold cycle).
  uint64_t ScheduleHoldsExpired = 0;
  /// The faulting instruction of each NPE thrown, in throw order: the
  /// (method, pc) of the frame that dereferenced null.  This is the
  /// instruction whose Deref record the access extractor matches, so a
  /// confirmation replay can test "did the predicted use crash" by
  /// exact site rather than by counting exceptions.
  struct NpeSite {
    MethodId Method;
    uint32_t Pc = 0;
  };
  std::vector<NpeSite> NpeSites;
};

/// The simulator.  Typical use:
/// \code
///   Runtime Rt(Scenario, Options);
///   Status S = Rt.run();
///   Trace T = Rt.takeTrace();
/// \endcode
class Runtime {
public:
  Runtime(const Scenario &S, const RuntimeOptions &Options);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Runs the simulation to quiescence.  Fails on verifier errors or the
  /// instruction cap; NPEs abort the offending task but not the run.
  Status run();

  /// Returns the collected statistics (valid after run()).
  const RuntimeStats &stats() const;

  /// Moves the collected trace out (valid after run(); Tracing only).
  Trace takeTrace();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Convenience wrapper: runs \p S with \p Options and returns the trace.
/// Aborts the process on scenario errors (app models are trusted code).
Trace runScenario(const Scenario &S, const RuntimeOptions &Options,
                  RuntimeStats *StatsOut = nullptr);

} // namespace cafa

#endif // CAFA_RT_RUNTIME_H
