//===- apps/AppKit.h - Building blocks for application models --*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction kit for the ten application models of Section 6.1.
///
/// Each paper application is modeled as a mini-Dalvik program whose
/// concurrency structure reproduces the racy patterns the paper found,
/// with exact ground-truth labels.  The kit provides one seeding helper
/// per race category / false-positive type:
///
///  - (a) intra-thread: an event posted with a delay races a later
///    external lifecycle event on the same looper (and the Figure 1
///    variant where the racing event arrives via a Binder RPC);
///  - (b) inter-thread, conventional-masked: a worker thread uses the
///    pointer and then posts a UI event that the looper processes before
///    the freeing event, so a total-event-order detector derives a bogus
///    use < free path;
///  - (c) conventional: a plain cross-thread use vs. event free that both
///    detectors see;
///  - FP-I: the ordering edge lives in an *uninstrumented* listener
///    (register/perform records are missing from the trace);
///  - FP-II: the use is guarded by a boolean flag the if-guard heuristic
///    cannot see;
///  - FP-III: two aliased pointer fields make the nearest-previous-read
///    matching attribute the dereference to the wrong (racy) field;
///  - benign commutative pairs that the if-guard / intra-event-allocation
///    / lockset filters are expected to suppress;
///  - low-level noise (Figure 2-style scalar read-write conflicts across
///    concurrent events) that only the naive detector counts;
///  - volume ticks to calibrate the per-app "Events" column exactly.
///
/// The builder tracks exactly how many events the scenario will generate
/// so fillVolumeTo() can hit the paper's per-app event count.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_APPS_APPKIT_H
#define CAFA_APPS_APPKIT_H

#include "detect/GroundTruth.h"
#include "ir/IrBuilder.h"
#include "rt/Scenario.h"

#include <functional>
#include <string>
#include <vector>

namespace cafa {
namespace apps {

/// One ready-to-run application model.
struct AppModel {
  Scenario S;
  GroundTruth Truth;
  /// The paper's Table 1 row for this app (used by tests and benches as
  /// the reference).
  Table1Row PaperRow;
};

/// Builds one application model.  Helpers may be called in any order;
/// finish() assembles the bootstrap code and returns the model.
class AppBuilder {
public:
  explicit AppBuilder(std::string AppName);

  Module &module() { return *M; }

  /// Lazily created second looper in the app process (render/background
  /// handler thread); used by listener seeds.
  QueueId backgroundQueue();

  /// Lazily created service process (GPS/recording/media service).
  ProcessId serviceProcess();

  // --- Harmful race seeds -----------------------------------------------

  /// Category (a): delayed event uses a pointer a later external
  /// lifecycle event frees (same looper, logically concurrent).
  void seedIntraThreadRace(const std::string &Name);

  /// Category (a), Figure 1 shape: the racing use arrives through a
  /// Binder RPC round-trip instead of a delayed post.
  void seedRpcIntraThreadRace(const std::string &Name);

  /// Category (b): worker-thread use masked from a conventional detector
  /// by a posted event.
  void seedInterThreadRace(const std::string &Name);

  /// Category (c): plain worker-thread use vs. event free; found by both
  /// detectors.
  void seedConventionalRace(const std::string &Name);

  // --- False-positive seeds ----------------------------------------------

  /// FP-I: ordering edge exists only through an uninstrumented listener.
  /// \p Instrumented exists for tests: with a traced listener the same
  /// seed must NOT be reported.
  void seedUninstrumentedListenerFp(const std::string &Name,
                                    bool Instrumented = false);

  /// FP-II: use guarded by a boolean flag (invisible to if-guard).
  void seedFlagGuardedFp(const std::string &Name);

  /// FP-III: aliased fields mislead the dereference-to-read matching.
  void seedAliasMismatchFp(const std::string &Name);

  // --- Benign patterns the filters must suppress -------------------------

  /// Figure 5 onFocus: null-checked re-read; if-guard filters it.
  void addGuardedCommutativePair(const std::string &Name);

  /// Figure 5 onResume: allocation before use in the same event;
  /// intra-event-allocation filters it.
  void addAllocBeforeUsePair(const std::string &Name);

  /// Cleanup event that frees then reallocates; intra-event-allocation
  /// filters races against its free.
  void addFreeThenAllocPair(const std::string &Name);

  /// Cross-thread use/free both under one lock; lockset filters it.
  void addLockProtectedPair(const std::string &Name);

  // --- Benign pairs ordered by one specific causality rule ---------------
  // (These make the ordering-model ablation meaningful: disabling the
  // rule turns each pair into a spurious report.)

  /// Use and free posted back to back with equal delays: safe by event
  /// queue rule 1 only.
  void addQueueOrderedPair(const std::string &Name);

  /// The free is posted by a thread forked at the *start* of the using
  /// event: safe by the atomicity rule only (Figure 4a shape).
  void addAtomicityOrderedPair(const std::string &Name);

  /// Use and free in two successive external events: safe by the
  /// external-input rule only.
  void addExternalOrderedPair(const std::string &Name);

  // --- Noise and volume ----------------------------------------------------

  /// Figure 2-style commutative scalar conflicts: \p NumFields fields,
  /// each with two reader pcs (events posted from a ticker thread) and
  /// two writer pcs (external events), yielding ~4 low-level races per
  /// field for the naive detector and none for CAFA.
  /// \p ExtraReadPcs adds that many further read sites on the first
  /// field (2 more races each) -- the fine-adjustment knob used to land
  /// ConnectBot's count on the paper's 1,664.
  void addNaiveNoise(uint32_t NumFields, uint32_t ReaderInstances,
                     uint32_t WriterInstances, uint32_t ExtraReadPcs = 0);

  /// Pads the scenario to exactly \p TargetEvents events using inert
  /// tick events (a mix of external inputs and looper posts).
  /// \p WorkPerTick tunes the app's compute-to-record ratio, which is
  /// what differentiates per-app tracing slowdown in Figure 8.
  void fillVolumeTo(uint64_t TargetEvents, int32_t WorkPerTick = 2);

  /// Events the scenario will generate so far.
  uint64_t plannedEvents() const { return EventCount; }

  /// Assembles bootstrap code and returns the finished model.
  /// \p PaperRow carries the paper's reference numbers.
  AppModel finish(const Table1Row &PaperRow);

private:
  /// A static code location (for ground-truth labeling).
  struct Site {
    MethodId Method;
    uint32_t Pc = 0;
  };

  /// Reserves a fresh [start, start+span) window on the scenario
  /// timeline and returns its start (microseconds).
  uint64_t reserveWindow(uint64_t SpanMicros);

  /// Registers code to run in the bootstrap thread (allocations, forks,
  /// delayed sends).  Emitters run in registration order.
  void atBoot(std::function<void(IrBuilder &)> Emitter);

  /// Declares a static object field initialized to a fresh object at
  /// boot.
  FieldId pointerField(const std::string &Name);

  /// Adds an external event at \p AtMicros running \p Handler.
  void external(uint64_t AtMicros, MethodId Handler,
                const std::string &Name, QueueId Queue = QueueId());

  /// Emits (into the boot thread) a delayed post of \p Handler on the
  /// main queue, executing at roughly \p AtMicros.
  void delayedPost(uint64_t AtMicros, MethodId Handler);

  /// Builds a method that frees \p Field; returns the free site.
  Site makeFreeMethod(const std::string &Name, FieldId Field);

  /// Builds a method that uses \p Field after sleeping
  /// \p SleepBeforeMicros; returns the use site (the pointer read's pc).
  Site makeUseMethod(const std::string &Name, FieldId Field,
                     int32_t SleepBeforeMicros = 0);

  /// Forks a worker thread at boot whose body is \p Body.
  void forkWorkerAtBoot(MethodId Body);

  /// Records a ground-truth label for a seeded pair.
  void label(Site Use, Site Free, RaceLabel Label, RaceCategory Category,
             const std::string &Note);

  /// The shared no-op victim method invoked by uses.
  MethodId victimMethod();


  std::shared_ptr<Module> M;
  IrBuilder B;
  std::string AppName;
  ProcessId App;
  QueueId Main;
  QueueId Background;  // invalid until backgroundQueue()
  ProcessId Service;   // invalid until serviceProcess()
  MethodId Victim;     // invalid until victimMethod()

  std::vector<std::function<void(IrBuilder &)>> BootEmitters;
  std::vector<ExternalEventSpec> Externals;
  GroundTruth Truth;
  uint64_t TimeCursor = 100'000; // seed windows start at 100 ms
  uint64_t EventCount = 0;
  uint32_t WorkerCount = 0;
};

} // namespace apps
} // namespace cafa

#endif // CAFA_APPS_APPKIT_H
