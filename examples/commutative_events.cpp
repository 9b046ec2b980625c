//===- examples/commutative_events.cpp - Figures 2 and 5 ----------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Why low-level race detection drowns in false positives on event-driven
// code, and how CAFA's design avoids it.  Builds one app containing:
//
//   - Figure 2's commutative scalar conflict (onPause writes
//     resizeAllowed, onLayout reads it): a "race" to a naive detector,
//     harmless in reality because events are atomic;
//   - Figure 5's commutative use-free pairs: a null-checked re-read
//     (if-guard) and an allocate-then-use (intra-event-allocation);
//   - one real use-after-free hazard.
//
// Then compares the naive count against CAFA with filters on and off.
//
//   $ ./commutative_events
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Cafa.h"

#include <cstdio>

using namespace cafa;
using namespace cafa::apps;

int main() {
  AppBuilder App("connectbot-mini");
  // Figure 2: commutative scalar conflicts (20 widget fields).
  App.addNaiveNoise(/*NumFields=*/20, /*ReaderInstances=*/3,
                    /*WriterInstances=*/2);
  // Figure 5: commutative use-free pairs.
  App.addGuardedCommutativePair("onFocusHandler");
  App.addAllocBeforeUsePair("onResumeHandler");
  // And one real bug.
  App.seedIntraThreadRace("staleSession");
  Table1Row Dummy;
  AppModel Model = App.finish(Dummy);

  Trace T = runScenario(Model.S, RuntimeOptions());
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  AccessDb Db = extractAccesses(T, Index);

  NaiveRaceResult Naive =
      detectLowLevelRaces(T, Hb, NaiveDetectorOptions());
  std::printf("naive low-level detector:   %llu races "
              "(commutative conflicts included)\n",
              static_cast<unsigned long long>(Naive.StaticRaces));

  DetectorOptions NoFilters;
  NoFilters.IfGuardFilter = false;
  NoFilters.IntraEventAllocFilter = false;
  RaceReport Unfiltered = detectUseFreeRaces(T, Index, Db, Hb, NoFilters);
  std::printf("use-free, no heuristics:    %zu races\n",
              Unfiltered.Races.size());

  RaceReport Filtered =
      detectUseFreeRaces(T, Index, Db, Hb, DetectorOptions());
  std::printf("use-free + heuristics:      %zu race(s)\n\n",
              Filtered.Races.size());
  std::printf("%s", renderRaceReport(Filtered, T).c_str());
  std::printf("\nfilters removed: if-guard=%llu intra-event-alloc=%llu\n",
              static_cast<unsigned long long>(
                  Filtered.Filters.IfGuardFiltered),
              static_cast<unsigned long long>(
                  Filtered.Filters.IntraEventAlloc));
  return Filtered.Races.size() == 1 ? 0 : 1;
}
