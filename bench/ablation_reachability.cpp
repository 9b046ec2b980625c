//===- bench/ablation_reachability.cpp - Oracle ablation (DESIGN.md B) --------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Ablation B: the reachability oracle behind the happens-before graph.
// Sweeps a synthetic app over event counts and compares two oracles on
// total analysis time and happens-before memory: chain clocks built by
// the forward rule pass (O(1) queries, O(N * chains) memory) and the
// pruned BFS under fixpoint rounds (linear memory, per-query search).
// Section 4.2 rejects per-access vector clocks for event-driven traces;
// clocks over an online chain cover of the relevant nodes stay narrow
// once the rules serialize each looper (docs/hb-reachability.md).
//
// Uses google-benchmark so per-size timings come with proper repetition.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Cafa.h"

#include <benchmark/benchmark.h>

using namespace cafa;
using namespace cafa::apps;

namespace {

Scenario buildSynthetic(uint64_t Events) {
  AppBuilder App("synthetic");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.seedFlagGuardedFp("gamma");
  App.addNaiveNoise(16, 4, 3);
  App.fillVolumeTo(Events, /*WorkPerTick=*/1);
  Table1Row Dummy;
  return App.finish(Dummy).S;
}

/// Shared traces per size so google-benchmark repetitions do not re-run
/// the simulator.
const Trace &traceForSize(int64_t Events) {
  static std::map<int64_t, Trace> Cache;
  auto It = Cache.find(Events);
  if (It == Cache.end())
    It = Cache
             .emplace(Events, runScenario(buildSynthetic(
                                              static_cast<uint64_t>(Events)),
                                          RuntimeOptions()))
             .first;
  return It->second;
}

void analyzeWith(benchmark::State &State, ReachMode Mode) {
  const Trace &T = traceForSize(State.range(0));
  size_t HbMem = 0;
  for (auto _ : State) {
    TaskIndex Index(T);
    AccessDb Db = extractAccesses(T, Index);
    HbOptions HbOpt;
    HbOpt.Reach = Mode;
    HbIndex Hb(T, Index, HbOpt);
    DetectorOptions Opt;
    RaceReport Report = detectUseFreeRaces(T, Index, Db, Hb, Opt);
    benchmark::DoNotOptimize(Report.Races.size());
    HbMem = Hb.memoryBytes();
  }
  State.counters["hb_mem_mb"] =
      static_cast<double>(HbMem) / 1e6;
  State.counters["events"] = static_cast<double>(State.range(0));
}

void BM_AnalyzeBfs(benchmark::State &State) {
  analyzeWith(State, ReachMode::Bfs);
}

void BM_AnalyzeChain(benchmark::State &State) {
  analyzeWith(State, ReachMode::Chain);
}

} // namespace

// The BFS oracle pays per-query search inside the rule sweeps,
// so it is only practical on small traces -- which is exactly the point
// of the ablation.  The chain clocks get extra sizes to show their
// headroom.
BENCHMARK(BM_AnalyzeBfs)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_AnalyzeChain)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

BENCHMARK_MAIN();
