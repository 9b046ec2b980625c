//===- examples/mytracks_usefree.cpp - The paper's Figure 1 story -------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Runs the bundled MyTracks application model (the paper's motivating
// example) and walks through its report: the Figure 1 providerUtils race
// delivered through the recording service's Binder connection, the
// worker-thread races a conventional detector misses, and the
// flag-guarded false positives.
//
//   $ ./mytracks_usefree
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "cafa/Cafa.h"

#include <cstdio>
#include <map>

using namespace cafa;
using namespace cafa::apps;

int main() {
  AppModel Model = buildMyTracks();
  std::printf("running the instrumented MyTracks model...\n");
  RuntimeStats Stats;
  Trace T = runScenario(Model.S, RuntimeOptions(), &Stats);
  std::printf("  %llu events processed, %zu records collected\n\n",
              static_cast<unsigned long long>(Stats.EventsProcessed),
              T.numRecords());

  AnalysisResult R = analyzeTrace(T, DetectorOptions());

  // Join reports with the model's ground truth for annotated output.
  std::map<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>,
           const GroundTruthEntry *>
      Labels;
  for (const GroundTruthEntry &E : Model.Truth.Entries)
    Labels[{E.UseMethod.value(), E.UsePc, E.FreeMethod.value(),
            E.FreePc}] = &E;

  std::printf("CAFA reported %zu use-free races:\n", R.Report.Races.size());
  size_t N = 0;
  for (const UseFreeRace &Race : R.Report.Races) {
    auto It = Labels.find({Race.Use.Method.value(), Race.Use.Pc,
                           Race.Free.Method.value(), Race.Free.Pc});
    const char *Verdict =
        It == Labels.end() ? "?" : raceLabelName(It->second->Label);
    std::printf("  #%zu [%s/%s] %s\n", ++N,
                raceCategoryName(Race.Category), Verdict,
                renderRaceLine(buildRaceRecord(Race, T)).c_str());
    if (It != Labels.end())
      std::printf("        %s\n", It->second->Note.c_str());
  }

  Table1Row Row = evaluateReport(R.Report, Model.Truth, T, "mytracks");
  std::printf("\nTable 1 row: reported=%llu a=%llu b=%llu c=%llu "
              "I=%llu II=%llu III=%llu (paper: 8 / 1 3 0 / 0 4 0)\n",
              static_cast<unsigned long long>(Row.Reported),
              static_cast<unsigned long long>(Row.TrueA),
              static_cast<unsigned long long>(Row.TrueB),
              static_cast<unsigned long long>(Row.TrueC),
              static_cast<unsigned long long>(Row.FpI),
              static_cast<unsigned long long>(Row.FpII),
              static_cast<unsigned long long>(Row.FpIII));
  return 0;
}
