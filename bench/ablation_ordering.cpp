//===- bench/ablation_ordering.cpp - Causality-model ablation (DESIGN.md C) ---===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Ablation C: what each causality design decision buys.  Per app:
//   cafa          -- the full model (Table 1 configuration);
//   conventional  -- total event order per looper (thread-based view):
//                    only the (c)-style races remain detectable;
//   no-queue      -- CAFA without event-queue rules 1-4: falsely
//                    concurrent events inflate the report;
//   no-atomicity  -- CAFA without the atomicity rule;
//   no-external   -- CAFA without the external-input chain.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "cafa/Cafa.h"

#include <cstdio>

using namespace cafa;
using namespace cafa::apps;

int main() {
  std::printf("%-14s %8s %14s %10s %14s %13s\n", "Application", "cafa",
              "conventional", "no-queue", "no-atomicity", "no-external");
  uint64_t Sum[5] = {};
  for (const std::string &Name : appNames()) {
    AppModel Model = buildApp(Name);
    Trace T = runScenario(Model.S, RuntimeOptions());
    TaskIndex Index(T);
    AccessDb Db = extractAccesses(T, Index);

    auto count = [&](HbOptions HbOpt) {
      HbIndex Hb(T, Index, HbOpt);
      DetectorOptions Opt;
      return detectUseFreeRaces(T, Index, Db, Hb, Opt).Races.size();
    };

    HbOptions Cafa;
    HbOptions Conventional;
    Conventional.Model = OrderingModel::Conventional;
    HbOptions NoQueue;
    NoQueue.EnableQueueRules = false;
    HbOptions NoAtomicity;
    NoAtomicity.EnableAtomicityRule = false;
    HbOptions NoExternal;
    NoExternal.EnableExternalInputRule = false;

    size_t N0 = count(Cafa), N1 = count(Conventional), N2 = count(NoQueue),
           N3 = count(NoAtomicity), N4 = count(NoExternal);
    std::printf("%-14s %8zu %14zu %10zu %14zu %13zu\n", Name.c_str(), N0,
                N1, N2, N3, N4);
    Sum[0] += N0;
    Sum[1] += N1;
    Sum[2] += N2;
    Sum[3] += N3;
    Sum[4] += N4;
  }
  std::printf("%-14s %8llu %14llu %10llu %14llu %13llu\n", "Overall",
              static_cast<unsigned long long>(Sum[0]),
              static_cast<unsigned long long>(Sum[1]),
              static_cast<unsigned long long>(Sum[2]),
              static_cast<unsigned long long>(Sum[3]),
              static_cast<unsigned long long>(Sum[4]));
  std::printf("\nconventional misses the (a)/(b) races; dropping queue/"
              "atomicity/external rules adds falsely-concurrent reports\n");
  return 0;
}
