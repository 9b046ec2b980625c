//===- detect/RaceReport.cpp - Detector output structures --------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/RaceReport.h"

using namespace cafa;

const char *cafa::raceCategoryName(RaceCategory C) {
  switch (C) {
  case RaceCategory::IntraThread:
    return "a";
  case RaceCategory::InterThread:
    return "b";
  case RaceCategory::Conventional:
    return "c";
  }
  return "?";
}

size_t RaceReport::countCategory(RaceCategory C) const {
  size_t N = 0;
  for (const UseFreeRace &R : Races)
    if (R.Category == C)
      ++N;
  return N;
}
