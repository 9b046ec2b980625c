//===- cafa/RaceRecord.cpp - First-class race data model ----------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cafa/RaceRecord.h"

#include "trace/Trace.h"

using namespace cafa;

const char *cafa::confirmVerdictName(ConfirmVerdict V) {
  switch (V) {
  case ConfirmVerdict::None:
    return "";
  case ConfirmVerdict::Confirmed:
    return "confirmed";
  case ConfirmVerdict::Infeasible:
    return "infeasible";
  case ConfirmVerdict::Unconfirmed:
    return "unconfirmed";
  }
  return "";
}

bool cafa::confirmVerdictFromName(const std::string &Name,
                                  ConfirmVerdict &Out) {
  if (Name.empty()) {
    Out = ConfirmVerdict::None;
    return true;
  }
  if (Name == "confirmed") {
    Out = ConfirmVerdict::Confirmed;
    return true;
  }
  if (Name == "infeasible") {
    Out = ConfirmVerdict::Infeasible;
    return true;
  }
  if (Name == "unconfirmed") {
    Out = ConfirmVerdict::Unconfirmed;
    return true;
  }
  return false;
}

ConfirmVerdict cafa::mergeConfirmVerdicts(ConfirmVerdict A,
                                          ConfirmVerdict B) {
  // Evidence strength, strongest first: a reproduced crash, a proven
  // impossibility, an exhausted budget, nothing attempted.
  auto Rank = [](ConfirmVerdict V) -> int {
    switch (V) {
    case ConfirmVerdict::Confirmed:
      return 3;
    case ConfirmVerdict::Infeasible:
      return 2;
    case ConfirmVerdict::Unconfirmed:
      return 1;
    case ConfirmVerdict::None:
      return 0;
    }
    return 0;
  };
  return Rank(A) >= Rank(B) ? A : B;
}

RaceRecord cafa::buildRaceRecord(const UseFreeRace &Race, const Trace &T) {
  RaceRecord R;
  R.UseMethod = T.methodName(Race.Use.Method);
  R.UsePc = Race.Use.Pc;
  R.UseTask = T.taskName(Race.Use.Task);
  R.UseRecord = Race.Use.Record;
  R.FreeMethod = T.methodName(Race.Free.Method);
  R.FreePc = Race.Free.Pc;
  R.FreeTask = T.taskName(Race.Free.Task);
  R.FreeRecord = Race.Free.Record;
  R.Category = raceCategoryName(Race.Category);
  R.DynamicCount = Race.DynamicCount;
  return R;
}

RaceDocument cafa::buildRaceDocument(const RaceReport &Report,
                                     const Trace &T) {
  RaceDocument Doc;
  Doc.Races.reserve(Report.Races.size());
  for (const UseFreeRace &Race : Report.Races)
    Doc.Races.push_back(buildRaceRecord(Race, T));
  Doc.Filters = Report.Filters;
  Doc.Partial = Report.Partial;
  Doc.PartialCause = Report.PartialCause;
  Doc.PartialDetail = Report.PartialDetail;
  Doc.Provisional = Report.racesProvisional();
  return Doc;
}
