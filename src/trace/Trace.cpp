//===- trace/Trace.cpp - Execution trace container ------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Format.h"

using namespace cafa;

std::string Trace::taskName(TaskId Id) const {
  if (!Id.isValid() || Id.index() >= TaskTable.size())
    return "<invalid task>";
  const TaskInfo &Info = TaskTable[Id.index()];
  if (Info.Name.isValid())
    return Names.str(Info.Name);
  return formatString("<task %u>", Id.value());
}

std::string Trace::methodName(MethodId Id) const {
  if (!Id.isValid() || Id.index() >= MethodTable.size())
    return "<invalid method>";
  const MethodInfo &Info = MethodTable[Id.index()];
  if (Info.Name.isValid())
    return Names.str(Info.Name);
  return formatString("<method %u>", Id.value());
}

size_t Trace::numEvents() const {
  size_t N = 0;
  for (const TaskInfo &Info : TaskTable)
    if (Info.Kind == TaskKind::Event)
      ++N;
  return N;
}
