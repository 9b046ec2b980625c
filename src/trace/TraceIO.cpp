//===- trace/TraceIO.cpp - Trace text serialization -----------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Format.h"
#include "trace/TraceTextFormat.h"

#include <cinttypes>
#include <fstream>
#include <sstream>

using namespace cafa;
using namespace cafa::tracetext;

std::string cafa::serializeRecordLine(const TraceRecord &Rec) {
  return formatString(
      "rec %u %s %u %u %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64,
      Rec.Task.value(), opKindName(Rec.Kind), idOrSentinel(Rec.Method),
      Rec.Pc, Rec.Arg0, Rec.Arg1, Rec.Arg2, Rec.Time);
}

std::string cafa::serializeTrace(const Trace &T) {
  std::ostringstream OS;
  OS << MagicLine << '\n';

  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numMethods()); I != E;
       ++I) {
    const MethodInfo &M = T.methodInfo(MethodId(I));
    OS << "method " << I << ' '
       << escapeName(M.Name.isValid() ? T.names().str(M.Name) : "-") << ' '
       << M.CodeSize << '\n';
  }
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numQueues()); I != E;
       ++I) {
    const QueueInfo &Q = T.queueInfo(QueueId(I));
    OS << "queue " << I << ' '
       << escapeName(Q.Name.isValid() ? T.names().str(Q.Name) : "-") << ' '
       << idOrSentinel(Q.Looper) << '\n';
  }
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numListeners()); I != E;
       ++I) {
    const ListenerInfo &L = T.listenerInfo(ListenerId(I));
    OS << "listener " << I << ' '
       << escapeName(L.Name.isValid() ? T.names().str(L.Name) : "-") << ' '
       << (L.Instrumented ? 1 : 0) << '\n';
  }
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numTasks()); I != E;
       ++I) {
    const TaskInfo &Info = T.taskInfo(TaskId(I));
    OS << "task " << I << ' '
       << (Info.Kind == TaskKind::Thread ? "thread" : "event") << ' '
       << escapeName(Info.Name.isValid() ? T.names().str(Info.Name) : "-")
       << ' ' << idOrSentinel(Info.Process) << ' '
       << idOrSentinel(Info.Queue) << ' ' << idOrSentinel(Info.Handler)
       << ' ' << Info.DelayMs << ' ' << (Info.SentAtFront ? 1 : 0) << ' '
       << (Info.External ? 1 : 0) << ' ' << idOrSentinel(Info.Parent) << ' '
       << (Info.IsLooper ? 1 : 0) << '\n';
  }
  for (const TraceRecord &Rec : T.records())
    OS << serializeRecordLine(Rec) << '\n';
  return OS.str();
}

Status cafa::writeTraceFile(const Trace &T, const std::string &Path) {
  std::ofstream OS(Path, std::ios::binary);
  if (!OS)
    return Status::error(formatString("cannot open '%s' for writing",
                                      Path.c_str()));
  std::string Text = serializeTrace(T);
  OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  if (!OS)
    return Status::error(formatString("write to '%s' failed", Path.c_str()));
  return Status::success();
}
