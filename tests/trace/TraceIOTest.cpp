//===- tests/trace/TraceIOTest.cpp --------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Rng.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/Validate.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace cafa;

namespace {

IngestOptions strictOptions() {
  IngestOptions Opt;
  Opt.Salvage.Strict = true;
  return Opt;
}

/// Strict reading through the one ingestion API: fails on the first line
/// salvage would drop or repair, leaving \p Out untouched.
Status parseStrict(const std::string &Text, Trace &Out) {
  IngestReport Report;
  return ingestTrace(Text, Out, Report, strictOptions());
}

Trace makeSampleTrace() {
  TraceBuilder TB;
  QueueId Q = TB.addQueue("main queue"); // space exercises escaping
  TB.addMethod("onPause", 12);
  MethodId M = TB.addMethod("on Resume", 30);
  TB.addListener("focus", false);
  TaskId T1 = TB.addThread("worker");
  TaskId E1 = TB.addEvent("onPause", Q, 25, false, false);
  TaskId E2 = TB.addEvent("tap", Q, 0, false, true);
  TB.begin(T1).send(T1, E1, 25);
  TB.begin(E2).ptrRead(E2, 4, 9, M, 7).deref(E2, 9, DerefKind::Invoke, M, 8);
  TB.end(E2);
  TB.begin(E1).ptrWrite(E1, 4, 0, M, 3).end(E1);
  TB.end(T1);
  return TB.take();
}

/// Structural equality of two traces.
void expectTracesEqual(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.numRecords(), B.numRecords());
  ASSERT_EQ(A.numTasks(), B.numTasks());
  ASSERT_EQ(A.numQueues(), B.numQueues());
  ASSERT_EQ(A.numMethods(), B.numMethods());
  ASSERT_EQ(A.numListeners(), B.numListeners());
  for (uint32_t I = 0; I != A.numRecords(); ++I) {
    const TraceRecord &X = A.record(I);
    const TraceRecord &Y = B.record(I);
    EXPECT_EQ(X.Task, Y.Task) << "record " << I;
    EXPECT_EQ(X.Kind, Y.Kind) << "record " << I;
    EXPECT_EQ(X.Method, Y.Method) << "record " << I;
    EXPECT_EQ(X.Pc, Y.Pc) << "record " << I;
    EXPECT_EQ(X.Arg0, Y.Arg0) << "record " << I;
    EXPECT_EQ(X.Arg1, Y.Arg1) << "record " << I;
    EXPECT_EQ(X.Arg2, Y.Arg2) << "record " << I;
    EXPECT_EQ(X.Time, Y.Time) << "record " << I;
  }
  for (uint32_t I = 0; I != A.numTasks(); ++I) {
    const TaskInfo &X = A.taskInfo(TaskId(I));
    const TaskInfo &Y = B.taskInfo(TaskId(I));
    EXPECT_EQ(X.Kind, Y.Kind);
    EXPECT_EQ(A.taskName(TaskId(I)), B.taskName(TaskId(I)));
    EXPECT_EQ(X.Process, Y.Process);
    EXPECT_EQ(X.Queue, Y.Queue);
    EXPECT_EQ(X.Handler, Y.Handler);
    EXPECT_EQ(X.DelayMs, Y.DelayMs);
    EXPECT_EQ(X.SentAtFront, Y.SentAtFront);
    EXPECT_EQ(X.External, Y.External);
    EXPECT_EQ(X.Parent, Y.Parent);
    EXPECT_EQ(X.IsLooper, Y.IsLooper);
  }
  for (uint32_t I = 0; I != A.numQueues(); ++I) {
    const QueueInfo &X = A.queueInfo(QueueId(I));
    const QueueInfo &Y = B.queueInfo(QueueId(I));
    EXPECT_EQ(X.Name.isValid() ? A.names().str(X.Name) : std::string(),
              Y.Name.isValid() ? B.names().str(Y.Name) : std::string());
    EXPECT_EQ(X.Looper, Y.Looper);
  }
  for (uint32_t I = 0; I != A.numMethods(); ++I) {
    EXPECT_EQ(A.methodName(MethodId(I)), B.methodName(MethodId(I)));
    EXPECT_EQ(A.methodInfo(MethodId(I)).CodeSize,
              B.methodInfo(MethodId(I)).CodeSize);
  }
  for (uint32_t I = 0; I != A.numListeners(); ++I) {
    const ListenerInfo &X = A.listenerInfo(ListenerId(I));
    const ListenerInfo &Y = B.listenerInfo(ListenerId(I));
    EXPECT_EQ(X.Name.isValid() ? A.names().str(X.Name) : std::string(),
              Y.Name.isValid() ? B.names().str(Y.Name) : std::string());
    EXPECT_EQ(X.Instrumented, Y.Instrumented);
  }
}

TEST(TraceIOTest, SerializeParseRoundTrip) {
  Trace Original = makeSampleTrace();
  std::string Text = serializeTrace(Original);
  Trace Parsed;
  Status S = parseStrict(Text, Parsed);
  ASSERT_TRUE(S.ok()) << S.message();
  expectTracesEqual(Original, Parsed);
}

TEST(TraceIOTest, FileRoundTrip) {
  Trace Original = makeSampleTrace();
  std::string Path = uniqueScratchDir() + "/roundtrip.trace";
  ASSERT_TRUE(writeTraceFile(Original, Path).ok());
  Trace Parsed;
  IngestReport Report;
  Status S = ingestTraceFile(Path, Parsed, Report, strictOptions());
  ASSERT_TRUE(S.ok()) << S.message();
  expectTracesEqual(Original, Parsed);
  std::remove(Path.c_str());
}

TEST(TraceIOTest, MissingHeaderRejected) {
  Trace Out;
  Status S = parseStrict("not a trace\n", Out);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("header"), std::string::npos);
}

TEST(TraceIOTest, UnknownDirectiveRejected) {
  Trace Out;
  Status S = parseStrict("cafa-trace v1\nbogus 1 2 3\n", Out);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("unknown directive"), std::string::npos);
}

TEST(TraceIOTest, MalformedRecLineRejected) {
  Trace Out;
  Status S = parseStrict("cafa-trace v1\n"
                        "task 0 thread t - 4294967295 4294967295 "
                        "4294967295 0 0 0 4294967295 0\n"
                        "rec 0 rd 0\n",
                        Out);
  EXPECT_FALSE(S.ok());
}

TEST(TraceIOTest, RecForUndeclaredTaskRejected) {
  Trace Out;
  Status S = parseStrict(
      "cafa-trace v1\nrec 5 rd 4294967295 0 0 0 0 1\n", Out);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("undeclared task"), std::string::npos);
}

TEST(TraceIOTest, NonDenseIdsRejected) {
  Trace Out;
  Status S = parseStrict("cafa-trace v1\nmethod 3 foo 10\n", Out);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("gap before method 3"), std::string::npos);
}

TEST(TraceIOTest, CommentsAndBlankLinesIgnored) {
  Trace Out;
  Status S = parseStrict("cafa-trace v1\n\n# a comment\n", Out);
  EXPECT_TRUE(S.ok()) << S.message();
  EXPECT_EQ(Out.numRecords(), 0u);
}

TEST(TraceIOTest, NameEscapingSurvivesSpacesAndBackslashes) {
  TraceBuilder TB;
  TB.addQueue("queue with spaces");
  TB.addMethod("weird\\name", 1);
  std::string Text = serializeTrace(TB.trace());
  Trace Parsed;
  ASSERT_TRUE(parseStrict(Text, Parsed).ok());
  EXPECT_EQ(Parsed.names().str(Parsed.queueInfo(QueueId(0)).Name),
            "queue with spaces");
  EXPECT_EQ(Parsed.methodName(MethodId(0)), "weird\\name");
}

TEST(TraceIOTest, ReadMissingFileFails) {
  Trace Out;
  IngestReport Report;
  Status S = ingestTraceFile("/nonexistent/path/file.trace", Out, Report,
                             strictOptions());
  EXPECT_FALSE(S.ok());
}

TEST(TraceIOTest, ParseFailureLeavesOutputUntouched) {
  // Strict reading documents the strong error guarantee: on failure the
  // output trace is exactly what the caller passed in, never a
  // half-parsed hybrid.
  Trace Out = makeSampleTrace();
  std::string Bad =
      serializeTrace(Out) + "rec 0 rd not-a-number 0 0 0 0 99\n";
  ASSERT_FALSE(parseStrict(Bad, Out).ok());
  expectTracesEqual(Out, makeSampleTrace());

  // Same contract when the header itself is missing.
  ASSERT_FALSE(parseStrict("not a trace\n", Out).ok());
  expectTracesEqual(Out, makeSampleTrace());
}

/// Builds a random trace from \p Seed that validateTrace accepts: every
/// record kind, full-range values wherever the grammar admits them,
/// sentinel and valid cross-table references, and names exercising the
/// escaping rules.
Trace makeRandomTrace(uint64_t Seed) {
  Rng R(Seed);
  Trace T;

  auto randomName = [&](const char *Prefix) {
    std::string S = Prefix;
    // Includes the two escaped characters (space, backslash) plus
    // ordinary ones.
    static const char Alphabet[] = "ab z\\_-.X9";
    size_t Len = R.below(10);
    for (size_t I = 0; I != Len; ++I)
      S.push_back(Alphabet[R.below(sizeof(Alphabet) - 1)]);
    return T.names().intern(S);
  };

  size_t NumMethods = 1 + R.below(4);
  size_t NumQueues = 1 + R.below(3);
  size_t NumListeners = 1 + R.below(3);
  size_t NumTasks = 2 + R.below(6);
  auto randomTask = [&] {
    return TaskId(static_cast<uint32_t>(R.below(NumTasks)));
  };
  for (size_t I = 0; I != NumMethods; ++I) {
    MethodInfo M;
    if (!R.chance(1, 4))
      M.Name = randomName("m ");
    M.CodeSize = static_cast<uint32_t>(R.next());
    T.addMethod(M);
  }
  for (size_t I = 0; I != NumQueues; ++I) {
    QueueInfo Q;
    if (!R.chance(1, 4))
      Q.Name = randomName("q\\");
    if (R.chance(1, 2))
      Q.Looper = randomTask();
    T.addQueue(Q);
  }
  for (size_t I = 0; I != NumListeners; ++I) {
    ListenerInfo L;
    if (!R.chance(1, 4))
      L.Name = randomName("l");
    L.Instrumented = R.chance(1, 2);
    T.addListener(L);
  }
  for (size_t I = 0; I != NumTasks; ++I) {
    TaskInfo Info;
    Info.Kind = R.chance(1, 2) ? TaskKind::Event : TaskKind::Thread;
    if (!R.chance(1, 4))
      Info.Name = randomName("t ");
    if (R.chance(1, 2))
      Info.Process = ProcessId(static_cast<uint32_t>(R.below(4)));
    if (Info.Kind == TaskKind::Event || R.chance(1, 2))
      Info.Queue = QueueId(static_cast<uint32_t>(R.below(NumQueues)));
    if (R.chance(1, 2))
      Info.Handler = MethodId(static_cast<uint32_t>(R.below(NumMethods)));
    Info.DelayMs = R.next();
    Info.SentAtFront = R.chance(1, 3);
    Info.External = R.chance(1, 3);
    if (R.chance(1, 2))
      Info.Parent = randomTask();
    Info.IsLooper = R.chance(1, 4);
    T.addTask(Info);
  }

  // Records: random operations of random tasks, each kept only where it
  // leaves the trace valid.
  struct TaskState {
    bool Begun = false, Ended = false, Sent = false;
    std::vector<uint64_t> Locks, Frames;
  };
  std::vector<TaskState> States(NumTasks);
  std::vector<TaskId> ActiveEvent(NumQueues, TaskId::invalid());
  constexpr uint64_t MaxEntityId = 1 << 20; // SalvageOptions' default
  uint64_t Time = R.next() >> 1;
  uint64_t NextFrame = R.next() >> 1;
  for (size_t Step = 0, E = 60 + R.below(120); Step != E; ++Step) {
    TaskId Task = randomTask();
    const TaskInfo &Info = T.taskInfo(Task);
    TaskState &S = States[Task.index()];
    TraceRecord Rec;
    Rec.Task = Task;
    Rec.Kind = static_cast<OpKind>(R.below(NumOpKinds));
    if (R.chance(1, 2) || Rec.Kind == OpKind::Branch)
      Rec.Method = MethodId(static_cast<uint32_t>(R.below(NumMethods)));
    Rec.Pc = static_cast<uint32_t>(R.next());
    Rec.Arg0 = R.next();
    Rec.Arg1 = R.next();
    Rec.Arg2 = R.next();
    if (Rec.Kind == OpKind::TaskBegin) {
      if (S.Begun)
        continue;
      if (Info.Kind == TaskKind::Event) {
        TaskId &Active = ActiveEvent[Info.Queue.index()];
        if ((!Info.External && !S.Sent) || Active.isValid())
          continue;
        Active = Task;
      }
      S.Begun = true;
    } else if (!S.Begun || S.Ended) {
      continue;
    }
    switch (Rec.Kind) {
    case OpKind::TaskBegin:
      break;
    case OpKind::TaskEnd:
      if (!S.Locks.empty() || !S.Frames.empty())
        continue;
      if (Info.Kind == TaskKind::Event)
        ActiveEvent[Info.Queue.index()] = TaskId::invalid();
      S.Ended = true;
      break;
    case OpKind::Read:
    case OpKind::Write:
    case OpKind::PtrRead:
    case OpKind::PtrWrite:
    case OpKind::Wait:
    case OpKind::Notify:
      Rec.Arg0 = R.below(MaxEntityId + 1);
      break;
    case OpKind::Fork:
    case OpKind::Join: {
      TaskId Target = randomTask();
      if (T.taskInfo(Target).Kind != TaskKind::Thread ||
          (Rec.Kind == OpKind::Join && !States[Target.index()].Ended))
        continue;
      Rec.Arg0 = Target.value();
      break;
    }
    case OpKind::Send:
    case OpKind::SendAtFront: {
      TaskId Target = randomTask();
      const TaskInfo &TI = T.taskInfo(Target);
      const TaskState &TS = States[Target.index()];
      if (TI.Kind != TaskKind::Event || TS.Sent || TS.Begun)
        continue;
      States[Target.index()].Sent = true;
      Rec.Arg0 = Target.value();
      Rec.Arg2 = TI.Queue.value();
      break;
    }
    case OpKind::RegisterListener:
    case OpKind::PerformListener:
      Rec.Arg0 = R.below(NumListeners);
      break;
    case OpKind::LockAcquire:
      S.Locks.push_back(Rec.Arg0);
      break;
    case OpKind::LockRelease:
      if (S.Locks.empty())
        continue;
      Rec.Arg0 = S.Locks.back();
      S.Locks.pop_back();
      break;
    case OpKind::IpcSend:
    case OpKind::IpcRecv:
    case OpKind::Deref:
      break;
    case OpKind::Branch:
      Rec.Arg0 = R.below(3);
      Rec.Arg2 = static_cast<uint32_t>(Rec.Arg2);
      break;
    case OpKind::MethodEnter:
      NextFrame += 1 + R.below(1000);
      Rec.Arg0 = NextFrame;
      S.Frames.push_back(NextFrame);
      break;
    case OpKind::MethodExit:
      if (S.Frames.empty())
        continue;
      Rec.Arg0 = S.Frames.back();
      S.Frames.pop_back();
      break;
    }
    Time += R.below(1000);
    Rec.Time = Time;
    T.append(Rec);
  }
  return T;
}

TEST(TraceIOTest, RandomizedRoundTripIsIdentity) {
  // The property pin: parseStrict(serializeTrace(T)) == T over 100
  // randomized valid traces covering every record kind, full-range
  // values, sentinel ids, and names with spaces and backslashes.
  std::vector<bool> KindSeen(NumOpKinds, false);
  for (uint64_t Seed = 0; Seed != 100; ++Seed) {
    Trace Original = makeRandomTrace(Seed);
    Status V = validateTrace(Original);
    ASSERT_TRUE(V.ok()) << "seed " << Seed << ": " << V.message();
    for (const TraceRecord &Rec : Original.records())
      KindSeen[static_cast<unsigned>(Rec.Kind)] = true;
    std::string Text = serializeTrace(Original);
    Trace Parsed;
    Status S = parseStrict(Text, Parsed);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message();
    expectTracesEqual(Original, Parsed);
    EXPECT_EQ(serializeTrace(Parsed), Text) << "seed " << Seed;
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      ADD_FAILURE() << "round-trip diverged at seed " << Seed;
      return;
    }
  }
  for (unsigned K = 0; K != NumOpKinds; ++K)
    EXPECT_TRUE(KindSeen[K]) << opKindName(static_cast<OpKind>(K));
}

} // namespace
