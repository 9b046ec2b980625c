//===- rt/Runtime.cpp - Event-driven runtime simulator ---------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "rt/Runtime.h"

#include "ir/Verifier.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>

using namespace cafa;

namespace {

/// Simulated cost of one bytecode instruction, in microseconds.
constexpr uint32_t MicrosPerInstr = 2;
/// Simulated fork-to-first-instruction latency in microseconds.
constexpr uint32_t ForkStartMicros = 100;
/// Simulated Binder dispatch latency in microseconds.
constexpr uint32_t BinderDispatchMicros = 300;

/// Host busy-work sink, one per thread: confirmation runs replays on
/// several threads at once, and a shared sink would be a data race.
/// Volatile so the loop in spinWork() cannot be optimized away.
thread_local volatile uint64_t SpinSink = 0x9E3779B97F4A7C15ull;

/// Burns \p Units iterations of xorshift work on the host CPU.  This
/// models the interpreter + application cost an uninstrumented run pays,
/// giving the instrumented/uninstrumented CPU ratio (Figure 8) a
/// realistic denominator.
void spinWork(uint32_t Units) {
  uint64_t X = SpinSink;
  for (uint32_t I = 0; I != Units; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  SpinSink = X;
}

/// One interpreter frame.
struct Frame {
  MethodId Method;
  uint32_t Pc = 0;
  uint64_t FrameId = 0;
  std::vector<Value> Regs;
};

enum class TaskState : uint8_t { Created, Runnable, Blocked, Done };

/// Runtime state of one task (thread or event).
struct RtTask {
  TaskId Id;
  TaskKind Kind = TaskKind::Thread;
  ProcessId Process;
  QueueId Queue;   // events only
  MethodId Entry;
  bool HasArg = false;
  Value Arg;
  ListenerId FromListener;
  TransactionId PendingIpcRecv;
  bool External = false;
  bool IsLooper = false;
  bool Started = false;

  std::vector<Frame> Frames;
  TaskState State = TaskState::Created;
  bool Notified = false;
  std::vector<uint32_t> HeldLocks;
  /// Tasks blocked joining this thread, in block order.
  std::vector<uint32_t> Joiners;
  uint64_t Time = 0;
  bool StepQueued = false;
};

/// One pending event in a queue.
struct QueueEntry {
  uint32_t TaskIndex;
  uint64_t ReadyTime;
};

/// Runtime state of one event queue.
struct RtQueue {
  std::deque<QueueEntry> Entries;
  uint32_t LooperTaskIndex = 0;
  bool Busy = false;
  uint64_t ScheduledPollTime = UINT64_MAX;
};

struct MonitorState {
  uint32_t PendingNotifies = 0;
  std::deque<uint32_t> Waiters;
};

struct LockState {
  int64_t HolderTask = -1;
  /// Tasks blocked acquiring this lock, in block order.
  std::vector<uint32_t> Waiters;
};

/// One pipe channel: pending messages tagged with transaction ids.
struct PipeState {
  std::deque<std::pair<uint32_t, Value>> Messages;
  /// Tasks blocked reading this pipe, in block order.
  std::vector<uint32_t> Readers;
};

struct ListenerRegistration {
  bool Registered = false;
  MethodId Handler;
  bool HasArg = false;
  Value Arg;
};

/// Scheduler work item kinds.
enum class ItemKind : uint8_t { Step, StartThread, Inject, Poll };

struct SchedItem {
  uint64_t Time;
  uint64_t Seq;
  ItemKind Kind;
  uint32_t Index;
  bool operator>(const SchedItem &O) const {
    if (Time != O.Time)
      return Time > O.Time;
    return Seq > O.Seq;
  }
};

} // namespace

/// One ScheduleConstraint being tracked during a run: the picks plus
/// the task indices they resolved to (at task creation) and whether the
/// hold has been released.
struct TrackedConstraint {
  TaskPick Held;
  TaskPick After;
  int64_t HeldTask = -1;  ///< resolved task index, -1 until created
  int64_t AfterTask = -1; ///< resolved task index, -1 until created
  bool Released = false;
};

struct Runtime::Impl {
  const Scenario &S;
  const Module &M;
  RuntimeOptions Opt;
  ObjectHeap Heap;
  LoggerDevice Logger;
  RuntimeStats Stats;

  std::vector<RtTask> Tasks;
  std::vector<RtQueue> Queues;
  std::vector<MonitorState> Monitors;
  std::vector<LockState> Locks;
  std::vector<PipeState> Pipes;
  std::vector<ListenerRegistration> Listeners;
  std::priority_queue<SchedItem, std::vector<SchedItem>,
                      std::greater<SchedItem>>
      Heap_;
  uint64_t SeqCounter = 0;
  uint64_t FrameIdCounter = 0;
  uint32_t TxnCounter = 0;
  Status Failure;
  bool TraceTaken = false;

  /// Schedule-override state.  Constraints resolve their picks to task
  /// indices as tasks are created; held thread starts park here until
  /// their after-task completes.
  std::vector<TrackedConstraint> Constraints;
  /// Next creation ordinal per entry-method id (only maintained when
  /// constraints exist -- the counters are pure bookkeeping).
  std::vector<uint32_t> EntryOrdinals;
  std::vector<uint32_t> ParkedThreads;

  Impl(const Scenario &S, const RuntimeOptions &Opt)
      : S(S), M(S.module()), Opt(Opt), Heap(M),
        Logger(Opt.Tracing && Opt.MirrorStream) {
    Constraints.reserve(Opt.Schedule.Constraints.size());
    for (const ScheduleConstraint &C : Opt.Schedule.Constraints) {
      TrackedConstraint TC;
      TC.Held = C.Held;
      TC.After = C.After;
      Constraints.push_back(TC);
    }
  }

  // --- Scheduling primitives --------------------------------------------

  void push(uint64_t Time, ItemKind Kind, uint32_t Index) {
    Heap_.push({Time, SeqCounter++, Kind, Index});
  }

  void pushStep(uint32_t TaskIdx) {
    RtTask &T = Tasks[TaskIdx];
    if (T.StepQueued)
      return;
    T.StepQueued = true;
    push(T.Time, ItemKind::Step, TaskIdx);
  }

  void schedulePoll(uint32_t QueueIdx, uint64_t At) {
    RtQueue &Q = Queues[QueueIdx];
    if (Q.ScheduledPollTime <= At)
      return;
    Q.ScheduledPollTime = At;
    push(At, ItemKind::Poll, QueueIdx);
  }

  // --- Schedule overrides -----------------------------------------------

  bool isHeld(uint32_t TaskIdx) const {
    for (const TrackedConstraint &C : Constraints)
      if (!C.Released && C.HeldTask == static_cast<int64_t>(TaskIdx))
        return true;
    return false;
  }

  /// Resolves constraint picks against the task being created at
  /// \p Index with entry \p Entry.
  void resolvePicks(uint32_t Index, MethodId Entry) {
    if (Constraints.empty() || !Entry.isValid())
      return;
    if (EntryOrdinals.size() <= Entry.index())
      EntryOrdinals.resize(Entry.index() + 1, 0);
    uint32_t Ord = EntryOrdinals[Entry.index()]++;
    for (TrackedConstraint &C : Constraints) {
      if (C.Held.Entry == Entry && C.Held.Ordinal == Ord)
        C.HeldTask = Index;
      if (C.After.Entry == Entry && C.After.Ordinal == Ord)
        C.AfterTask = Index;
    }
  }

  /// Re-dispatches work a hold release (or expiry) may have unblocked:
  /// parked thread starts whose holds cleared, and idle queues whose
  /// head may have been a skipped held entry.
  void reviveAfterRelease(uint64_t Now) {
    for (size_t I = 0; I != ParkedThreads.size();) {
      uint32_t Idx = ParkedThreads[I];
      if (isHeld(Idx)) {
        ++I;
        continue;
      }
      RtTask &T = Tasks[Idx];
      T.Time = std::max(T.Time, Now);
      push(T.Time, ItemKind::StartThread, Idx);
      ParkedThreads.erase(ParkedThreads.begin() +
                          static_cast<ptrdiff_t>(I));
    }
    for (uint32_t Q = 0, E = static_cast<uint32_t>(Queues.size()); Q != E;
         ++Q)
      if (!Queues[Q].Busy && !Queues[Q].Entries.empty())
        schedulePoll(Q, Now);
  }

  /// Releases every constraint waiting on \p DoneTaskIdx.
  void releaseConstraintsFor(uint32_t DoneTaskIdx, uint64_t Now) {
    bool AnyReleased = false;
    for (TrackedConstraint &C : Constraints)
      if (!C.Released && C.AfterTask == static_cast<int64_t>(DoneTaskIdx)) {
        C.Released = true;
        AnyReleased = true;
      }
    if (AnyReleased)
      reviveAfterRelease(Now);
  }

  /// Called when the run quiesced with constraints still unreleased:
  /// their after-tasks can no longer complete (unmatched pick or hold
  /// cycle), so the holds expire and the parked work drains under the
  /// default order.  Returns true if anything was revived.
  bool expireHolds(uint64_t Now) {
    bool AnyExpired = false;
    for (TrackedConstraint &C : Constraints)
      if (!C.Released) {
        C.Released = true;
        ++Stats.ScheduleHoldsExpired;
        AnyExpired = true;
      }
    if (!AnyExpired)
      return false;
    reviveAfterRelease(Now);
    return !Heap_.empty();
  }

  // --- Trace emission -----------------------------------------------------

  void emit(const RtTask &T, OpKind Kind, uint64_t A0 = 0, uint64_t A1 = 0,
            uint64_t A2 = 0) {
    if (!Opt.Tracing)
      return;
    TraceRecord Rec;
    Rec.Task = T.Id;
    Rec.Kind = Kind;
    if (!T.Frames.empty()) {
      Rec.Method = T.Frames.back().Method;
      Rec.Pc = T.Frames.back().Pc;
    }
    Rec.Arg0 = A0;
    Rec.Arg1 = A1;
    Rec.Arg2 = A2;
    Rec.Time = T.Time;
    Logger.append(Rec);
    ++Stats.RecordsEmitted;
  }

  // --- Task creation --------------------------------------------------------

  uint32_t createTask(TaskKind Kind, std::string_view Name,
                      ProcessId Process, QueueId Queue, MethodId Entry,
                      bool HasArg, Value Arg, bool External, bool IsLooper,
                      uint64_t DelayMs, bool AtFront, TaskId Parent,
                      ListenerId FromListener) {
    uint32_t Index = static_cast<uint32_t>(Tasks.size());
    Tasks.emplace_back();
    RtTask &T = Tasks.back();
    T.Id = TaskId(Index);
    T.Kind = Kind;
    T.Process = Process;
    T.Queue = Queue;
    T.Entry = Entry;
    T.HasArg = HasArg;
    T.Arg = Arg;
    T.External = External;
    T.IsLooper = IsLooper;
    T.FromListener = FromListener;
    ++Stats.TasksCreated;
    resolvePicks(Index, Entry);

    if (Opt.Tracing) {
      TaskInfo Info;
      Info.Kind = Kind;
      Info.Name = Logger.trace().names().intern(Name);
      Info.Process = Process;
      Info.Queue = Queue;
      Info.Handler = Entry;
      Info.DelayMs = DelayMs;
      Info.SentAtFront = AtFront;
      Info.External = External;
      Info.Parent = Parent;
      Info.IsLooper = IsLooper;
      TaskId Got = Logger.trace().addTask(Info);
      assert(Got == T.Id && "trace task table out of sync");
      (void)Got;
    }
    return Index;
  }

  /// Pushes the entry frame of \p T (v0 = optional argument).
  void pushEntryFrame(RtTask &T) {
    const MethodDef &Def = M.methodDef(T.Entry);
    Frame F;
    F.Method = T.Entry;
    F.FrameId = ++FrameIdCounter;
    F.Regs.assign(Def.NumRegs, Value());
    if (T.HasArg && Def.NumRegs > 0)
      F.Regs[0] = T.Arg;
    T.Frames.push_back(std::move(F));
    emit(T, OpKind::MethodEnter, T.Frames.back().FrameId);
  }

  /// Starts a thread task at time \p Now (begin + IPC receive + frame).
  void startThread(uint32_t TaskIdx, uint64_t Now) {
    RtTask &T = Tasks[TaskIdx];
    assert(!T.Started && "thread started twice");
    T.Started = true;
    T.Time = std::max(T.Time, Now);
    T.State = TaskState::Runnable;
    emit(T, OpKind::TaskBegin);
    if (T.PendingIpcRecv.isValid())
      emit(T, OpKind::IpcRecv, T.PendingIpcRecv.value());
    pushEntryFrame(T);
    pushStep(TaskIdx);
  }

  /// Starts an event task picked by its looper at time \p Now.
  void startEvent(uint32_t TaskIdx, uint64_t Now) {
    RtTask &T = Tasks[TaskIdx];
    assert(!T.Started && "event started twice");
    T.Started = true;
    T.Time = Now;
    T.State = TaskState::Runnable;
    ++Stats.EventsProcessed;
    emit(T, OpKind::TaskBegin);
    if (T.FromListener.isValid() &&
        M.listenerDef(T.FromListener).Instrumented)
      emit(T, OpKind::PerformListener, T.FromListener.value());
    pushEntryFrame(T);
    pushStep(TaskIdx);
  }

  /// Ends \p T: emits the end record, wakes joiners, frees its looper.
  void endTask(uint32_t TaskIdx, uint64_t Now) {
    RtTask &T = Tasks[TaskIdx];
    T.Time = std::max(T.Time, Now);
    emit(T, OpKind::TaskEnd);
    T.State = TaskState::Done;
    // Wake joiners (they re-execute their join instruction).
    wakeAll(T.Joiners, T.Time);
    if (T.Kind == TaskKind::Event) {
      RtQueue &Q = Queues[T.Queue.index()];
      assert(Q.Busy && "event ended on an idle queue");
      Q.Busy = false;
      schedulePoll(T.Queue.value(), T.Time);
    }
    releaseConstraintsFor(TaskIdx, T.Time);
  }

  void wake(uint32_t TaskIdx, uint64_t Now) {
    RtTask &T = Tasks[TaskIdx];
    assert(T.State == TaskState::Blocked && "waking a non-blocked task");
    T.State = TaskState::Runnable;
    T.Time = std::max(T.Time, Now);
    pushStep(TaskIdx);
  }

  /// Wakes and removes every task in the waiter list \p Waiters.  They
  /// wake in ascending task index, not in block order: wake order fixes
  /// the order of their queued steps, so it is part of the schedule.
  void wakeAll(std::vector<uint32_t> &Waiters, uint64_t Now) {
    std::sort(Waiters.begin(), Waiters.end());
    for (uint32_t W : Waiters)
      wake(W, Now);
    Waiters.clear();
  }

  /// Aborts \p T with a null-pointer exception: unwinds all frames with
  /// throw-marked exits, then ends the task.
  void throwNpe(uint32_t TaskIdx) {
    RtTask &T = Tasks[TaskIdx];
    ++Stats.NullPointerExceptions;
    if (!T.Frames.empty())
      Stats.NpeSites.push_back(
          {T.Frames.back().Method, T.Frames.back().Pc});
    while (!T.Frames.empty()) {
      emit(T, OpKind::MethodExit, T.Frames.back().FrameId, /*Throw=*/1);
      T.Frames.pop_back();
    }
    endTask(TaskIdx, T.Time);
  }

  // --- Event queue handling ---------------------------------------------

  void enqueueEvent(uint32_t QueueIdx, uint32_t TaskIdx, uint64_t ReadyTime,
                    bool AtFront, uint64_t Now) {
    RtQueue &Q = Queues[QueueIdx];
    if (AtFront)
      Q.Entries.push_front({TaskIdx, ReadyTime});
    else
      Q.Entries.push_back({TaskIdx, ReadyTime});
    schedulePoll(QueueIdx, std::max(Now, ReadyTime));
  }

  void poll(uint32_t QueueIdx, uint64_t Now) {
    RtQueue &Q = Queues[QueueIdx];
    Q.ScheduledPollTime = UINT64_MAX;
    if (Q.Busy || Q.Entries.empty())
      return;
    // Pick the first entry in queue order whose time constraint elapsed
    // (Section 2.1: ready events are processed in the order queued).
    // Held entries are skipped in place -- they keep their queue
    // position and become eligible when their constraint releases.
    for (auto It = Q.Entries.begin(); It != Q.Entries.end(); ++It) {
      if (isHeld(It->TaskIndex))
        continue;
      if (It->ReadyTime <= Now) {
        uint32_t TaskIdx = It->TaskIndex;
        Q.Entries.erase(It);
        Q.Busy = true;
        startEvent(TaskIdx, Now);
        return;
      }
    }
    // Nothing ready yet: wake up when the earliest dispatchable entry
    // becomes ready.  Held entries must not drive the wakeup -- a poll
    // re-armed at a held entry's elapsed ReadyTime would spin; their
    // release re-polls the queue instead.
    uint64_t Earliest = UINT64_MAX;
    for (const QueueEntry &E : Q.Entries)
      if (!isHeld(E.TaskIndex))
        Earliest = std::min(Earliest, E.ReadyTime);
    if (Earliest != UINT64_MAX)
      schedulePoll(QueueIdx, Earliest);
  }

  // --- Interpretation ------------------------------------------------------

  /// Outcome of one instruction step.
  enum class StepResult { Continue, Yield, Fatal };

  StepResult step(uint32_t TaskIdx);
  Status runAll();

  ObjectId regObject(const Frame &F, Reg R) const {
    assert(R != NoReg && "reading the no-register sentinel");
    assert(F.Regs[R].IsObject && "register does not hold an object");
    return F.Regs[R].object();
  }

  /// Creates an event task for send/sendAtFront/listener dispatch and
  /// returns its index.
  uint32_t createEventTask(std::string_view Name, QueueId Queue,
                           MethodId Handler, bool HasArg, Value Arg,
                           uint64_t DelayMs, bool AtFront, TaskId Parent,
                           ListenerId FromListener) {
    ProcessId Proc = M.queueDef(Queue).Process;
    return createTask(TaskKind::Event, Name, Proc, Queue, Handler, HasArg,
                      Arg, /*External=*/false, /*IsLooper=*/false, DelayMs,
                      AtFront, Parent, FromListener);
  }
};

Runtime::Impl::StepResult Runtime::Impl::step(uint32_t TaskIdx) {
  RtTask &T = Tasks[TaskIdx];
  assert(!T.Frames.empty() && "stepping a task with no frames");
  Frame &F = T.Frames.back();
  const MethodDef &Def = M.methodDef(F.Method);
  assert(F.Pc < Def.Code.size() && "pc ran past method end");
  const Instr &I = Def.Code[F.Pc];

  if (++Stats.InstructionsExecuted > Opt.MaxInstructions) {
    Failure = Status::error("instruction cap exceeded; runaway scenario?");
    return StepResult::Fatal;
  }
  spinWork(Opt.BaselineWorkUnits);

  uint64_t Now = T.Time;
  // Most instructions complete: advance time up front and pc at the end.
  // Blocking instructions undo this by returning before `++F.Pc`.
  auto complete = [&]() {
    ++F.Pc;
    T.Time = Now + MicrosPerInstr;
  };

  switch (I.Op) {
  case Opcode::Nop:
    complete();
    break;
  case Opcode::ConstNull:
    F.Regs[I.A] = Value::makeNull();
    complete();
    break;
  case Opcode::ConstInt:
    F.Regs[I.A] = Value::makeScalar(I.Imm);
    complete();
    break;
  case Opcode::Move:
    F.Regs[I.A] = F.Regs[I.B];
    complete();
    break;
  case Opcode::NewInstance:
    F.Regs[I.A] = Value::makeObject(Heap.allocate(ClassId(I.Ref)));
    complete();
    break;

  case Opcode::IGetObject: {
    ObjectId Recv = regObject(F, I.B);
    if (!Recv.value()) {
      throwNpe(TaskIdx);
      return StepResult::Yield;
    }
    emit(T, OpKind::Deref, Recv.value(),
         static_cast<uint64_t>(DerefKind::FieldAccess));
    VarId Var = Heap.varFor(Recv, FieldId(I.Ref));
    uint64_t Bits = Heap.getField(Recv, FieldId(I.Ref));
    emit(T, OpKind::PtrRead, Var.value(), Bits);
    F.Regs[I.A] = Value::makeObject(ObjectId(static_cast<uint32_t>(Bits)));
    complete();
    break;
  }
  case Opcode::IPutObject: {
    ObjectId Recv = regObject(F, I.A);
    if (!Recv.value()) {
      throwNpe(TaskIdx);
      return StepResult::Yield;
    }
    emit(T, OpKind::Deref, Recv.value(),
         static_cast<uint64_t>(DerefKind::FieldAccess));
    ObjectId Val = regObject(F, I.B);
    VarId Var = Heap.varFor(Recv, FieldId(I.Ref));
    Heap.setField(Recv, FieldId(I.Ref), Val.value());
    emit(T, OpKind::PtrWrite, Var.value(), Val.value(), Recv.value());
    complete();
    break;
  }
  case Opcode::SGetObject: {
    VarId Var = Heap.varForStatic(FieldId(I.Ref));
    uint64_t Bits = Heap.getStatic(FieldId(I.Ref));
    emit(T, OpKind::PtrRead, Var.value(), Bits);
    F.Regs[I.A] = Value::makeObject(ObjectId(static_cast<uint32_t>(Bits)));
    complete();
    break;
  }
  case Opcode::SPutObject: {
    ObjectId Val = regObject(F, I.A);
    VarId Var = Heap.varForStatic(FieldId(I.Ref));
    Heap.setStatic(FieldId(I.Ref), Val.value());
    emit(T, OpKind::PtrWrite, Var.value(), Val.value(), 0);
    complete();
    break;
  }
  case Opcode::IGet: {
    ObjectId Recv = regObject(F, I.B);
    if (!Recv.value()) {
      throwNpe(TaskIdx);
      return StepResult::Yield;
    }
    emit(T, OpKind::Deref, Recv.value(),
         static_cast<uint64_t>(DerefKind::FieldAccess));
    VarId Var = Heap.varFor(Recv, FieldId(I.Ref));
    uint64_t Bits = Heap.getField(Recv, FieldId(I.Ref));
    emit(T, OpKind::Read, Var.value(), Bits);
    F.Regs[I.A] = Value::makeScalar(static_cast<int64_t>(Bits));
    complete();
    break;
  }
  case Opcode::IPut: {
    ObjectId Recv = regObject(F, I.A);
    if (!Recv.value()) {
      throwNpe(TaskIdx);
      return StepResult::Yield;
    }
    emit(T, OpKind::Deref, Recv.value(),
         static_cast<uint64_t>(DerefKind::FieldAccess));
    VarId Var = Heap.varFor(Recv, FieldId(I.Ref));
    Heap.setField(Recv, FieldId(I.Ref),
                  static_cast<uint64_t>(F.Regs[I.B].scalar()));
    emit(T, OpKind::Write, Var.value(),
         static_cast<uint64_t>(F.Regs[I.B].scalar()));
    complete();
    break;
  }
  case Opcode::SGet: {
    VarId Var = Heap.varForStatic(FieldId(I.Ref));
    uint64_t Bits = Heap.getStatic(FieldId(I.Ref));
    emit(T, OpKind::Read, Var.value(), Bits);
    F.Regs[I.A] = Value::makeScalar(static_cast<int64_t>(Bits));
    complete();
    break;
  }
  case Opcode::SPut: {
    VarId Var = Heap.varForStatic(FieldId(I.Ref));
    Heap.setStatic(FieldId(I.Ref),
                   static_cast<uint64_t>(F.Regs[I.A].scalar()));
    emit(T, OpKind::Write, Var.value(),
         static_cast<uint64_t>(F.Regs[I.A].scalar()));
    complete();
    break;
  }

  case Opcode::InvokeVirtual:
  case Opcode::InvokeStatic: {
    bool Virtual = I.Op == Opcode::InvokeVirtual;
    ObjectId Recv;
    if (Virtual) {
      Recv = regObject(F, I.A);
      if (!Recv.value()) {
        throwNpe(TaskIdx);
        return StepResult::Yield;
      }
      emit(T, OpKind::Deref, Recv.value(),
           static_cast<uint64_t>(DerefKind::Invoke));
    }
    Reg ArgReg = Virtual ? I.B : I.A;
    Value ArgVal;
    bool HasArgVal = ArgReg != NoReg;
    if (HasArgVal)
      ArgVal = F.Regs[ArgReg];
    ++F.Pc; // Caller resumes after the invoke.

    const MethodDef &Callee = M.methodDef(MethodId(I.Ref));
    Frame NewFrame;
    NewFrame.Method = MethodId(I.Ref);
    NewFrame.FrameId = ++FrameIdCounter;
    NewFrame.Regs.assign(Callee.NumRegs, Value());
    if (Virtual) {
      if (Callee.NumRegs > 0)
        NewFrame.Regs[0] = Value::makeObject(Recv);
      if (HasArgVal && Callee.NumRegs > 1)
        NewFrame.Regs[1] = ArgVal;
    } else if (HasArgVal && Callee.NumRegs > 0) {
      NewFrame.Regs[0] = ArgVal;
    }
    T.Frames.push_back(std::move(NewFrame));
    // Stamp the enter record at this instruction's time; advancing the
    // clock first would emit past work other tasks still have pending.
    emit(T, OpKind::MethodEnter, T.Frames.back().FrameId);
    T.Time = Now + MicrosPerInstr;
    break;
  }
  case Opcode::ReturnVoid: {
    emit(T, OpKind::MethodExit, F.FrameId, /*Throw=*/0);
    T.Frames.pop_back();
    if (T.Frames.empty()) {
      // The end record must carry this instruction's timestamp: other
      // tasks may have work pending at Now, and a later stamp here would
      // break the trace's global time order.
      endTask(TaskIdx, Now);
      return StepResult::Yield;
    }
    T.Time = Now + MicrosPerInstr;
    break;
  }

  case Opcode::IfEqz: {
    ObjectId Obj = regObject(F, I.A);
    bool Taken = Obj.value() == 0;
    // Logged only when NOT taken: the fall-through path proves non-null.
    if (!Taken)
      emit(T, OpKind::Branch, static_cast<uint64_t>(BranchKind::IfEqz),
           Obj.value(), F.Pc + I.Imm);
    uint32_t Next = Taken ? F.Pc + I.Imm : F.Pc + 1;
    F.Pc = Next;
    T.Time = Now + MicrosPerInstr;
    break;
  }
  case Opcode::IfNez: {
    ObjectId Obj = regObject(F, I.A);
    bool Taken = Obj.value() != 0;
    // Logged only when taken: the target path proves non-null.
    if (Taken)
      emit(T, OpKind::Branch, static_cast<uint64_t>(BranchKind::IfNez),
           Obj.value(), F.Pc + I.Imm);
    uint32_t Next = Taken ? F.Pc + I.Imm : F.Pc + 1;
    F.Pc = Next;
    T.Time = Now + MicrosPerInstr;
    break;
  }
  case Opcode::IfEq: {
    ObjectId A = regObject(F, I.A);
    ObjectId B = regObject(F, I.B);
    bool Taken = A.value() == B.value();
    // Logged only when taken and the tested pointer is non-null (equality
    // with a live object proves non-null, commonly `ptr == this`).
    if (Taken && A.value() != 0)
      emit(T, OpKind::Branch, static_cast<uint64_t>(BranchKind::IfEq),
           A.value(), F.Pc + I.Imm);
    uint32_t Next = Taken ? F.Pc + I.Imm : F.Pc + 1;
    F.Pc = Next;
    T.Time = Now + MicrosPerInstr;
    break;
  }
  case Opcode::IfIntEqz:
  case Opcode::IfIntNez: {
    bool Zero = F.Regs[I.A].scalar() == 0;
    bool Taken = (I.Op == Opcode::IfIntEqz) ? Zero : !Zero;
    uint32_t Next = Taken ? F.Pc + I.Imm : F.Pc + 1;
    F.Pc = Next;
    T.Time = Now + MicrosPerInstr;
    break;
  }
  case Opcode::Goto:
    F.Pc += I.Imm;
    T.Time = Now + MicrosPerInstr;
    break;
  case Opcode::AddInt:
    F.Regs[I.A] = Value::makeScalar(F.Regs[I.B].scalar() + I.Imm);
    complete();
    break;

  case Opcode::MonitorEnter: {
    LockState &L = Locks[I.Ref];
    if (L.HolderTask >= 0) {
      // Contended: block and retry when released.
      T.State = TaskState::Blocked;
      L.Waiters.push_back(TaskIdx);
      return StepResult::Yield;
    }
    L.HolderTask = TaskIdx;
    T.HeldLocks.push_back(I.Ref);
    emit(T, OpKind::LockAcquire, I.Ref);
    complete();
    break;
  }
  case Opcode::MonitorExit: {
    LockState &L = Locks[I.Ref];
    assert(L.HolderTask == static_cast<int64_t>(TaskIdx) &&
           "monitor-exit by non-holder");
    assert(!T.HeldLocks.empty() && T.HeldLocks.back() == I.Ref &&
           "unbalanced monitor-exit");
    emit(T, OpKind::LockRelease, I.Ref);
    T.HeldLocks.pop_back();
    L.HolderTask = -1;
    complete();
    // Wake lock waiters to retry the acquisition.
    wakeAll(L.Waiters, T.Time);
    break;
  }
  case Opcode::WaitMonitor: {
    MonitorState &Mon = Monitors[I.Ref];
    if (T.Notified || Mon.PendingNotifies > 0) {
      if (T.Notified)
        T.Notified = false;
      else
        --Mon.PendingNotifies;
      emit(T, OpKind::Wait, I.Ref);
      complete();
      break;
    }
    T.State = TaskState::Blocked;
    Mon.Waiters.push_back(TaskIdx);
    return StepResult::Yield;
  }
  case Opcode::NotifyMonitor: {
    MonitorState &Mon = Monitors[I.Ref];
    emit(T, OpKind::Notify, I.Ref);
    complete();
    if (!Mon.Waiters.empty()) {
      uint32_t WaiterIdx = Mon.Waiters.front();
      Mon.Waiters.pop_front();
      Tasks[WaiterIdx].Notified = true;
      wake(WaiterIdx, T.Time);
      // `T` may be a dangling reference if wake() reallocated; it does
      // not (wake never grows Tasks), so continuing is safe.
    } else {
      ++Mon.PendingNotifies;
    }
    break;
  }

  case Opcode::ForkThread: {
    Reg ArgReg = I.B;
    bool HasArgVal = ArgReg != NoReg;
    Value ArgVal = HasArgVal ? F.Regs[ArgReg] : Value();
    std::string Name =
        formatString("thread:%s", M.methodName(MethodId(I.Ref)).c_str());
    uint32_t Child = createTask(
        TaskKind::Thread, Name, T.Process, QueueId::invalid(),
        MethodId(I.Ref), HasArgVal, ArgVal, /*External=*/false,
        /*IsLooper=*/false, 0, false, T.Id, ListenerId::invalid());
    // Task creation may reallocate Tasks; re-fetch this task and frame.
    RtTask &T2 = Tasks[TaskIdx];
    Frame &F2 = T2.Frames.back();
    F2.Regs[I.A] = Value::makeScalar(Child);
    emit(T2, OpKind::Fork, Child);
    ++F2.Pc;
    T2.Time = Now + MicrosPerInstr;
    Tasks[Child].Time = T2.Time + ForkStartMicros;
    push(Tasks[Child].Time, ItemKind::StartThread, Child);
    break;
  }
  case Opcode::JoinThread: {
    int64_t Child = F.Regs[I.A].scalar();
    assert(Child >= 0 && Child < static_cast<int64_t>(Tasks.size()) &&
           "join of an invalid thread handle");
    RtTask &Target = Tasks[static_cast<uint32_t>(Child)];
    assert(Target.Kind == TaskKind::Thread && "join target is not a thread");
    if (Target.State != TaskState::Done) {
      T.State = TaskState::Blocked;
      Target.Joiners.push_back(TaskIdx);
      return StepResult::Yield;
    }
    emit(T, OpKind::Join, Target.Id.value());
    complete();
    break;
  }

  case Opcode::SendEvent:
  case Opcode::SendEventAtFront:
  case Opcode::SendEventAtTime: {
    bool AtFront = I.Op == Opcode::SendEventAtFront;
    uint64_t DelayMs = AtFront ? 0 : static_cast<uint64_t>(I.Imm);
    if (I.Op == Opcode::SendEventAtTime) {
      // sendMessageAtTime: convert the absolute constraint into the
      // equivalent delay at send time (an elapsed target is immediate).
      uint64_t AtMicros = static_cast<uint64_t>(I.Imm) * 1000;
      uint64_t SendTime = Now + MicrosPerInstr;
      DelayMs = AtMicros > SendTime ? (AtMicros - SendTime) / 1000 : 0;
    }
    Reg ArgReg = I.A;
    bool HasArgVal = ArgReg != NoReg;
    Value ArgVal = HasArgVal ? F.Regs[ArgReg] : Value();
    uint32_t EventIdx = createEventTask(
        M.methodName(MethodId(I.Ref)), QueueId(I.Aux), MethodId(I.Ref),
        HasArgVal, ArgVal, DelayMs, AtFront, T.Id, ListenerId::invalid());
    RtTask &T2 = Tasks[TaskIdx];
    Frame &F2 = T2.Frames.back();
    emit(T2, AtFront ? OpKind::SendAtFront : OpKind::Send, EventIdx,
         DelayMs, I.Aux);
    ++F2.Pc;
    T2.Time = Now + MicrosPerInstr;
    enqueueEvent(I.Aux, EventIdx, T2.Time + DelayMs * 1000, AtFront,
                 T2.Time);
    break;
  }

  case Opcode::RegisterListener: {
    ListenerRegistration &Reg_ = Listeners[I.Ref];
    Reg_.Registered = true;
    Reg_.Handler = MethodId(I.Aux);
    Reg_.HasArg = I.A != NoReg;
    if (Reg_.HasArg)
      Reg_.Arg = F.Regs[I.A];
    if (M.listenerDef(ListenerId(I.Ref)).Instrumented)
      emit(T, OpKind::RegisterListener, I.Ref);
    complete();
    break;
  }
  case Opcode::TriggerListener: {
    const ListenerRegistration Reg_ = Listeners[I.Ref];
    if (!Reg_.Registered) {
      complete();
      break;
    }
    QueueId Queue = M.listenerDef(ListenerId(I.Ref)).DeliveryQueue;
    uint32_t EventIdx = createEventTask(
        M.methodName(Reg_.Handler), Queue, Reg_.Handler, Reg_.HasArg,
        Reg_.Arg, 0, false, T.Id, ListenerId(I.Ref));
    RtTask &T2 = Tasks[TaskIdx];
    Frame &F2 = T2.Frames.back();
    // The framework posts a message for the callback, so a send is traced
    // even when the listener itself lives in an uninstrumented package.
    emit(T2, OpKind::Send, EventIdx, 0, Queue.value());
    ++F2.Pc;
    T2.Time = Now + MicrosPerInstr;
    enqueueEvent(Queue.value(), EventIdx, T2.Time, false, T2.Time);
    break;
  }

  case Opcode::BinderCall: {
    uint32_t Txn = ++TxnCounter;
    emit(T, OpKind::IpcSend, Txn);
    Reg ArgReg = I.A;
    bool HasArgVal = ArgReg != NoReg;
    Value ArgVal = HasArgVal ? F.Regs[ArgReg] : Value();
    std::string Name =
        formatString("rpc:%s", M.methodName(MethodId(I.Ref)).c_str());
    uint32_t Child = createTask(
        TaskKind::Thread, Name, ProcessId(I.Aux), QueueId::invalid(),
        MethodId(I.Ref), HasArgVal, ArgVal, /*External=*/false,
        /*IsLooper=*/false, 0, false, T.Id, ListenerId::invalid());
    Tasks[Child].PendingIpcRecv = TransactionId(Txn);
    RtTask &T2 = Tasks[TaskIdx];
    Frame &F2 = T2.Frames.back();
    ++F2.Pc;
    T2.Time = Now + MicrosPerInstr;
    Tasks[Child].Time = T2.Time + BinderDispatchMicros;
    push(Tasks[Child].Time, ItemKind::StartThread, Child);
    break;
  }

  case Opcode::PipeWrite: {
    uint32_t Txn = ++TxnCounter;
    emit(T, OpKind::IpcSend, Txn);
    Value Msg = I.A != NoReg ? F.Regs[I.A] : Value();
    PipeState &P = Pipes[I.Ref];
    P.Messages.emplace_back(Txn, Msg);
    complete();
    // Wake blocked readers to retry their read.
    wakeAll(P.Readers, T.Time);
    break;
  }
  case Opcode::PipeRead: {
    PipeState &P = Pipes[I.Ref];
    if (P.Messages.empty()) {
      T.State = TaskState::Blocked;
      P.Readers.push_back(TaskIdx);
      return StepResult::Yield;
    }
    auto [Txn, Msg] = P.Messages.front();
    P.Messages.pop_front();
    emit(T, OpKind::IpcRecv, Txn);
    if (I.A != NoReg)
      F.Regs[I.A] = Msg;
    complete();
    break;
  }
  case Opcode::Work: {
    spinWork(static_cast<uint32_t>(I.Imm) * Opt.BaselineWorkUnits);
    ++F.Pc;
    T.Time = Now + static_cast<uint64_t>(I.Imm) * MicrosPerInstr;
    break;
  }
  case Opcode::Sleep: {
    // A blocking sleep: simulated time passes, host time does not.
    ++F.Pc;
    T.Time = Now + static_cast<uint64_t>(I.Imm);
    break;
  }
  }
  return Tasks[TaskIdx].State == TaskState::Runnable ? StepResult::Continue
                                                     : StepResult::Yield;
}

Status Runtime::Impl::runAll() {
  if (Status S = verifyModule(M); !S.ok())
    return S;

  // Mirror the module's static tables into the trace so method/queue/
  // listener ids coincide between IR and trace.
  if (Opt.Tracing) {
    Trace &Tr = Logger.trace();
    for (uint32_t I = 0, E = static_cast<uint32_t>(M.numMethods()); I != E;
         ++I) {
      const MethodDef &Def = M.methodDef(MethodId(I));
      MethodInfo Info;
      Info.Name = Tr.names().intern(M.names().str(Def.Name));
      Info.CodeSize = static_cast<uint32_t>(Def.Code.size());
      Tr.addMethod(Info);
    }
    for (uint32_t I = 0, E = static_cast<uint32_t>(M.numListeners()); I != E;
         ++I) {
      const ListenerDef &Def = M.listenerDef(ListenerId(I));
      ListenerInfo Info;
      Info.Name = Tr.names().intern(M.names().str(Def.Name));
      Info.Instrumented = Def.Instrumented;
      Tr.addListener(Info);
    }
  }

  Monitors.assign(M.numMonitors(), MonitorState());
  Locks.assign(M.numLocks(), LockState());
  Pipes.assign(M.numPipes(), PipeState());
  Listeners.assign(M.numListeners(), ListenerRegistration());

  // One looper thread per queue.
  Queues.assign(M.numQueues(), RtQueue());
  for (uint32_t Q = 0, E = static_cast<uint32_t>(M.numQueues()); Q != E;
       ++Q) {
    const QueueDef &Def = M.queueDef(QueueId(Q));
    std::string Name =
        formatString("looper:%s", M.names().str(Def.Name).c_str());
    uint32_t LooperIdx = createTask(
        TaskKind::Thread, Name, Def.Process, QueueId(Q),
        MethodId::invalid(), false, Value(), /*External=*/false,
        /*IsLooper=*/true, 0, false, TaskId::invalid(),
        ListenerId::invalid());
    Queues[Q].LooperTaskIndex = LooperIdx;
    RtTask &Looper = Tasks[LooperIdx];
    Looper.Started = true;
    Looper.State = TaskState::Runnable; // hosts events; runs no code
    emit(Looper, OpKind::TaskBegin);
    if (Opt.Tracing)
      Logger.trace().queueInfoMutable(QueueId(Q)).Looper = Looper.Id;
  }

  // Boot threads.
  for (const BootThreadSpec &Spec : S.BootThreads) {
    uint32_t Idx = createTask(
        TaskKind::Thread,
        Spec.Name.empty() ? M.methodName(Spec.Body) : Spec.Name,
        Spec.Process, QueueId::invalid(), Spec.Body, false, Value(),
        /*External=*/false, /*IsLooper=*/false, 0, false,
        TaskId::invalid(), ListenerId::invalid());
    Tasks[Idx].Time = Spec.StartMicros;
    push(Spec.StartMicros, ItemKind::StartThread, Idx);
  }

  // External event injections.
  for (uint32_t I = 0, E = static_cast<uint32_t>(S.ExternalEvents.size());
       I != E; ++I)
    push(S.ExternalEvents[I].AtMicros, ItemKind::Inject, I);

  Timer CpuTimer;
  uint64_t LastTime = 0;

  // The drain loop runs to quiescence; if schedule-override holds are
  // still pending then (their after-task never completed), they expire
  // and the revived work drains under the default order -- an override
  // can reorder a run but never wedge it.
  do {
  while (!Heap_.empty()) {
    SchedItem Item = Heap_.top();
    Heap_.pop();
    LastTime = std::max(LastTime, Item.Time);

    switch (Item.Kind) {
    case ItemKind::Inject: {
      const ExternalEventSpec &Spec = S.ExternalEvents[Item.Index];
      std::string Name =
          Spec.Name.empty() ? M.methodName(Spec.Handler) : Spec.Name;
      uint32_t EventIdx = createTask(
          TaskKind::Event, Name, M.queueDef(Spec.Queue).Process,
          Spec.Queue, Spec.Handler, false, Value(), /*External=*/true,
          /*IsLooper=*/false, 0, false, TaskId::invalid(),
          ListenerId::invalid());
      Tasks[EventIdx].Time = Item.Time;
      enqueueEvent(Spec.Queue.value(), EventIdx, Item.Time, false,
                   Item.Time);
      break;
    }
    case ItemKind::Poll:
      poll(Item.Index, Item.Time);
      break;
    case ItemKind::StartThread:
      if (isHeld(Item.Index)) {
        // Parked until the constraint's after-task completes (or the
        // hold expires at quiescence).
        ParkedThreads.push_back(Item.Index);
        break;
      }
      startThread(Item.Index, Item.Time);
      break;
    case ItemKind::Step: {
      RtTask &T = Tasks[Item.Index];
      T.StepQueued = false;
      if (T.State != TaskState::Runnable)
        break;
      // Burst: keep stepping while this task remains the earliest work.
      // At least one instruction executes per dispatch (otherwise two
      // tasks parked at the same timestamp would yield to each other
      // forever); afterwards we stop as soon as any other work is due at
      // or before this task's clock, because running past it could emit
      // records out of global time order.
      for (unsigned Burst = 0; Burst != 256; ++Burst) {
        StepResult R = step(Item.Index);
        if (R == StepResult::Fatal)
          return Failure;
        if (R == StepResult::Yield)
          break;
        if (Tasks[Item.Index].State != TaskState::Runnable)
          break;
        if (!Heap_.empty() && Tasks[Item.Index].Time >= Heap_.top().Time)
          break;
      }
      if (Tasks[Item.Index].State == TaskState::Runnable)
        pushStep(Item.Index);
      // Bursts advance the task clock (and record times) past the popped
      // item's time; the end-of-run timestamp must cover them.
      LastTime = std::max(LastTime, Tasks[Item.Index].Time);
      break;
    }
    }
  }
  } while (expireHolds(LastTime));

  // Quiescence: close looper tasks and count stragglers.
  Stats.SimEndMicros = LastTime;
  for (RtQueue &Q : Queues) {
    RtTask &Looper = Tasks[Q.LooperTaskIndex];
    Looper.Time = std::max(Looper.Time, LastTime);
    emit(Looper, OpKind::TaskEnd);
    Looper.State = TaskState::Done;
  }
  for (const RtTask &T : Tasks)
    if (T.State == TaskState::Blocked)
      ++Stats.BlockedAtQuiescence;

  Stats.HostCpuNanos = CpuTimer.elapsedCpuNanos();
  return Status::success();
}

Runtime::Runtime(const Scenario &S, const RuntimeOptions &Options)
    : I(std::make_unique<Impl>(S, Options)) {
  // Queue side-table registration needs names before run(); do it here so
  // trace queue ids equal module queue ids.
  if (Options.Tracing) {
    Trace &Tr = I->Logger.trace();
    const Module &M = S.module();
    for (uint32_t Q = 0, E = static_cast<uint32_t>(M.numQueues()); Q != E;
         ++Q) {
      QueueInfo Info;
      Info.Name = Tr.names().intern(M.names().str(M.queueDef(QueueId(Q))
                                                      .Name));
      Info.Looper = TaskId::invalid(); // patched in runAll()
      Tr.addQueue(Info);
    }
  }
}

Runtime::~Runtime() = default;

Status Runtime::run() { return I->runAll(); }

const RuntimeStats &Runtime::stats() const { return I->Stats; }

Trace Runtime::takeTrace() {
  assert(I->Opt.Tracing && "takeTrace on an untraced run");
  assert(!I->TraceTaken && "trace taken twice");
  I->TraceTaken = true;
  return I->Logger.take();
}

Trace cafa::runScenario(const Scenario &S, const RuntimeOptions &Options,
                        RuntimeStats *StatsOut) {
  Runtime Rt(S, Options);
  Status St = Rt.run();
  if (!St.ok())
    reportFatalError(St.message().c_str());
  if (StatsOut)
    *StatsOut = Rt.stats();
  return Rt.takeTrace();
}
