//===- detect/Accesses.cpp - Use/free/alloc extraction ----------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/Accesses.h"

#include "detect/DerefDataflow.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

using namespace cafa;

namespace {

/// Information about a pointer read awaiting a matching dereference.
struct LastRead {
  uint32_t Record = 0;
  VarId Var;
  MethodId Method;
  uint32_t Pc = 0;
  uint64_t Frame = 0;
  std::vector<uint32_t> Lockset;
};

/// Per-task scan state, for the tasks whose records read or write it
/// (see usesScanState).
struct TaskScan {
  std::vector<uint64_t> FrameStack;
  std::vector<uint32_t> LockStack;
  /// object id -> most recent pointer read producing it (heuristic
  /// matching; Section 5.3).
  std::unordered_map<uint64_t, LastRead> ReadsByObject;
  /// Per open frame: load pc -> most recent read at that pc (precise
  /// matching via the static resolver).
  std::vector<std::unordered_map<uint32_t, LastRead>> FrameReadsByPc;
};

/// True for the records that read or write their task's TaskScan.
bool usesScanState(OpKind K) {
  return K == OpKind::MethodEnter || K == OpKind::MethodExit ||
         K == OpKind::LockAcquire || K == OpKind::LockRelease ||
         K == OpKind::PtrRead || K == OpKind::PtrWrite ||
         K == OpKind::Deref || K == OpKind::Branch;
}

/// Accumulates the streamed items into an AccessDb (extractAccesses).
class DbSink final : public AccessSink {
public:
  explicit DbSink(AccessDb &Db) : Db(Db) {}
  void onUse(PtrAccess Use, size_t) override {
    Db.Uses.push_back(std::move(Use));
  }
  void onFree(PtrAccess Free) override {
    Db.Frees.push_back(std::move(Free));
  }
  void onAlloc(PtrAccess Alloc) override {
    Db.Allocs.push_back(std::move(Alloc));
  }
  void onBranch(GuardBranch Br) override {
    Db.Branches.push_back(std::move(Br));
  }

private:
  AccessDb &Db;
};

} // namespace

AccessSink::~AccessSink() = default;

StreamExtractCounts cafa::streamAccesses(const Trace &T,
                                         const DerefResolver *Resolver,
                                         AccessSink &Sink) {
  // A task's scan state is made on its first record that uses it: most
  // tasks of a large trace (a begin, a send, an end) never need one.
  // ScanOf maps a task to its slot in Scans, whose elements never move.
  constexpr uint32_t NoScan = 0xFFFFFFFFu;
  std::vector<uint32_t> ScanOf(T.numTasks(), NoScan);
  std::deque<TaskScan> Scans;
  auto scanFor = [&](TaskId Task) -> TaskScan & {
    uint32_t &Slot = ScanOf[Task.index()];
    if (Slot == NoScan) {
      Slot = static_cast<uint32_t>(Scans.size());
      Scans.emplace_back();
    }
    return Scans[Slot];
  };

  // Read record indices already promoted (first dereference wins).
  std::unordered_map<uint32_t, size_t> UseByReadRecord;
  uint64_t TotalReads = 0;

  // Promotes \p LR to a use (first dereference wins).
  auto promoteUse = [&](const LastRead &LR, TaskId Task,
                        uint32_t DerefRecord) {
    if (UseByReadRecord.count(LR.Record))
      return;
    PtrAccess Use;
    Use.Record = LR.Record;
    Use.Task = Task;
    Use.Var = LR.Var;
    Use.Method = LR.Method;
    Use.Pc = LR.Pc;
    Use.Frame = LR.Frame;
    Use.DerefRecord = DerefRecord;
    Use.Lockset = LR.Lockset;
    size_t Ordinal = UseByReadRecord.size();
    UseByReadRecord.emplace(LR.Record, Ordinal);
    Sink.onUse(std::move(Use), Ordinal);
  };

  // Looks up the read matched by a querying site, preferring the static
  // resolution when available.  Returns nullptr when nothing matches.
  auto matchSite = [&](TaskScan &Scan, const TraceRecord &Rec,
                       uint64_t Object) -> const LastRead * {
    if (Resolver && Rec.Method.isValid() && !Scan.FrameReadsByPc.empty()) {
      int64_t LoadPc = Resolver->loadFor(Rec.Method, Rec.Pc);
      if (LoadPc != DerefResolver::Unresolved) {
        auto &FrameMap = Scan.FrameReadsByPc.back();
        auto It = FrameMap.find(static_cast<uint32_t>(LoadPc));
        if (It != FrameMap.end())
          return &It->second;
        // Statically resolved but dynamically absent (should not happen
        // for well-formed traces); fall through to the heuristic.
      }
    }
    auto It = Scan.ReadsByObject.find(Object);
    return It == Scan.ReadsByObject.end() ? nullptr : &It->second;
  };

  StreamExtractCounts Counts;
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
       ++I) {
    const TraceRecord &Rec = T.record(I);
    if (usesScanState(Rec.Kind)) {
      TaskScan &Scan = scanFor(Rec.Task);
      switch (Rec.Kind) {
      case OpKind::MethodEnter:
        Scan.FrameStack.push_back(Rec.frameId());
        Scan.FrameReadsByPc.emplace_back();
        break;
      case OpKind::MethodExit:
        if (!Scan.FrameStack.empty()) {
          Scan.FrameStack.pop_back();
          Scan.FrameReadsByPc.pop_back();
        }
        break;
      case OpKind::LockAcquire:
        Scan.LockStack.push_back(static_cast<uint32_t>(Rec.Arg0));
        break;
      case OpKind::LockRelease:
        if (!Scan.LockStack.empty())
          Scan.LockStack.pop_back();
        break;

      case OpKind::PtrRead: {
        uint64_t Obj = Rec.Arg1;
        if (Obj == 0)
          break; // a null read can never be dereferenced safely; skip
        ++TotalReads;
        LastRead LR;
        LR.Record = I;
        LR.Var = Rec.var();
        LR.Method = Rec.Method;
        LR.Pc = Rec.Pc;
        LR.Frame = Scan.FrameStack.empty() ? 0 : Scan.FrameStack.back();
        LR.Lockset = Scan.LockStack;
        std::sort(LR.Lockset.begin(), LR.Lockset.end());
        Sink.onPtrRead(I, Rec.Task, LR.Var, LR.Method, LR.Pc, LR.Frame,
                       LR.Lockset);
        if (!Scan.FrameReadsByPc.empty())
          Scan.FrameReadsByPc.back()[Rec.Pc] = LR;
        Scan.ReadsByObject[Obj] = std::move(LR);
        break;
      }

      case OpKind::PtrWrite: {
        PtrAccess Acc;
        Acc.Record = I;
        Acc.Task = Rec.Task;
        Acc.Var = Rec.var();
        Acc.Method = Rec.Method;
        Acc.Pc = Rec.Pc;
        Acc.Frame = Scan.FrameStack.empty() ? 0 : Scan.FrameStack.back();
        Acc.Lockset = Scan.LockStack;
        std::sort(Acc.Lockset.begin(), Acc.Lockset.end());
        if (Rec.isFree())
          Sink.onFree(std::move(Acc));
        else
          Sink.onAlloc(std::move(Acc));
        break;
      }

      case OpKind::Deref: {
        const LastRead *LR = matchSite(Scan, Rec, Rec.Arg0);
        if (!LR) {
          ++Counts.UnmatchedDerefs;
          break;
        }
        promoteUse(*LR, Rec.Task, I);
        break;
      }

      case OpKind::Branch: {
        GuardBranch Br;
        Br.Record = I;
        Br.Task = Rec.Task;
        Br.Kind = Rec.branchKind();
        Br.Method = Rec.Method;
        Br.Pc = Rec.Pc;
        Br.TargetPc = Rec.branchTargetPc();
        Br.Frame = Scan.FrameStack.empty() ? 0 : Scan.FrameStack.back();
        if (const LastRead *LR = matchSite(Scan, Rec, Rec.Arg1))
          Br.Var = LR->Var;
        Sink.onBranch(std::move(Br));
        break;
      }

      default:
        break;
      }
    }
    if (!Sink.onRecordDone(I))
      break;
  }

  Counts.UnmatchedReads = TotalReads - UseByReadRecord.size();
  return Counts;
}

AccessDb cafa::extractAccesses(const Trace &T, const TaskIndex &Index,
                               const DerefResolver *Resolver) {
  AccessDb Db;
  DbSink Sink(Db);
  StreamExtractCounts Counts = streamAccesses(T, Resolver, Sink);
  Db.UnmatchedReads = Counts.UnmatchedReads;
  Db.UnmatchedDerefs = Counts.UnmatchedDerefs;
  return Db;
}
