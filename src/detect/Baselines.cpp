//===- detect/Baselines.cpp - Low-level race detector baseline ---------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/Baselines.h"

#include "detect/DetectShared.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

using namespace cafa;

namespace {

/// One memory access in the low-level scan.
struct MemAccess {
  uint32_t Record;
  TaskId Task;
  MethodId Method;
  uint32_t Pc;
  bool IsWrite;
  /// Index into a shared lockset pool (locksets repeat heavily).
  uint32_t LocksetIdx;
};

/// Static identity of a race: the unordered pair of code locations plus
/// the field (so the same code racing on two fields counts twice, as a
/// data-race report would list them).
struct StaticPairKey {
  uint32_t MethodA, PcA, MethodB, PcB, Var;
  bool operator<(const StaticPairKey &O) const {
    return std::tie(MethodA, PcA, MethodB, PcB, Var) <
           std::tie(O.MethodA, O.PcA, O.MethodB, O.PcB, O.Var);
  }
};

} // namespace

NaiveRaceResult cafa::detectLowLevelRaces(const Trace &T,
                                          const HbIndex &Hb,
                                          const NaiveDetectorOptions &Opt) {
  NaiveRaceResult Result;

  // Collect accesses per cell, tracking held locks per task as we go.
  std::unordered_map<uint32_t, std::vector<MemAccess>> ByVar;
  std::vector<std::vector<uint32_t>> LockStacks(T.numTasks());
  std::vector<std::vector<uint32_t>> LocksetPool;
  std::unordered_map<std::string, uint32_t> LocksetIndex;

  auto internLockset = [&](const std::vector<uint32_t> &Stack) -> uint32_t {
    std::vector<uint32_t> Sorted = Stack;
    std::sort(Sorted.begin(), Sorted.end());
    std::string Key(reinterpret_cast<const char *>(Sorted.data()),
                    Sorted.size() * sizeof(uint32_t));
    auto [It, Inserted] = LocksetIndex.emplace(
        Key, static_cast<uint32_t>(LocksetPool.size()));
    if (Inserted)
      LocksetPool.push_back(std::move(Sorted));
    return It->second;
  };

  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
       ++I) {
    const TraceRecord &Rec = T.record(I);
    switch (Rec.Kind) {
    case OpKind::LockAcquire:
      LockStacks[Rec.Task.index()].push_back(
          static_cast<uint32_t>(Rec.Arg0));
      break;
    case OpKind::LockRelease:
      if (!LockStacks[Rec.Task.index()].empty())
        LockStacks[Rec.Task.index()].pop_back();
      break;
    case OpKind::Read:
    case OpKind::Write:
    case OpKind::PtrRead:
    case OpKind::PtrWrite: {
      MemAccess Acc;
      Acc.Record = I;
      Acc.Task = Rec.Task;
      Acc.Method = Rec.Method;
      Acc.Pc = Rec.Pc;
      Acc.IsWrite =
          Rec.Kind == OpKind::Write || Rec.Kind == OpKind::PtrWrite;
      Acc.LocksetIdx = internLockset(LockStacks[Rec.Task.index()]);
      ByVar[static_cast<uint32_t>(Rec.Arg0)].push_back(Acc);
      break;
    }
    default:
      break;
    }
  }

  // Deterministic cell order.
  std::vector<uint32_t> Vars;
  Vars.reserve(ByVar.size());
  for (const auto &[Var, Accs] : ByVar)
    Vars.push_back(Var);
  std::sort(Vars.begin(), Vars.end());

  std::set<StaticPairKey> Seen;
  for (uint32_t Var : Vars) {
    const std::vector<MemAccess> &Accs = ByVar[Var];
    uint64_t Pairs = 0;
    bool Capped = false;
    for (size_t A = 0; A < Accs.size() && !Capped; ++A) {
      for (size_t B = A + 1; B < Accs.size(); ++B) {
        if (++Pairs > Opt.MaxPairsPerCell) {
          // Count the capped cell once; the scan of this cell stops.
          ++Result.CappedPairs;
          Capped = true;
          break;
        }
        const MemAccess &X = Accs[A];
        const MemAccess &Y = Accs[B];
        if (!X.IsWrite && !Y.IsWrite)
          continue;
        if (X.Task == Y.Task)
          continue;
        // Static dedup first: the happens-before query is the expensive
        // part and repeated static pairs dominate.
        StaticPairKey Key = X.Pc <= Y.Pc
                                ? StaticPairKey{X.Method.value(), X.Pc,
                                                Y.Method.value(), Y.Pc, Var}
                                : StaticPairKey{Y.Method.value(), Y.Pc,
                                                X.Method.value(), X.Pc, Var};
        bool AlreadyStatic = Seen.count(Key) != 0;
        if (AlreadyStatic)
          continue;
        if (Opt.LocksetFilter &&
            detail::locksetsIntersect(LocksetPool[X.LocksetIdx],
                                      LocksetPool[Y.LocksetIdx]))
          continue;
        if (Hb.ordered(X.Record, Y.Record))
          continue;
        ++Result.DynamicRaces;
        Seen.insert(Key);
        ++Result.StaticRaces;
      }
    }
  }
  return Result;
}
