//===- cafa/Checkpoint.cpp - Crash-safe analysis checkpoints -----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cafa/Checkpoint.h"

#include "support/Snapshot.h"

using namespace cafa;

namespace {

/// File identity.  Bump the version on any payload layout change; old
/// snapshots are then rejected and the run restarts cleanly -- wrong
/// answers from silently mis-decoded state are the one unacceptable
/// failure mode.
constexpr char SnapshotMagic[9] = "CAFACKPT";
constexpr uint32_t SnapshotVersion = 7; // v7: edges only, no oracle state

/// Caps on length-prefixed counts, so a corrupt count that slipped past
/// the checksum cannot drive a multi-gigabyte allocation.  Generous:
/// real traces stay orders of magnitude below these.
constexpr uint64_t MaxEdges = uint64_t(1) << 32;
constexpr uint64_t MaxRaces = uint64_t(1) << 24;
constexpr uint64_t MaxSurvivors = uint64_t(1) << 28;
constexpr uint32_t MaxRules = 16;

void putStats(SnapshotWriter &W, const HbRuleStats &S) {
  W.u64(S.ProgramOrderEdges);
  W.u64(S.ForkJoinEdges);
  W.u64(S.NotifyWaitEdges);
  W.u64(S.ListenerEdges);
  W.u64(S.SendEdges);
  W.u64(S.ExternalChainEdges);
  W.u64(S.IpcEdges);
  W.u64(S.AtomicityEdges);
  W.u64(S.QueueRule1Edges);
  W.u64(S.QueueRule2Edges);
  W.u64(S.QueueRule3Edges);
  W.u64(S.QueueRule4Edges);
  W.u64(S.ConventionalOrderEdges);
  W.u32(S.FixpointRounds);
}

bool getStats(SnapshotReader &R, HbRuleStats &S) {
  return R.u64(S.ProgramOrderEdges) && R.u64(S.ForkJoinEdges) &&
         R.u64(S.NotifyWaitEdges) && R.u64(S.ListenerEdges) &&
         R.u64(S.SendEdges) && R.u64(S.ExternalChainEdges) &&
         R.u64(S.IpcEdges) && R.u64(S.AtomicityEdges) &&
         R.u64(S.QueueRule1Edges) && R.u64(S.QueueRule2Edges) &&
         R.u64(S.QueueRule3Edges) && R.u64(S.QueueRule4Edges) &&
         R.u64(S.ConventionalOrderEdges) && R.u32(S.FixpointRounds);
}

void putHbFrontier(SnapshotWriter &W, const HbFrontier &F) {
  W.u8(F.Saturated ? 1 : 0);
  putStats(W, F.Stats);
  W.u64(F.DerivedEdges.size());
  for (const HbEdge &E : F.DerivedEdges) {
    W.u32(E.From.value());
    W.u32(E.To.value());
  }
  W.u32(static_cast<uint32_t>(F.UnsaturatedRules.size()));
  for (const std::string &Rule : F.UnsaturatedRules)
    W.str(Rule);
}

bool getHbFrontier(SnapshotReader &R, HbFrontier &F) {
  uint8_t Saturated;
  if (!R.u8(Saturated) || Saturated > 1 || !getStats(R, F.Stats))
    return false;
  F.Saturated = Saturated != 0;
  uint64_t N;
  if (!R.u64(N) || N > MaxEdges)
    return false;
  F.DerivedEdges.resize(N);
  for (HbEdge &E : F.DerivedEdges) {
    uint32_t From, To;
    if (!R.u32(From) || !R.u32(To))
      return false;
    E.From = NodeId(From);
    E.To = NodeId(To);
  }
  uint32_t NumRules;
  if (!R.u32(NumRules) || NumRules > MaxRules)
    return false;
  F.UnsaturatedRules.resize(NumRules);
  for (std::string &Rule : F.UnsaturatedRules)
    if (!R.str(Rule, 64))
      return false;
  return true;
}

void putDetectFrontier(SnapshotWriter &W, const DetectFrontier &F) {
  W.u32(F.UseIdx);
  W.u32(F.FreePos);
  W.u8(F.FiltersShed ? 1 : 0);
  W.u64(F.Filters.OrderedByHb);
  W.u64(F.Filters.SameTask);
  W.u64(F.Filters.LocksetProtected);
  W.u64(F.Filters.IfGuardFiltered);
  W.u64(F.Filters.IntraEventAlloc);
  W.u64(F.Filters.CandidatePairs);
  W.u64(F.Races.size());
  for (const DetectFrontier::RaceEntry &E : F.Races) {
    W.u32(E.UseRecord);
    W.u32(E.FreeRecord);
    W.u8(E.Category);
    W.u32(E.DynamicCount);
  }
}

void putWindowedDetectFrontier(SnapshotWriter &W,
                               const WindowedDetectFrontier &F) {
  W.u32(F.CursorRecord);
  W.u64(F.PairsDoneAtCursor);
  W.u8(F.FiltersShed ? 1 : 0);
  W.u64(F.Filters.OrderedByHb);
  W.u64(F.Filters.SameTask);
  W.u64(F.Filters.LocksetProtected);
  W.u64(F.Filters.IfGuardFiltered);
  W.u64(F.Filters.IntraEventAlloc);
  W.u64(F.Filters.CandidatePairs);
  W.u64(F.Survivors.size());
  for (const WindowedDetectFrontier::SurvivorEntry &S : F.Survivors) {
    W.u32(S.UseOrd);
    W.u32(S.FreeOrd);
    W.u32(S.UseRecord);
    W.u32(S.FreeRecord);
    W.u32(S.UseMethod);
    W.u32(S.UsePc);
    W.u32(S.FreeMethod);
    W.u32(S.FreePc);
    W.u8(S.SameLooper);
  }
}

bool getWindowedDetectFrontier(SnapshotReader &R,
                               WindowedDetectFrontier &F) {
  uint8_t Shed;
  if (!R.u32(F.CursorRecord) || !R.u64(F.PairsDoneAtCursor) ||
      !R.u8(Shed) || Shed > 1)
    return false;
  F.FiltersShed = Shed != 0;
  if (!R.u64(F.Filters.OrderedByHb) || !R.u64(F.Filters.SameTask) ||
      !R.u64(F.Filters.LocksetProtected) ||
      !R.u64(F.Filters.IfGuardFiltered) ||
      !R.u64(F.Filters.IntraEventAlloc) ||
      !R.u64(F.Filters.CandidatePairs))
    return false;
  uint64_t N;
  if (!R.u64(N) || N > MaxSurvivors)
    return false;
  F.Survivors.resize(N);
  for (WindowedDetectFrontier::SurvivorEntry &S : F.Survivors)
    if (!R.u32(S.UseOrd) || !R.u32(S.FreeOrd) || !R.u32(S.UseRecord) ||
        !R.u32(S.FreeRecord) || !R.u32(S.UseMethod) || !R.u32(S.UsePc) ||
        !R.u32(S.FreeMethod) || !R.u32(S.FreePc) || !R.u8(S.SameLooper) ||
        S.SameLooper > 1)
      return false;
  return true;
}

bool getDetectFrontier(SnapshotReader &R, DetectFrontier &F) {
  uint8_t Shed;
  if (!R.u32(F.UseIdx) || !R.u32(F.FreePos) || !R.u8(Shed) || Shed > 1)
    return false;
  F.FiltersShed = Shed != 0;
  if (!R.u64(F.Filters.OrderedByHb) || !R.u64(F.Filters.SameTask) ||
      !R.u64(F.Filters.LocksetProtected) ||
      !R.u64(F.Filters.IfGuardFiltered) ||
      !R.u64(F.Filters.IntraEventAlloc) ||
      !R.u64(F.Filters.CandidatePairs))
    return false;
  uint64_t N;
  if (!R.u64(N) || N > MaxRaces)
    return false;
  F.Races.resize(N);
  for (DetectFrontier::RaceEntry &E : F.Races)
    if (!R.u32(E.UseRecord) || !R.u32(E.FreeRecord) || !R.u8(E.Category) ||
        !R.u32(E.DynamicCount))
      return false;
  return true;
}

} // namespace

uint64_t cafa::traceFingerprint(const Trace &T) {
  uint64_t H = fnv1a64("trace", 5);
  H = fnv1a64Mix(H, T.numRecords());
  H = fnv1a64Mix(H, T.numTasks());
  H = fnv1a64Mix(H, T.numQueues());
  H = fnv1a64Mix(H, T.numMethods());
  H = fnv1a64Mix(H, T.numListeners());
  for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
       ++I) {
    const TraceRecord &Rec = T.record(I);
    H = fnv1a64Mix(H, Rec.Task.value());
    H = fnv1a64Mix(H, static_cast<uint64_t>(Rec.Kind));
    H = fnv1a64Mix(H, Rec.Method.value());
    H = fnv1a64Mix(H, Rec.Pc);
    H = fnv1a64Mix(H, Rec.Arg0);
    H = fnv1a64Mix(H, Rec.Arg1);
    H = fnv1a64Mix(H, Rec.Arg2);
    H = fnv1a64Mix(H, Rec.Time);
  }
  return H;
}

uint64_t cafa::detectorOptionsDigest(const DetectorOptions &Options,
                                     bool HasResolver) {
  uint64_t H = fnv1a64("options", 7);
  H = fnv1a64Mix(H, static_cast<uint64_t>(Options.Hb.Model));
  H = fnv1a64Mix(H, Options.Hb.EnableAtomicityRule);
  H = fnv1a64Mix(H, Options.Hb.EnableQueueRules);
  H = fnv1a64Mix(H, Options.Hb.EnableListenerRule);
  H = fnv1a64Mix(H, Options.Hb.EnableExternalInputRule);
  H = fnv1a64Mix(H, Options.Hb.MaxFixpointRounds);
  H = fnv1a64Mix(H, Options.IfGuardFilter);
  H = fnv1a64Mix(H, Options.IntraEventAllocFilter);
  H = fnv1a64Mix(H, Options.LocksetFilter);
  H = fnv1a64Mix(H, HasResolver);
  return H;
}

std::string cafa::checkpointPath(const std::string &Directory) {
  return Directory + "/analysis.ckpt";
}

Status cafa::saveAnalysisSnapshot(const AnalysisSnapshot &Snap,
                                  const std::string &Path) {
  SnapshotWriter W;
  W.u64(Snap.TraceFingerprint);
  W.u64(Snap.NumRecords);
  W.u64(Snap.OptionsDigest);
  W.u8(static_cast<uint8_t>(Snap.Phase));
  putHbFrontier(W, Snap.Hb);
  W.u8(Snap.HasDetect ? 1 : 0);
  if (Snap.HasDetect)
    putDetectFrontier(W, Snap.Detect);
  W.u8(Snap.HasWindowedDetect ? 1 : 0);
  if (Snap.HasWindowedDetect)
    putWindowedDetectFrontier(W, Snap.WindowedDetect);
  W.u8(Snap.HasPartialRaces ? 1 : 0);
  if (Snap.HasPartialRaces) {
    W.u32(static_cast<uint32_t>(Snap.PartialRaces.size()));
    for (const PartialRaceKey &K : Snap.PartialRaces) {
      W.u32(K.UseMethod);
      W.u32(K.UsePc);
      W.u32(K.FreeMethod);
      W.u32(K.FreePc);
      W.str(K.Label);
    }
  }
  return W.writeFileAtomic(Path, SnapshotMagic, SnapshotVersion);
}

Status cafa::loadAnalysisSnapshot(AnalysisSnapshot &Snap,
                                  const std::string &Path) {
  SnapshotReader R;
  Status S = R.loadFile(Path, SnapshotMagic, SnapshotVersion);
  if (!S.ok())
    return S;
  auto Malformed = [] {
    return Status::error("snapshot payload malformed");
  };
  uint8_t Phase, HasDetect, HasWindowed, HasPartial;
  if (!R.u64(Snap.TraceFingerprint) || !R.u64(Snap.NumRecords) ||
      !R.u64(Snap.OptionsDigest) || !R.u8(Phase) ||
      Phase > static_cast<uint8_t>(SnapshotPhase::Detect))
    return Malformed();
  Snap.Phase = static_cast<SnapshotPhase>(Phase);
  if (!getHbFrontier(R, Snap.Hb))
    return Malformed();
  if (!R.u8(HasDetect) || HasDetect > 1)
    return Malformed();
  Snap.HasDetect = HasDetect != 0;
  if (Snap.HasDetect && !getDetectFrontier(R, Snap.Detect))
    return Malformed();
  if (!R.u8(HasWindowed) || HasWindowed > 1)
    return Malformed();
  Snap.HasWindowedDetect = HasWindowed != 0;
  if (Snap.HasWindowedDetect &&
      !getWindowedDetectFrontier(R, Snap.WindowedDetect))
    return Malformed();
  if (!R.u8(HasPartial) || HasPartial > 1)
    return Malformed();
  Snap.HasPartialRaces = HasPartial != 0;
  if (Snap.HasPartialRaces) {
    uint32_t N;
    if (!R.u32(N) || N > MaxRaces)
      return Malformed();
    Snap.PartialRaces.resize(N);
    for (PartialRaceKey &K : Snap.PartialRaces)
      if (!R.u32(K.UseMethod) || !R.u32(K.UsePc) || !R.u32(K.FreeMethod) ||
          !R.u32(K.FreePc) || !R.str(K.Label, 4096))
        return Malformed();
  }
  if (!R.atEnd())
    return Status::error("snapshot has trailing bytes");
  return Status::success();
}
