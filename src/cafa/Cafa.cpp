//===- cafa/Cafa.cpp - Public facade of the CAFA library ---------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cafa/Cafa.h"

#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <tuple>

using namespace cafa;

namespace {

/// Retirement cadence the memory-pressure ladder uses when it switches
/// the scan to the trace stream on its own (no explicit --window /
/// CAFA_WINDOW): large enough that the sweep cost is noise, small
/// enough that retained accesses turn over well before the access
/// tables' footprint.
constexpr uint64_t DefaultPressureWindow = 65536;

} // namespace

AnalysisResult cafa::analyzeTrace(const Trace &T,
                                  const AnalysisOptions &Analysis) {
  const DetectorOptions &Options = Analysis.Detector;
  const CheckpointOptions &CkptOpt = Analysis.Checkpoint;
  const DerefResolver *Resolver = Analysis.Resolver;
  AnalysisResult Result;
  Result.TraceStatistics = computeTraceStats(T);

  // DeadlineMillis bounds the whole pipeline here: each phase gets what
  // the previous phases left over (floored at a hair above zero so a
  // blown budget still means "stop at the first checkpoint", not "run
  // unbounded").
  Timer Total;
  DetectorOptions Opt = Options;
  auto Remaining = [&] {
    return std::max(Options.DeadlineMillis - Total.elapsedWallMillis(),
                    0.001);
  };

  // The scan's access source (docs/windowed-analysis.md): the
  // memory-pressure ladder may still switch it to the stream after the
  // build (below).
  uint64_t Window = resolveWindowEvents(Options.WindowEvents);
  bool Windowed = Window != DetectorOptions::WindowOff;

  // Checkpoint identity: every snapshot carries the trace fingerprint
  // and the semantic-options digest, and resume refuses anything that
  // does not match -- continuing another trace's fixpoint would produce
  // confidently wrong reports, the one unacceptable failure mode.  The
  // fingerprint hashes every record, so it is computed on first use: a
  // run that finds no snapshot and saves none never pays for it.
  ResumeOutcome &RO = Result.Resume;
  bool CkptOn = CkptOpt.enabled();
  std::string Path;
  uint64_t Digest = 0;
  if (CkptOn) {
    Path = checkpointPath(CkptOpt.Directory);
    Digest = detectorOptionsDigest(Options, Resolver != nullptr);
  }
  std::optional<uint64_t> Fp;
  auto Fingerprint = [&] {
    if (!Fp)
      Fp = traceFingerprint(T);
    return *Fp;
  };
  bool WroteSnapshot = false;
  auto RecordSaveError = [&](const Status &S) {
    if (S.ok()) {
      WroteSnapshot = true;
      if (CkptOpt.AfterSave)
        CkptOpt.AfterSave();
    } else if (RO.SaveError.empty()) {
      RO.SaveError = S.message();
    }
  };
  auto StampIdentity = [&](AnalysisSnapshot &Out) {
    Out.TraceFingerprint = Fingerprint();
    Out.NumRecords = T.numRecords();
    Out.OptionsDigest = Digest;
  };

  AnalysisSnapshot Snap;
  bool HaveSnap = false;
  if (CkptOn && CkptOpt.Resume) {
    RO.Attempted = true;
    if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
      std::fclose(F);
      Status S = loadAnalysisSnapshot(Snap, Path);
      if (!S.ok())
        RO.RejectReason = S.message();
      else if (Snap.NumRecords != T.numRecords() ||
               Snap.TraceFingerprint != Fingerprint())
        RO.RejectReason = "snapshot does not match this trace";
      else if (Snap.OptionsDigest != Digest)
        RO.RejectReason =
            "snapshot was taken under different analysis options";
      else
        HaveSnap = true;
    } else {
      RO.NoSnapshot = true;
    }
  }

  Timer Phase;
  TaskIndex Index(T);

  HbCheckpointing HbCk;
  if (CkptOn) {
    HbCk.EveryMillis = CkptOpt.EveryMillis;
    HbCk.Save = [&](const HbFrontier &F) {
      AnalysisSnapshot Out;
      StampIdentity(Out);
      Out.Phase = SnapshotPhase::HbFixpoint;
      Out.Hb = F;
      RecordSaveError(saveAnalysisSnapshot(Out, Path));
    };
  }
  if (HaveSnap) {
    HbCk.Resume = &Snap.Hb;
    RO.Resumed = true;
    RO.Phase =
        Snap.Phase == SnapshotPhase::Detect ? "detect" : "hb-fixpoint";
    RO.HbRoundsDone = Snap.Hb.Stats.FixpointRounds;
  }

  if (Opt.DeadlineMillis > 0)
    Opt.Hb.DeadlineMillis = Remaining();
  Phase.restart();
  HbIndex Hb(T, Index, Opt.Hb, CkptOn ? &HbCk : nullptr);
  Result.HbBuildMillis = Phase.elapsedWallMillis();
  Result.HbStats = Hb.ruleStats();
  Result.HbMemoryBytes = Hb.memoryBytes();
  Result.Degradation = Hb.degradation();

  // Memory-pressure rung of the degradation ladder: when the oracle had
  // to be downgraded to fit Hb.MemLimitBytes and the caller left the
  // window on auto, scan the trace stream instead of materializing the
  // access tables -- strictly less resident memory, byte-identical
  // report.  An explicit WindowOff pins the AccessDb.
  if (!Windowed && Options.WindowEvents == 0 &&
      Hb.degradation().DowngradedForMemory) {
    Window = DefaultPressureWindow;
    Windowed = true;
    Result.WindowShedByMemory = true;
  }

  // Without a window the scan reads a fully materialized AccessDb; the
  // stream source runs its own extraction passes (ExtractMillis stays 0
  // and the tallies land in Result.WindowedDetect).
  AccessDb Db;
  if (!Windowed) {
    Phase.restart();
    Db = extractAccesses(T, Index, Resolver);
    Result.ExtractMillis = Phase.elapsedWallMillis();
  }

  // Detector-phase checkpointing only makes sense over a saturated
  // relation: a frontier scanned against a cut relation would bake its
  // too-weak "unordered" verdicts into the resumed report, so such
  // state is never saved and never reused.  The frontier fits either
  // access source, so a scan cut with a window resumes without one and
  // the other way round.
  bool DetectCkptOn = CkptOn && !Hb.degradation().DeadlineExceeded;
  DetectCheckpointing DetCk;
  DetectFrontier LastDetect;
  bool HaveLastDetect = false;
  auto DetectSnapshot = [&](const DetectFrontier &F) {
    AnalysisSnapshot Out;
    StampIdentity(Out);
    Out.Phase = SnapshotPhase::Detect;
    Out.Hb = Hb.exportFrontier();
    Out.HasDetect = true;
    Out.Detect = F;
    return Out;
  };
  if (DetectCkptOn) {
    DetCk.EveryMillis = CkptOpt.EveryMillis;
    DetCk.Save = [&](const DetectFrontier &F) {
      LastDetect = F;
      HaveLastDetect = true;
      RecordSaveError(saveAnalysisSnapshot(DetectSnapshot(F), Path));
    };
    if (HaveSnap && Snap.Phase == SnapshotPhase::Detect && Snap.HasDetect &&
        Snap.Hb.Saturated)
      DetCk.Resume = &Snap.Detect;
  }

  if (Opt.DeadlineMillis > 0)
    Opt.DeadlineMillis = Remaining();
  Phase.restart();
  DetectCheckpointing *Ck = DetectCkptOn ? &DetCk : nullptr;
  if (Windowed) {
    Result.WindowEventsUsed = Window;
    Result.Report = detectUseFreeRacesWindowed(
        T, Index, Hb, Opt, Window, Resolver, &Result.WindowedDetect, Ck);
  } else {
    Result.Report = detectUseFreeRaces(T, Index, Db, Hb, Opt, Ck);
  }
  Result.DetectMillis = Phase.elapsedWallMillis();
  if (RO.Resumed && !DetCk.ResumeAccepted)
    RO.Phase = "hb-fixpoint";

  if (!CkptOn)
    return Result;

  auto raceKey = [](uint32_t UseMethod, uint32_t UsePc, uint32_t FreeMethod,
                    uint32_t FreePc) {
    return std::make_tuple(UseMethod, UsePc, FreeMethod, FreePc);
  };
  if (Result.Report.Partial) {
    // Final partial rewrite: keep the frontier resumable and attach the
    // partial report's races, so the run that finishes the job can diff
    // its complete report against this provisional one.
    AnalysisSnapshot Out;
    if (HaveLastDetect) {
      Out = DetectSnapshot(LastDetect);
    } else {
      StampIdentity(Out);
      Out.Phase = SnapshotPhase::HbFixpoint;
      Out.Hb = Hb.exportFrontier();
    }
    Out.HasPartialRaces = true;
    Out.PartialRaces.reserve(Result.Report.Races.size());
    for (const UseFreeRace &Race : Result.Report.Races)
      Out.PartialRaces.push_back({Race.Use.Method.value(), Race.Use.Pc,
                                  Race.Free.Method.value(), Race.Free.Pc,
                                  renderRaceLine(buildRaceRecord(Race, T))});
    RecordSaveError(saveAnalysisSnapshot(Out, Path));
  } else {
    // Complete run: diff against the partial baseline (if the snapshot
    // carried one), then retire the snapshot -- a stale file must not
    // shadow a finished analysis.
    if (HaveSnap && Snap.HasPartialRaces) {
      RO.HasBaseline = true;
      std::set<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>> Final;
      for (const UseFreeRace &Race : Result.Report.Races)
        Final.insert(raceKey(Race.Use.Method.value(), Race.Use.Pc,
                             Race.Free.Method.value(), Race.Free.Pc));
      for (const PartialRaceKey &K : Snap.PartialRaces) {
        if (Final.count(raceKey(K.UseMethod, K.UsePc, K.FreeMethod,
                                K.FreePc)))
          ++RO.ConfirmedRaces;
        else
          RO.RetractedRaces.push_back(K.Label);
      }
      RO.NewRaces =
          static_cast<uint32_t>(Result.Report.Races.size()) -
          RO.ConfirmedRaces;
    }
    // Never delete a snapshot we rejected and did not overwrite: it
    // belongs to a different trace/options run (or is evidence of
    // corruption worth inspecting), not to this analysis.
    if (RO.RejectReason.empty() || WroteSnapshot)
      std::remove(Path.c_str());
  }
  return Result;
}

AnalysisResult cafa::analyzeScenario(const Scenario &S,
                                     const RuntimeOptions &RtOptions,
                                     const DetectorOptions &DetOptions,
                                     const GroundTruth *Truth,
                                     Table1Row *RowOut) {
  RuntimeOptions Rt = RtOptions;
  Rt.Tracing = true; // analysis needs a trace regardless of caller intent
  Trace T = runScenario(S, Rt);
  AnalysisResult Result = analyzeTrace(T, DetOptions);
  if (Truth && RowOut)
    *RowOut = evaluateReport(Result.Report, *Truth, T, S.AppName);
  return Result;
}
