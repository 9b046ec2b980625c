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
#include <set>
#include <tuple>

using namespace cafa;

namespace {

/// Retirement cadence the memory-pressure ladder uses when it engages
/// the windowed scan on its own (no explicit --window / CAFA_WINDOW):
/// large enough that the sweep cost is noise, small enough that retained
/// accesses turn over well before the batch tables' footprint.
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

  // Windowed streaming detection (docs/windowed-analysis.md): the
  // memory-pressure ladder may still engage it after the build (below).
  uint64_t Window = resolveWindowEvents(Options.WindowEvents);
  bool Windowed = Window != DetectorOptions::WindowOff;

  // Checkpoint identity: every snapshot carries the trace fingerprint
  // and the semantic-options digest, and resume refuses anything that
  // does not match -- continuing another trace's fixpoint would produce
  // confidently wrong reports, the one unacceptable failure mode.
  ResumeOutcome &RO = Result.Resume;
  bool CkptOn = CkptOpt.enabled();
  std::string Path;
  uint64_t Fp = 0, Digest = 0;
  if (CkptOn) {
    Path = checkpointPath(CkptOpt.Directory);
    Fp = traceFingerprint(T);
    Digest = detectorOptionsDigest(Options, Resolver != nullptr);
  }
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
    Out.TraceFingerprint = Fp;
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
               Snap.TraceFingerprint != Fp)
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
  // window on auto, shed to the windowed scan before the batch detector
  // materializes its access tables -- strictly less resident memory,
  // byte-identical report.  An explicit WindowOff pins the batch scan.
  if (!Windowed && Options.WindowEvents == 0 &&
      Hb.degradation().DowngradedForMemory) {
    Window = DefaultPressureWindow;
    Windowed = true;
    Result.WindowShedByMemory = true;
  }

  // The batch detector scans a fully materialized AccessDb; the
  // windowed scan streams its own extraction passes (ExtractMillis
  // stays 0 and the tallies land in Result.WindowedDetect).
  AccessDb Db;
  if (!Windowed) {
    Phase.restart();
    Db = extractAccesses(T, Index, Resolver);
    Result.ExtractMillis = Phase.elapsedWallMillis();
  }

  // Detector-phase checkpointing only makes sense over a saturated
  // relation: a frontier scanned against a cut relation would bake its
  // too-weak "unordered" verdicts into the resumed report, so such
  // state is never saved and never reused.  Each scan mode has its own
  // frontier shape; a snapshot cut in the other mode contributes its Hb
  // frontier (adopted above) and detection restarts from scratch --
  // recompute, never reject.
  bool DetectCkptOn = CkptOn && !Hb.degradation().DeadlineExceeded;
  DetectCheckpointing DetCk;
  WindowedDetectCheckpointing WDetCk;
  DetectFrontier LastDetect;
  WindowedDetectFrontier LastWDetect;
  bool HaveLastDetect = false, HaveLastWDetect = false;
  if (DetectCkptOn) {
    if (Windowed) {
      WDetCk.EveryMillis = CkptOpt.EveryMillis;
      WDetCk.Save = [&](const WindowedDetectFrontier &F) {
        LastWDetect = F;
        HaveLastWDetect = true;
        AnalysisSnapshot Out;
        StampIdentity(Out);
        Out.Phase = SnapshotPhase::Detect;
        Out.Hb = Hb.exportFrontier();
        Out.HasWindowedDetect = true;
        Out.WindowedDetect = F;
        RecordSaveError(saveAnalysisSnapshot(Out, Path));
      };
      if (HaveSnap && Snap.Phase == SnapshotPhase::Detect &&
          Snap.HasWindowedDetect && Snap.Hb.Saturated)
        WDetCk.Resume = &Snap.WindowedDetect;
    } else {
      DetCk.EveryMillis = CkptOpt.EveryMillis;
      DetCk.Save = [&](const DetectFrontier &F) {
        LastDetect = F;
        HaveLastDetect = true;
        AnalysisSnapshot Out;
        StampIdentity(Out);
        Out.Phase = SnapshotPhase::Detect;
        Out.Hb = Hb.exportFrontier();
        Out.HasDetect = true;
        Out.Detect = F;
        RecordSaveError(saveAnalysisSnapshot(Out, Path));
      };
      if (HaveSnap && Snap.Phase == SnapshotPhase::Detect && Snap.HasDetect &&
          Snap.Hb.Saturated)
        DetCk.Resume = &Snap.Detect;
    }
  }

  if (Opt.DeadlineMillis > 0)
    Opt.DeadlineMillis = Remaining();
  Phase.restart();
  if (Windowed) {
    // The windowed scan orders pairs from its own frontier rows; the
    // primary oracle is dead weight from here on.
    Hb.shedOracle();
    Result.WindowEventsUsed = Window;
    Result.Report = detectUseFreeRacesWindowed(
        T, Index, Hb, Opt, Window, Resolver, &Result.WindowedDetect,
        DetectCkptOn ? &WDetCk : nullptr);
  } else {
    Result.Report = detectUseFreeRaces(T, Index, Db, Hb, Opt,
                                       DetectCkptOn ? &DetCk : nullptr);
  }
  Result.DetectMillis = Phase.elapsedWallMillis();

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
    StampIdentity(Out);
    if (DetectCkptOn && HaveLastWDetect) {
      Out.Phase = SnapshotPhase::Detect;
      Out.Hb = Hb.exportFrontier();
      Out.HasWindowedDetect = true;
      Out.WindowedDetect = LastWDetect;
    } else if (DetectCkptOn && HaveLastDetect) {
      Out.Phase = SnapshotPhase::Detect;
      Out.Hb = Hb.exportFrontier();
      Out.HasDetect = true;
      Out.Detect = LastDetect;
    } else {
      Out.Phase = SnapshotPhase::HbFixpoint;
      Out.Hb = Hb.exportFrontier();
    }
    Out.HasPartialRaces = true;
    Out.PartialRaces.reserve(Result.Report.Races.size());
    for (const UseFreeRace &Race : Result.Report.Races)
      Out.PartialRaces.push_back({Race.Use.Method.value(), Race.Use.Pc,
                                  Race.Free.Method.value(), Race.Free.Pc,
                                  renderRaceLine(Race, T)});
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
