//===- tests/integration/CheckpointTest.cpp -----------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Crash-safe checkpoint/resume at the library level: a deadline-cut
// analysis leaves a snapshot behind, a resumed run restores the frontier
// mid-flight and produces a report bit-identical to an uninterrupted
// run, and every corrupt or mismatched snapshot degrades to a clean
// restart -- never a wrong answer.  The process-level (SIGKILL) side of
// the same guarantee lives in CrashRecoveryTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "trace/TraceBuilder.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/stat.h>

using namespace cafa;

namespace {

AnalysisOptions withCheckpoint(const DetectorOptions &Det,
                               const CheckpointOptions &Ckpt) {
  AnalysisOptions O(Det);
  O.Checkpoint = Ckpt;
  return O;
}

Trace buildAppTrace(size_t Volume = 300) {
  apps::AppBuilder App("ckpt");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(Volume);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  return runScenario(Model.S, RuntimeOptions());
}

// Two unordered threads with 70 uses x 70 frees of one cell: 4900
// candidate pairs, past the detector's 4096-pair clock poll, so a tiny
// detect deadline cuts the scan after a forced checkpoint save.
Trace buildWideScanTrace() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 256);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 70; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 70; ++I)
    TB.ptrWrite(B, 5, 0, M, 100 + I);
  TB.end(B);
  return TB.take();
}

/// A fresh checkpoint directory with no stale snapshot in it.
std::string freshCheckpointDir(const char *Name) {
  std::string Dir = uniqueScratchDir() + "/" + Name;
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

TEST(CheckpointTest, HbDeadlineCutThenResumeIsBitIdentical) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("hb_cut");

  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());
  ASSERT_FALSE(Clean.Report.Partial);
  ASSERT_GT(Clean.Report.Races.size(), 0u);

  // Cut the fixpoint before its first round; the cut must leave a
  // resumable snapshot behind even with no cadence configured.
  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(Cut.Report.Partial);
  EXPECT_EQ(Cut.Report.PartialCause, "hb-deadline");
  EXPECT_TRUE(fileExists(checkpointPath(Dir)));

  // Resume without a deadline: the run completes, and both renderings
  // match the uninterrupted run byte for byte.
  Ckpt.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_TRUE(Resumed.Resume.Attempted);
  EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  EXPECT_FALSE(Resumed.Report.Partial);
  EXPECT_EQ(renderRaceReport(Resumed.Report, T),
            renderRaceReport(Clean.Report, T));
  EXPECT_EQ(renderRaceReportJson(Resumed.Report, T),
            renderRaceReportJson(Clean.Report, T));

  // A finished analysis retires its snapshot.
  EXPECT_FALSE(fileExists(checkpointPath(Dir)));
}

TEST(CheckpointTest, ResumeDiffsProvisionalRacesAgainstFinalReport) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("diff");

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(Cut.Report.Partial);

  // The partial report's races are provisional: the relation was cut,
  // so some may disappear once the fixpoint saturates.  Both renderers
  // must say so.
  EXPECT_TRUE(Cut.Report.racesProvisional());
  if (!Cut.Report.Races.empty()) {
    EXPECT_NE(renderRaceReport(Cut.Report, T).find("(provisional)"),
              std::string::npos);
    EXPECT_NE(
        renderRaceReportJson(Cut.Report, T).find("\"provisional\": true"),
        std::string::npos);
  }
  EXPECT_FALSE(Cut.Report.PartialDetail.empty());

  Ckpt.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  ASSERT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  ASSERT_TRUE(Resumed.Resume.HasBaseline);
  EXPECT_EQ(Resumed.Resume.ConfirmedRaces +
                Resumed.Resume.RetractedRaces.size(),
            Cut.Report.Races.size());
  EXPECT_EQ(Resumed.Resume.ConfirmedRaces + Resumed.Resume.NewRaces,
            Resumed.Report.Races.size());

  // A complete report never carries provisional markers -- that is what
  // keeps resumed output identical to an uninterrupted run's.
  EXPECT_FALSE(Resumed.Report.racesProvisional());
  EXPECT_EQ(renderRaceReport(Resumed.Report, T).find("(provisional)"),
            std::string::npos);
}

TEST(CheckpointTest, DetectScanCutThenResumeIsBitIdentical) {
  Trace T = buildWideScanTrace();
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  AccessDb Db = extractAccesses(T, Index);

  // The two threads' races are all (c); the frozen frontier holds only
  // their same-looper bit, and the resumed scan's closing
  // classification must split them again.  Disable the sheddable filters so the deadline
  // ladder's first rung has nothing to shed and the first expiry cuts
  // the scan outright (the shed rung itself is covered by
  // DegradationTest).
  DetectorOptions Opt;
  Opt.LocksetFilter = false;
  Opt.IfGuardFilter = false;
  RaceReport Clean = detectUseFreeRaces(T, Index, Db, Hb, Opt);
  ASSERT_FALSE(Clean.Partial);
  ASSERT_EQ(Clean.Filters.CandidatePairs, 4900u);
  EXPECT_EQ(Clean.countCategory(RaceCategory::Conventional),
            Clean.numRaces());

  // Cut the scan at its first clock poll; the deadline forces a save.
  DetectFrontier Saved;
  bool Wrote = false;
  DetectCheckpointing CutCk;
  CutCk.Save = [&](const DetectFrontier &F) {
    Saved = F;
    Wrote = true;
  };
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  RaceReport Cut = detectUseFreeRaces(T, Index, Db, Hb, Tiny, &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_LT(Cut.Filters.CandidatePairs, 4900u);
  EXPECT_FALSE(Saved.Races.empty());

  // Resume from the saved frontier: the remaining pairs are scanned
  // and the rendered report matches the uninterrupted one byte for
  // byte.
  DetectCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  RaceReport Resumed =
      detectUseFreeRaces(T, Index, Db, Hb, Opt, &ResumeCk);
  EXPECT_TRUE(ResumeCk.ResumeAccepted);
  EXPECT_FALSE(Resumed.Partial);
  EXPECT_EQ(Resumed.Filters.CandidatePairs, 4900u);
  EXPECT_EQ(renderRaceReportJson(Resumed, T),
            renderRaceReportJson(Clean, T));
  EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Clean, T));
}

TEST(CheckpointTest, ShedStateSurvivesDetectCheckpointResume) {
  // 104x104 = 10816 pairs: the deadline ladder sheds the filters at the
  // first poll and cuts at the second.  The frontier must carry the
  // shed flag so a resume keeps scanning with filters shed -- silently
  // re-enabling them would make the report depend on where the cut
  // happened to land.
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 4096);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 104; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 104; ++I)
    TB.ptrWrite(B, 5, 0, M, 2000 + I);
  TB.end(B);
  Trace T = TB.take();
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  AccessDb Db = extractAccesses(T, Index);

  DetectFrontier Saved;
  bool Wrote = false;
  DetectCheckpointing CutCk;
  CutCk.Save = [&](const DetectFrontier &F) {
    Saved = F;
    Wrote = true;
  };
  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  RaceReport Cut = detectUseFreeRaces(T, Index, Db, Hb, Tiny, &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_TRUE(Saved.FiltersShed);

  // Resume without a deadline: the scan finishes, and the report stays
  // flagged as a filters-shed run covering every pair.
  DetectCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  DetectorOptions NoLimit;
  RaceReport Resumed = detectUseFreeRaces(T, Index, Db, Hb, NoLimit, &ResumeCk);
  EXPECT_TRUE(ResumeCk.ResumeAccepted);
  ASSERT_TRUE(Resumed.Partial);
  EXPECT_EQ(Resumed.PartialCause, "filters-shed");
  EXPECT_EQ(Resumed.Filters.CandidatePairs, 10816u);

  // Nothing found before the cut is lost on resume.
  for (const UseFreeRace &Race : Cut.Races) {
    bool Found = false;
    for (const UseFreeRace &R : Resumed.Races)
      Found |= R.Use.Method == Race.Use.Method && R.Use.Pc == Race.Use.Pc &&
               R.Free.Method == Race.Free.Method && R.Free.Pc == Race.Free.Pc;
    EXPECT_TRUE(Found);
  }
}

TEST(CheckpointTest, MidFlightHbFrontierResumesToSameRelation) {
  Trace T = buildAppTrace(1600);
  TaskIndex Index(T);
  HbOptions ChainOpt; // pinned: the cut and the counts are the pass's
  ChainOpt.Reach = ReachMode::Chain;

  HbIndex Clean(T, Index, ChainOpt);
  ASSERT_TRUE(Clean.saturated());
  ASSERT_GE(Clean.graph().numNodes(), 4096u);

  // Freeze the pass at its first cadence point, 4096 nodes in, well
  // short of saturation.
  std::vector<HbFrontier> Saved;
  HbCheckpointing Every;
  Every.EveryMillis = 1e-9;
  Every.Save = [&](const HbFrontier &F) { Saved.push_back(F); };
  HbIndex Stopped(T, Index, ChainOpt, &Every);
  ASSERT_FALSE(Saved.empty());
  HbFrontier F = Saved.front();
  EXPECT_EQ(F.Stats.FixpointRounds, 1u);
  ASSERT_FALSE(F.Saturated);
  EXPECT_FALSE(F.DerivedEdges.empty());
  EXPECT_LT(F.DerivedEdges.size(), Clean.exportFrontier().DerivedEdges.size());

  // Resume: the replayed frontier continues to the same relation, and
  // the resumed pass counter keeps counting from where it stopped.
  HbCheckpointing Ck;
  Ck.Resume = &F;
  HbIndex Resumed(T, Index, ChainOpt, &Ck);
  EXPECT_TRUE(Resumed.saturated());
  EXPECT_EQ(Resumed.ruleStats().FixpointRounds, 2u);
  EXPECT_EQ(Resumed.roundsRun(), 1u);

  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions Opt;
  RaceReport A = detectUseFreeRaces(T, Index, Db, Clean, Opt);
  RaceReport B = detectUseFreeRaces(T, Index, Db, Resumed, Opt);
  EXPECT_EQ(renderRaceReportJson(A, T), renderRaceReportJson(B, T));
}

TEST(CheckpointTest, HbDeadlineCutUnderChainResumesBitIdentical) {
  // Same cut/resume contract as the test above, through a deadline cut
  // with the chain oracle pinned end to end -- and the resumed chain report
  // must also match a default-oracle clean run, because no oracle choice
  // is allowed to change a report.
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("hb_cut_chain");

  DetectorOptions ChainDet;
  ChainDet.Hb.Reach = ReachMode::Chain;
  AnalysisResult Clean = analyzeTrace(T, ChainDet);
  ASSERT_FALSE(Clean.Report.Partial);
  EXPECT_EQ(Clean.Degradation.UsedReach, ReachMode::Chain);

  AnalysisResult Default = analyzeTrace(T, DetectorOptions());
  EXPECT_EQ(renderRaceReportJson(Clean.Report, T),
            renderRaceReportJson(Default.Report, T));

  DetectorOptions Tiny = ChainDet;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(Cut.Report.Partial);
  EXPECT_TRUE(fileExists(checkpointPath(Dir)));

  Ckpt.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, withCheckpoint(ChainDet, Ckpt));
  EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  EXPECT_FALSE(Resumed.Report.Partial);
  EXPECT_EQ(renderRaceReport(Resumed.Report, T),
            renderRaceReport(Clean.Report, T));
  EXPECT_EQ(renderRaceReportJson(Resumed.Report, T),
            renderRaceReportJson(Clean.Report, T));
  EXPECT_FALSE(fileExists(checkpointPath(Dir)));
}

TEST(CheckpointTest, SaturatedChainFrontierResumesToTheSameReport) {
  // A saturated chain-mode index's frontier is its edges; a resume
  // replays them, rebuilds the decomposition and clocks with refresh(),
  // and skips the fixpoint -- landing on the same report.
  Trace T = buildAppTrace();
  TaskIndex Index(T);
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  HbIndex Clean(T, Index, ChainOpt);
  ASSERT_TRUE(Clean.saturated());
  ASSERT_GT(Clean.degradation().ChainCount, 0u);
  ASSERT_LE(Clean.degradation().ChainCount,
            size_t(ChainReachability::MaxChainsForClocks));

  HbFrontier F = Clean.exportFrontier();
  ASSERT_TRUE(F.Saturated);
  HbCheckpointing Ck;
  Ck.Resume = &F;
  HbIndex Resumed(T, Index, ChainOpt, &Ck);
  EXPECT_TRUE(Resumed.saturated());
  EXPECT_EQ(Resumed.degradation().ChainCount, Clean.degradation().ChainCount);

  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions Opt;
  RaceReport A = detectUseFreeRaces(T, Index, Db, Clean, Opt);
  RaceReport B = detectUseFreeRaces(T, Index, Db, Resumed, Opt);
  EXPECT_EQ(renderRaceReportJson(A, T), renderRaceReportJson(B, T));
}

TEST(CheckpointTest, CrossModeResumeRecomputesCleanly) {
  // A frontier cut under one oracle resumed under another: the frontier
  // carries edges only, so the resume builds its own oracle from the
  // replayed graph -- it never rejects the resume and never yields a
  // different relation (docs/robustness.md, "Resume").
  Trace T = buildAppTrace();
  TaskIndex Index(T);

  // Bfs cut after one round -> chain resume, whose pass derives the
  // rest.
  HbOptions BfsCut;
  BfsCut.Reach = ReachMode::Bfs;
  BfsCut.MaxFixpointRounds = 1;
  HbIndex Stopped(T, Index, BfsCut);
  HbFrontier F = Stopped.exportFrontier();
  ASSERT_FALSE(F.Saturated);

  HbCheckpointing Ck;
  Ck.Resume = &F;
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  HbIndex ChainResumed(T, Index, ChainOpt, &Ck);
  EXPECT_TRUE(ChainResumed.saturated());

  // Chain frontier -> Bfs resume (the mirror image).
  HbIndex ChainFull(T, Index, ChainOpt);
  HbFrontier FC = ChainFull.exportFrontier();
  HbCheckpointing Ck2;
  Ck2.Resume = &FC;
  HbOptions BfsOpt;
  BfsOpt.Reach = ReachMode::Bfs;
  HbIndex BfsResumed(T, Index, BfsOpt, &Ck2);
  EXPECT_TRUE(BfsResumed.saturated());

  // All paths agree byte for byte.
  HbIndex CleanDefault(T, Index, HbOptions());
  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions Opt;
  std::string Ref = renderRaceReportJson(
      detectUseFreeRaces(T, Index, Db, CleanDefault, Opt), T);
  EXPECT_EQ(renderRaceReportJson(
                detectUseFreeRaces(T, Index, Db, ChainResumed, Opt), T),
            Ref);
  EXPECT_EQ(renderRaceReportJson(
                detectUseFreeRaces(T, Index, Db, BfsResumed, Opt), T),
            Ref);
}

TEST(CheckpointTest, SnapshotSurvivesAnEncodeDecodeRoundTrip) {
  AnalysisSnapshot Snap;
  Snap.TraceFingerprint = 0x1122334455667788ull;
  Snap.NumRecords = 42;
  Snap.OptionsDigest = 0x99aabbccddeeff00ull;
  Snap.Phase = SnapshotPhase::Detect;
  Snap.Hb.Saturated = true;
  Snap.Hb.Stats.FixpointRounds = 7;
  Snap.Hb.Stats.AtomicityEdges = 13;
  Snap.Hb.DerivedEdges = {{NodeId(3), NodeId(4)}, {NodeId(9), NodeId(1)}};
  Snap.Hb.UnsaturatedRules = {"atomicity"};
  Snap.HasDetect = true;
  Snap.Detect.CursorRecord = 37;
  Snap.Detect.PairsDoneAtCursor = 12;
  Snap.Detect.FiltersShed = true;
  Snap.Detect.Filters.CandidatePairs = 4096;
  Snap.Detect.Filters.SameTask = 7;
  Snap.Detect.Races = {{1, 2, 10, 20, 5, 6, 7, 8, 3, 1},
                       {3, 4, 30, 40, 9, 10, 11, 12, 1, 0}};
  Snap.HasPartialRaces = true;
  Snap.PartialRaces = {{1, 2, 3, 4, "label one"}, {5, 6, 7, 8, "two"}};

  std::string Dir = freshCheckpointDir("roundtrip");
  std::string Path = checkpointPath(Dir);
  ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());

  AnalysisSnapshot Back;
  ASSERT_TRUE(loadAnalysisSnapshot(Back, Path).ok());
  EXPECT_EQ(Back.TraceFingerprint, Snap.TraceFingerprint);
  EXPECT_EQ(Back.NumRecords, Snap.NumRecords);
  EXPECT_EQ(Back.OptionsDigest, Snap.OptionsDigest);
  EXPECT_EQ(Back.Phase, Snap.Phase);
  EXPECT_EQ(Back.Hb.Saturated, Snap.Hb.Saturated);
  EXPECT_EQ(Back.Hb.Stats.FixpointRounds, 7u);
  EXPECT_EQ(Back.Hb.Stats.AtomicityEdges, Snap.Hb.Stats.AtomicityEdges);
  ASSERT_EQ(Back.Hb.DerivedEdges.size(), 2u);
  EXPECT_EQ(Back.Hb.DerivedEdges[1].From.value(), 9u);
  EXPECT_EQ(Back.Hb.DerivedEdges[1].To.value(), 1u);
  ASSERT_EQ(Back.Hb.UnsaturatedRules.size(), 1u);
  EXPECT_EQ(Back.Hb.UnsaturatedRules[0], "atomicity");
  ASSERT_TRUE(Back.HasDetect);
  EXPECT_EQ(Back.Detect.CursorRecord, 37u);
  EXPECT_EQ(Back.Detect.PairsDoneAtCursor, 12u);
  EXPECT_TRUE(Back.Detect.FiltersShed);
  EXPECT_EQ(Back.Detect.Filters.CandidatePairs, 4096u);
  EXPECT_EQ(Back.Detect.Filters.SameTask, 7u);
  ASSERT_EQ(Back.Detect.Races.size(), 2u);
  EXPECT_EQ(Back.Detect.Races[0].FreeRecord, 20u);
  EXPECT_EQ(Back.Detect.Races[0].DynamicCount, 3u);
  EXPECT_EQ(Back.Detect.Races[0].SameLooper, 1u);
  EXPECT_EQ(Back.Detect.Races[1].FreeOrd, 4u);
  EXPECT_EQ(Back.Detect.Races[1].FreePc, 12u);
  ASSERT_TRUE(Back.HasPartialRaces);
  ASSERT_EQ(Back.PartialRaces.size(), 2u);
  EXPECT_EQ(Back.PartialRaces[0].Label, "label one");
  EXPECT_EQ(Back.PartialRaces[1].FreePc, 8u);
}

TEST(CheckpointTest, CorruptSnapshotsAreRejectedWithACleanRestart) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("corrupt");
  std::string Path = checkpointPath(Dir);

  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(fileExists(Path));
  std::string Good = readFile(Path);
  ASSERT_GT(Good.size(), 40u);

  Ckpt.Resume = true;
  struct Mutation {
    const char *Name;
    std::string Bytes;
  };
  std::string Flipped = Good;
  Flipped[Good.size() / 2] =
      static_cast<char>(Flipped[Good.size() / 2] ^ 0x40);
  std::string BadMagic = Good;
  BadMagic[0] = 'X';
  const Mutation Mutations[] = {
      {"bit flip in the payload", Flipped},
      {"truncated file", Good.substr(0, Good.size() / 2)},
      {"bad magic", BadMagic},
      {"empty file", std::string()},
  };
  for (const Mutation &M : Mutations) {
    writeFile(Path, M.Bytes);
    AnalysisResult R = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
    EXPECT_TRUE(R.Resume.Attempted) << M.Name;
    EXPECT_FALSE(R.Resume.Resumed) << M.Name;
    EXPECT_FALSE(R.Resume.RejectReason.empty()) << M.Name;
    // The rejected snapshot degrades to a clean full analysis -- the
    // report matches an uninterrupted run exactly.
    EXPECT_EQ(renderRaceReportJson(R.Report, T),
              renderRaceReportJson(Clean.Report, T))
        << M.Name;
  }

  // Missing snapshot: also a clean start, but flagged differently.
  std::remove(Path.c_str());
  AnalysisResult R = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_TRUE(R.Resume.Attempted);
  EXPECT_TRUE(R.Resume.NoSnapshot);
  EXPECT_FALSE(R.Resume.Resumed);
  EXPECT_TRUE(R.Resume.RejectReason.empty());
}

/// Cuts a real snapshot, re-frames it under \p Version, and resumes from
/// it: the file must be refused on its version before any payload is
/// decoded, and the run must restart cleanly to the uninterrupted report.
void expectOldVersionRefused(uint8_t Version) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("old-version");
  std::string Path = checkpointPath(Dir);
  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  std::string Bytes = readFile(Path);
  // Framing: an 8-byte magic, then the version as a little-endian u32.
  ASSERT_GT(Bytes.size(), 12u);
  ASSERT_EQ(Bytes.substr(8, 4), std::string("\x08\0\0\0", 4));
  Bytes[8] = static_cast<char>(Version);
  writeFile(Path, Bytes);

  Ckpt.Resume = true;
  AnalysisResult R = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_TRUE(R.Resume.Attempted);
  EXPECT_FALSE(R.Resume.Resumed);
  EXPECT_NE(R.Resume.RejectReason.find("version " + std::to_string(Version)),
            std::string::npos)
      << R.Resume.RejectReason;
  EXPECT_FALSE(R.Report.Partial);
  EXPECT_EQ(renderRaceReport(R.Report, T), renderRaceReport(Clean.Report, T));
  EXPECT_EQ(renderRaceReportJson(R.Report, T),
            renderRaceReportJson(Clean.Report, T));
}

TEST(CheckpointTest, VersionFourSnapshotIsRefusedWithACleanRestart) {
  // Snapshot v5 dropped the atomicity scan cursors: the atomicity rule
  // re-sweeps every pair each round.
  expectOldVersionRefused(4);
}

TEST(CheckpointTest, VersionFiveSnapshotIsRefusedWithACleanRestart) {
  // Snapshot v6 dropped the send-queue scan cursors: the queue rules
  // re-sweep every send each round too.
  expectOldVersionRefused(5);
}

TEST(CheckpointTest, VersionSixSnapshotIsRefusedWithACleanRestart) {
  // Snapshot v7 dropped the oracle state (closure rows, chain clocks)
  // and the oracle tag: every resume rebuilds the oracle from the edges.
  expectOldVersionRefused(6);
}

TEST(CheckpointTest, VersionSevenSnapshotIsRefusedWithACleanRestart) {
  // Snapshot v8 keeps one detect frontier for both access sources: a
  // record cursor and one entry per committed race, where v7 carried a
  // use-major cursor with every race, or every surviving dynamic pair.
  expectOldVersionRefused(7);
}

TEST(CheckpointTest, MidFixpointSnapshotHoldsEdgesNotOracleState) {
  // A trace of several thousand HB nodes, snapshotted at the first
  // cadence point -- 4096 nodes into the pass, or after the first BFS
  // round: the file is the edges -- a small constant plus 8 bytes per
  // derived edge, where a closure alone would be N^2/8 bytes -- and a
  // resume from it rebuilds the oracle and renders the uninterrupted
  // run's JSON.
  apps::AppBuilder App("ckpt-large");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(1600);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  Trace T = runScenario(Model.S, RuntimeOptions());
  TaskIndex Index(T);
  HbOptions BaseOnly; // the graph's nodes, without a fixpoint
  BaseOnly.Reach = ReachMode::Bfs;
  BaseOnly.EnableAtomicityRule = false;
  BaseOnly.EnableQueueRules = false;
  ASSERT_GE(HbIndex(T, Index, BaseOnly).graph().numNodes(), 4000u);

  for (ReachMode Mode : {ReachMode::Chain, ReachMode::Bfs}) {
    SCOPED_TRACE(reachModeName(Mode));
    DetectorOptions Det;
    Det.Hb.Reach = Mode;
    std::string Want = renderRaceReportJson(analyzeTrace(T, Det).Report, T);

    // Keep the first snapshot -- what a crash right after that save
    // would leave behind.
    std::string Dir = freshCheckpointDir("mid-fixpoint");
    std::string Path = checkpointPath(Dir);
    std::string First;
    CheckpointOptions Ckpt;
    Ckpt.Directory = Dir;
    Ckpt.EveryMillis = 1e-9;
    Ckpt.AfterSave = [&] {
      if (First.empty())
        First = readFile(Path);
    };
    analyzeTrace(T, withCheckpoint(Det, Ckpt));
    ASSERT_FALSE(First.empty());
    writeFile(Path, First);
    AnalysisSnapshot Snap;
    ASSERT_TRUE(loadAnalysisSnapshot(Snap, Path).ok());
    ASSERT_EQ(Snap.Phase, SnapshotPhase::HbFixpoint);
    ASSERT_FALSE(Snap.Hb.Saturated);
    ASSERT_FALSE(Snap.Hb.DerivedEdges.empty());
    EXPECT_LE(First.size(), 512 + 8 * Snap.Hb.DerivedEdges.size());

    Ckpt.EveryMillis = 0;
    Ckpt.AfterSave = nullptr;
    Ckpt.Resume = true;
    AnalysisResult Resumed = analyzeTrace(T, withCheckpoint(Det, Ckpt));
    EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
    EXPECT_EQ(Resumed.Resume.Phase, "hb-fixpoint");
    EXPECT_EQ(renderRaceReportJson(Resumed.Report, T), Want);
  }
}

TEST(CheckpointTest, ResumeFromEveryRoundBoundaryIsBitIdentical) {
  // Cut the derivation at each of its cadence points in turn -- every
  // 4096 nodes of the pass, every BFS round boundary -- pass the frontier
  // through the snapshot file format, and resume: every resume must land
  // on the uninterrupted report byte for byte.
  for (auto [Mode, Volume] :
       {std::pair{ReachMode::Chain, size_t(2400)}, {ReachMode::Bfs, 300}}) {
    SCOPED_TRACE(reachModeName(Mode));
    Trace T = buildAppTrace(Volume);
    TaskIndex Index(T);
    HbOptions Opt;
    Opt.Reach = Mode;
    std::vector<HbFrontier> Frontiers;
    HbCheckpointing Every;
    Every.EveryMillis = 1e-9; // every cadence point
    Every.Save = [&](const HbFrontier &F) { Frontiers.push_back(F); };
    HbIndex Clean(T, Index, Opt, &Every);
    ASSERT_FALSE(Frontiers.empty());
    ASSERT_FALSE(Frontiers.front().Saturated); // one cut short of the end
    AccessDb Db = extractAccesses(T, Index);
    std::string Want = renderRaceReportJson(
        detectUseFreeRaces(T, Index, Db, Clean, DetectorOptions()), T);

    std::string Path = checkpointPath(freshCheckpointDir("rounds"));
    for (const HbFrontier &F : Frontiers) {
      SCOPED_TRACE("resumed after " + std::to_string(F.DerivedEdges.size()) +
                   " derived edges");
      AnalysisSnapshot Snap;
      Snap.Hb = F;
      ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());
      AnalysisSnapshot Back;
      ASSERT_TRUE(loadAnalysisSnapshot(Back, Path).ok());
      HbCheckpointing Ck;
      Ck.Resume = &Back.Hb;
      HbIndex Resumed(T, Index, Opt, &Ck);
      EXPECT_TRUE(Resumed.saturated());
      EXPECT_EQ(renderRaceReportJson(detectUseFreeRaces(T, Index, Db, Resumed,
                                                        DetectorOptions()),
                                     T),
                Want);
    }
  }
}

TEST(CheckpointTest, MismatchedTraceOrOptionsAreRejected) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("mismatch");

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(fileExists(checkpointPath(Dir)));

  // A different trace must not adopt this trace's fixpoint.
  apps::AppBuilder App("other");
  App.seedInterThreadRace("gamma");
  App.fillVolumeTo(120);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  Trace Other = runScenario(Model.S, RuntimeOptions());

  Ckpt.Resume = true;
  AnalysisResult R = analyzeTrace(Other, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_FALSE(R.Resume.Resumed);
  EXPECT_NE(R.Resume.RejectReason.find("does not match this trace"),
            std::string::npos)
      << R.Resume.RejectReason;

  // Same trace, different semantic options: also rejected.
  DetectorOptions Conv;
  Conv.Hb.Model = OrderingModel::Conventional;
  AnalysisResult R2 = analyzeTrace(T, withCheckpoint(Conv, Ckpt));
  EXPECT_FALSE(R2.Resume.Resumed);
  EXPECT_NE(R2.Resume.RejectReason.find("different analysis options"),
            std::string::npos)
      << R2.Resume.RejectReason;

  // Pure budget knobs are *not* semantic: a snapshot taken under one
  // deadline/oracle budget resumes under another.
  DetectorOptions OtherBudget;
  OtherBudget.Hb.Reach = ReachMode::Bfs;
  OtherBudget.Hb.MemLimitBytes = 1 << 20;
  AnalysisResult R3 = analyzeTrace(T, withCheckpoint(OtherBudget, Ckpt));
  EXPECT_TRUE(R3.Resume.Resumed) << R3.Resume.RejectReason;
}

TEST(CheckpointTest, CadenceSavesDuringACleanRunLeaveNoSnapshotBehind) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("cadence");

  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  Ckpt.EveryMillis = 1e-7; // save at every opportunity
  AnalysisResult R = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_FALSE(R.Report.Partial);
  EXPECT_TRUE(R.Resume.SaveError.empty()) << R.Resume.SaveError;

  // Intermediate snapshots were written, but a clean completion retires
  // the file so a stale snapshot can't shadow a finished analysis.
  EXPECT_FALSE(fileExists(checkpointPath(Dir)));

  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());
  EXPECT_EQ(renderRaceReportJson(R.Report, T),
            renderRaceReportJson(Clean.Report, T));
}

TEST(CheckpointTest, FingerprintAndDigestSeparateInputsAndSemantics) {
  Trace T = buildAppTrace();
  Trace T2 = buildAppTrace(); // deterministic runtime: same content
  EXPECT_EQ(traceFingerprint(T), traceFingerprint(T2));

  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 16);
  TaskId A = TB.addThread("t");
  TB.begin(A);
  TB.ptrWrite(A, 1, 2, M, 0);
  TB.end(A);
  Trace Small = TB.take();
  EXPECT_NE(traceFingerprint(T), traceFingerprint(Small));

  DetectorOptions Base;
  EXPECT_EQ(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(DetectorOptions(), false));
  EXPECT_NE(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(Base, true));
  DetectorOptions NoAtom;
  NoAtom.Hb.EnableAtomicityRule = false;
  EXPECT_NE(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(NoAtom, false));
  // Budget knobs don't change the digest.
  DetectorOptions Budget;
  Budget.Hb.Reach = ReachMode::Bfs;
  Budget.Hb.MemLimitBytes = 123;
  Budget.DeadlineMillis = 5;
  EXPECT_EQ(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(Budget, false));
}

} // namespace
