//===- bench/offline_scaling.cpp - Section 6.4 analysis-time scaling ----------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Regenerates the Section 6.4 observation: offline analysis time grows
// superlinearly with the number of events in a trace (the paper saw 30
// minutes to 10 hours for most apps and ~16 h / ~1 day for the
// event-heavy ToDoList and Music).  We sweep a synthetic app over event
// counts and report the analysis phase breakdown (access extraction,
// happens-before construction incl. the rule pass, race detection) and
// the happens-before memory footprint under the default chain oracle.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "support/Format.h"
#include "support/Timer.h"
#include "trace/FaultInjector.h"
#include "trace/TraceBuilder.h"
#include "trace/IngestSession.h"
#include "trace/TraceIO.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <thread>

using namespace cafa;
using namespace cafa::apps;

namespace {

/// Builds a synthetic app with \p Events events and a representative mix
/// of seeds.
Scenario buildSynthetic(uint64_t Events) {
  AppBuilder App("synthetic");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.seedConventionalRace("gamma");
  App.seedFlagGuardedFp("delta");
  App.addNaiveNoise(16, 4, 3);
  App.fillVolumeTo(Events, /*WorkPerTick=*/1);
  Table1Row Dummy;
  return App.finish(Dummy).S;
}

/// Builds a fully chainable event trace with \p Events event tasks
/// spread over a handful of loopers: every queue has exactly one
/// poster (each handler posts its own successor with no delay), so
/// queue-FIFO order coincides with post order, every consecutive pair
/// is covered by a post edge, and the happens-before relation is a
/// union of a few long chains.  This is the shape the chain oracle is
/// built for -- the cover has one chain per looper -- and the shape
/// where a transitive closure would drown in O(N^2 / 8) row bytes.  A small cross-looper use/free on one object seeds real
/// races so the detector scan is exercised, not skipped.
Trace buildChainable(uint64_t Events) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("handler", 128);
  const uint32_t NumQueues = 4;
  const uint64_t PerQueue = Events / NumQueues;

  TaskId Main = TB.addThread("main");
  std::vector<std::vector<TaskId>> Evs(NumQueues);
  for (uint32_t Q = 0; Q != NumQueues; ++Q) {
    QueueId Qu = TB.addQueue("looper" + std::to_string(Q));
    Evs[Q].reserve(PerQueue);
    for (uint64_t I = 0; I != PerQueue; ++I)
      Evs[Q].push_back(TB.addEvent("e", Qu));
  }

  // The main thread seeds each looper's first event; everything after
  // that is self-posted.
  TB.begin(Main);
  for (uint32_t Q = 0; Q != NumQueues; ++Q)
    TB.send(Main, Evs[Q][0]);
  TB.end(Main);

  for (uint32_t Q = 0; Q != NumQueues; ++Q) {
    for (uint64_t I = 0; I != PerQueue; ++I) {
      TaskId E = Evs[Q][I];
      TB.begin(E);
      // Mid-chain accesses to one shared object: looper 0 uses it,
      // looper 1 frees it.  The pairs sit on different loopers whose
      // only common ancestor is main, so they race.
      if (I == PerQueue / 2 && Q == 0) {
        TB.ptrRead(E, /*Var=*/5, /*Object=*/9, M, 1);
        TB.deref(E, /*Object=*/9, DerefKind::Invoke, M, 2);
      }
      if (I == PerQueue / 2 && Q == 1)
        TB.ptrWrite(E, /*Var=*/5, /*Object=*/0, M, 3);
      if (I + 1 != PerQueue)
        TB.send(E, Evs[Q][I + 1]);
      TB.end(E);
    }
  }
  return TB.take();
}

/// Chain-oracle scaling axis ("breaking the quadratic wall" in
/// EXPERIMENTS.md): analysis cost and happens-before memory under
/// ReachMode::Chain on chainable traces from 8k up to \p MaxEvents
/// (default 1M) event tasks.  The bytes/event column is the honesty
/// check on the O(N * chains) memory claim -- it must stay flat while
/// events grow 125x.  Rows up to 100k events also run the Bfs rounds and
/// byte-compare the reports (past that, its per-query cost makes the
/// rule sweeps quadratic).
void sweepChainScaling(uint64_t MaxEvents) {
  const uint64_t BfsVerifyMax = 100000;

  std::printf("\nchain-oracle scaling axis (single-poster chainable "
              "traces):\n");
  std::printf("%10s %10s %7s %10s %12s %11s %9s %14s\n", "events",
              "records", "chains", "hb(ms)", "detect(ms)", "hb-mem(MB)",
              "B/event", "verdict");

  for (uint64_t Events : {uint64_t(8000), uint64_t(100000),
                          uint64_t(250000), uint64_t(500000),
                          uint64_t(1000000)}) {
    if (Events > MaxEvents)
      break;
    Trace T = buildChainable(Events);

    DetectorOptions ChainOpt;
    ChainOpt.Hb.Reach = ReachMode::Chain;
    AnalysisResult R = analyzeTrace(T, ChainOpt);
    std::string Json = renderRaceReportJson(R.Report, T);

    std::string Verdict = "reference";
    std::string CrossModes;
    if (Events <= BfsVerifyMax) {
      DetectorOptions BfsOpt;
      BfsOpt.Hb.Reach = ReachMode::Bfs;
      AnalysisResult B = analyzeTrace(T, BfsOpt);
      Verdict = renderRaceReportJson(B.Report, T) == Json ? "=bfs"
                                                          : "DIFFERS(bfs)";
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "  [bfs hb=%.1fms mem=%.1fMB]",
                    B.HbBuildMillis,
                    static_cast<double>(B.HbMemoryBytes) / 1e6);
      CrossModes += Buf;
    }

    double PerEvent =
        Events ? static_cast<double>(R.HbMemoryBytes) / Events : 0;
    std::printf("%10s %10s %7zu %10.1f %12.1f %11.1f %9.1f %14s%s\n",
                withThousandsSep(Events).c_str(),
                withThousandsSep(T.numRecords()).c_str(),
                R.Degradation.ChainCount, R.HbBuildMillis, R.DetectMillis,
                static_cast<double>(R.HbMemoryBytes) / 1e6, PerEvent,
                Verdict.c_str(),
                R.Degradation.UsedReach == ReachMode::Chain
                    ? CrossModes.c_str()
                    : "  [DOWNGRADED]");
    if (R.Report.Races.empty())
      std::printf("%10s seeded race missing -- trace shape regressed\n",
                  "!!");
  }
  std::printf("flat B/event is the O(N * chains) memory contract; "
              "hb(ms) growth near 1x per 2x events is the near-linear "
              "claim\n");
}

/// Windowed-scan axis ("Bounding the memory wall" in EXPERIMENTS.md):
/// detector wall time and analysis-overlay high-water at retirement
/// cadences 4k / 64k over the trace stream, and the scan over an
/// extracted AccessDb ("full"), on the chainable family, chain HB
/// oracle on every row so the only variable is the access source.  The
/// overlay high-water column is the honesty check on the bounded-memory
/// claim -- it must stay flat while events grow 125x -- and every
/// windowed report is byte-compared against the full row's (the window
/// is a memory knob, never a result knob).  The stream source runs its
/// own extraction passes, so the full row's detect(ms) counts the
/// AccessDb extraction too; detect(ms) against the full row is the
/// streaming overhead.
void sweepWindowScaling(uint64_t MaxEvents) {
  std::printf("\nwindowed-scan axis (single-poster chainable traces, "
              "chain HB oracle):\n");
  std::printf("%10s %10s %8s %12s %14s %11s\n", "events", "records",
              "window", "detect(ms)", "overlay-hw(KB)", "verdict");

  for (uint64_t Events : {uint64_t(8000), uint64_t(100000),
                          uint64_t(1000000)}) {
    if (Events > MaxEvents)
      break;
    Trace T = buildChainable(Events);

    DetectorOptions FullOpt;
    FullOpt.Hb.Reach = ReachMode::Chain;
    FullOpt.WindowEvents = DetectorOptions::WindowOff;
    AnalysisResult Full = analyzeTrace(T, FullOpt);
    std::string FullJson = renderRaceReportJson(Full.Report, T);
    std::printf("%10s %10s %8s %12.1f %14s %11s\n",
                withThousandsSep(Events).c_str(),
                withThousandsSep(T.numRecords()).c_str(), "full",
                Full.ExtractMillis + Full.DetectMillis, "-", "reference");

    for (uint64_t W : {uint64_t(4096), uint64_t(65536)}) {
      DetectorOptions Opt = FullOpt;
      Opt.WindowEvents = W;
      AnalysisResult R = analyzeTrace(T, Opt);
      const char *Verdict =
          renderRaceReportJson(R.Report, T) == FullJson ? "identical"
                                                         : "DIFFERS";
      std::printf("%10s %10s %8s %12.1f %14.1f %11s\n",
                  withThousandsSep(Events).c_str(),
                  withThousandsSep(T.numRecords()).c_str(),
                  withThousandsSep(W).c_str(), R.DetectMillis,
                  static_cast<double>(
                      R.WindowedDetect.OverlayHighWaterBytes) /
                      1e3,
                  Verdict);
    }
  }
  std::printf("flat overlay-hw across 125x events is the bounded-memory "
              "contract; identical verdicts are the window-invariance "
              "contract\n");
}

/// Corrupted-input axis: how salvage cost, analysis cost, and the
/// report respond as an increasing fraction of a serialized trace is
/// damaged.  Calibrates the SalvageOptions error-budget defaults: the
/// sweep shows where reports stop being trustworthy, which is where the
/// budget should start rejecting (see EXPERIMENTS.md).
void sweepCorruption(const Trace &Pristine) {
  std::string Text = serializeTrace(Pristine);
  size_t Lines = 1;
  for (char C : Text)
    Lines += C == '\n';

  DetectorOptions Opt; // defaults: the configuration users actually run
  AnalysisResult Base = analyzeTrace(Pristine, Opt);
  std::string BaseJson = renderRaceReportJson(Base.Report, Pristine);

  std::printf("\ncorrupted-input axis (%s records, %s lines, default "
              "SalvageOptions):\n",
              withThousandsSep(Pristine.numRecords()).c_str(),
              withThousandsSep(Lines).c_str());
  std::printf("%8s %10s %10s %12s %12s %8s %8s %10s\n", "damage",
              "incidents", "dropped", "salvage(ms)", "analyze(ms)",
              "races", "delta", "verdict");

  const double Ratios[] = {0,    0.001, 0.005, 0.01, 0.05,
                           0.10, 0.25,  0.40,  0.60};
  for (double Ratio : Ratios) {
    // Damage ~Ratio of the lines, rotating through the line-local fault
    // families (cumulative TruncateAtOffset would collapse the stream
    // and measure truncation depth, not damage ratio).  Seeds are
    // fixed, so a surprising row is directly replayable.
    std::string Damaged = Text;
    uint64_t Faults = static_cast<uint64_t>(Ratio * Lines);
    for (uint64_t I = 0; I != Faults; ++I) {
      FaultKind Kind = static_cast<FaultKind>(1 + I % (NumFaultKinds - 1));
      Damaged = injectFault(Damaged, Kind, /*Seed=*/0x5eed + I).Text;
    }

    Timer SalvageTime;
    Trace T;
    IngestReport Ingest;
    Status S = ingestTrace(Damaged, T, Ingest);
    double SalvageMs = SalvageTime.elapsedWallMillis();
    if (!S.ok()) {
      std::printf("%7.1f%% %10s %10s %12.1f %12s %8s %8s %10s\n",
                  Ratio * 100,
                  withThousandsSep(Ingest.IncidentsTotal).c_str(),
                  withThousandsSep(Ingest.LinesDropped).c_str(),
                  SalvageMs, "-", "-", "-", "rejected");
      continue;
    }

    Timer AnalyzeTime;
    AnalysisResult R = analyzeTrace(T, Opt);
    double AnalyzeMs = AnalyzeTime.elapsedWallMillis();
    long Delta = static_cast<long>(R.Report.Races.size()) -
                 static_cast<long>(Base.Report.Races.size());
    const char *Verdict =
        Ratio == 0 ? (renderRaceReportJson(R.Report, T) == BaseJson
                          ? "identical"
                          : "DIFFERS")
                   : (Delta == 0 ? "same-count" : "drifted");
    std::printf("%7.1f%% %10s %10s %12.1f %12.1f %8zu %+8ld %10s\n",
                Ratio * 100,
                withThousandsSep(Ingest.IncidentsTotal).c_str(),
                withThousandsSep(Ingest.LinesDropped).c_str(), SalvageMs,
                AnalyzeMs, R.Report.Races.size(), Delta, Verdict);
  }
}

/// Ingest thread-count axis: wall time and speedup of sharded salvage
/// ingestion at 1/2/4/8 lexer threads over the same serialized dump,
/// with the bit-identity contract checked on every row (serialized
/// trace and report summary must match the 1-thread reference exactly).
/// Speedup is relative to the 1-thread sharded run; rows beyond the
/// machine's core count cannot speed up and say so honestly.
void sweepIngestThreads(const Trace &Pristine) {
  std::string Text = serializeTrace(Pristine);
  size_t Lines = 1;
  for (char C : Text)
    Lines += C == '\n';

  // Default shards: they are sized so an app-sized dump like this one
  // splits into enough pieces to keep every worker busy.
  IngestOptions Base;

  std::printf("\ningest thread axis (%s lines, %s bytes, %u hardware "
              "threads, %llu-byte shards):\n",
              withThousandsSep(Lines).c_str(),
              withThousandsSep(Text.size()).c_str(),
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(Base.ShardBytes));
  std::printf("%8s %12s %8s %10s\n", "threads", "ingest(ms)", "speedup",
              "verdict");

  std::string RefText;
  std::string RefSummary;
  double RefMs = 0;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    IngestOptions IOpt = Base;
    IOpt.Threads = Threads;

    // Best of three: ingest at these sizes is milliseconds, where a
    // single stray scheduler tick would otherwise dominate the row.
    double BestMs = 0;
    Trace T;
    IngestReport Report;
    for (int Rep = 0; Rep != 3; ++Rep) {
      Trace Candidate;
      IngestReport CandReport;
      Timer IngestTime;
      Status S = ingestTrace(Text, Candidate, CandReport, IOpt);
      double Ms = IngestTime.elapsedWallMillis();
      if (!S.ok()) {
        std::printf("%8u %12s %8s %10s\n", Threads, "-", "-", "FAILED");
        return;
      }
      if (Rep == 0 || Ms < BestMs) {
        BestMs = Ms;
        T = std::move(Candidate);
        Report = CandReport;
      }
    }

    std::string GotText = serializeTrace(T);
    std::string GotSummary = Report.summary();
    const char *Verdict;
    if (Threads == 1) {
      RefText = std::move(GotText);
      RefSummary = std::move(GotSummary);
      RefMs = BestMs;
      Verdict = "reference";
    } else {
      Verdict = (GotText == RefText && GotSummary == RefSummary)
                    ? "identical"
                    : "DIFFERS";
    }
    double Speedup = BestMs > 0 ? RefMs / BestMs : 0;
    std::printf("%8u %12.1f %7.2fx %10s\n", Threads, BestMs, Speedup,
                Verdict);
  }
}

/// Size of the file at \p Path in bytes (0 when absent).
size_t fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<size_t>(St.st_size)
                                        : 0;
}

/// Checkpoint cadence axis: analysis wall time with cadence saves at
/// several --checkpoint-every settings (0 = checkpointing off), plus a
/// cut-then-resume row.  The overhead column calibrates the default
/// cadence documented in EXPERIMENTS.md, next to how many snapshots
/// landed and the largest one's size; the resume row re-checks the
/// bit-identity contract under a real mid-scan cut.
void sweepCheckpointCadence(const Trace &T) {
  std::string Dir = "/tmp/cafa_bench_ckpt";
  ::system(("mkdir -p " + Dir).c_str());
  std::string Path = checkpointPath(Dir);

  DetectorOptions Opt; // defaults
  Timer BaseTime;
  AnalysisResult Base = analyzeTrace(T, Opt);
  double BaseMs = BaseTime.elapsedWallMillis();
  std::string BaseJson = renderRaceReportJson(Base.Report, T);

  std::printf("\ncheckpoint cadence axis (%s records, baseline "
              "%.1f ms):\n",
              withThousandsSep(T.numRecords()).c_str(), BaseMs);
  std::printf("%12s %12s %10s %6s %12s %10s\n", "cadence(ms)",
              "analyze(ms)", "overhead", "saves", "snap-bytes", "verdict");

  for (double Every : {5.0, 20.0, 100.0}) {
    std::remove(Path.c_str());
    AnalysisOptions AOpt(Opt);
    AOpt.Checkpoint.Directory = Dir;
    AOpt.Checkpoint.EveryMillis = Every;
    size_t Saves = 0, MaxBytes = 0;
    AOpt.Checkpoint.AfterSave = [&] {
      ++Saves;
      MaxBytes = std::max(MaxBytes, fileBytes(Path));
    };
    Timer Time;
    AnalysisResult R = analyzeTrace(T, AOpt);
    double Ms = Time.elapsedWallMillis();
    double Overhead = BaseMs > 0 ? (Ms - BaseMs) / BaseMs * 100 : 0;
    const char *Verdict =
        renderRaceReportJson(R.Report, T) == BaseJson ? "identical"
                                                      : "DIFFERS";
    std::printf("%12.0f %12.1f %+9.1f%% %6zu %12s %10s\n", Every, Ms,
                Overhead, Saves,
                Saves ? withThousandsSep(MaxBytes).c_str() : "-", Verdict);
  }

  // Cut mid-analysis with a deadline, then resume to completion: the
  // resumed report must match the uninterrupted baseline byte for byte.
  std::remove(Path.c_str());
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  AnalysisOptions CutOpt(Tiny);
  CutOpt.Checkpoint.Directory = Dir;
  Timer CutTime;
  AnalysisResult Cut = analyzeTrace(T, CutOpt);
  double CutMs = CutTime.elapsedWallMillis();
  size_t CutBytes = fileBytes(Path);

  AnalysisOptions ResumeOpt(Opt);
  ResumeOpt.Checkpoint.Directory = Dir;
  ResumeOpt.Checkpoint.Resume = true;
  Timer ResumeTime;
  AnalysisResult Resumed = analyzeTrace(T, ResumeOpt);
  double ResumeMs = ResumeTime.elapsedWallMillis();
  const char *Verdict = !Cut.Report.Partial ? "not-cut"
                        : renderRaceReportJson(Resumed.Report, T) == BaseJson
                            ? "identical"
                            : "DIFFERS";
  std::printf("%12s %12.1f %+9.1f%% %6d %12s %10s  (cut %.1f ms + resume)\n",
              "cut+resume", CutMs + ResumeMs,
              BaseMs > 0 ? (CutMs + ResumeMs - BaseMs) / BaseMs * 100 : 0,
              CutBytes ? 1 : 0, withThousandsSep(CutBytes).c_str(), Verdict,
              CutMs);
  std::remove(Path.c_str());
}

} // namespace

int main(int argc, char **argv) {
  uint64_t MaxEvents = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                : 8000;
  uint64_t ChainMaxEvents = argc > 2
                                ? std::strtoull(argv[2], nullptr, 10)
                                : 1000000;

  std::printf("%8s %10s %12s %10s %12s %12s\n", "events", "records",
              "extract(ms)", "hb(ms)", "detect(ms)", "hb-mem(MB)");
  for (uint64_t Events = 500; Events <= MaxEvents; Events *= 2) {
    Scenario S = buildSynthetic(Events);
    Trace T = runScenario(S, RuntimeOptions());

    AnalysisResult R = analyzeTrace(T, DetectorOptions());
    std::printf("%8s %10s %12.1f %10.1f %12.1f %12.1f\n",
                withThousandsSep(Events).c_str(),
                withThousandsSep(T.numRecords()).c_str(), R.ExtractMillis,
                R.HbBuildMillis, R.DetectMillis,
                static_cast<double>(R.HbMemoryBytes) / 1e6);
  }
  std::printf("\nshape to compare with the paper: the paper's offline "
              "fixpoint took 30 minutes to 10 hours per app; one forward\n"
              "pass over chain clocks grows with events times chains\n");

  // Fixed-size trace for the corruption sweep: the axis of interest is
  // damage ratio, not event count.
  Trace T = runScenario(buildSynthetic(2000), RuntimeOptions());
  sweepCorruption(T);

  // Thread axes over the largest swept trace, so the shards / rule
  // sweeps are big enough for the workers to have real work.
  Trace Large = runScenario(buildSynthetic(MaxEvents), RuntimeOptions());
  sweepIngestThreads(Large);
  sweepCheckpointCadence(Large);

  // Chain-oracle axis on its own trace family, last because it dwarfs
  // the others in size: the chainable family isolates how the chain
  // oracle scales ("Breaking the quadratic wall" in EXPERIMENTS.md).
  sweepChainScaling(ChainMaxEvents);

  // Windowed-scan axis on the same trace family: with the chain oracle
  // holding HB memory flat, this isolates what the streaming detector
  // adds -- a bounded analysis overlay in place of the O(accesses)
  // AccessDb, at the same reports.
  sweepWindowScaling(ChainMaxEvents);
  return 0;
}
