//===- examples/offline_analyzer.cpp - Trace files like the real tool ---------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's deployment splits collection from analysis: the ROM writes
// the logger device, the analyzer (often on a server) reads the dump.
// This example does the same with trace files:
//
//   $ ./offline_analyzer record zxing /tmp/zxing.trace   # collect
//   $ ./offline_analyzer analyze /tmp/zxing.trace        # analyze later
//   $ ./offline_analyzer analyze /tmp/zxing.trace --json # CI-friendly
//   $ ./offline_analyzer analyze /tmp/zxing.trace --reach=chain
//   $ ./offline_analyzer analyze /tmp/big.trace --window=65536
//   $ ./offline_analyzer dot /tmp/zxing.trace            # Graphviz digest
//
// Both analyze and dot read a trace the same way: the salvage lexer, the
// grammar's only reader, then validateTrace.
//
// --reach selects the happens-before reachability oracle (chain, the
// default, or bfs; see docs/hb-reachability.md).  Unset, the choice
// also honors the CAFA_REACH environment variable.
// --window=<records> runs the windowed streaming detector scan
// (docs/windowed-analysis.md): bounded resident overlay, byte-identical
// report.  Unset, CAFA_WINDOW decides; --window=off pins the batch scan
// even under memory pressure.  The stats block (stderr) reports the
// process peak RSS and the window overlay's high-water mark.
// Damaged dumps are salvaged (--strict insists on a pristine file: any
// line salvage would drop or repair is an error); --mem-limit=<bytes>
// and --deadline=<ms> engage the graceful-degradation ladder
// (docs/robustness.md).
//
// Ingestion is sharded across --ingest-threads=<n> worker threads
// (default: hardware concurrency; the CAFA_INGEST_THREADS environment
// variable overrides the default).  The salvaged trace and its report
// are bit-identical at every thread count, so the flag is purely a
// wall-clock knob (docs/trace-format.md, "Sharded ingestion").
//
// Crash-safe checkpointing (docs/robustness.md): --checkpoint-dir=<dir>
// snapshots analysis progress there (atomically, at --checkpoint-every=
// <ms> cadence and always when a deadline cuts a phase); --resume picks
// an interrupted analysis back up from the snapshot and continues to a
// report bit-identical to an uninterrupted run.  A corrupt or mismatched
// snapshot is rejected with a diagnostic and the analysis restarts
// cleanly.  Ingestion keeps no checkpoint: a crash mid-ingest re-reads
// the trace, which is faster than resuming a merge snapshot.
//
// Scripted callers triage on the exit code -- the report goes to stdout,
// every diagnostic to stderr:
//   0  clean analysis, no races
//   1  clean analysis, races reported
//   2  unreadable input (parse/ingest failure) or usage error
//   3  analysis completed degraded: the input needed salvage repairs, or
//      a deadline cut the analysis short (report flagged partial)
//   4  clean analysis resumed from a checkpoint and completed (races
//      or not -- the report says; distinguishes "finished the
//      interrupted job" for orchestrating scripts)
// dot exits 0, 2 or 3 by the same rules: clean, unreadable, salvaged.
// The full contract is pinned by tests/integration/ExitCodesTest and
// documented in docs/robustness.md §6; the fleet supervisor's retry
// policy (docs/fleet.md) keys off exactly these codes.
//
// The --chaos-* flags are fault-injection hooks for the fleet chaos
// suite (worker hang / crash-after-checkpoint / OOM); they exist so
// supervisor tests can script worker failures deterministically and
// have no effect on analysis results.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "confirm/Confirm.h"
#include "hb/DotExport.h"
#include "support/MappedFile.h"
#include "support/Timer.h"
#include "trace/IngestSession.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace cafa;
using namespace cafa::apps;

static int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s record <app> <trace-file>      collect a trace\n"
               "  %s analyze <trace-file> [--json] [--strict]\n"
               "     [--ingest-threads=<n>] [--analysis-threads=<n>]\n"
               "     [--reach=chain|bfs]\n"
               "     [--window=<records>|--window=off]\n"
               "     [--mem-limit=<bytes>] [--deadline=<ms>]\n"
               "     [--checkpoint-dir=<dir>] [--checkpoint-every=<ms>]\n"
               "     [--resume]                     analyze\n"
               "     [--confirm[=<n>] --app=<name>] replay-confirm races\n"
               "     [--chaos-hang-ms=<n> | --chaos-kill-after-save |\n"
               "      --chaos-alloc-mb=<n>]  fault hooks for the fleet\n"
               "                             chaos suite (docs/fleet.md)\n"
               "  %s dot <trace-file>               task-order Graphviz\n"
               "     (reads as analyze does; exits 0 clean, 2 unreadable,\n"
               "      3 salvaged)\n"
               "exit codes: 0 no races, 1 races, 2 unreadable input,\n"
               "            3 degraded/partial analysis,\n"
               "            4 resumed from checkpoint and completed\n"
               "apps:",
               Prog, Prog, Prog);
  for (const std::string &Name : appNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// The reading contract analyze and dot share.  An ingest failure, or a
/// trace validateTrace rejects (unsent events allowed: salvage admits
/// them), is unreadable input; a salvaged trace's ingest summary goes to
/// stderr.  Returns false after saying why the trace is unreadable.
static bool acceptIngested(const Status &IngestStatus,
                           const IngestReport &Ingested, const Trace &T) {
  if (!IngestStatus.ok()) {
    std::fprintf(stderr, "error: %s\n%s", IngestStatus.message().c_str(),
                 Ingested.summary().c_str());
    return false;
  }
  if (!Ingested.clean())
    std::fprintf(stderr, "%s", Ingested.summary().c_str());
  ValidateOptions VOpt;
  VOpt.AllowUnsentEvents = true;
  if (Status S = validateTrace(T, VOpt); !S.ok()) {
    std::fprintf(stderr, "invalid trace: %s\n", S.message().c_str());
    return false;
  }
  return true;
}

int main(int argc, char **argv) {
  // Traces are mapped, and fleet and daemon workers map paths they do
  // not own: a file truncated mid-analysis must exit 2, not SIGBUS.
  installTruncatedMappingHandler();

  if (argc >= 4 && std::strcmp(argv[1], "record") == 0) {
    AppModel Model = buildApp(argv[2]);
    RuntimeStats Stats;
    Trace T = runScenario(Model.S, RuntimeOptions(), &Stats);
    if (Status S = writeTraceFile(T, argv[3]); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 1;
    }
    std::printf("recorded %zu records (%llu events) to %s\n",
                T.numRecords(),
                static_cast<unsigned long long>(Stats.EventsProcessed),
                argv[3]);
    return 0;
  }

  if (argc >= 3 && std::strcmp(argv[1], "analyze") == 0) {
    bool Json = false;
    DetectorOptions Options;
    IngestOptions Ingest;
    CheckpointOptions Ckpt;
    unsigned long ChaosHangMillis = 0;
    bool ChaosKillAfterSave = false;
    unsigned long ChaosAllocMb = 0;
    bool Confirm = false;
    unsigned ConfirmBound = 0; // 0 = auto (CAFA_CONFIRM, else 4)
    std::string AppName;
    for (int I = 3; I != argc; ++I) {
      if (std::strcmp(argv[I], "--json") == 0) {
        Json = true;
      } else if (std::strcmp(argv[I], "--strict") == 0) {
        Ingest.Salvage.Strict = true;
      } else if (std::strncmp(argv[I], "--ingest-threads=", 17) == 0) {
        char *End = nullptr;
        unsigned long N = std::strtoul(argv[I] + 17, &End, 10);
        if (End == argv[I] + 17 || *End != '\0' || N == 0)
          return usage(argv[0]);
        Ingest.Threads = static_cast<unsigned>(N);
      } else if (std::strncmp(argv[I], "--analysis-threads=", 19) == 0) {
        char *End = nullptr;
        unsigned long N = std::strtoul(argv[I] + 19, &End, 10);
        if (End == argv[I] + 19 || *End != '\0' || N == 0)
          return usage(argv[0]);
        Options.Hb.Threads = static_cast<unsigned>(N);
      } else if (std::strcmp(argv[I], "--reach=chain") == 0) {
        Options.Hb.Reach = ReachMode::Chain;
      } else if (std::strcmp(argv[I], "--reach=bfs") == 0) {
        Options.Hb.Reach = ReachMode::Bfs;
      } else if (std::strcmp(argv[I], "--window=off") == 0) {
        Options.WindowEvents = DetectorOptions::WindowOff;
      } else if (std::strncmp(argv[I], "--window=", 9) == 0) {
        char *End = nullptr;
        unsigned long long N = std::strtoull(argv[I] + 9, &End, 10);
        if (End == argv[I] + 9 || *End != '\0' || N == 0)
          return usage(argv[0]);
        Options.WindowEvents = N;
      } else if (std::strncmp(argv[I], "--mem-limit=", 12) == 0) {
        Options.Hb.MemLimitBytes =
            std::strtoull(argv[I] + 12, nullptr, 10);
      } else if (std::strncmp(argv[I], "--deadline=", 11) == 0) {
        Options.DeadlineMillis = std::strtod(argv[I] + 11, nullptr);
      } else if (std::strncmp(argv[I], "--checkpoint-dir=", 17) == 0) {
        Ckpt.Directory = argv[I] + 17;
      } else if (std::strncmp(argv[I], "--checkpoint-every=", 19) == 0) {
        Ckpt.EveryMillis = std::strtod(argv[I] + 19, nullptr);
      } else if (std::strcmp(argv[I], "--resume") == 0) {
        Ckpt.Resume = true;
      } else if (std::strcmp(argv[I], "--confirm") == 0) {
        Confirm = true;
      } else if (std::strncmp(argv[I], "--confirm=", 10) == 0) {
        char *End = nullptr;
        unsigned long N = std::strtoul(argv[I] + 10, &End, 10);
        if (End == argv[I] + 10 || *End != '\0' || N == 0)
          return usage(argv[0]);
        Confirm = true;
        ConfirmBound = static_cast<unsigned>(N);
      } else if (std::strncmp(argv[I], "--app=", 6) == 0) {
        AppName = argv[I] + 6;
      } else if (std::strncmp(argv[I], "--chaos-hang-ms=", 16) == 0) {
        ChaosHangMillis = std::strtoul(argv[I] + 16, nullptr, 10);
      } else if (std::strcmp(argv[I], "--chaos-kill-after-save") == 0) {
        ChaosKillAfterSave = true;
      } else if (std::strncmp(argv[I], "--chaos-alloc-mb=", 17) == 0) {
        ChaosAllocMb = std::strtoul(argv[I] + 17, nullptr, 10);
      } else {
        return usage(argv[0]);
      }
    }
    if (ChaosKillAfterSave && !Ckpt.enabled()) {
      std::fprintf(stderr, "error: --chaos-kill-after-save needs "
                           "--checkpoint-dir=<dir>\n");
      return 2;
    }
    if ((Ckpt.Resume || Ckpt.EveryMillis > 0) && !Ckpt.enabled()) {
      std::fprintf(stderr, "error: --resume/--checkpoint-every need "
                           "--checkpoint-dir=<dir>\n");
      return 2;
    }
    if (Confirm) {
      // Confirmation replays the scenario; traces do not carry their
      // app model, so the caller must say which one produced the trace.
      if (AppName.empty()) {
        std::fprintf(stderr, "error: --confirm needs --app=<name> (the "
                             "trace does not name its scenario)\n");
        return 2;
      }
      bool Known = false;
      for (const std::string &Name : appNames())
        Known = Known || Name == AppName;
      if (!Known) {
        std::fprintf(stderr, "error: unknown app '%s'\n", AppName.c_str());
        return usage(argv[0]);
      }
    }

    // A non-windowed run slurps the whole input; pre-check its size
    // against --mem-limit so an oversized dump fails with a usage error
    // up front instead of OOMing mid-ingest.  A windowed run streams
    // from the mapping, so the budget applies to the overlay instead.
    if (Options.Hb.MemLimitBytes > 0 &&
        resolveWindowEvents(Options.WindowEvents) ==
            DetectorOptions::WindowOff)
      Ingest.MaxInputBytes = Options.Hb.MemLimitBytes;

    Trace T;
    IngestReport Ingested;
    Timer IngestTimer;
    Status IngestStatus = ingestTraceFile(argv[2], T, Ingested, Ingest);
    const double IngestMillis = IngestTimer.elapsedWallMillis();
    if (!acceptIngested(IngestStatus, Ingested, T))
      return 2;

    // Chaos hooks (fleet chaos suite; see the file header).  The hang
    // and allocation land *before* analyzeTrace so --deadline cannot
    // mask them: a hung worker looks hung, an OOM-jailed worker dies on
    // the allocation.
    std::vector<char> ChaosBallast;
    if (ChaosAllocMb > 0) {
      ChaosBallast.resize(static_cast<size_t>(ChaosAllocMb) << 20);
      // Touch every page so the jail sees committed memory, not just a
      // reservation.
      for (size_t I = 0; I < ChaosBallast.size(); I += 4096)
        ChaosBallast[I] = 0x5A;
    }
    if (ChaosHangMillis > 0)
      ::usleep(ChaosHangMillis * 1000);
    if (ChaosKillAfterSave) {
      // Die the way a real worker crash does: SIGKILL mid-analysis, but
      // only once a snapshot exists on disk -- the scenario where
      // "retry is resume" must hold.  Killing from the save itself means
      // the run can never finish (and retire the snapshot) first.
      Ckpt.AfterSave = [] { ::kill(::getpid(), SIGKILL); };
    }

    AnalysisOptions AOpt(Options);
    AOpt.Checkpoint = Ckpt;
    AnalysisResult R = analyzeTrace(T, AOpt);
    const ResumeOutcome &Res = R.Resume;
    if (Res.Attempted) {
      if (Res.Resumed)
        std::fprintf(stderr,
                     "note: resumed from checkpoint (phase %s, %u fixpoint "
                     "rounds done)\n",
                     Res.Phase.c_str(), Res.HbRoundsDone);
      else if (Res.NoSnapshot)
        std::fprintf(stderr,
                     "note: no checkpoint found, starting fresh\n");
      else
        std::fprintf(stderr,
                     "warning: checkpoint rejected (%s), restarting "
                     "analysis cleanly\n",
                     Res.RejectReason.c_str());
    }
    if (!Res.SaveError.empty())
      std::fprintf(stderr,
                   "warning: checkpoint save failed (%s); analysis "
                   "continues but is not resumable\n",
                   Res.SaveError.c_str());
    if (Res.HasBaseline) {
      std::fprintf(stderr,
                   "note: vs interrupted run: %u race(s) confirmed, %u "
                   "new, %zu retracted\n",
                   Res.ConfirmedRaces, Res.NewRaces,
                   Res.RetractedRaces.size());
      for (const std::string &Label : Res.RetractedRaces)
        std::fprintf(stderr, "note: retracted (provisional race "
                             "disappeared): %s\n",
                     Label.c_str());
    }
    if (R.Degradation.DowngradedForMemory)
      std::fprintf(stderr,
                   "note: reachability oracle downgraded %s -> %s to fit "
                   "--mem-limit (results unaffected)\n",
                   reachModeName(R.Degradation.RequestedReach),
                   reachModeName(R.Degradation.UsedReach));
    if (R.WindowEventsUsed)
      std::fprintf(stderr,
                   "note: windowed scan (window %llu records%s; results "
                   "unaffected)\n",
                   static_cast<unsigned long long>(R.WindowEventsUsed),
                   R.WindowShedByMemory ? ", engaged by --mem-limit" : "");
    if (R.Report.Partial)
      std::fprintf(stderr, "warning: partial analysis (%s)\n",
                   R.Report.PartialCause.c_str());
    // Peak RSS covers the whole process (trace included); the overlay
    // high-water is the windowed scan's own resident analysis state.
    struct rusage Usage;
    ::getrusage(RUSAGE_SELF, &Usage);
    unsigned long long PeakRssBytes =
        static_cast<unsigned long long>(Usage.ru_maxrss) * 1024ull;
    if (!Json) {
      std::fprintf(stderr, "%s",
                   renderTraceStats(R.TraceStatistics).c_str());
      // Throughput needs the input size, which only a regular file has.
      std::fprintf(stderr, "analysis: ingest %.1f ms", IngestMillis);
      int64_t InputBytes = MappedFile::regularFileSize(argv[2]);
      if (InputBytes >= 0 && IngestMillis > 0)
        std::fprintf(stderr, " (%.1f MB/s)",
                     static_cast<double>(InputBytes) / 1e3 / IngestMillis);
      std::fprintf(stderr,
                   ", extract %.1f ms, happens-before %.1f ms "
                   "(%u fixpoint rounds), detect %.1f ms\n",
                   R.ExtractMillis, R.HbBuildMillis,
                   R.HbStats.FixpointRounds, R.DetectMillis);
      std::fprintf(stderr,
                   "memory: peak rss %llu bytes, happens-before %zu bytes",
                   PeakRssBytes, R.HbMemoryBytes);
      if (R.WindowEventsUsed)
        std::fprintf(stderr,
                     ", window overlay high-water %zu bytes (%zu "
                     "reachability rows x %u chains, retained %zu bytes)",
                     R.WindowedDetect.OverlayHighWaterBytes,
                     R.WindowedDetect.ReachHighWaterRows,
                     R.WindowedDetect.Chains,
                     R.WindowedDetect.RetainedHighWaterBytes);
      std::fprintf(stderr, "\n\n");
    } else {
      // One machine-readable stats line on stderr; stdout stays the
      // report alone so byte-compare harnesses are unaffected.
      std::fprintf(stderr,
                   "{\"stats\":{\"ingest_ms\":%.1f,\"peak_rss_bytes\":%llu,"
                   "\"hb_bytes\":%zu,\"window_events\":%llu,"
                   "\"overlay_high_water_bytes\":%zu,"
                   "\"reach_high_water_rows\":%zu,\"chains\":%u,"
                   "\"retained_high_water_bytes\":%zu}}\n",
                   IngestMillis, PeakRssBytes, R.HbMemoryBytes,
                   static_cast<unsigned long long>(R.WindowEventsUsed),
                   R.WindowedDetect.OverlayHighWaterBytes,
                   R.WindowedDetect.ReachHighWaterRows,
                   R.WindowedDetect.Chains,
                   R.WindowedDetect.RetainedHighWaterBytes);
    }
    RaceDocument Doc = buildRaceDocument(R.Report, T);
    if (Confirm) {
      AppModel Model = buildApp(AppName);
      ConfirmOptions COpt;
      COpt.MaxSchedules = ConfirmBound;
      COpt.Threads = Options.Hb.Threads;
      ConfirmSummary CSum = confirmRaces(Model.S, T, R.Report, COpt);
      applyConfirmVerdicts(CSum, Doc);
      std::fprintf(stderr,
                   "confirm: %u confirmed, %u infeasible, %u unconfirmed "
                   "(%llu replay(s), %u fixpoint round(s))\n",
                   CSum.Confirmed, CSum.Infeasible, CSum.Unconfirmed,
                   static_cast<unsigned long long>(CSum.SchedulesRun),
                   CSum.FixpointRounds);
      for (size_t I = 0; I < CSum.PerRace.size(); ++I)
        std::fprintf(stderr, "confirm #%zu: %s\n", I + 1,
                     CSum.PerRace[I].Detail.c_str());
    }
    std::printf("%s", Json ? renderRaceReportJson(Doc).c_str()
                           : renderRaceReportText(Doc).c_str());
    if (R.Report.Partial || !Ingested.clean())
      return 3;
    if (Res.Resumed)
      return 4;
    return R.Report.Races.empty() ? 0 : 1;
  }

  if (argc >= 3 && std::strcmp(argv[1], "dot") == 0) {
    Trace T;
    IngestReport Ingested;
    if (!acceptIngested(ingestTraceFile(argv[2], T, Ingested), Ingested, T))
      return 2;
    TaskIndex Index(T);
    HbIndex Hb(T, Index, HbOptions());
    std::printf("%s", exportTaskOrderDot(Hb, T).c_str());
    return Ingested.clean() ? 0 : 3;
  }

  return usage(argv[0]);
}
