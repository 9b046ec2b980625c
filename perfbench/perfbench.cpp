//===- perfbench/perfbench.cpp - Trace-file-to-report benchmark -----------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Measures what a CAFA user waits on: the time and memory from a trace
// file on disk to a rendered JSON race report (and, for triage, to the
// verdict-stamped report).  Two subcommands, each run in its own process
// so the measuring process's peak RSS is its own:
//
//   cafa_perfbench setup --workload W --seed N --dir D
//       builds the app models or the chainable trace, writes the trace
//       files and a manifest into D, and prints "setup_s <seconds>".
//
//   cafa_perfbench run --workload W --seed N --dir D --seconds S
//                      --trace 0|1 --references F [--setup-s X]
//                      [--spans F] [--print-digests]
//       passes over the files in D.  --trace 0 calls the facade
//       (analyzeTrace) and reports the end-to-end metrics; --trace 1
//       alternates facade passes with passes that call each module
//       directly inside spans, and reports the per-layer metrics and the
//       tracing overhead.  Every output is checked against ground truth
//       and the committed reference digests in F; the last stdout line
//       is one JSON result object, and any failed check exits 1.
//
// perfbench/run.py builds this binary and drives both subcommands; see
// perfbench/README.md for the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "confirm/Confirm.h"
#include "support/Timer.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <vector>

using namespace cafa;
using namespace cafa::apps;
using namespace cafa::perfbench;

namespace {

/// Every thread knob is pinned by request, inside a 4-core budget.
constexpr unsigned NumThreads = 2;
/// Retirement cadence of chain-1m-window (the memory-pressure ladder's).
constexpr uint64_t WindowCadence = 65536;
/// The chain seed picks one of this many placements of the racing pair;
/// each placement has its own committed report digest.
constexpr uint64_t NumPlacements = 8;
/// Loopers of the chainable trace family.
constexpr uint32_t NumLoopers = 4;

enum class Kind { Apps, Chain, ChainWindow, Triage };

struct WorkloadSpec {
  const char *Name;
  Kind K;
  /// Wall seconds of one pass on the reference machine (4-core x86 VM).
  /// A run makes round(--seconds / this) passes, at least three, so the
  /// number of latency samples -- and with it which percentile is the
  /// tail -- does not depend on how fast a particular run happened to be.
  double NominalPassSeconds;
};

const WorkloadSpec Workloads[] = {
    {"apps", Kind::Apps, 3.0},
    {"chain-1m", Kind::Chain, 3.0},
    {"chain-1m-window", Kind::ChainWindow, 3.0},
    {"triage", Kind::Triage, 7.0},
};

struct Args {
  std::string Command;
  const WorkloadSpec *Workload = nullptr;
  uint64_t Seed = 0;
  std::string Dir;
  double Seconds = 10;
  bool Traced = false;
  std::string References;
  std::string SpanFile;
  double SetupSeconds = 0;
  bool PrintDigests = false;
  uint64_t ChainEvents = 1000000;
  std::vector<std::string> Apps;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: cafa_perfbench setup --workload W --seed N --dir D "
               "[--chain-events N] [--apps a,b,...]\n"
               "       cafa_perfbench run --workload W --seed N --dir D "
               "--seconds S --trace 0|1 --references F [--setup-s X] "
               "[--spans F] [--print-digests]\n",
               Msg);
  std::exit(2);
}

std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  for (std::string Item; std::getline(SS, Item, ',');)
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

Args parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    usage("missing subcommand");
  Args A;
  A.Command = Argv[1];
  if (A.Command != "setup" && A.Command != "run")
    usage("unknown subcommand");
  for (int I = 2; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--print-digests") {
      A.PrintDigests = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage("flag without a value");
    std::string Value = Argv[++I];
    if (Flag == "--workload") {
      for (const WorkloadSpec &W : Workloads)
        if (Value == W.Name)
          A.Workload = &W;
      if (!A.Workload)
        usage("unknown workload");
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Flag == "--dir") {
      A.Dir = Value;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), nullptr);
    } else if (Flag == "--trace") {
      A.Traced = Value == "1";
    } else if (Flag == "--references") {
      A.References = Value;
    } else if (Flag == "--spans") {
      A.SpanFile = Value;
    } else if (Flag == "--setup-s") {
      A.SetupSeconds = std::strtod(Value.c_str(), nullptr);
    } else if (Flag == "--chain-events") {
      A.ChainEvents = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Flag == "--apps") {
      A.Apps = splitCommas(Value);
    } else {
      usage("unknown flag");
    }
  }
  if (!A.Workload || A.Dir.empty())
    usage("--workload and --dir are required");
  if (A.ChainEvents < 8 * NumLoopers)
    usage("--chain-events too small");
  return A;
}

bool isChain(Kind K) { return K == Kind::Chain || K == Kind::ChainWindow; }

/// FNV-1a, 64 bit: the digest the reference file commits per output.
std::string digestHex(const std::string &Bytes) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Where the chain seed puts the racing use/free pair.
struct Placement {
  uint32_t UseLooper, FreeLooper;
  uint64_t UseAt, FreeAt;
};

Placement placementFor(uint64_t Index, uint64_t PerLooper) {
  Placement P;
  P.UseLooper = static_cast<uint32_t>(Index % NumLoopers);
  P.FreeLooper = static_cast<uint32_t>((P.UseLooper + 1 + Index / NumLoopers) %
                                       NumLoopers);
  P.UseAt = PerLooper * (2 + Index % 3) / 8;
  P.FreeAt = PerLooper * (3 + Index % 2) / 8;
  return P;
}

/// The single-poster chainable family of bench/offline_scaling: every
/// looper's events post their own successor, so happens-before is a few
/// long chains.  One cross-looper use/free pair on one object is the only
/// race.  Returns the trace and the task ids of the racing use and free.
Trace buildChainable(uint64_t Events, const Placement &P, TaskId &UseTask,
                     TaskId &FreeTask) {
  TraceBuilder TB;
  MethodId M = TB.addMethod("handler", 128);
  const uint64_t PerLooper = Events / NumLoopers;

  TaskId Main = TB.addThread("main");
  std::vector<std::vector<TaskId>> Evs(NumLoopers);
  for (uint32_t Q = 0; Q != NumLoopers; ++Q) {
    QueueId Qu = TB.addQueue("looper" + std::to_string(Q));
    Evs[Q].reserve(PerLooper);
    for (uint64_t I = 0; I != PerLooper; ++I)
      Evs[Q].push_back(TB.addEvent("e", Qu));
  }

  TB.begin(Main);
  for (uint32_t Q = 0; Q != NumLoopers; ++Q)
    TB.send(Main, Evs[Q][0]);
  TB.end(Main);

  for (uint32_t Q = 0; Q != NumLoopers; ++Q) {
    for (uint64_t I = 0; I != PerLooper; ++I) {
      TaskId E = Evs[Q][I];
      TB.begin(E);
      if (Q == P.UseLooper && I == P.UseAt) {
        TB.ptrRead(E, /*Var=*/5, /*Object=*/9, M, 1);
        TB.deref(E, /*Object=*/9, DerefKind::Invoke, M, 2);
      }
      if (Q == P.FreeLooper && I == P.FreeAt)
        TB.ptrWrite(E, /*Var=*/5, /*Object=*/0, M, 3);
      if (I + 1 != PerLooper)
        TB.send(E, Evs[Q][I + 1]);
      TB.end(E);
    }
  }
  UseTask = Evs[P.UseLooper][P.UseAt];
  FreeTask = Evs[P.FreeLooper][P.FreeAt];
  return TB.take();
}

/// One trace file of the workload, as listed in the manifest.
struct Input {
  std::string Name; ///< app name, or "chain"
  std::string Path;
  uint64_t Bytes = 0;
  /// Chain only: size, placement, and the expected racing tasks.
  uint64_t Events = 0;
  uint64_t PlacementIndex = 0;
  uint32_t UseTask = 0, FreeTask = 0;
  /// Apps and triage: the model (ground truth and replay scenario).
  std::shared_ptr<AppModel> Model;

  std::string reportKey() const {
    if (Name == "chain")
      return "report/chain/" + std::to_string(Events) + "/" +
             std::to_string(PlacementIndex);
    return "report/apps/" + Name;
  }
  std::string verdictKey() const { return "verdicts/" + Name; }
};

std::string manifestPath(const std::string &Dir) {
  return Dir + "/manifest.txt";
}

int runSetup(const Args &A) {
  Timer Total;
  std::ofstream Manifest(manifestPath(A.Dir));
  if (!Manifest) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 manifestPath(A.Dir).c_str());
    return 1;
  }
  if (isChain(A.Workload->K)) {
    uint64_t Index = A.Seed % NumPlacements;
    TaskId Use, Free;
    Trace T = buildChainable(A.ChainEvents,
                             placementFor(Index, A.ChainEvents / NumLoopers),
                             Use, Free);
    std::string Path = A.Dir + "/chain.trace";
    if (Status S = writeTraceFile(T, Path); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 1;
    }
    Manifest << "chain " << Path << ' ' << A.ChainEvents << ' ' << Index << ' '
             << Use.value() << ' ' << Free.value() << '\n';
  } else {
    std::vector<std::string> Names =
        A.Apps.empty() ? appNames() : A.Apps;
    std::mt19937_64 Rng(A.Seed);
    std::shuffle(Names.begin(), Names.end(), Rng);
    for (const std::string &Name : Names) {
      AppModel Model = buildApp(Name);
      Trace T = runScenario(Model.S, RuntimeOptions());
      std::string Path = A.Dir + "/" + Name + ".trace";
      if (Status S = writeTraceFile(T, Path); !S.ok()) {
        std::fprintf(stderr, "error: %s\n", S.message().c_str());
        return 1;
      }
      Manifest << "app " << Path << ' ' << Name << '\n';
    }
  }
  Manifest.close();
  if (!Manifest) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 manifestPath(A.Dir).c_str());
    return 1;
  }
  std::printf("setup_s %.9f\n",
              static_cast<double>(Total.elapsedWallNanos()) / 1e9);
  return 0;
}

bool loadManifest(const std::string &Dir, std::vector<Input> &Out) {
  std::ifstream In(manifestPath(Dir));
  if (!In)
    return false;
  for (std::string Line; std::getline(In, Line);) {
    std::istringstream LS(Line);
    std::string Tag;
    Input I;
    LS >> Tag >> I.Path;
    if (Tag == "chain") {
      I.Name = "chain";
      LS >> I.Events >> I.PlacementIndex >> I.UseTask >> I.FreeTask;
    } else if (Tag == "app") {
      LS >> I.Name;
    } else {
      return false;
    }
    if (!LS)
      return false;
    struct stat St;
    if (::stat(I.Path.c_str(), &St) != 0)
      return false;
    I.Bytes = static_cast<uint64_t>(St.st_size);
    Out.push_back(std::move(I));
  }
  return !Out.empty();
}

bool loadReferences(const std::string &Path,
                    std::map<std::string, std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key, Digest;
    if (LS >> Key >> Digest)
      Out[Key] = Digest;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// One trace, file to report
//===----------------------------------------------------------------------===//

struct Config {
  Kind K;
  DetectorOptions Detect;
  IngestOptions Ingest;
  ConfirmOptions Confirm;
  uint64_t Window = DetectorOptions::WindowOff;
};

Config makeConfig(Kind K) {
  Config C;
  C.K = K;
  C.Detect.Hb.Threads = NumThreads;
  C.Ingest.Threads = NumThreads;
  C.Confirm.Threads = NumThreads;
  // apps and triage keep the code's defaults for reach mode and window,
  // so a change of default is measured.
  if (isChain(K)) {
    C.Detect.Hb.Reach = ReachMode::Chain;
    C.Detect.WindowEvents =
        K == Kind::ChainWindow ? WindowCadence : DetectorOptions::WindowOff;
  }
  C.Window = resolveWindowEvents(C.Detect.WindowEvents);
  return C;
}

/// Everything one trace produced, for the correctness gate.
struct Outputs {
  Status Ingest;
  IngestReport IngestRep;
  Trace T;
  RaceReport Report;
  std::string Json;
  ConfirmSummary Confirm;
  std::string Stamped;
};

/// Counters of one traced trace (deterministic work, not time).  Summed
/// over a pass, except the memory high-waters, which take the maximum.
struct LayerCounts {
  uint64_t Records = 0, InputBytes = 0;
  uint64_t Rounds = 0, DerivedEdges = 0, HbBytes = 0, Chains = 0;
  uint64_t Accesses = 0, Candidates = 0, OrderedByHb = 0, Races = 0;
  uint64_t ReportBytes = 0;
  uint64_t OverlayHwBytes = 0, ReachRowsHw = 0;
  uint64_t Replays = 0, Confirmed = 0;
  /// Replays x the app's untraced runScenario time (triage probe).
  double RtWeightedMs = 0;
  std::string ReachMode;

  void add(const LayerCounts &O) {
    RtWeightedMs += O.RtWeightedMs;
    Records += O.Records;
    InputBytes += O.InputBytes;
    Rounds += O.Rounds;
    DerivedEdges += O.DerivedEdges;
    HbBytes = std::max(HbBytes, O.HbBytes);
    Chains += O.Chains;
    Accesses += O.Accesses;
    Candidates += O.Candidates;
    OrderedByHb += O.OrderedByHb;
    Races += O.Races;
    ReportBytes += O.ReportBytes;
    OverlayHwBytes = std::max(OverlayHwBytes, O.OverlayHwBytes);
    ReachRowsHw = std::max(ReachRowsHw, O.ReachRowsHw);
    Replays += O.Replays;
    Confirmed += O.Confirmed;
    if (ReachMode.empty())
      ReachMode = O.ReachMode;
  }
};

void confirmAndStamp(const Config &C, const Input &In, Outputs &O,
                     SpanRecorder *Rec, uint32_t TraceId, uint32_t Pass) {
  {
    ScopedSpan S(Rec, "confirm", TraceId, Pass);
    O.Confirm = confirmRaces(In.Model->S, O.T, O.Report, C.Confirm);
  }
  ScopedSpan S(Rec, "cafa.render_verdicts", TraceId, Pass);
  RaceDocument Doc = buildRaceDocument(O.Report, O.T);
  applyConfirmVerdicts(O.Confirm, Doc);
  O.Stamped = renderRaceReportJson(Doc);
}

/// The untraced path: the facade, exactly as a library user calls it.
void runFacade(const Config &C, const Input &In, Outputs &O) {
  O.Ingest = ingestTraceFile(In.Path, O.T, O.IngestRep, C.Ingest);
  if (!O.Ingest.ok())
    return;
  AnalysisResult R = analyzeTrace(O.T, C.Detect);
  O.Report = std::move(R.Report);
  O.Json = renderRaceReportJson(O.Report, O.T);
  if (C.K == Kind::Triage)
    confirmAndStamp(C, In, O, nullptr, 0, 0);
}

/// The traced path: analyzeTrace's steps, one module call per span.  The
/// correctness gate checks that it renders the facade's reports.  The
/// trace and task index outlive the call for the probes.
void runTraced(const Config &C, const Input &In, Outputs &O,
               std::unique_ptr<TaskIndex> &Index, LayerCounts &N,
               SpanRecorder &Rec, uint32_t TraceId, uint32_t Pass) {
  ScopedSpan Root(&Rec, "trace", TraceId, Pass);
  {
    ScopedSpan S(&Rec, "trace.ingest", TraceId, Pass);
    IngestSession Session(C.Ingest);
    {
      ScopedSpan F(&Rec, "trace.feed", TraceId, Pass);
      O.Ingest = Session.feedFile(In.Path);
    }
    if (O.Ingest.ok()) {
      ScopedSpan F(&Rec, "trace.finish", TraceId, Pass);
      O.Ingest = Session.finish(O.T, O.IngestRep);
    }
  }
  if (!O.Ingest.ok())
    return;
  N.Records = O.T.numRecords();
  N.InputBytes = In.Bytes;
  {
    ScopedSpan S(&Rec, "trace.stats", TraceId, Pass);
    (void)computeTraceStats(O.T);
  }
  {
    ScopedSpan S(&Rec, "hb.taskindex", TraceId, Pass);
    Index = std::make_unique<TaskIndex>(O.T);
  }
  std::unique_ptr<HbIndex> Hb;
  {
    ScopedSpan S(&Rec, "hb.build", TraceId, Pass);
    Hb = std::make_unique<HbIndex>(O.T, *Index, C.Detect.Hb);
  }
  const HbRuleStats &HS = Hb->ruleStats();
  N.Rounds = HS.FixpointRounds;
  N.DerivedEdges = HS.AtomicityEdges + HS.QueueRule1Edges +
                   HS.QueueRule2Edges + HS.QueueRule3Edges +
                   HS.QueueRule4Edges;
  N.HbBytes = Hb->memoryBytes();
  N.Chains = Hb->degradation().ChainCount;
  N.ReachMode = reachModeName(Hb->degradation().UsedReach);

  if (C.Window != DetectorOptions::WindowOff) {
    WindowedDetectStats WS;
    {
      ScopedSpan S(&Rec, "detect.windowed", TraceId, Pass);
      Hb->shedOracle();
      O.Report = detectUseFreeRacesWindowed(O.T, *Index, *Hb, C.Detect,
                                            C.Window, nullptr, &WS);
    }
    N.Accesses = WS.NumUses + WS.NumFrees;
    N.OverlayHwBytes = WS.OverlayHighWaterBytes;
    N.ReachRowsHw = WS.ReachHighWaterRows;
  } else {
    AccessDb Db;
    {
      ScopedSpan S(&Rec, "detect.extract", TraceId, Pass);
      Db = extractAccesses(O.T, *Index, nullptr);
    }
    {
      ScopedSpan S(&Rec, "detect.scan", TraceId, Pass);
      O.Report = detectUseFreeRaces(O.T, *Index, Db, *Hb, C.Detect);
    }
    N.Accesses = Db.Uses.size() + Db.Frees.size();
  }
  // analyzeTrace releases its index and tables before returning; the
  // teardown is part of the facade's cost (unattributed self time here).
  Hb.reset();
  N.Candidates = O.Report.Filters.CandidatePairs;
  N.OrderedByHb = O.Report.Filters.OrderedByHb;
  N.Races = O.Report.Races.size();
  {
    ScopedSpan S(&Rec, "cafa.render", TraceId, Pass);
    O.Json = renderRaceReportJson(O.Report, O.T);
  }
  N.ReportBytes = O.Json.size();
  if (C.K == Kind::Triage) {
    confirmAndStamp(C, In, O, &Rec, TraceId, Pass);
    N.Replays = O.Confirm.SchedulesRun;
    N.Confirmed = O.Confirm.Confirmed;
  }
}

//===----------------------------------------------------------------------===//
// Correctness gate
//===----------------------------------------------------------------------===//

struct Gate {
  const std::map<std::string, std::string> &Refs;
  bool PrintDigests;

  /// Returns an empty string when every check on \p O passes.
  std::string check(const Input &In, const Outputs &O) const {
    if (PrintDigests) {
      std::printf("digest %s %s\n", In.reportKey().c_str(),
                  digestHex(O.Json).c_str());
      if (!O.Stamped.empty())
        std::printf("digest %s %s\n", In.verdictKey().c_str(),
                    digestHex(O.Stamped).c_str());
    }
    if (!O.Ingest.ok())
      return "ingest failed: " + O.Ingest.message();
    if (!O.IngestRep.clean())
      return "ingest salvaged the trace";
    if (O.Report.Partial)
      return "report is partial (" + O.Report.PartialCause + ")";
    if (std::string E = digest(In.reportKey(), O.Json); !E.empty())
      return E;
    if (In.Name == "chain") {
      if (O.Report.Races.size() != 1)
        return "expected exactly the seeded race, got " +
               std::to_string(O.Report.Races.size());
      const UseFreeRace &R = O.Report.Races.front();
      if (O.T.methodName(R.Use.Method) != "handler" || R.Use.Pc != 1 ||
          R.Free.Pc != 3 || R.Use.Task.value() != In.UseTask ||
          R.Free.Task.value() != In.FreeTask)
        return "seeded race reported at the wrong site";
      return "";
    }
    Table1Row Row = evaluateReport(O.Report, In.Model->Truth, O.T, In.Name);
    if (Row.Unexpected != 0 || Row.Missed != 0 ||
        Row.Reported != In.Model->PaperRow.Reported)
      return "ground truth mismatch: reported " +
             std::to_string(Row.Reported) + ", unexpected " +
             std::to_string(Row.Unexpected) + ", missed " +
             std::to_string(Row.Missed);
    if (O.Stamped.empty())
      return "";
    if (O.Confirm.Confirmed == 0)
      return "no race confirmed";
    return digest(In.verdictKey(), O.Stamped);
  }

  std::string digest(const std::string &Key, const std::string &Bytes) const {
    std::string Got = digestHex(Bytes);
    auto It = Refs.find(Key);
    if (It == Refs.end())
      return "no reference digest for " + Key;
    if (It->second != Got)
      return Key + " digest " + Got + " != reference " + It->second;
    return "";
  }
};

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest percentile with at least ten samples above it; the
/// maximum when there are too few samples for one.
double tail(std::vector<double> V, double &Percentile) {
  std::sort(V.begin(), V.end());
  if (V.size() < 11) {
    Percentile = 100;
    return V.empty() ? 0 : V.back();
  }
  size_t Idx = V.size() - 11;
  Percentile = 100.0 * static_cast<double>(Idx + 1) /
               static_cast<double>(V.size());
  return V[Idx];
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double processCpuMs() {
  return static_cast<double>(cpuTimeNanos()) / 1e6;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Metrics printed by name and unit; the JSON result carries the ones
/// BENCHMARK.json declares for the mode.
struct MetricSink {
  std::vector<Metric> Json;

  void print(const std::string &Name, double Value, const char *Unit,
             const std::string &Note = "") {
    std::printf("metric %-28s %.6f %s%s%s\n", Name.c_str(), Value, Unit,
                Note.empty() ? "" : "  ", Note.c_str());
  }
  void emit(const std::string &Name, double Value, const char *Unit,
            const std::string &Note = "") {
    print(Name, Value, Unit, Note);
    Json.push_back({Name, Value, Unit});
  }
  void result(bool Correct, uint64_t Attempted, uint64_t Failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (size_t I = 0; I != Json.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Json[I].Name.c_str(), Json[I].Value,
                  Json[I].Unit.c_str());
    std::printf("}}\n");
  }
};

/// Per-pass sums of span durations and self times, by span name.
struct PassSpans {
  std::map<std::string, double> TotalMs, SelfMs;
};

std::map<uint32_t, PassSpans> aggregateSpans(const SpanRecorder &Rec) {
  std::map<uint32_t, PassSpans> Out;
  std::vector<uint64_t> Self = Rec.selfNanos();
  const std::vector<Span> &Spans = Rec.spans();
  for (size_t I = 0; I != Spans.size(); ++I) {
    PassSpans &P = Out[Spans[I].Pass];
    P.TotalMs[Spans[I].Name] += static_cast<double>(Spans[I].durationNs()) / 1e6;
    P.SelfMs[Spans[I].Name] += static_cast<double>(Self[I]) / 1e6;
  }
  return Out;
}

/// Median over traced passes of one span name's total (or self) time.
double spanMedian(const std::map<uint32_t, PassSpans> &Passes,
                  const std::string &Name, bool SelfTime = false) {
  std::vector<double> V;
  for (const auto &[Pass, P] : Passes) {
    const auto &M = SelfTime ? P.SelfMs : P.TotalMs;
    auto It = M.find(Name);
    V.push_back(It == M.end() ? 0 : It->second);
  }
  return median(V);
}

void clearKnobs() {
  for (const char *Knob :
       {"CAFA_REACH", "CAFA_WINDOW", "CAFA_ANALYSIS_THREADS",
        "CAFA_INGEST_THREADS", "CAFA_CONFIRM", "CAFA_HB_PROFILE"})
    ::unsetenv(Knob);
}

int runMeasure(const Args &A) {
  const WorkloadSpec &W = *A.Workload;
  std::map<std::string, std::string> Refs;
  if (!loadReferences(A.References, Refs)) {
    std::fprintf(stderr, "error: cannot read references %s\n",
                 A.References.c_str());
    return 2;
  }
  std::vector<Input> Inputs;
  if (!loadManifest(A.Dir, Inputs)) {
    std::fprintf(stderr, "error: no usable manifest in %s (run setup)\n",
                 A.Dir.c_str());
    return 2;
  }
  for (Input &In : Inputs)
    if (In.Name != "chain")
      In.Model = std::make_shared<AppModel>(buildApp(In.Name));

  Config C = makeConfig(W.K);
  std::printf("config workload=%s seed=%llu traces=%zu reach=%s window=%s "
              "ingest_threads=%u analysis_threads=%u confirm_threads=%u "
              "confirm_budget=%u traced=%d\n",
              W.Name, static_cast<unsigned long long>(A.Seed), Inputs.size(),
              reachModeName(resolveReachMode(C.Detect.Hb.Reach)),
              C.Window == DetectorOptions::WindowOff
                  ? "off"
                  : std::to_string(C.Window).c_str(),
              IngestSession::resolveThreads(C.Ingest.Threads),
              C.Detect.Hb.Threads, C.Confirm.Threads,
              resolveConfirmBound(C.Confirm.MaxSchedules), A.Traced ? 1 : 0);

  // At least three measured passes, so every per-trace median is a real
  // one.  Traced runs alternate facade and traced passes.
  unsigned Passes = std::max(
      3u, static_cast<unsigned>(std::lround(A.Seconds / W.NominalPassSeconds)));
  // Pass 0 warms the page cache and the allocator; it is checked like
  // every other pass, and only its memory peak is measured.
  Passes += 1;

  Gate G{Refs, A.PrintDigests};
  SpanRecorder Rec;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<double> PassWallMs, PassCpuMs, TraceMs;
  double FirstPassRssMb = 0;
  std::vector<std::vector<double>> InputMs(Inputs.size());
  std::vector<LayerCounts> PassCounts;
  uint64_t RacesConfirmed = 0;
  uint32_t NextTraceId = 0;

  for (unsigned Pass = 0; Pass != Passes; ++Pass) {
    bool Warmup = Pass == 0;
    bool TracedPass = A.Traced && !Warmup && Pass % 2 == 0;
    double WallMs = 0, CpuMs = 0;
    LayerCounts PassN;
    uint64_t PassConfirmed = 0;
    for (size_t InIdx = 0; InIdx != Inputs.size(); ++InIdx) {
      const Input &In = Inputs[InIdx];
      uint32_t TraceId = NextTraceId++;
      Outputs O;
      std::unique_ptr<TaskIndex> Index;
      LayerCounts N;
      double Cpu0 = processCpuMs();
      uint64_t Wall0 = wallTimeNanos();
      if (TracedPass)
        runTraced(C, In, O, Index, N, Rec, TraceId, Pass);
      else
        runFacade(C, In, O);
      double Ms = static_cast<double>(wallTimeNanos() - Wall0) / 1e6;
      double Cpu = processCpuMs() - Cpu0;

      // Probes: outside the trace span, never charged to a layer.
      if (TracedPass && Index) {
        HbOptions Conv = C.Detect.Hb;
        Conv.Model = OrderingModel::Conventional;
        if (C.Window != DetectorOptions::WindowOff)
          Conv.Reach = ReachMode::Bfs; // what the windowed scan builds
        ScopedSpan S(&Rec, "probe.hb_conventional", TraceId, Pass);
        HbIndex ConvHb(O.T, *Index, Conv);
      }
      bool ProbeOk = true;
      if (TracedPass && C.K == Kind::Triage) {
        RuntimeOptions Rt = C.Confirm.Rt;
        Rt.Tracing = false;
        Rt.MirrorStream = false;
        uint64_t Rt0 = wallTimeNanos();
        {
          ScopedSpan S(&Rec, "probe.rt_run", TraceId, Pass);
          Runtime Replay(In.Model->S, Rt);
          ProbeOk = Replay.run().ok();
        }
        N.RtWeightedMs = static_cast<double>(N.Replays) *
                         static_cast<double>(wallTimeNanos() - Rt0) / 1e6;
      }

      ++Attempted;
      std::string Err = G.check(In, O);
      if (Err.empty() && !ProbeOk)
        Err = "replay probe failed";
      if (!Err.empty()) {
        ++Failed;
        std::printf("FAIL pass %u %s: %s\n", Pass, In.Name.c_str(),
                    Err.c_str());
      }
      PassConfirmed += O.Confirm.Confirmed;
      if (!TracedPass && !Warmup) {
        WallMs += Ms;
        CpuMs += Cpu;
        TraceMs.push_back(Ms);
        InputMs[InIdx].push_back(Ms);
      }
      PassN.add(N);
    }
    if (TracedPass) {
      PassCounts.push_back(PassN);
    } else if (!Warmup) {
      PassWallMs.push_back(WallMs);
      PassCpuMs.push_back(CpuMs);
    }
    if (Warmup)
      FirstPassRssMb = peakRssMb();
    RacesConfirmed = PassConfirmed;
    std::printf("pass %u %s %.1f ms\n", Pass,
                Warmup ? "warmup" : TracedPass ? "traced" : "facade",
                TracedPass || Warmup ? 0.0 : WallMs);
  }

  bool Correct = Failed == 0;
  MetricSink Out;
  Out.print("ops_failed_frac",
            static_cast<double>(Failed) / static_cast<double>(Attempted),
            "ratio");
  if (W.K == Kind::Triage)
    Out.print("races_confirmed", static_cast<double>(RacesConfirmed), "count");

  if (!A.Traced) {
    double Pct = 0;
    double Tail = tail(TraceMs, Pct);
    char Note[64];
    std::snprintf(Note, sizeof(Note), "p%.1f of n=%zu", Pct, TraceMs.size());
    Out.emit("pass_s", median(PassWallMs) / 1e3, "s",
             "median of " + std::to_string(PassWallMs.size()) + " passes");
    Out.emit("cpu_s", median(PassCpuMs) / 1e3, "s");
    // Each trace's median over passes first: the median over all samples
    // would sit on the extreme samples of whichever two traces straddle
    // the middle.
    std::vector<double> PerTrace;
    for (const std::vector<double> &V : InputMs)
      PerTrace.push_back(median(V));
    Out.emit("trace_ms_p50", median(PerTrace), "ms",
             "median of " + std::to_string(PerTrace.size()) +
                 " per-trace medians");
    Out.emit("trace_ms_tail", Tail, "ms", Note);
    // The first pass's peak, as a user running the workload once sees it:
    // later passes in the same process inherit the allocator's retained
    // and fragmented heap, which ratchets the high-water mark up by up
    // to 10% at a pass that varies from run to run.
    Out.emit("peak_rss_mb", FirstPassRssMb, "MB", "first (warm-up) pass");
    Out.emit("setup_s", A.SetupSeconds, "s");
    Out.result(Correct, Attempted, Failed);
    return Correct ? 0 : 1;
  }

  // Traced run: per-layer metrics are medians over the traced passes
  // (only those record spans).
  std::map<uint32_t, PassSpans> TracedSpans = aggregateSpans(Rec);
  const LayerCounts &N = PassCounts.front();
  auto M = [&](const char *Name) { return spanMedian(TracedSpans, Name); };
  double IngestMs = M("trace.ingest");
  bool Windowed = C.Window != DetectorOptions::WindowOff;
  double ScanMs = Windowed ? M("detect.windowed") : M("detect.scan");

  Out.emit("trace.ingest_ms", IngestMs, "ms");
  Out.emit("trace.feed_ms", M("trace.feed"), "ms");
  Out.emit("trace.finish_ms", M("trace.finish"), "ms");
  Out.emit("trace.mb_per_s",
           IngestMs > 0 ? static_cast<double>(N.InputBytes) / 1e6 /
                              (IngestMs / 1e3)
                        : 0,
           "MB/s");
  Out.emit("trace.records", static_cast<double>(N.Records), "count");
  Out.emit("hb.taskindex_ms", M("hb.taskindex"), "ms");
  Out.emit("hb.build_ms", M("hb.build"), "ms");
  Out.emit("hb.rounds", static_cast<double>(N.Rounds), "count");
  Out.emit("hb.derived_edges", static_cast<double>(N.DerivedEdges), "count");
  Out.emit("hb.bytes", static_cast<double>(N.HbBytes), "B");
  Out.emit("hb.chains", static_cast<double>(N.Chains), "count");
  Out.emit("hb.conventional_build_ms", M("probe.hb_conventional"), "ms",
           "probe");
  Out.emit("detect.ms", M("detect.extract") + ScanMs, "ms");
  Out.emit("detect.scan_ms", ScanMs, "ms",
           Windowed ? "windowed scan" : "batch scan");
  Out.emit("detect.accesses", static_cast<double>(N.Accesses), "count");
  Out.emit("detect.candidates", static_cast<double>(N.Candidates), "count");
  Out.emit("detect.ordered_by_hb", static_cast<double>(N.OrderedByHb),
           "count");
  Out.emit("detect.race_yield",
           N.Candidates ? static_cast<double>(N.Races) /
                              static_cast<double>(N.Candidates)
                        : 0,
           "ratio");
  Out.emit("cafa.render_ms", M("cafa.render"), "ms");
  Out.emit("cafa.report_bytes", static_cast<double>(N.ReportBytes), "B");
  Out.emit("root.self_ms", spanMedian(TracedSpans, "trace", true), "ms",
           "part of the trace spans no layer span covers");
  double Facade = median(PassWallMs);
  double Traced = M("trace");
  Out.emit("bench.tracing_overhead_pct",
           Facade > 0 ? (Traced - Facade) / Facade * 100 : 0, "%",
           "traced trace spans vs facade passes");

  // Layers only some workloads exercise: printed, not in the JSON result,
  // which carries the same metric set on every workload.
  std::printf("label hb.reach_mode %s\n", N.ReachMode.c_str());
  if (Windowed) {
    Out.print("detect.windowed_ms", ScanMs, "ms");
    Out.print("detect.overlay_hw_kb",
              static_cast<double>(N.OverlayHwBytes) / 1e3, "kB");
    Out.print("detect.reach_rows_hw", static_cast<double>(N.ReachRowsHw),
              "count");
  } else {
    Out.print("detect.extract_ms", M("detect.extract"), "ms");
  }
  if (W.K == Kind::Triage) {
    Out.print("confirm.ms", M("confirm"), "ms");
    Out.print("confirm.replays", static_cast<double>(N.Replays), "count");
    Out.print("confirm.yield",
              N.Replays ? static_cast<double>(N.Confirmed) /
                              static_cast<double>(N.Replays)
                        : 0,
              "ratio");
    Out.print("cafa.render_verdicts_ms", M("cafa.render_verdicts"), "ms");
    // Weighted by each app's replays, so confirm.replays x rt.run_ms is
    // the replay floor of confirm.ms.
    std::vector<double> PerPass;
    for (const LayerCounts &P : PassCounts)
      PerPass.push_back(P.Replays ? P.RtWeightedMs /
                                        static_cast<double>(P.Replays)
                                  : 0);
    Out.print("rt.run_ms", median(PerPass), "ms",
              "probe, replay-weighted mean over apps");
  }

  // Self time of every span name (median over traced passes).
  std::set<std::string> Names;
  for (const auto &[Pass, P] : TracedSpans)
    for (const auto &[Name, Ms] : P.SelfMs)
      Names.insert(Name);
  for (const std::string &Name : Names)
    std::printf("span %-24s total %10.3f ms  self %10.3f ms\n", Name.c_str(),
                spanMedian(TracedSpans, Name),
                spanMedian(TracedSpans, Name, true));

  if (!A.SpanFile.empty() && !Rec.writeJsonLines(A.SpanFile)) {
    std::fprintf(stderr, "error: cannot write spans to %s\n",
                 A.SpanFile.c_str());
    return 2;
  }
  Out.result(Correct, Attempted, Failed);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  clearKnobs();
  Args A = parseArgs(Argc, Argv);
  return A.Command == "setup" ? runSetup(A) : runMeasure(A);
}
