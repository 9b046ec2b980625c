//===- fuzz/salvage_analyze_fuzz.cpp - Fuzz salvage -> analyze ----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Fuzz entry over the full ingestion-to-report pipeline: arbitrary bytes
// are salvaged as a trace, validated, and analyzed; the salvaged trace
// is then re-serialized, damaged once more by the deterministic
// FaultInjector (the mutation family and seed are derived from the
// input, so every crash is replayable), and pushed through the pipeline
// again.  The properties under test are the robustness contract from
// docs/robustness.md -- no byte stream may crash, hang, or trip
// ASan/UBSan anywhere in salvage -> validate -> analyze -- and the
// byte-identity contract: every complete report renders the same JSON
// whether the pair scan reads an extracted AccessDb or the trace stream,
// under each reachability oracle, and as the use-major reference scan
// of tests/ReferenceScan.h renders it -- with the same rule-engine
// counters wherever the forward pass derives the rules (the BFS leg
// runs fixpoint rounds, whose counters count their own proposals).  A
// divergence prints both renders and aborts.  Agreement between the
// legs cannot see a rule-engine fault they all share, so on traces of
// at most 4,096 records the saturated relation of each engine, pass and
// rounds, is also checked against the naive fixpoint of
// tests/ReferenceHb.h, task pair by task pair; a mismatch prints both
// answers and aborts.
//
// Two build modes (see fuzz/CMakeLists.txt):
//   - default: a standalone driver; run it over corpus files/directories
//     (or no arguments for the built-in seeds).  Registered in ctest as
//     fuzz_driver_smoke so the harness itself can never rot.
//   - -DCAFA_FUZZER=ON (clang only): a libFuzzer binary for coverage-
//     guided fuzzing under ASan/UBSan, smoke-run in CI.
//
//===----------------------------------------------------------------------===//

#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "trace/FaultInjector.h"
#include "trace/IngestSession.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include "ReferenceHb.h"
#include "ReferenceScan.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace cafa;

namespace {

uint64_t fnv1a(const uint8_t *Data, size_t Size) {
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// Salvaged streams whose renders were compared, and those skipped
/// because a deadline left some report partial (a cut report depends on
/// timing, so it has no byte-identity contract).
int Compared = 0;
int Skipped = 0;

/// Salvaged traces whose relation was checked against the naive
/// fixpoint, and the task pairs asked.
int RelationChecked = 0;
uint64_t PairsChecked = 0;

/// One analysis configuration of the differential: each differs from
/// the first in exactly one axis.
struct Leg {
  const char *Name;
  uint64_t Window;
  ReachMode Reach;
  /// Render referenceScan over the same relation instead of running
  /// analyzeTrace.
  bool Reference;
};

const Leg Legs[] = {
    {"accessdb/chain", DetectorOptions::WindowOff, ReachMode::Chain, false},
    {"window 16", 16, ReachMode::Chain, false},
    {"reach bfs", DetectorOptions::WindowOff, ReachMode::Bfs, false},
    {"reference scan", DetectorOptions::WindowOff, ReachMode::Chain, true},
};

/// The BFS oracle's fixpoint rounds are far slower than the pass
/// (minutes on a 3k-event app), so its leg runs only on traces up to
/// this size; so does the naive fixpoint, which rebuilds its closure
/// every round.
constexpr size_t BfsMaxRecords = 4096;

/// Past this many ordered pairs of begun tasks, the relation check asks
/// a seeded sample of this many instead of every pair.
constexpr uint64_t MaxRelationPairs = 10000;

/// Checks the saturated relation of \p Mode's engine (default cap, no
/// deadline) against ReferenceHb on every ordered pair of begun tasks,
/// or on a sample seeded by \p Seed.  The legs below compare the
/// oracles with each other; only this sees a rule that none of them
/// derives.  An unsaturated build has no complete relation to compare
/// and is left out.
void checkRelation(const Trace &T, const ReferenceHb &Ref, ReachMode Mode,
                   uint64_t Seed) {
  TaskIndex Index(T);
  HbOptions Opt;
  Opt.Reach = Mode;
  HbIndex Hb(T, Index, Opt);
  if (!Hb.saturated())
    return;
  std::vector<TaskId> Begun;
  for (uint32_t I = 0; I != T.numTasks(); ++I)
    if (Hb.graph().beginNode(TaskId(I)).isValid())
      Begun.push_back(TaskId(I));
  auto check = [&](TaskId A, TaskId B) {
    ++PairsChecked;
    bool Want = Ref.taskOrdered(A, B), Got = Hb.taskOrdered(A, B);
    if (Want == Got)
      return;
    std::fprintf(stderr,
                 "relation divergence: task %u before task %u? naive "
                 "fixpoint says %s, HbIndex (%s) says %s\n",
                 A.value(), B.value(), Want ? "yes" : "no",
                 reachModeName(Mode), Got ? "yes" : "no");
    std::abort();
  };
  const uint64_t N = Begun.size();
  if (N * (N - 1) <= MaxRelationPairs) { // unsigned: 0 pairs at N = 0
    for (TaskId A : Begun)
      for (TaskId B : Begun)
        if (A != B)
          check(A, B);
  } else {
    Rng R(Seed);
    for (uint64_t I = 0; I != MaxRelationPairs; ++I) {
      uint64_t A = R.below(N), B = R.below(N - 1);
      check(Begun[A], Begun[B + (B >= A)]);
    }
  }
}

/// The rule engine's counters, which the legs deriving by the forward
/// pass must agree on too: they see what the report cannot, such as a
/// pass that derives an edge twice.
std::string counters(const HbRuleStats &S) {
  return formatString("rounds %u, derived atomicity %llu, queue %llu %llu "
                      "%llu %llu\n",
                      S.FixpointRounds,
                      static_cast<unsigned long long>(S.AtomicityEdges),
                      static_cast<unsigned long long>(S.QueueRule1Edges),
                      static_cast<unsigned long long>(S.QueueRule2Edges),
                      static_cast<unsigned long long>(S.QueueRule3Edges),
                      static_cast<unsigned long long>(S.QueueRule4Edges));
}

/// Salvage -> validate -> analyze one candidate stream under every leg,
/// then compare the renders.  Returns false when salvage rejected the
/// stream outright (over error budget).
bool pipelineOnce(const std::string &Text) {
  Trace T;
  IngestReport Ingest;
  // Tiny shards + two lexer threads: every input exercises the sharded
  // merge path (mid-record shard cuts, name-id remapping), not just the
  // single-shard fast case.
  IngestOptions IOpt;
  IOpt.Threads = 2;
  IOpt.ShardBytes = 64;
  if (!ingestTrace(Text, T, Ingest, IOpt).ok())
    return false;

  // Salvaged traces may legitimately contain events that were begun but
  // never sent; anything else validateTrace flags is a salvage bug the
  // assert below should surface loudly.
  ValidateOptions VOpt;
  VOpt.AllowUnsentEvents = true;
  if (!validateTrace(T, VOpt).ok())
    return false;

  if (T.numRecords() <= BfsMaxRecords) {
    TaskIndex Index(T);
    ReferenceHb Ref(T, Index);
    uint64_t Seed =
        fnv1a(reinterpret_cast<const uint8_t *>(Text.data()), Text.size());
    checkRelation(T, Ref, ReachMode::Chain, Seed);
    checkRelation(T, Ref, ReachMode::Bfs, Seed);
    ++RelationChecked;
  }

  // Keep per-input cost bounded: a pass/round cap for pathological
  // queue structures, and a deadline backstop so a quadratic corner
  // becomes a partial report instead of a hang.  The window leg's tiny
  // sweep cadence puts the stream's retirement horizons under fuzz on
  // exactly the hostile shapes salvage produces (quiet tasks, dangling
  // events, mid-record damage), and the reference leg checks the scan's
  // record-order enumeration and online commit against every pair in
  // use-major order.
  std::string FirstJson, FirstCounters;
  for (const Leg &L : Legs) {
    if (L.Reach == ReachMode::Bfs && T.numRecords() > BfsMaxRecords)
      continue;
    DetectorOptions Opt;
    Opt.Hb.MaxFixpointRounds = 8;
    Opt.DeadlineMillis = 50;
    Opt.WindowEvents = L.Window;
    Opt.Hb.Reach = L.Reach;
    RaceReport Report;
    HbRuleStats Stats;
    if (L.Reference) {
      TaskIndex Index(T);
      Opt.Hb.DeadlineMillis = Opt.DeadlineMillis;
      HbIndex Hb(T, Index, Opt.Hb);
      Report = referenceScan(T, extractAccesses(T, Index), Hb, Opt);
      Stats = Hb.ruleStats();
    } else {
      AnalysisResult R = analyzeTrace(T, Opt);
      Report = std::move(R.Report);
      Stats = R.HbStats;
    }
    if (Report.Partial) {
      ++Skipped;
      return true;
    }
    std::string Json = renderRaceReportJson(Report, T);
    std::string Counters = counters(Stats);
    if (&L == Legs) {
      FirstJson = Json;
      FirstCounters = Counters;
    }
    if (L.Reach == ReachMode::Bfs)
      Counters = FirstCounters;
    if (Json != FirstJson || Counters != FirstCounters) {
      std::fprintf(stderr,
                   "divergence: '%s' renders differently from '%s'\n"
                   "--- %s ---\n%s%s\n--- %s ---\n%s%s\n",
                   L.Name, Legs[0].Name, Legs[0].Name, FirstJson.c_str(),
                   FirstCounters.c_str(), L.Name, Json.c_str(),
                   Counters.c_str());
      std::abort();
    }
  }
  ++Compared;
  return true;
}

int runOne(const uint8_t *Data, size_t Size) {
  constexpr size_t MaxInputBytes = 1 << 20;
  if (Size > MaxInputBytes)
    return 0;
  std::string Text(reinterpret_cast<const char *>(Data), Size);
  if (!pipelineOnce(Text))
    return 0;

  // Round 2: re-serialize what salvage kept, injure it again with a
  // mutation chosen by the input itself, and re-ingest.  This reaches
  // the "almost well-formed" neighbourhood that raw fuzz bytes rarely
  // hit.
  Trace T;
  IngestReport Ingest;
  if (!ingestTrace(Text, T, Ingest).ok())
    return 0;
  uint64_t H = fnv1a(Data, Size);
  FaultKind Kind = static_cast<FaultKind>(H % NumFaultKinds);
  InjectedFault Fault = injectFault(serializeTrace(T), Kind, H);
  pipelineOnce(Fault.Text);
  return 0;
}

} // namespace

#if defined(CAFA_LIBFUZZER)

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  return runOne(Data, Size);
}

#else // standalone driver

#include <algorithm>
#include <dirent.h>
#include <fstream>
#include <sys/stat.h>

namespace {

int Executed = 0;

void runBuffer(const std::string &Bytes, const std::string &Name) {
  runOne(reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size());
  ++Executed;
  std::fprintf(stderr, "ok %s (%zu bytes)\n", Name.c_str(), Bytes.size());
}

void runFile(const std::string &Path);

void runPath(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0) {
    std::fprintf(stderr, "error: cannot stat %s\n", Path.c_str());
    return;
  }
  if (!S_ISDIR(St.st_mode)) {
    runFile(Path);
    return;
  }
  DIR *Dir = ::opendir(Path.c_str());
  if (!Dir)
    return;
  std::vector<std::string> Entries;
  while (struct dirent *E = ::readdir(Dir)) {
    if (E->d_name[0] == '.')
      continue;
    Entries.push_back(Path + "/" + E->d_name);
  }
  ::closedir(Dir);
  // Deterministic order regardless of readdir's.
  std::sort(Entries.begin(), Entries.end());
  for (const std::string &E : Entries)
    runPath(E);
}

void runFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
    return;
  }
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  runBuffer(Bytes, Path);
}

/// Built-in seeds for an argument-less run: a valid header, a tiny
/// well-formed trace, and assorted damage around both.
const char *BuiltinSeeds[] = {
    "",
    "cafa-trace v1\n",
    "cafa-trace v1\nthread 0 main\nmethod 0 run 16\n"
    "begin 0 0\nptrwrite 0 1 2 0 3\nend 0 0\n",
    "cafa-trace v1\nthread 0 main\nbegin 0",
    "garbage\nmore garbage\n\x01\x02\xff\n",
    "cafa-trace v1\nthread 99999999999999999999 x\n",
};

} // namespace

int main(int argc, char **argv) {
  if (argc <= 1) {
    int I = 0;
    for (const char *Seed : BuiltinSeeds)
      runBuffer(Seed, "builtin-" + std::to_string(I++));
  } else {
    for (int I = 1; I != argc; ++I)
      runPath(argv[I]);
  }
  std::fprintf(stderr, "executed %d input(s)\n", Executed);
  std::fprintf(stderr,
               "differential: compared %d salvaged stream(s), skipped %d "
               "with a partial report\n",
               Compared, Skipped);
  std::fprintf(stderr,
               "relation: checked %d salvaged trace(s) against the naive "
               "fixpoint on %llu task pair(s)\n",
               RelationChecked, static_cast<unsigned long long>(PairsChecked));
  return Executed > 0 ? 0 : 1;
}

#endif // CAFA_LIBFUZZER
