//===- confirm/Confirm.cpp - Race confirmation by controlled replay -----------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "confirm/Confirm.h"

#include "detect/Accesses.h"
#include "hb/HbIndex.h"
#include "support/Format.h"
#include "support/Resolve.h"
#include "support/WorkerPool.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>

using namespace cafa;

unsigned cafa::resolveConfirmBound(unsigned Requested) {
  unsigned Resolved = resolveRequestEnv<unsigned>(
      Requested, 0u, "CAFA_CONFIRM",
      [](const char *Env) -> std::optional<unsigned> {
        char *End = nullptr;
        unsigned long Value = std::strtoul(Env, &End, 10);
        if (End == Env || *End != '\0' || Value == 0)
          return std::nullopt;
        return static_cast<unsigned>(std::min(Value, 1024ul));
      },
      [] { return 4u; });
  return std::min(Resolved, 1024u);
}

namespace {

/// Translates trace task ids into replay TaskPicks.
///
/// The trace task table records each task's entry handler and trace ids
/// equal creation order, so "the Ordinal'th task created with entry E"
/// can be computed here by the same per-entry counting rule the
/// runtime's resolvePicks applies at creation time.  Handlers are
/// matched to module methods *by name*, not by raw id, so a trace
/// serialized and re-read still resolves against the live app model.
///
/// The correspondence assumes the replayed prefix creates same-entry
/// tasks in the trace's relative order.  Externally injected events and
/// boot threads always do (their creation is time-driven, not
/// schedule-driven); tasks spawned by reordered handlers may not, which
/// costs budget but never a wrong confirmation -- a mis-resolved pick
/// either holds nothing (the hold expires at quiescence) or holds a
/// task whose replay then simply fails to crash at the predicted site.
class TaskPicker {
public:
  TaskPicker(const Trace &T, const Module &M) {
    std::map<std::string, MethodId> ByName;
    for (size_t I = 0; I < M.numMethods(); ++I) {
      MethodId Id(static_cast<uint32_t>(I));
      ByName.emplace(M.methodName(Id), Id);
    }
    Picks.resize(T.numTasks());
    Nameable.assign(T.numTasks(), false);
    std::vector<uint32_t> NextOrdinal(M.numMethods(), 0);
    for (size_t I = 0; I < T.numTasks(); ++I) {
      const TaskInfo &Info = T.taskInfo(TaskId(static_cast<uint32_t>(I)));
      if (!Info.Handler.isValid())
        continue;
      auto It = ByName.find(T.methodName(Info.Handler));
      if (It == ByName.end())
        continue;
      MethodId Entry = It->second;
      Picks[I].Entry = Entry;
      Picks[I].Ordinal = NextOrdinal[Entry.index()]++;
      Nameable[I] = true;
    }
  }

  bool pick(TaskId Id, TaskPick &Out) const {
    if (Id.index() >= Picks.size() || !Nameable[Id.index()])
      return false;
    Out = Picks[Id.index()];
    return true;
  }

private:
  std::vector<TaskPick> Picks;
  std::vector<char> Nameable;
};

} // namespace

ConfirmSummary cafa::confirmRaces(const Scenario &S, const Trace &T,
                                  const RaceReport &Report,
                                  const ConfirmOptions &Options) {
  ConfirmSummary Sum;
  const size_t N = Report.Races.size();
  Sum.PerRace.resize(N);
  if (N == 0)
    return Sum;
  const unsigned Budget = resolveConfirmBound(Options.MaxSchedules);

  // Feasibility is judged against the *saturated* relation: the report
  // may carry provisional races from a deadline-cut build, and triaging
  // exactly those into "infeasible" is half the point.  The report's own
  // relation is resumed, not derived again.  A saturated one runs no
  // rule and serves only ~2 queries per race, so it gets the chain
  // oracle, whose clocks-only pass is linear, whatever CAFA_REACH says.
  const HbFrontier *Relation = Report.Relation.get();
  TaskIndex Index(T);
  HbOptions HbOpts;
  if (Relation && Relation->Saturated)
    HbOpts.Reach = ReachMode::Chain;
  HbCheckpointing Resume;
  Resume.Resume = Relation;
  HbIndex Hb(T, Index, HbOpts, &Resume);
  Sum.FixpointRounds = Hb.roundsRun();

  TaskPicker Picker(T, S.module());
  AccessDb Db = extractAccesses(T, Index);

  // Sequential phase: feasibility verdicts and schedule synthesis.
  // Everything that consults the (not always concurrency-safe) HB
  // oracle happens here; only self-contained replays run in parallel.
  std::vector<size_t> Pending;
  std::vector<std::vector<ScheduleOverride>> Plans(N);
  std::vector<std::string> SiteNames(N);
  std::vector<uint32_t> SitePcs(N);
  for (size_t I = 0; I < N; ++I) {
    const UseFreeRace &Race = Report.Races[I];
    RaceConfirmation &Out = Sum.PerRace[I];
    if (Race.Use.Task == Race.Free.Task) {
      Out.Verdict = ConfirmVerdict::Infeasible;
      Out.Detail = "infeasible: use and free in the same task (program order)";
      continue;
    }
    if (Race.Use.Record < T.numRecords() &&
        Race.Free.Record < T.numRecords() &&
        Hb.ordered(Race.Use.Record, Race.Free.Record)) {
      Out.Verdict = ConfirmVerdict::Infeasible;
      Out.Detail = "infeasible: use and free are happens-before ordered";
      continue;
    }
    TaskPick UsePick, FreePick;
    if (!Picker.pick(Race.Use.Task, UsePick) ||
        !Picker.pick(Race.Free.Task, FreePick)) {
      Out.Detail = "unconfirmed: racing task has no replayable entry pick";
      continue;
    }
    if (Race.Use.DerefRecord >= T.numRecords()) {
      Out.Detail = "unconfirmed: use has no dereference record";
      continue;
    }
    const TraceRecord &Deref = T.record(Race.Use.DerefRecord);
    SiteNames[I] = T.methodName(Deref.Method);
    SitePcs[I] = Deref.Pc;

    // Primary flip: the use waits until the free has run to completion.
    ScheduleOverride Primary;
    Primary.Constraints.push_back({UsePick, FreePick});
    Plans[I].push_back(Primary);

    // POR refinements: a third task that stores a fresh object into the
    // same cell can re-fill it between the free and the held use and
    // mask the crash.  Each refinement additionally holds one such
    // allocator until the use has run; allocators are tried in task-id
    // order so the exploration sequence is deterministic.
    std::vector<uint32_t> Writers;
    for (const PtrAccess &Alloc : Db.Allocs)
      if (Alloc.Var == Race.Use.Var && Alloc.Task != Race.Use.Task &&
          Alloc.Task != Race.Free.Task)
        Writers.push_back(Alloc.Task.index());
    std::sort(Writers.begin(), Writers.end());
    Writers.erase(std::unique(Writers.begin(), Writers.end()),
                  Writers.end());
    for (uint32_t Writer : Writers) {
      if (Plans[I].size() >= Budget)
        break;
      TaskPick WriterPick;
      if (!Picker.pick(TaskId(Writer), WriterPick))
        continue;
      ScheduleOverride Refined = Primary;
      Refined.Constraints.push_back({WriterPick, UsePick});
      Plans[I].push_back(Refined);
    }
    Pending.push_back(I);
  }

  // Parallel phase: replay each pending race's schedules.  Races own
  // disjoint result slots and are merged by index below, so verdicts
  // are byte-identical at every thread count.
  if (!Pending.empty()) {
    unsigned Threads = resolveAnalysisThreads(Options.Threads);
    WorkerPool Pool(Threads > 0 ? Threads - 1 : 0);
    Pool.parallelFor(Pending.size(), [&](size_t J) {
      const size_t I = Pending[J];
      const std::vector<ScheduleOverride> &Schedules = Plans[I];
      RaceConfirmation &Out = Sum.PerRace[I];
      RuntimeOptions ReplayOpts = Options.Rt;
      ReplayOpts.Tracing = false;
      ReplayOpts.MirrorStream = false;
      for (size_t K = 0; K < Schedules.size(); ++K) {
        ReplayOpts.Schedule = Schedules[K];
        Runtime Replay(S, ReplayOpts);
        Status RunStatus = Replay.run();
        ++Out.SchedulesTried;
        if (!RunStatus.ok())
          continue;
        for (const RuntimeStats::NpeSite &Site :
             Replay.stats().NpeSites) {
          if (Site.Pc == SitePcs[I] &&
              S.module().methodName(Site.Method) == SiteNames[I]) {
            Out.Verdict = ConfirmVerdict::Confirmed;
            Out.Detail = formatString(
                "confirmed: crash at %s+%u under schedule %zu/%zu",
                SiteNames[I].c_str(), SitePcs[I], K + 1,
                Schedules.size());
            break;
          }
        }
        if (Out.Verdict == ConfirmVerdict::Confirmed)
          break;
      }
      if (Out.Verdict != ConfirmVerdict::Confirmed)
        Out.Detail = formatString("unconfirmed: no crash in %u schedule(s)",
                                  Out.SchedulesTried);
    });
  }

  for (const RaceConfirmation &Out : Sum.PerRace) {
    Sum.SchedulesRun += Out.SchedulesTried;
    switch (Out.Verdict) {
    case ConfirmVerdict::Confirmed:
      ++Sum.Confirmed;
      break;
    case ConfirmVerdict::Infeasible:
      ++Sum.Infeasible;
      break;
    default:
      ++Sum.Unconfirmed;
      break;
    }
  }
  return Sum;
}

void cafa::applyConfirmVerdicts(const ConfirmSummary &Summary,
                                RaceDocument &Doc) {
  const size_t N = std::min(Summary.PerRace.size(), Doc.Races.size());
  for (size_t I = 0; I < N; ++I)
    Doc.Races[I].Verdict = Summary.PerRace[I].Verdict;
}
