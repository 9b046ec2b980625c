//===- tests/integration/RandomThreadParityTest.cpp ---------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The ingest thread count reaches the analysis only through the trace it
// produces, so every count must render byte-identical reports
// (docs/robustness.md).  Pinned end to end over randomized traces (100
// seeds): each is written out, read back at 1, 4 and 8 lexer threads
// over small shards, and analyzed, against the analysis of the trace it
// was built as.
//
//===----------------------------------------------------------------------===//

#include "cafa/Cafa.h"
#include "support/Rng.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cafa;

namespace {

/// Both renderings of \p T's analysis.
std::pair<std::string, std::string> render(const Trace &T) {
  AnalysisResult R = analyzeTrace(T, DetectorOptions());
  return {renderRaceReport(R.Report, T), renderRaceReportJson(R.Report, T)};
}

/// Random structurally valid trace with enough queue traffic to exercise
/// the rule-engine scans and enough pointer traffic to give the detector
/// real pairs.
Trace randomPtrTrace(uint64_t Seed, size_t Steps) {
  Rng R(Seed);
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 65536);

  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I)
    Queues.push_back(TB.addQueue("q" + std::to_string(I)));

  struct LiveTask {
    TaskId Id;
    bool IsEvent;
    QueueId Queue;
  };
  std::vector<LiveTask> Running, Pending;
  std::vector<TaskId> ActivePerQueue(Queues.size(), TaskId::invalid());
  for (int I = 0, E = 2 + static_cast<int>(R.below(2)); I != E; ++I) {
    TaskId T = TB.addThread("thread" + std::to_string(I));
    TB.begin(T);
    Running.push_back({T, false, QueueId()});
  }

  size_t EventCounter = 0;
  uint32_t Pc = 0;
  for (size_t Step = 0; Step != Steps && !Running.empty(); ++Step) {
    LiveTask &Actor = Running[R.below(Running.size())];
    switch (R.below(10)) {
    case 0: { // send a new event
      QueueId Q = Queues[R.below(Queues.size())];
      bool AtFront = R.chance(1, 5);
      uint64_t Delay = AtFront ? 0 : R.below(4);
      TaskId E = TB.addEvent("event" + std::to_string(EventCounter++), Q,
                             Delay, AtFront, false);
      if (AtFront)
        TB.sendAtFront(Actor.Id, E);
      else
        TB.send(Actor.Id, E, Delay);
      Pending.push_back({E, true, Q});
      break;
    }
    case 1: { // begin a pending event on an idle queue
      for (size_t I = 0; I != Pending.size(); ++I) {
        LiveTask &P = Pending[I];
        if (ActivePerQueue[P.Queue.index()].isValid())
          continue;
        TB.begin(P.Id);
        ActivePerQueue[P.Queue.index()] = P.Id;
        Running.push_back(P);
        Pending.erase(Pending.begin() + static_cast<long>(I));
        break;
      }
      break;
    }
    case 2: { // end an event
      if (Actor.IsEvent && Running.size() > 1) {
        ActivePerQueue[Actor.Queue.index()] = TaskId::invalid();
        TB.end(Actor.Id);
        Running.erase(Running.begin() + (&Actor - Running.data()));
      }
      break;
    }
    case 3: { // lock-guarded access pair
      uint32_t Var = static_cast<uint32_t>(R.below(4));
      uint32_t Lock = static_cast<uint32_t>(R.below(2));
      TB.lockAcquire(Actor.Id, Lock);
      TB.ptrRead(Actor.Id, Var, 9 + Var, M, ++Pc);
      TB.deref(Actor.Id, 9 + Var, DerefKind::Invoke, M, ++Pc);
      TB.lockRelease(Actor.Id, Lock);
      break;
    }
    case 4: // free a cell
      TB.ptrWrite(Actor.Id, static_cast<uint32_t>(R.below(4)), 0, M, ++Pc);
      break;
    default: { // use a cell
      uint32_t Var = static_cast<uint32_t>(R.below(4));
      TB.ptrRead(Actor.Id, Var, 9 + Var, M, ++Pc);
      TB.deref(Actor.Id, 9 + Var, DerefKind::Invoke, M, ++Pc);
      break;
    }
    }
  }
  for (const LiveTask &L : Running)
    TB.end(L.Id);
  return TB.take();
}

class RandomThreadParityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomThreadParityTest, ReportsByteIdenticalAcrossThreadCounts) {
  Trace T = randomPtrTrace(GetParam() * 2654435761u + 11, 250);
  ASSERT_TRUE(validateTrace(T).ok()) << validateTrace(T).message();
  auto [RefText, RefJson] = render(T);
  const std::string Serialized = serializeTrace(T);
  for (unsigned Threads : {1u, 4u, 8u}) {
    IngestOptions Opt;
    Opt.Threads = Threads;
    Opt.ShardBytes = 256; // dozens of shards, so every thread lexes some
    Trace In;
    IngestReport Report;
    ASSERT_TRUE(ingestTrace(Serialized, In, Report, Opt).ok());
    ASSERT_TRUE(Report.clean()) << Report.summary();
    auto [Text, Json] = render(In);
    ASSERT_EQ(Text, RefText) << "seed " << GetParam() << " at " << Threads
                             << " threads";
    ASSERT_EQ(Json, RefJson) << "seed " << GetParam() << " at " << Threads
                             << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds100, RandomThreadParityTest,
                         testing::Range<uint64_t>(0, 100));

} // namespace
