//===- tests/rt/RandomScenario.h - Seeded random app scenarios --*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime fuzz generator: random but verifier-valid, type-consistent
/// modules with events, threads, RPC, listeners and heap traffic, plus
/// fixed shapes that block tasks on every wake path of the scheduler
/// (several joiners of one thread, threads and events contending for one
/// lock, several readers of one pipe).  Every run is deadlock-free: the
/// only lock is never nested, every joined thread ends, and a feeder
/// writes at least as many messages as the readers consume.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TESTS_RT_RANDOMSCENARIO_H
#define CAFA_TESTS_RT_RANDOMSCENARIO_H

#include "ir/IrBuilder.h"
#include "rt/Scenario.h"
#include "support/Rng.h"

#include <memory>
#include <string>
#include <vector>

namespace cafa {

/// The seeds the runtime fuzz tests run and RuntimeGoldenTest pins.
inline constexpr uint64_t FuzzSeeds[] = {101, 202, 303, 404,
                                         505, 606, 707, 808};

/// Generates a random scenario.  In the generated pool, registers 0..1
/// hold objects and 2..3 hold scalars throughout, so every generated
/// instruction is type-correct.
inline Scenario randomScenario(uint64_t Seed) {
  Rng R(Seed);
  auto M = std::make_shared<Module>();
  ProcessId App = M->addProcess("fuzz");
  ProcessId Svc = M->addProcess("fuzz-svc");
  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(2)); I != E; ++I)
    Queues.push_back(M->addQueue("q" + std::to_string(I), App));
  ClassId Class = M->addClass("Obj");
  FieldId InstObj = M->addField("io", Class, true);
  FieldId InstInt = M->addField("ii", Class, false);
  std::vector<FieldId> ObjFields, IntFields;
  for (int I = 0; I != 4; ++I)
    ObjFields.push_back(
        M->addStaticField("so" + std::to_string(I), true));
  for (int I = 0; I != 4; ++I)
    IntFields.push_back(
        M->addStaticField("si" + std::to_string(I), false));
  LockId Lock = M->addLock("lock");
  PipeId Pipe = M->addPipe("pipe");

  IrBuilder B(*M);
  B.beginMethod("leafWork", 1);
  B.work(1);
  MethodId Leaf = B.endMethod();

  // A pool of generated handler/worker methods; later methods may call
  // or send to earlier ones (no recursion possible).
  std::vector<MethodId> Pool = {Leaf};

  auto objField = [&] { return ObjFields[R.below(ObjFields.size())]; };
  auto intField = [&] { return IntFields[R.below(IntFields.size())]; };

  int NumMethods = 4 + static_cast<int>(R.below(6));
  for (int MI = 0; MI != NumMethods; ++MI) {
    B.beginMethod("gen" + std::to_string(MI), 4);
    // Establish object registers: v0 may be a handler argument (already
    // an object or null); make v1 a fresh object.
    B.newInstance(1, Class);
    int Len = 3 + static_cast<int>(R.below(10));
    for (int Op = 0; Op != Len; ++Op) {
      switch (R.below(14)) {
      case 0:
        B.sgetObject(0, objField());
        break;
      case 1:
        B.sputObject(objField(), 1);
        break;
      case 2: { // guarded use of a static pointer (NPE-safe)
        Label Skip = B.newLabel();
        B.sgetObject(0, objField());
        B.ifEqz(0, Skip);
        B.invokeVirtual(0, Leaf);
        B.bind(Skip);
        break;
      }
      case 3: // free
        B.constNull(0);
        B.sputObject(objField(), 0);
        break;
      case 4: // scalar traffic
        B.sget(2, intField());
        B.addInt(2, 2, 1);
        B.sput(intField(), 2);
        break;
      case 5: // instance traffic on the local object (never null)
        B.iput(1, InstInt, 2);
        B.iget(3, 1, InstInt);
        B.iputObject(1, InstObj, 1);
        break;
      case 6: // critical section
        B.monitorEnter(Lock);
        B.sput(intField(), 2);
        B.monitorExit(Lock);
        break;
      case 7: // post an event
        B.sendEvent(Queues[R.below(Queues.size())],
                    Pool[R.below(Pool.size())],
                    static_cast<int32_t>(R.below(4)), 1);
        break;
      case 8: // post at front
        B.sendEventAtFront(Queues[R.below(Queues.size())],
                           Pool[R.below(Pool.size())], 1);
        break;
      case 9: // absolute-time post
        B.sendEventAtTime(Queues[R.below(Queues.size())],
                          Pool[R.below(Pool.size())],
                          static_cast<int32_t>(R.below(50)), 1);
        break;
      case 10: // RPC into the service process
        B.binderCall(Svc, Pool[R.below(Pool.size())], 1);
        break;
      case 11: // static call
        B.invokeStatic(Pool[R.below(Pool.size())], 1);
        break;
      case 12: // non-blocking pipe traffic (write only; reads would risk
               // deadlock in random code)
        B.pipeWrite(Pipe, 1);
        break;
      default:
        B.work(static_cast<int32_t>(1 + R.below(3)));
        break;
      }
    }
    Pool.push_back(B.endMethod());
  }

  Scenario S;
  S.AppName = "fuzz";
  S.Program = M;
  // Bootstrap: initialize the static pointers.
  B.beginMethod("boot", 2);
  for (FieldId F : ObjFields) {
    B.newInstance(0, Class);
    B.sputObject(F, 0);
  }
  MethodId Boot = B.endMethod();
  S.BootThreads.push_back({0, Boot, App, "boot"});

  // Worker threads and external events drive the generated methods.
  int NumWorkers = 1 + static_cast<int>(R.below(3));
  for (int I = 0; I != NumWorkers; ++I)
    S.BootThreads.push_back({R.below(20) * 1'000,
                             Pool[1 + R.below(Pool.size() - 1)], App,
                             "worker" + std::to_string(I)});
  int NumExternals = 3 + static_cast<int>(R.below(10));
  for (int I = 0; I != NumExternals; ++I)
    S.ExternalEvents.push_back(
        {5'000 + R.below(100) * 1'000, Queues[R.below(Queues.size())],
         Pool[1 + R.below(Pool.size() - 1)],
         "ext" + std::to_string(I)});

  // --- Wake-path shapes ----------------------------------------------------
  // Each shape blocks two or more tasks on one target.  Random pre-work
  // and loops make the tasks block in an order other than their creation
  // order, so the order in which a release wakes them shows in the trace.
  auto bumpCounter = [&](Reg Scratch) {
    FieldId F = intField();
    B.sget(Scratch, F);
    B.addInt(Scratch, Scratch, 1);
    B.sput(F, Scratch);
  };
  auto countedLoop = [&](Reg Counter, int32_t Times, auto &&Body) {
    Label Loop = B.newLabel();
    B.constInt(Counter, Times);
    B.bind(Loop);
    Body();
    B.addInt(Counter, Counter, -1);
    B.ifIntNez(Counter, Loop);
  };

  // Joiners: a hub forks a target thread, then forks joiners that take
  // the target's handle as their argument, then joins the target itself.
  B.beginMethod("joinTarget", 1);
  B.work(static_cast<int32_t>(20 + R.below(30)));
  bumpCounter(0);
  MethodId JoinTarget = B.endMethod();
  std::vector<MethodId> Joiners;
  for (int I = 0, E = 2 + static_cast<int>(R.below(2)); I != E; ++I) {
    B.beginMethod("joiner" + std::to_string(I), 2); // v0 = target handle
    B.work(static_cast<int32_t>(1 + R.below(8)));
    B.joinThread(0);
    bumpCounter(1);
    Joiners.push_back(B.endMethod());
  }
  B.beginMethod("joinHub", 2);
  B.forkThread(0, JoinTarget);
  for (MethodId J : Joiners)
    B.forkThread(1, J, /*Arg=*/0);
  B.joinThread(0);
  bumpCounter(1);
  MethodId JoinHub = B.endMethod();
  S.BootThreads.push_back({R.below(4) * 1'000, JoinHub, App, "joinHub"});

  // Lock contention: looping threads hold the lock across work while
  // external events take it too.
  auto criticalSection = [&](Reg Scratch) {
    B.monitorEnter(Lock);
    bumpCounter(Scratch);
    B.work(static_cast<int32_t>(3 + R.below(10)));
    B.monitorExit(Lock);
  };
  uint64_t LockStart = R.below(4) * 1'000;
  for (int I = 0, E = 2 + static_cast<int>(R.below(2)); I != E; ++I) {
    B.beginMethod("contender" + std::to_string(I), 2);
    countedLoop(0, static_cast<int32_t>(2 + R.below(4)), [&] {
      B.work(static_cast<int32_t>(1 + R.below(4)));
      criticalSection(1);
    });
    S.BootThreads.push_back({LockStart + R.below(30),
                             B.endMethod(), App,
                             "contender" + std::to_string(I)});
  }
  B.beginMethod("lockEvent", 2);
  criticalSection(1);
  MethodId LockEvent = B.endMethod();
  for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I)
    S.ExternalEvents.push_back({LockStart + R.below(100),
                                Queues[R.below(Queues.size())], LockEvent,
                                "lockEvent" + std::to_string(I)});

  // Pipe readers: drainers each consume a fixed number of messages; one
  // feeder writes their total, spaced out, so readers block on an empty
  // pipe and every drainer finishes.
  uint64_t PipeStart = R.below(4) * 1'000;
  int32_t TotalReads = 0;
  for (int I = 0, E = 2 + static_cast<int>(R.below(2)); I != E; ++I) {
    int32_t Reads = static_cast<int32_t>(2 + R.below(5));
    TotalReads += Reads;
    B.beginMethod("pipeDrainer" + std::to_string(I), 3);
    B.work(static_cast<int32_t>(1 + R.below(6)));
    countedLoop(2, Reads, [&] {
      B.pipeRead(Pipe, 0);
      bumpCounter(1);
    });
    S.BootThreads.push_back({PipeStart + R.below(20), B.endMethod(), App,
                             "pipeDrainer" + std::to_string(I)});
  }
  B.beginMethod("pipeFeeder", 2);
  countedLoop(0, TotalReads, [&] {
    B.work(static_cast<int32_t>(5 + R.below(10)));
    B.pipeWrite(Pipe);
  });
  S.BootThreads.push_back(
      {PipeStart + 50, B.endMethod(), App, "pipeFeeder"});
  return S;
}

} // namespace cafa

#endif // CAFA_TESTS_RT_RANDOMSCENARIO_H
