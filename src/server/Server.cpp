//===- server/Server.cpp - Analysis daemon over a Unix socket -----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// One single-threaded loop pumps everything, in a fixed order per tick:
//
//   signal check -> engine.step() -> harvest terminal jobs into the
//   store -> accept/answer control connections -> sleep 500us
//
// Concurrency lives in the worker children (as in runFleet); the loop
// itself only forks, polls, kills, and does tiny socket I/O, so there
// is no locking anywhere and every store append happens at a well
// defined point between engine ticks.  Durability is layered: workers
// checkpoint their own analysis state (support/Snapshot), the store
// journals terminal outcomes (cafa/RaceStore), and a daemon killed
// between the two loses nothing -- the job is simply not in the store
// yet, and resubmitting it resumes the worker from its checkpoint.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "cafa/RaceStore.h"
#include "cafa/ReportJson.h"
#include "support/Format.h"
#include "support/Timer.h"
#include "trace/Manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cafa;

namespace {

/// Reads one newline-terminated command (without the newline) from a
/// connection.  Bounded: a peer that sends garbage forever is cut off.
bool readCommand(int Fd, std::string &Out) {
  Out.clear();
  char Chunk[512];
  while (Out.size() < (64u << 10)) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      return !Out.empty(); // EOF ends the command too
    for (ssize_t I = 0; I < N; ++I) {
      if (Chunk[I] == '\n')
        return true;
      Out.push_back(Chunk[I]);
    }
  }
  return false;
}

void writeAll(int Fd, std::string_view Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (N <= 0)
      return; // peer went away; nothing to do
    Off += static_cast<size_t>(N);
  }
}

std::vector<std::string> splitTokens(const std::string &Line) {
  std::vector<std::string> Out;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t' ||
                               Line[I] == '\r'))
      ++I;
    size_t Start = I;
    while (I < Line.size() && Line[I] != ' ' && Line[I] != '\t' &&
           Line[I] != '\r')
      ++I;
    if (I > Start)
      Out.push_back(Line.substr(Start, I - Start));
  }
  return Out;
}

} // namespace

struct Server::Impl {
  ServerOptions Options;
  RaceStore Store;
  std::unique_ptr<FleetEngine> Engine;
  int ListenFd = -1;
  /// Admission closed (drain command, or a signal).
  bool Draining = false;
  /// The fast-drain path is armed: no new launches, interrupt at the
  /// deadline.
  bool SignalDrain = false;
  uint64_t DrainDeadlineNanos = 0;
  /// Per-engine-index: terminal outcome already journaled (or
  /// deliberately skipped, for "interrupted").
  std::vector<char> Stored;
  size_t StoreErrors = 0;

  void harvest();
  void serveOnce();
  std::string handleCommand(const std::string &Line);
  std::string statusJson() const;
};

Server::Server(const ServerOptions &Options)
    : I(std::make_unique<Impl>()) {
  I->Options = Options;
}

Server::~Server() {
  if (I->ListenFd >= 0) {
    ::close(I->ListenFd);
    ::unlink(I->Options.SocketPath.c_str());
  }
}

Status Server::setup() {
  if (I->Options.SocketPath.empty())
    return Status::error("server needs a socket path");
  if (I->Options.StorePath.empty())
    return Status::error("server needs a store path");

  // Store first: a fingerprint mismatch must abort before we touch the
  // socket or spawn anything.
  if (Status S = I->Store.open(I->Options.StorePath); !S.ok())
    return S;

  I->Engine = std::make_unique<FleetEngine>(I->Options.Fleet);
  if (Status S = I->Engine->setup(); !S.ok())
    return S;

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (I->Options.SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::error("socket path too long: " +
                         I->Options.SocketPath);
  std::strcpy(Addr.sun_path, I->Options.SocketPath.c_str());

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::error("cannot create socket");
  // A predecessor killed with -9 leaves its socket file behind; this
  // daemon owns the path now.
  ::unlink(I->Options.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 16) != 0) {
    ::close(Fd);
    return Status::error("cannot bind/listen on " +
                         I->Options.SocketPath);
  }
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  I->ListenFd = Fd;
  return Status::success();
}

void Server::Impl::harvest() {
  Stored.resize(Engine->numJobs(), 0);
  for (size_t Index = 0; Index < Engine->numJobs(); ++Index) {
    if (Stored[Index])
      continue;
    if (std::string_view(Engine->phase(Index)) != "terminal")
      continue;
    const FleetJobResult &Job = Engine->result(Index);
    if (Job.State == "interrupted") {
      // Resumable work, not a result: stays out of the store so a
      // resubmission re-runs (and resumes) it.
      Stored[Index] = 1;
      continue;
    }
    Status S = Store.appendJob(Job.status(),
                               Job.ParseOk ? &Job.Parsed : nullptr);
    if (!S.ok()) {
      // Disk trouble: count it, keep serving.  Not retried -- a
      // failing append would retry every 500us forever.
      std::fprintf(stderr, "cafa_server: store append failed: %s\n",
                   S.message().c_str());
      ++StoreErrors;
    }
    Stored[Index] = 1;
  }
}

std::string Server::Impl::statusJson() const {
  size_t Queue = Engine->numJobs() - Engine->numTerminal();
  std::string Out = formatString(
      "{\n  \"queue\": %zu, \"running\": %zu, \"draining\": %s,\n"
      "  \"jobs\": [",
      Queue, Engine->numRunning(), Draining ? "true" : "false");
  for (size_t Index = 0; Index < Engine->numJobs(); ++Index) {
    const FleetJobResult &Job = Engine->result(Index);
    Out += Index ? ",\n" : "\n";
    Out += formatString(
        "    {\"id\": \"%s\", \"phase\": \"%s\", \"state\": \"%s\"}",
        jsonEscape(Job.Id).c_str(), Engine->phase(Index),
        jsonEscape(Job.State).c_str());
  }
  RaceStore::Stats S = Store.stats();
  Out += formatString(
      "\n  ],\n"
      "  \"store\": {\"jobs\": %zu, \"done\": %zu, \"partial\": %zu, "
      "\"failed\": %zu, \"resumedCompletions\": %zu, "
      "\"distinctRaces\": %zu, \"journalBytes\": %zu, "
      "\"recoveredTail\": %s, \"storeErrors\": %zu}\n}\n",
      S.Jobs, S.Done, S.Partial, S.Failed, S.ResumedCompletions,
      S.DistinctRaces, S.JournalBytes,
      S.RecoveredTail ? "true" : "false", StoreErrors);
  return Out;
}

std::string Server::Impl::handleCommand(const std::string &Line) {
  std::vector<std::string> Tokens = splitTokens(Line);
  if (Tokens.empty())
    return "err malformed\n";
  const std::string &Cmd = Tokens[0];

  if (Cmd == "ping")
    return "ok pong\n";

  if (Cmd == "status")
    return statusJson();

  if (Cmd == "report")
    return Store.renderJson();

  if (Cmd == "compact") {
    if (Status S = Store.compact(); !S.ok())
      return "err " + S.message() + "\n";
    return "ok compacted\n";
  }

  if (Cmd == "drain") {
    // Graceful: admission closes now, every queued job still finishes;
    // the loop exits (code 0) once the engine is quiet.
    Draining = true;
    return "ok draining\n";
  }

  if (Cmd == "submit") {
    if (Tokens.size() < 3)
      return "err malformed\n";
    const std::string &Id = Tokens[1];
    if (Id.empty() || sanitizeJobId(Id) != Id)
      return "err bad-id\n";
    if (Draining)
      return "err draining\n";
    if (Store.hasJob(Id))
      // Already analyzed in some earlier batch: idempotent success, the
      // result is in the store.
      return "ok exists " + Id + "\n";
    if (Engine->hasJob(Id))
      return "ok active " + Id + "\n";
    if (Engine->numJobs() - Engine->numTerminal() >= Options.MaxQueue)
      return "err queue-full\n";
    FleetJob Job;
    Job.Id = Id;
    Job.TracePath = Tokens[2];
    Job.ExtraArgs.assign(Tokens.begin() + 3, Tokens.end());
    if (Status S = Engine->addJob(Job); !S.ok())
      return "err " + S.message() + "\n";
    return "ok queued " + Id + "\n";
  }

  return "err unknown-command\n";
}

void Server::Impl::serveOnce() {
  // Bounded accepts per tick so a chatty client cannot starve the
  // engine pump.
  for (int Burst = 0; Burst < 16; ++Burst) {
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn < 0)
      return; // EAGAIN and friends: nothing waiting
    timeval Timeout;
    Timeout.tv_sec = 0;
    Timeout.tv_usec = 250 * 1000;
    ::setsockopt(Conn, SOL_SOCKET, SO_RCVTIMEO, &Timeout,
                 sizeof(Timeout));
    std::string Line;
    if (readCommand(Conn, Line))
      writeAll(Conn, handleCommand(Line));
    else
      writeAll(Conn, "err malformed\n");
    ::close(Conn);
  }
}

int Server::run(const volatile std::sig_atomic_t *StopFlag) {
  for (;;) {
    uint64_t Now = wallTimeNanos();

    if (StopFlag && *StopFlag && !I->SignalDrain) {
      // Fast drain: stop admitting and launching; running workers get
      // the grace window, then a checkpoint-kill.
      I->SignalDrain = true;
      I->Draining = true;
      I->Engine->stopLaunching();
      I->DrainDeadlineNanos =
          Now + static_cast<uint64_t>(I->Options.DrainGraceMillis * 1e6);
    }
    if (I->SignalDrain && !I->Engine->interrupted() &&
        (Now >= I->DrainDeadlineNanos || I->Engine->numRunning() == 0))
      // Nothing running finishes the drain immediately; otherwise the
      // deadline fires.  interrupt() parks every unfinished job as
      // resumable "interrupted".
      I->Engine->interrupt();

    I->Engine->step();
    I->harvest();
    I->serveOnce();

    if (I->Draining && I->Engine->allTerminal())
      break;
    ::usleep(500);
  }
  I->harvest();

  // The destructor also cleans these up, but do it before exiting so a
  // monitoring client never sees an accepting socket on a dead daemon.
  ::close(I->ListenFd);
  ::unlink(I->Options.SocketPath.c_str());
  I->ListenFd = -1;

  for (size_t Index = 0; Index < I->Engine->numJobs(); ++Index)
    if (I->Engine->result(Index).State == "interrupted")
      return ServerExitInterrupted;
  return ServerExitClean;
}

Status cafa::serverRequest(const std::string &SocketPath,
                           const std::string &Command,
                           std::string &Response) {
  Response.clear();
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::error("socket path too long: " + SocketPath);
  std::strcpy(Addr.sun_path, SocketPath.c_str());

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::error("cannot create socket");
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return Status::error("cannot connect to " + SocketPath);
  }
  timeval Timeout;
  Timeout.tv_sec = 30;
  Timeout.tv_usec = 0;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));

  std::string Line = Command + "\n";
  writeAll(Fd, Line);
  ::shutdown(Fd, SHUT_WR);

  char Chunk[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      ::close(Fd);
      return Status::error("read from " + SocketPath + " failed");
    }
    if (N == 0)
      break;
    Response.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);
  return Status::success();
}
