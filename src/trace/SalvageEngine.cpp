//===- trace/SalvageEngine.cpp - Lex/admit split for salvage --------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The salvage pipeline is the only reader of the trace grammar.  It runs
// parsing, validation, and repair as one pass, because a sound repair
// decision needs the running validation state: whether the task has begun,
// what it holds locked, which event owns its queue.  Each input line is
// either admitted (possibly after an in-place fixup), admitted together
// with synthesized bookkeeping records that restore an invariant, or
// dropped.  Synthesized records are restricted to kinds the detectors
// never report on (begin/end, lock release/acquire, method enter/exit),
// so salvage can widen the candidate space but cannot invent an access.
//
// This file splits that pipeline for parallel ingestion: lexShard() is
// the stateless per-line half (tokenize, parse numbers, intern names)
// and runs concurrently over byte-range shards; SalvageMachine is the
// stateful half and runs over the lexed shards in original byte order.
// Every diagnostic string, every budget check, and the intern-before-drop
// ordering are part of the output LexerGoldenTest pins.
//
//===----------------------------------------------------------------------===//

#include "trace/SalvageEngine.h"

#include "support/Format.h"
#include "trace/TraceTextFormat.h"

#include <algorithm>
#include <array>
#include <cstring>

using namespace cafa;
using namespace cafa::ingest;

namespace {

constexpr uint32_t SentinelId = 0xFFFFFFFFu;

//===----------------------------------------------------------------------===//
// Lexing helpers
//===----------------------------------------------------------------------===//

/// The token-separating whitespace: isspace() in the "C" locale.
constexpr std::array<bool, 256> SpaceBytes = [] {
  std::array<bool, 256> Table{};
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    Table[C] = true;
  return Table;
}();

inline bool isSpaceByte(char C) {
  return SpaceBytes[static_cast<unsigned char>(C)];
}

constexpr size_t MaxTok = 12; // the widest directive (task) has 12 tokens

/// Splits \p Line into whitespace-separated tokens.  Returns the token
/// count; MaxTok + 1 signals "more than MaxTok" (every directive's
/// token-count equality check then fails).
size_t splitTokens(std::string_view Line, std::string_view *Toks) {
  size_t N = 0;
  size_t I = 0;
  while (true) {
    while (I < Line.size() && isSpaceByte(Line[I]))
      ++I;
    if (I >= Line.size())
      return N;
    size_t Begin = I;
    while (I < Line.size() && !isSpaceByte(Line[I]))
      ++I;
    if (N == MaxTok)
      return MaxTok + 1;
    Toks[N++] = Line.substr(Begin, I - Begin);
  }
}

/// strtoull(.., 10) semantics on a token: optional single +/- sign,
/// decimal digits only, unsigned wraparound on negation, saturation to
/// UINT64_MAX on overflow (still a successful parse).
bool parseU64Sv(std::string_view S, uint64_t &Out) {
  size_t I = 0;
  bool Neg = false;
  if (I < S.size() && (S[I] == '+' || S[I] == '-')) {
    Neg = S[I] == '-';
    ++I;
  }
  if (I == S.size())
    return false;
  uint64_t V = 0;
  bool Overflow = false;
  for (; I != S.size(); ++I) {
    char C = S[I];
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (!Overflow) {
      if (V > (UINT64_MAX - D) / 10)
        Overflow = true;
      else
        V = V * 10 + D;
    }
  }
  if (Overflow)
    V = UINT64_MAX; // strtoull saturates and ignores the sign on overflow
  else if (Neg)
    V = 0 - V;
  Out = V;
  return true;
}

bool parseU32Sv(std::string_view S, uint32_t &Out) {
  uint64_t V;
  if (!parseU64Sv(S, V) || V > 0xFFFFFFFFull)
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

/// The op token's kind: a token of 16 bytes or more never matches, and a
/// shorter one is compared up to its first NUL byte.
bool opKindFromSv(std::string_view S, OpKind &Out) {
  if (S.size() >= 16)
    return false;
  return opKindFromName(S.substr(0, S.find('\0')), Out);
}

StrId internName(std::string_view S, StringInterner &Names) {
  if (S.find('\\') == std::string_view::npos)
    return Names.intern(S);
  std::string Un;
  Un.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] == '\\' && I + 1 < S.size()) {
      ++I;
      Un.push_back(S[I] == 's' ? ' ' : S[I]);
      continue;
    }
    Un.push_back(S[I]);
  }
  return Names.intern(Un);
}

/// The fast path's reader over the fields of one line in its plain form:
/// fields separated by exactly one ' ', numbers as bare decimal digits
/// that cannot overflow their field.  Any other shape -- a sign, a longer
/// digit run, any other whitespace byte -- fails complete(), and the
/// caller lexes the line through splitTokens instead, so those shapes
/// keep a single implementation.  Each field is parsed in the same pass
/// that finds its end.
class PlainFields {
public:
  explicit PlainFields(std::string_view Rest)
      : P(Rest.data()), End(Rest.data() + Rest.size()) {}

  uint32_t u32() {
    uint64_t V = digits(10);
    if (V > 0xFFFFFFFFull)
      Good = false;
    return static_cast<uint32_t>(V);
  }
  uint64_t u64() { return digits(19); }

  /// A non-numeric field, which must hold no whitespace byte.
  std::string_view word() {
    const char *Begin = P;
    while (P != End && *P != ' ') {
      if (isSpaceByte(*P))
        Good = false;
      ++P;
    }
    std::string_view Word(Begin, static_cast<size_t>(P - Begin));
    if (Word.empty())
      Good = false;
    endField();
    return Word;
  }

  /// True when every field read so far was plain and the line ends
  /// after the last one.
  bool complete() const { return Good && P == End; }

private:
  const char *P;
  const char *End;
  bool Good = true;

  uint64_t digits(unsigned MaxDigits) {
    const char *Begin = P;
    uint64_t V = 0;
    for (; P != End; ++P) {
      unsigned D = static_cast<unsigned char>(*P) - unsigned('0');
      if (D > 9)
        break;
      V = V * 10 + D;
    }
    size_t N = static_cast<size_t>(P - Begin);
    if (N == 0 || N > MaxDigits)
      Good = false;
    endField();
    return V;
  }

  /// Consumes the single ' ' after a field; any other byte fails.
  void endField() {
    if (P == End)
      return;
    if (*P != ' ') {
      Good = false;
      P = End;
      return;
    }
    ++P;
  }
};

//===----------------------------------------------------------------------===//
// Per-line lexing
//===----------------------------------------------------------------------===//

LexedLine &emit(ShardFragment &Out, uint32_t Rel, LineKind Kind) {
  Out.Lines.emplace_back();
  LexedLine &L = Out.Lines.back();
  L.RelLine = Rel;
  L.Kind = Kind;
  return L;
}

void emitDrop(ShardFragment &Out, uint32_t Rel, const char *Msg) {
  emit(Out, Rel, LineKind::Drop).DropMsg = Msg;
}

/// Fast path for a plain rec line; \p Fields starts after "rec ".
/// Returns false, having emitted nothing, when the line is not plain.
bool lexPlainRec(PlainFields Fields, uint32_t Rel, ShardFragment &Out) {
  uint32_t TaskRaw = Fields.u32();
  OpKind Kind;
  bool KnownOp = opKindFromName(Fields.word(), Kind);
  uint32_t MethodRaw = Fields.u32();
  uint32_t Pc = Fields.u32();
  uint64_t A0 = Fields.u64();
  uint64_t A1 = Fields.u64();
  uint64_t A2 = Fields.u64();
  uint64_t Time = Fields.u64();
  if (!KnownOp || !Fields.complete())
    return false;
  LexedLine &L = emit(Out, Rel, LineKind::Rec);
  L.Op = Kind;
  L.Id = TaskRaw;
  L.Aux = MethodRaw;
  L.Pc = Pc;
  L.Arg0 = A0;
  L.Arg1 = A1;
  L.Arg2 = A2;
  L.Time = Time;
  return true;
}

void lexRec(const std::string_view *Toks, size_t N, uint32_t Rel,
            ShardFragment &Out) {
  if (N != 9) {
    emitDrop(Out, Rel, "malformed rec line");
    return;
  }
  uint32_t TaskRaw, MethodRaw, Pc;
  uint64_t A0, A1, A2, Time;
  OpKind Kind;
  if (!parseU32Sv(Toks[1], TaskRaw) || !opKindFromSv(Toks[2], Kind) ||
      !parseU32Sv(Toks[3], MethodRaw) || !parseU32Sv(Toks[4], Pc) ||
      !parseU64Sv(Toks[5], A0) || !parseU64Sv(Toks[6], A1) ||
      !parseU64Sv(Toks[7], A2) || !parseU64Sv(Toks[8], Time)) {
    emitDrop(Out, Rel, "bad field in rec line");
    return;
  }
  LexedLine &L = emit(Out, Rel, LineKind::Rec);
  L.Op = Kind;
  L.Id = TaskRaw;
  L.Aux = MethodRaw;
  L.Pc = Pc;
  L.Arg0 = A0;
  L.Arg1 = A1;
  L.Arg2 = A2;
  L.Time = Time;
}

/// Shared lexer for the three id/name/number declaration directives.
void lexDecl(LineKind Kind, const char *MalformedMsg, const char *BadNumMsg,
             const std::string_view *Toks, size_t N, uint32_t Rel,
             ShardFragment &Out) {
  if (N != 4) {
    emitDrop(Out, Rel, MalformedMsg);
    return;
  }
  uint32_t Id, Aux;
  if (!parseU32Sv(Toks[1], Id) || !parseU32Sv(Toks[3], Aux)) {
    emitDrop(Out, Rel, BadNumMsg);
    return;
  }
  LexedLine &L = emit(Out, Rel, Kind);
  L.Id = Id;
  L.Aux = Aux;
  if (Toks[2] != "-")
    L.Name = internName(Toks[2], Out.Names);
}

/// Task-line flags from the kind token and the three boolean fields.
uint8_t taskFlags(bool Event, uint32_t Front, uint32_t External,
                  uint32_t Looper) {
  uint8_t Flags = Event ? TaskFlagEvent : 0;
  if (Front)
    Flags |= TaskFlagFront;
  if (External)
    Flags |= TaskFlagExternal;
  if (Looper)
    Flags |= TaskFlagLooper;
  return Flags;
}

/// Fast path for a plain task line; \p Fields starts after "task ".
/// Returns false, having emitted nothing, when the line is not plain.
bool lexPlainTask(PlainFields Fields, uint32_t Rel, ShardFragment &Out) {
  uint32_t Id = Fields.u32();
  std::string_view Kind = Fields.word();
  std::string_view Name = Fields.word();
  uint32_t Process = Fields.u32();
  uint32_t Queue = Fields.u32();
  uint32_t Handler = Fields.u32();
  uint64_t DelayMs = Fields.u64();
  uint32_t Front = Fields.u32();
  uint32_t External = Fields.u32();
  uint32_t Parent = Fields.u32();
  uint32_t Looper = Fields.u32();
  bool Event = Kind == "event";
  if ((!Event && Kind != "thread") || !Fields.complete())
    return false;
  LexedLine &L = emit(Out, Rel, LineKind::Task);
  L.TaskFlags = taskFlags(Event, Front, External, Looper);
  L.Id = Id;
  L.Aux2 = Process;
  L.QueueRef = Queue;
  L.Pc = Handler;
  L.Parent = Parent;
  L.Arg0 = DelayMs;
  if (Name != "-")
    L.Name = internName(Name, Out.Names);
  return true;
}

void lexTask(const std::string_view *Toks, size_t N, uint32_t Rel,
             ShardFragment &Out) {
  if (N != 12) {
    emitDrop(Out, Rel, "malformed task line");
    return;
  }
  uint32_t Id, Process, Queue, Handler, Front, External, Parent, Looper;
  uint64_t DelayMs;
  if (!parseU32Sv(Toks[1], Id) || !parseU32Sv(Toks[4], Process) ||
      !parseU32Sv(Toks[5], Queue) || !parseU32Sv(Toks[6], Handler) ||
      !parseU64Sv(Toks[7], DelayMs) || !parseU32Sv(Toks[8], Front) ||
      !parseU32Sv(Toks[9], External) || !parseU32Sv(Toks[10], Parent) ||
      !parseU32Sv(Toks[11], Looper)) {
    emitDrop(Out, Rel, "bad number in task line");
    return;
  }
  bool Event = Toks[2] == "event";
  if (!Event && Toks[2] != "thread") {
    emitDrop(Out, Rel, "task kind must be 'thread' or 'event'");
    return;
  }
  LexedLine &L = emit(Out, Rel, LineKind::Task);
  L.TaskFlags = taskFlags(Event, Front, External, Looper);
  L.Id = Id;
  L.Aux2 = Process;
  L.QueueRef = Queue;
  L.Pc = Handler;
  L.Parent = Parent;
  L.Arg0 = DelayMs;
  if (Toks[3] != "-")
    L.Name = internName(Toks[3], Out.Names);
}

void lexLine(std::string_view Line, uint32_t Rel, ShardFragment &Out) {
  if (!Line.empty() && Line.back() == '\r')
    Line.remove_suffix(1);
  if (Line == tracetext::MagicLine) {
    emit(Out, Rel, LineKind::Magic);
    return;
  }
  // Blank and comment lines carry no content, but the machine's
  // first-line header logic must still see *a* first line, so the lexer
  // materializes exactly the shard's leading line even when blank.
  if (Line.empty() || Line[0] == '#') {
    if (Rel == 1)
      emit(Out, Rel, LineKind::Blank);
    return;
  }
  // Nearly every line of a logger dump is a plain rec or task line.
  if (Line.starts_with("rec ") &&
      lexPlainRec(PlainFields(Line.substr(4)), Rel, Out))
    return;
  if (Line.starts_with("task ") &&
      lexPlainTask(PlainFields(Line.substr(5)), Rel, Out))
    return;
  std::string_view Toks[MaxTok];
  size_t N = splitTokens(Line, Toks);
  if (N == 0) {
    if (Rel == 1)
      emit(Out, Rel, LineKind::Blank);
    return;
  }
  std::string_view D = Toks[0];
  if (D == "rec")
    lexRec(Toks, N, Rel, Out);
  else if (D == "method")
    lexDecl(LineKind::Method, "malformed method line",
            "bad number in method line", Toks, N, Rel, Out);
  else if (D == "queue")
    lexDecl(LineKind::Queue, "malformed queue line",
            "bad number in queue line", Toks, N, Rel, Out);
  else if (D == "listener")
    lexDecl(LineKind::Listener, "malformed listener line",
            "bad number in listener line", Toks, N, Rel, Out);
  else if (D == "task")
    lexTask(Toks, N, Rel, Out);
  else
    emit(Out, Rel, LineKind::Unknown).Name = Out.Names.intern(D);
}

/// Newlines in \p Text, found with memchr (about twice std::count's
/// speed here, and this pass sizes every shard's line buffer).
size_t countNewlines(std::string_view Text) {
  size_t N = 0;
  const char *P = Text.data();
  const char *End = P + Text.size();
  while ((P = static_cast<const char *>(
              std::memchr(P, '\n', static_cast<size_t>(End - P))))) {
    ++N;
    ++P;
  }
  return N;
}

} // namespace

void cafa::ingest::lexShard(std::string_view Text, ShardFragment &Out) {
  Out.Lines.reserve(countNewlines(Text) + 1);
  uint64_t Rel = 0;
  size_t Pos = 0;
  const size_t Size = Text.size();
  while (Pos < Size) {
    size_t NL = Text.find('\n', Pos);
    size_t End = NL == std::string_view::npos ? Size : NL;
    ++Rel;
    lexLine(Text.substr(Pos, End - Pos), static_cast<uint32_t>(Rel), Out);
    if (NL == std::string_view::npos) {
      Out.EndsWithoutNewline = true;
      break;
    }
    Pos = NL + 1;
  }
  Out.LineCount = Rel;
}

//===----------------------------------------------------------------------===//
// SalvageMachine: accounting
//===----------------------------------------------------------------------===//

SalvageMachine::SalvageMachine(const SalvageOptions &Options) : Opt(Options) {}

void SalvageMachine::hardFail(const std::string &Msg) {
  if (!Failed) {
    Failed = true;
    Fail = Status::error(Msg);
  }
}

void SalvageMachine::diag(size_t Ln, const std::string &Msg) {
  if (Report.Diagnostics.size() < Opt.MaxDiagnostics)
    Report.Diagnostics.push_back({Ln, Msg});
}

void SalvageMachine::incident(size_t Ln, const std::string &Msg) {
  ++Report.IncidentsTotal;
  diag(Ln, Msg);
  if (Opt.Strict)
    hardFail(Ln ? formatString("strict mode: line %zu: %s", Ln, Msg.c_str())
                : formatString("strict mode: %s", Msg.c_str()));
}

void SalvageMachine::dropLine(size_t Ln, const std::string &Msg) {
  incident(Ln, Msg);
  ++Report.LinesDropped;
  if (Report.LinesDropped > Opt.MaxDroppedLines)
    hardFail(formatString(
        "error budget exceeded: %llu lines dropped (cap %llu)",
        static_cast<unsigned long long>(Report.LinesDropped),
        static_cast<unsigned long long>(Opt.MaxDroppedLines)));
}

//===----------------------------------------------------------------------===//
// SalvageMachine: side tables
//===----------------------------------------------------------------------===//

/// Cap on placeholder side-table entries synthesized for dangling
/// references; lines needing more are dropped instead, so a corrupted id
/// cannot conjure a four-billion-entry table.
constexpr uint64_t SynthesisBudget = 1 << 16;

template <> struct SalvageMachine::Table<TaskInfo> {
  static constexpr const char *Name = "task";
  static size_t size(const Trace &T) { return T.numTasks(); }
  static TaskInfo &entry(Trace &T, uint32_t Id) {
    return T.taskInfoMutable(TaskId(Id));
  }
  static std::vector<bool> &synth(SalvageMachine &M) { return M.SynthTask; }
  static void add(SalvageMachine &M, const TaskInfo &Info) {
    M.T.addTask(Info);
    M.States.emplace_back();
    M.EventSent.push_back(false);
  }
};

template <> struct SalvageMachine::Table<QueueInfo> {
  static constexpr const char *Name = "queue";
  static size_t size(const Trace &T) { return T.numQueues(); }
  static QueueInfo &entry(Trace &T, uint32_t Id) {
    return T.queueInfoMutable(QueueId(Id));
  }
  static std::vector<bool> &synth(SalvageMachine &M) { return M.SynthQueue; }
  static void add(SalvageMachine &M, const QueueInfo &Info) {
    M.T.addQueue(Info);
    M.ActiveEvent.push_back(TaskId::invalid());
  }
};

template <> struct SalvageMachine::Table<MethodInfo> {
  static constexpr const char *Name = "method";
  static size_t size(const Trace &T) { return T.numMethods(); }
  static MethodInfo &entry(Trace &T, uint32_t Id) {
    return T.methodInfoMutable(MethodId(Id));
  }
  static std::vector<bool> &synth(SalvageMachine &M) { return M.SynthMethod; }
  static void add(SalvageMachine &M, const MethodInfo &Info) {
    M.T.addMethod(Info);
  }
};

template <> struct SalvageMachine::Table<ListenerInfo> {
  static constexpr const char *Name = "listener";
  static size_t size(const Trace &T) { return T.numListeners(); }
  static ListenerInfo &entry(Trace &T, uint32_t Id) {
    return T.listenerInfoMutable(ListenerId(Id));
  }
  static std::vector<bool> &synth(SalvageMachine &M) {
    return M.SynthListener;
  }
  static void add(SalvageMachine &M, const ListenerInfo &Info) {
    M.T.addListener(Info);
  }
};

template <typename InfoT>
void SalvageMachine::push(const InfoT &Info, bool Synth) {
  Table<InfoT>::add(*this, Info);
  Table<InfoT>::synth(*this).push_back(Synth);
}

template <typename InfoT> bool SalvageMachine::pad(uint64_t Count) {
  const size_t Size = Table<InfoT>::size(T);
  if (Count <= Size)
    return true;
  uint64_t Needed = Count - Size;
  if (Report.TableEntriesSynthesized + Needed > SynthesisBudget)
    return false;
  Report.TableEntriesSynthesized += Needed;
  for (uint64_t I = 0; I != Needed; ++I)
    push(InfoT(), true);
  return true;
}

template <typename InfoT>
void SalvageMachine::declare(const InfoT &Info, uint32_t Id, bool Committed,
                             size_t Ln) {
  const char *What = Table<InfoT>::Name;
  if (Id < Table<InfoT>::size(T)) {
    std::vector<bool> &Synth = Table<InfoT>::synth(*this);
    if (!Synth[Id] || Committed) {
      dropLine(Ln, formatString("%s %u re-declared", What, Id));
      return;
    }
    Table<InfoT>::entry(T, Id) = Info;
    Synth[Id] = false;
    incident(Ln, formatString("%s %u declared out of order; backfilled "
                              "the placeholder",
                              What, Id));
    return;
  }
  if (Id > Table<InfoT>::size(T)) {
    if (!pad<InfoT>(Id)) {
      dropLine(Ln, formatString("gap before %s %u exceeds the synthesis "
                                "budget",
                                What, Id));
      return;
    }
    incident(Ln, formatString("gap before %s %u; synthesized placeholders",
                              What, Id));
  }
  push(Info, false);
}

template <typename InfoT, typename NoteFn>
bool SalvageMachine::resolve(uint64_t Raw, const char *Unusable,
                             const char *What, size_t Ln, NoteFn Note) {
  if (Raw >= SentinelId) {
    dropLine(Ln, Unusable);
    return false;
  }
  uint32_t Id = static_cast<uint32_t>(Raw);
  if (Id < Table<InfoT>::size(T))
    return true;
  if (!pad<InfoT>(static_cast<uint64_t>(Id) + 1)) {
    dropLine(Ln, formatString("%s %u beyond the synthesis budget", What, Id));
    return false;
  }
  Note(formatString("%s %u undeclared; synthesized a placeholder", What, Id));
  return true;
}

//===----------------------------------------------------------------------===//
// SalvageMachine: record synthesis
//===----------------------------------------------------------------------===//

void SalvageMachine::synthRecord(TaskId Task, OpKind Kind, uint64_t A0) {
  TraceRecord R;
  R.Task = Task;
  R.Kind = Kind;
  R.Arg0 = A0;
  R.Time = LastTime;
  T.append(R);
  ++Report.RecordsSynthesized;
}

void SalvageMachine::unwindStacks(TaskId Task) {
  TaskState &S = States[Task.index()];
  while (!S.FrameStack.empty()) {
    synthRecord(Task, OpKind::MethodExit, S.FrameStack.back());
    S.FrameStack.pop_back();
  }
  while (!S.LockStack.empty()) {
    synthRecord(Task, OpKind::LockRelease, S.LockStack.back());
    S.LockStack.pop_back();
  }
}

void SalvageMachine::synthEnd(TaskId Task) {
  unwindStacks(Task);
  synthRecord(Task, OpKind::TaskEnd);
  States[Task.index()].Ended = true;
  const TaskInfo &Info = T.taskInfo(Task);
  if (Info.Kind == TaskKind::Event && Info.Queue.isValid() &&
      Info.Queue.index() < ActiveEvent.size() &&
      ActiveEvent[Info.Queue.index()] == Task)
    ActiveEvent[Info.Queue.index()] = TaskId::invalid();
}

void SalvageMachine::fixEventQueue(TaskId Task, size_t Ln) {
  TaskInfo &Info = T.taskInfoMutable(Task);
  if (Info.Kind != TaskKind::Event)
    return;
  if (Info.Queue.isValid() && Info.Queue.index() < T.numQueues())
    return;
  if (Info.Queue.isValid() &&
      pad<QueueInfo>(static_cast<uint64_t>(Info.Queue.index()) + 1)) {
    incident(Ln, formatString("task %u: undeclared queue %u; synthesized a "
                              "placeholder",
                              Task.value(), Info.Queue.value()));
    return;
  }
  Info.Kind = TaskKind::Thread;
  Info.Queue = QueueId::invalid();
  incident(Ln, formatString("task %u: event with no usable queue demoted to a "
                            "thread",
                            Task.value()));
}

void SalvageMachine::prepareBegin(TaskId Task, size_t Ln) {
  fixEventQueue(Task, Ln);
  const TaskInfo &Info = T.taskInfo(Task);
  if (Info.Kind != TaskKind::Event)
    return;
  uint32_t Q = Info.Queue.index();
  if (ActiveEvent[Q].isValid()) {
    incident(Ln, formatString("queue %u: event %u still open; synthesized its "
                              "terminator",
                              Q, ActiveEvent[Q].value()));
    synthEnd(ActiveEvent[Q]);
  }
  if (!Info.External && !EventSent[Task.index()]) {
    ++Report.UnsentEventBegins;
    incident(Ln, formatString("event %u begins without a send record",
                              Task.value()));
  }
}

void SalvageMachine::synthBegin(TaskId Task, size_t Ln) {
  prepareBegin(Task, Ln);
  synthRecord(Task, OpKind::TaskBegin);
  States[Task.index()].Begun = true;
  const TaskInfo &Info = T.taskInfo(Task);
  if (Info.Kind == TaskKind::Event)
    ActiveEvent[Info.Queue.index()] = Task;
}

//===----------------------------------------------------------------------===//
// SalvageMachine: shard stream
//===----------------------------------------------------------------------===//

StrId SalvageMachine::remapName(StrId ShardId) {
  if (!ShardId.isValid())
    return StrId::invalid();
  if (NameRemap.size() <= ShardId.index())
    NameRemap.resize(ShardNames->size(), StrId::invalid());
  StrId &Mapped = NameRemap[ShardId.index()];
  if (!Mapped.isValid())
    Mapped = T.names().intern(ShardNames->str(ShardId));
  return Mapped;
}

void SalvageMachine::beginShard(const StringInterner &Names) {
  ShardNames = &Names;
  NameRemap.clear();
}

void SalvageMachine::endShard(uint64_t ShardLineCount) {
  LineBase += ShardLineCount;
  ShardNames = nullptr;
}

void SalvageMachine::admit(const LexedLine &L) {
  if (Failed)
    return;
  uint64_t Ln = LineBase + L.RelLine;
  LineNo = Ln;
  if (!SeenFirstLine) {
    SeenFirstLine = true;
    if (L.Kind == LineKind::Magic)
      return;
    Report.MissingHeader = true;
    diag(Ln, "missing 'cafa-trace v1' header");
    if (Opt.Strict) {
      hardFail("strict mode: missing or unrecognized trace header; "
               "expected 'cafa-trace v1'");
      return;
    }
    // Fall through: the first line may itself be a directive.
  }
  switch (L.Kind) {
  case LineKind::Blank:
    return;
  case LineKind::Magic:
    // A header line anywhere but line 1 is just an unknown directive
    // whose first token is "cafa-trace".
    ++Report.LinesTotal;
    dropLine(Ln, "unknown directive 'cafa-trace'");
    return;
  case LineKind::Unknown:
    ++Report.LinesTotal;
    dropLine(Ln, formatString("unknown directive '%s'",
                              ShardNames->str(L.Name).c_str()));
    return;
  case LineKind::Drop:
    ++Report.LinesTotal;
    dropLine(Ln, L.DropMsg);
    return;
  case LineKind::Rec:
    ++Report.LinesTotal;
    handleRec(L, Ln);
    return;
  case LineKind::Method:
    ++Report.LinesTotal;
    handleMethod(L, Ln);
    return;
  case LineKind::Queue:
    ++Report.LinesTotal;
    handleQueue(L, Ln);
    return;
  case LineKind::Listener:
    ++Report.LinesTotal;
    handleListener(L, Ln);
    return;
  case LineKind::Task:
    ++Report.LinesTotal;
    handleTask(L, Ln);
    return;
  }
}

//===----------------------------------------------------------------------===//
// SalvageMachine: side-table directives
//===----------------------------------------------------------------------===//

void SalvageMachine::handleMethod(const LexedLine &L, size_t Ln) {
  MethodInfo Info;
  // Intern before the re-declare check, even for a line that is then
  // dropped: the interner's id assignment order is part of the
  // bit-identity contract.
  Info.Name = remapName(L.Name);
  Info.CodeSize = L.Aux;
  declare(Info, L.Id, false, Ln);
}

void SalvageMachine::handleQueue(const LexedLine &L, size_t Ln) {
  QueueInfo Info;
  Info.Name = remapName(L.Name);
  Info.Looper = tracetext::idFromRaw<TaskId>(L.Aux);
  declare(Info, L.Id, false, Ln);
}

void SalvageMachine::handleListener(const LexedLine &L, size_t Ln) {
  ListenerInfo Info;
  Info.Name = remapName(L.Name);
  Info.Instrumented = L.Aux != 0;
  declare(Info, L.Id, false, Ln);
}

void SalvageMachine::handleTask(const LexedLine &L, size_t Ln) {
  TaskInfo Info;
  Info.Kind = (L.TaskFlags & TaskFlagEvent) ? TaskKind::Event
                                            : TaskKind::Thread;
  Info.Name = remapName(L.Name);
  Info.Process = tracetext::idFromRaw<ProcessId>(L.Aux2);
  Info.Queue = tracetext::idFromRaw<QueueId>(L.QueueRef);
  Info.Handler = tracetext::idFromRaw<MethodId>(L.Pc);
  Info.DelayMs = L.Arg0;
  Info.SentAtFront = (L.TaskFlags & TaskFlagFront) != 0;
  Info.External = (L.TaskFlags & TaskFlagExternal) != 0;
  Info.Parent = tracetext::idFromRaw<TaskId>(L.Parent);
  Info.IsLooper = (L.TaskFlags & TaskFlagLooper) != 0;
  // Backfill is only sound while nothing has committed to the
  // placeholder's identity (no records, no send naming it).
  const uint32_t Id = L.Id;
  const bool Committed =
      Id < T.numTasks() && (States[Id].Begun || EventSent[Id]);
  declare(Info, Id, Committed, Ln);
}

//===----------------------------------------------------------------------===//
// SalvageMachine: record directives
//===----------------------------------------------------------------------===//

void SalvageMachine::admitRecord(const TraceRecord &Rec, bool Repaired,
                                 const std::string &Note, size_t Ln) {
  T.append(Rec);
  ++Report.RecordsKept;
  LastTime = Rec.Time;
  if (Repaired) {
    ++Report.RecordsRepaired;
    incident(Ln, Note);
  }
}

void SalvageMachine::handleRec(const LexedLine &L, size_t Ln) {
  uint32_t TaskRaw = L.Id;
  uint32_t MethodRaw = L.Aux;
  OpKind Kind = L.Op;
  uint64_t A0 = L.Arg0, A1 = L.Arg1, A2 = L.Arg2, Time = L.Time;
  if (TaskRaw == SentinelId) {
    dropLine(Ln, "rec with invalid task id");
    return;
  }
  if (TaskRaw >= T.numTasks()) {
    if (!pad<TaskInfo>(static_cast<uint64_t>(TaskRaw) + 1)) {
      dropLine(Ln, formatString("rec references undeclared task %u beyond "
                                "the synthesis budget",
                                TaskRaw));
      return;
    }
    incident(Ln, formatString("rec references undeclared task %u; "
                              "synthesized placeholder tasks",
                              TaskRaw));
  }
  TaskId Task(TaskRaw);

  bool Repaired = false;
  std::string RepairNote;
  auto noteRepair = [&](const std::string &Msg) {
    Repaired = true;
    if (!RepairNote.empty())
      RepairNote += "; ";
    RepairNote += Msg;
  };

  if (Time < LastTime) {
    Time = LastTime;
    noteRepair("timestamp regressed; clamped");
  }

  TraceRecord Rec;
  Rec.Task = Task;
  Rec.Kind = Kind;
  Rec.Method = tracetext::idFromRaw<MethodId>(MethodRaw);
  Rec.Pc = L.Pc;
  Rec.Arg0 = A0;
  Rec.Arg1 = A1;
  Rec.Arg2 = A2;
  Rec.Time = Time;

  // Non-branch records survive an unknown method (report rendering
  // tolerates it); branches are handled in their case below because the
  // guard machinery indexes the method table.
  if (Kind != OpKind::Branch && Rec.Method.isValid() &&
      Rec.Method.index() >= T.numMethods()) {
    Rec.Method = MethodId::invalid();
    noteRepair(formatString("unknown method %u cleared", MethodRaw));
  }

  // Task lifecycle framing.
  if (Kind == OpKind::TaskBegin) {
    if (States[TaskRaw].Begun || States[TaskRaw].Ended) {
      dropLine(Ln, "duplicate task begin");
      return;
    }
    prepareBegin(Task, Ln);
    admitRecord(Rec, Repaired, RepairNote, Ln);
    States[TaskRaw].Begun = true;
    const TaskInfo &Info = T.taskInfo(Task);
    if (Info.Kind == TaskKind::Event)
      ActiveEvent[Info.Queue.index()] = Task;
    return;
  }
  if (States[TaskRaw].Ended) {
    dropLine(Ln, "operation after task end");
    return;
  }
  if (!States[TaskRaw].Begun) {
    incident(Ln, formatString("task %u operates before its begin; "
                              "synthesized one",
                              TaskRaw));
    synthBegin(Task, Ln);
    if (Failed)
      return;
  }

  switch (Kind) {
  case OpKind::TaskBegin:
    return; // handled above

  case OpKind::TaskEnd: {
    TaskState &S = States[TaskRaw];
    if (!S.LockStack.empty() || !S.FrameStack.empty()) {
      noteRepair(formatString(
          "task ends holding %zu locks / %zu frames; synthesized the "
          "balance",
          S.LockStack.size(), S.FrameStack.size()));
      unwindStacks(Task);
    }
    admitRecord(Rec, Repaired, RepairNote, Ln);
    S.Ended = true;
    const TaskInfo &Info = T.taskInfo(Task);
    if (Info.Kind == TaskKind::Event && Info.Queue.isValid() &&
        Info.Queue.index() < ActiveEvent.size() &&
        ActiveEvent[Info.Queue.index()] == Task)
      ActiveEvent[Info.Queue.index()] = TaskId::invalid();
    return;
  }

  case OpKind::Send:
  case OpKind::SendAtFront: {
    if (!resolve<TaskInfo>(A0, "send with unusable target id",
                           "send target", Ln, noteRepair))
      return;
    uint32_t Target = static_cast<uint32_t>(A0);
    TaskInfo &TI = T.taskInfoMutable(TaskId(Target));
    if (TI.Kind != TaskKind::Event) {
      if (SynthTask[Target] && !States[Target].Begun) {
        TI.Kind = TaskKind::Event;
        noteRepair(formatString("placeholder task %u assumed to be an "
                                "event",
                                Target));
      } else {
        dropLine(Ln, "send target is not an event");
        return;
      }
    }
    if (EventSent[Target]) {
      dropLine(Ln, "event sent twice");
      return;
    }
    if (States[Target].Begun) {
      dropLine(Ln, "event sent after it began");
      return;
    }
    if (TI.Queue.isValid() && TI.Queue.index() < T.numQueues()) {
      if (Rec.Arg2 != TI.Queue.value()) {
        Rec.Arg2 = TI.Queue.value();
        noteRepair("send queue rewritten to the task table's");
      }
    } else if (A2 < SentinelId && pad<QueueInfo>(A2 + 1)) {
      TI.Queue = QueueId(static_cast<uint32_t>(A2));
      noteRepair("task-table queue adopted from the send record");
    } else {
      dropLine(Ln, "send with no usable queue");
      return;
    }
    EventSent[Target] = true;
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;
  }

  case OpKind::Fork: {
    if (!resolve<TaskInfo>(A0, "fork with unusable target id",
                           "fork target", Ln, noteRepair))
      return;
    uint32_t Target = static_cast<uint32_t>(A0);
    if (T.taskInfo(TaskId(Target)).Kind != TaskKind::Thread) {
      dropLine(Ln, "fork target is not a thread");
      return;
    }
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;
  }

  case OpKind::Join: {
    if (!resolve<TaskInfo>(A0, "join with unusable target id",
                           "join target", Ln, noteRepair))
      return;
    uint32_t Target = static_cast<uint32_t>(A0);
    if (T.taskInfo(TaskId(Target)).Kind != TaskKind::Thread) {
      dropLine(Ln, "join target is not a thread");
      return;
    }
    if (!States[Target].Ended) {
      noteRepair(formatString(
          "join of unended thread %u; synthesized its end", Target));
      if (!States[Target].Begun)
        synthBegin(TaskId(Target), Ln);
      synthEnd(TaskId(Target));
    }
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;
  }

  case OpKind::Wait:
  case OpKind::Notify:
    // The HB builder sizes per-monitor arrays by the largest id seen;
    // a corrupted id must not conjure a multi-gigabyte allocation.
    if (A0 > Opt.MaxEntityId) {
      dropLine(Ln, "monitor id out of bounds");
      return;
    }
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;

  case OpKind::Read:
  case OpKind::Write:
  case OpKind::PtrRead:
  case OpKind::PtrWrite:
    // The detector sizes its frees-by-variable index by the largest
    // variable id seen.
    if (A0 > Opt.MaxEntityId) {
      dropLine(Ln, "variable id out of bounds");
      return;
    }
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;

  case OpKind::Deref:
  case OpKind::IpcSend:
  case OpKind::IpcRecv:
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;

  case OpKind::Branch:
    if (A0 > 2) {
      dropLine(Ln, "unknown branch kind");
      return;
    }
    if (A2 > 0xFFFFFFFFull) {
      dropLine(Ln, "branch target pc out of range");
      return;
    }
    if (!Rec.Method.isValid() || Rec.Method.index() >= T.numMethods()) {
      dropLine(Ln, "branch outside any known method");
      return;
    }
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;

  case OpKind::RegisterListener:
  case OpKind::PerformListener: {
    if (!resolve<ListenerInfo>(A0, "listener id out of bounds", "listener",
                               Ln, noteRepair))
      return;
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;
  }

  case OpKind::LockAcquire:
    States[TaskRaw].LockStack.push_back(A0);
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;

  case OpKind::LockRelease: {
    TaskState &S = States[TaskRaw];
    if (S.LockStack.empty() || S.LockStack.back() != A0) {
      bool Held = std::find(S.LockStack.begin(), S.LockStack.end(), A0) !=
                  S.LockStack.end();
      if (Held) {
        noteRepair("release out of order; synthesized releases for "
                   "inner locks");
        while (S.LockStack.back() != A0) {
          synthRecord(Task, OpKind::LockRelease, S.LockStack.back());
          S.LockStack.pop_back();
        }
      } else {
        noteRepair("release without acquire; synthesized one");
        synthRecord(Task, OpKind::LockAcquire, A0);
        S.LockStack.push_back(A0);
      }
    }
    S.LockStack.pop_back();
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;
  }

  case OpKind::MethodEnter:
    if (!SeenFrameIds.insert(A0).second) {
      dropLine(Ln, "frame id reused");
      return;
    }
    States[TaskRaw].FrameStack.push_back(A0);
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;

  case OpKind::MethodExit: {
    TaskState &S = States[TaskRaw];
    if (S.FrameStack.empty() || S.FrameStack.back() != A0) {
      bool Open = std::find(S.FrameStack.begin(), S.FrameStack.end(), A0) !=
                  S.FrameStack.end();
      if (Open) {
        noteRepair("exit of an outer frame; synthesized exits for inner "
                   "frames");
        while (S.FrameStack.back() != A0) {
          synthRecord(Task, OpKind::MethodExit, S.FrameStack.back());
          S.FrameStack.pop_back();
        }
      } else if (SeenFrameIds.insert(A0).second) {
        noteRepair("exit without enter; synthesized one");
        synthRecord(Task, OpKind::MethodEnter, A0);
        S.FrameStack.push_back(A0);
      } else {
        dropLine(Ln, "unmatched method exit");
        return;
      }
    }
    S.FrameStack.pop_back();
    admitRecord(Rec, Repaired, RepairNote, Ln);
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// SalvageMachine: end of input
//===----------------------------------------------------------------------===//

Status SalvageMachine::finish(Trace &Out, IngestReport &ReportOut) {
  if (!SeenFirstLine && !Failed) {
    Report.MissingHeader = true;
    if (Opt.Strict)
      hardFail("strict mode: empty input");
  }

  // Close events the stream left open (trace truncated mid-handler).
  // Strict mode skips this: an unended task is legal in a validated
  // trace (the runtime stops logging after a fixed interaction window),
  // so strict accepts it unchanged.
  if (!Failed && !Opt.Strict) {
    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numTasks()); I != E;
         ++I) {
      if (!States[I].Begun || States[I].Ended)
        continue;
      if (T.taskInfo(TaskId(I)).Kind != TaskKind::Event)
        continue;
      incident(0, formatString("input ended while event %u was executing; "
                               "synthesized its terminator",
                               I));
      synthEnd(TaskId(I));
    }
  }

  // Bound every dormant cross-reference so downstream dense indexing
  // stays in range even for tasks that never produced a record.
  if (!Failed && !Opt.Strict) {
    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numTasks()); I != E;
         ++I) {
      TaskInfo &Info = T.taskInfoMutable(TaskId(I));
      if (Info.Queue.isValid() && Info.Queue.index() >= T.numQueues()) {
        Info.Queue = QueueId::invalid();
        if (Info.Kind == TaskKind::Event)
          Info.Kind = TaskKind::Thread;
        incident(0, formatString("task %u: dangling queue reference cleared",
                                 I));
      }
      if (Info.Parent.isValid() && Info.Parent.index() >= T.numTasks()) {
        Info.Parent = TaskId::invalid();
        incident(0, formatString("task %u: dangling parent reference cleared",
                                 I));
      }
      if (Info.Handler.isValid() && Info.Handler.index() >= T.numMethods()) {
        Info.Handler = MethodId::invalid();
        incident(0, formatString("task %u: dangling handler reference "
                                 "cleared",
                                 I));
      }
    }
    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numQueues()); I != E;
         ++I) {
      QueueInfo &Info = T.queueInfoMutable(QueueId(I));
      if (Info.Looper.isValid() && Info.Looper.index() >= T.numTasks()) {
        Info.Looper = TaskId::invalid();
        incident(0, formatString("queue %u: dangling looper reference "
                                 "cleared",
                                 I));
      }
    }
  }

  if (!Failed && Report.LinesTotal > 0) {
    double Ratio = static_cast<double>(Report.LinesDropped) /
                   static_cast<double>(Report.LinesTotal);
    if (Ratio > Opt.MaxDroppedRatio)
      hardFail(formatString(
          "error budget exceeded: dropped %llu of %llu lines "
          "(%.0f%% > %.0f%% cap)",
          static_cast<unsigned long long>(Report.LinesDropped),
          static_cast<unsigned long long>(Report.LinesTotal),
          Ratio * 100.0, Opt.MaxDroppedRatio * 100.0));
  }

  ReportOut = std::move(Report);
  if (Failed)
    return Fail;
  Out = std::move(T);
  return Status::success();
}
