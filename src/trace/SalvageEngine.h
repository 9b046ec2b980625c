//===- trace/SalvageEngine.h - Lex/admit split for salvage -----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal machinery behind IngestSession, the trace grammar's only
/// reader, split along the only line that keeps parallel ingestion
/// deterministic:
///
///  - lexShard() does every piece of per-line work that needs no parser
///    state: splitting a byte range into lines, tokenizing, numeric
///    parsing, classifying the directive, and interning names into a
///    shard-private StringInterner.  It is a pure function of the shard
///    bytes, so shards can be lexed concurrently in any order.
///
///  - SalvageMachine makes every *stateful* decision — drop vs repair vs
///    synthesize, error budgets, placeholder backfill, timestamp
///    clamping — consuming LexedLines strictly in original byte order.
///    Both the single-threaded and the sharded paths run this exact
///    machine over the exact same lexed stream, which is what makes the
///    merged output bit-identical at every thread count *by
///    construction* rather than by after-the-fact reconciliation.
///
/// Shard-private name ids are rebuilt into the merged trace's dense id
/// space through a lazily memoized remap table (see remapName), interned
/// at fixed control-flow points of the merge, so the interner's id
/// assignment order does not depend on the shard cuts either.
///
/// Not installed; include only from src/trace.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TRACE_SALVAGEENGINE_H
#define CAFA_TRACE_SALVAGEENGINE_H

#include "support/Status.h"
#include "support/StringInterner.h"
#include "trace/IngestSession.h"
#include "trace/Trace.h"

#include <string_view>
#include <unordered_set>
#include <vector>

namespace cafa {
namespace ingest {

/// What a line lexed into, before any stateful decision.
enum class LineKind : uint8_t {
  Blank,    ///< blank / comment / whitespace-only (emitted for RelLine 1
            ///< only, so the machine can run its first-line logic)
  Magic,    ///< exactly the 'cafa-trace v1' header line
  Unknown,  ///< unrecognized directive; Name holds it
  Drop,     ///< structurally malformed; DropMsg is the diagnostic
  Rec,
  Method,
  Queue,
  Listener,
  Task,
};

/// One lexed input line.  Field meaning depends on Kind:
///  - Unknown:  Name = the directive
///  - Method:   Id, Name, Aux = code size
///  - Queue:    Id, Name, Aux = raw looper task id
///  - Listener: Id, Name, Aux = instrumented flag
///  - Task:     Id, Name, TaskFlags, Aux2 = process, Pc = raw handler,
///              QueueRef = raw queue, Parent = raw parent, Arg0 = delay ms
///  - Rec:      Id = raw task, Op, Aux = raw method, Pc, Arg0..Arg2, Time
struct LexedLine {
  uint32_t RelLine = 0; ///< 1-based line number within the shard
  LineKind Kind = LineKind::Blank;
  OpKind Op = OpKind::TaskBegin;
  uint8_t TaskFlags = 0; ///< Task lines: see TaskFlag* below
  StrId Name;            ///< a name in the shard interner
  const char *DropMsg = nullptr; ///< Drop lines: static diagnostic text
  uint32_t Id = 0;
  uint32_t Aux = 0;
  uint32_t Aux2 = 0;
  uint32_t Pc = 0;
  uint32_t QueueRef = 0;
  uint32_t Parent = 0;
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;
  uint64_t Arg2 = 0;
  uint64_t Time = 0;
};

// Every admissible line of a shard is buffered as one of these until the
// merge consumes it.
static_assert(sizeof(LexedLine) <= 80, "keep LexedLine small");

inline constexpr uint8_t TaskFlagEvent = 1 << 0;
inline constexpr uint8_t TaskFlagFront = 1 << 1;
inline constexpr uint8_t TaskFlagExternal = 1 << 2;
inline constexpr uint8_t TaskFlagLooper = 1 << 3;

/// The lexed form of one shard: the stateless parse of a byte range.
struct ShardFragment {
  StringInterner Names;        ///< shard-private interner
  std::vector<LexedLine> Lines; ///< admissible lines, in byte order
  uint64_t LineCount = 0;       ///< ALL lines in the shard, incl. skipped
  bool EndsWithoutNewline = false; ///< shard text lacks a final '\n'
};

/// Lexes \p Text (one shard, cut at line boundaries except possibly the
/// final shard's tail) into \p Out.  Pure: no shared state, thread-safe.
void lexShard(std::string_view Text, ShardFragment &Out);

/// The stateful salvage pipeline: consumes LexedLines in original byte
/// order and applies the drop/repair/synthesize policy documented in
/// docs/robustness.md.  Under SalvageOptions::Strict the first drop or
/// repair fails the machine instead.
class SalvageMachine {
public:
  explicit SalvageMachine(const SalvageOptions &Options);

  /// Starts consuming a new shard whose names live in \p ShardNames.
  void beginShard(const StringInterner &ShardNames);

  /// Admits the next lexed line of the current shard.  No-op once the
  /// machine has hard-failed.
  void admit(const LexedLine &L);

  /// Ends the current shard, advancing the global line counter by the
  /// shard's full line count (lexing skips blank lines; numbering must
  /// not).
  void endShard(uint64_t ShardLineCount);

  /// Records that the input did not end in a newline.
  void noteTruncatedFinalLine() { Report.TruncatedFinalLine = true; }

  /// End-of-input repairs + budget checks; moves the result out.
  /// \p ReportOut is filled even on failure; \p Out only on success.
  Status finish(Trace &Out, IngestReport &ReportOut);

  bool failed() const { return Failed; }

  /// Global 1-based number of the last line consumed (shards ended).
  uint64_t lineBase() const { return LineBase; }

private:
  // --- Configuration & lifecycle ---------------------------------------
  SalvageOptions Opt;
  Trace T;
  IngestReport Report;
  bool Failed = false;
  Status Fail = Status::success();

  uint64_t LineBase = 0; ///< lines consumed in fully ended shards
  uint64_t LineNo = 0;   ///< global number of the line being admitted
  bool SeenFirstLine = false;

  // --- Shard name remapping --------------------------------------------
  const StringInterner *ShardNames = nullptr;
  std::vector<StrId> NameRemap; ///< shard StrId -> merged StrId, memoized

  StrId remapName(StrId ShardId);

  // --- Validator state mirror (what validateTrace would check) ---------
  struct TaskState {
    bool Begun = false;
    bool Ended = false;
    std::vector<uint64_t> LockStack;
    std::vector<uint64_t> FrameStack;
  };
  std::vector<TaskState> States;
  std::vector<bool> EventSent;
  /// Per side-table entry: a placeholder synthesized for a dangling
  /// reference that no declaration has backfilled yet.
  std::vector<bool> SynthTask;
  std::vector<bool> SynthQueue;
  std::vector<bool> SynthMethod;
  std::vector<bool> SynthListener;
  std::vector<TaskId> ActiveEvent;
  std::unordered_set<uint64_t> SeenFrameIds;
  uint64_t LastTime = 0;

  // --- Accounting -------------------------------------------------------
  void hardFail(const std::string &Msg);
  void diag(size_t Ln, const std::string &Msg);
  void incident(size_t Ln, const std::string &Msg);
  void dropLine(size_t Ln, const std::string &Msg);

  // --- Side tables: one policy, parameterized by table ------------------
  /// How the policy reaches the side table of \p InfoT (TaskInfo,
  /// QueueInfo, MethodInfo, ListenerInfo): its name in diagnostics, its
  /// size and entries, its placeholder marks, and the machine state that
  /// grows with it.  Specialized in SalvageEngine.cpp.
  template <typename InfoT> struct Table;
  /// Appends \p Info, a placeholder when \p Synth.
  template <typename InfoT> void push(const InfoT &Info, bool Synth);
  /// Grows the table to \p Count entries with placeholders.  \returns
  /// false, growing nothing, past the synthesis budget.
  template <typename InfoT> bool pad(uint64_t Count);
  /// Admits the declaration of entry \p Id.  An entry already present is
  /// re-declared, and the line dropped, unless it is a placeholder
  /// nothing has \p Committed to, which the declaration backfills.  A
  /// gap before \p Id is padded with placeholders within the budget;
  /// past it the line is dropped.
  template <typename InfoT>
  void declare(const InfoT &Info, uint32_t Id, bool Committed, size_t Ln);
  /// Resolves a record's reference \p Raw into the table.  An unusable
  /// id drops the line with \p Unusable; an id past the table pads it,
  /// noting the repair through \p Note, or drops the line past the
  /// budget.  \p What names the reference in those diagnostics.
  /// \returns false when the line was dropped.
  template <typename InfoT, typename NoteFn>
  bool resolve(uint64_t Raw, const char *Unusable, const char *What,
               size_t Ln, NoteFn Note);

  // --- Record synthesis -------------------------------------------------
  void synthRecord(TaskId Task, OpKind Kind, uint64_t A0 = 0);
  void unwindStacks(TaskId Task);
  void synthEnd(TaskId Task);
  void fixEventQueue(TaskId Task, size_t Ln);
  void prepareBegin(TaskId Task, size_t Ln);
  void synthBegin(TaskId Task, size_t Ln);

  // --- Line handling ----------------------------------------------------
  void admitRecord(const TraceRecord &Rec, bool Repaired,
                   const std::string &Note, size_t Ln);
  void handleMethod(const LexedLine &L, size_t Ln);
  void handleQueue(const LexedLine &L, size_t Ln);
  void handleListener(const LexedLine &L, size_t Ln);
  void handleTask(const LexedLine &L, size_t Ln);
  void handleRec(const LexedLine &L, size_t Ln);
};

} // namespace ingest
} // namespace cafa

#endif // CAFA_TRACE_SALVAGEENGINE_H
