//===- detect/Accesses.h - Use/free/alloc extraction -----------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of the high-level operations of Section 4.1/5.3 from the
/// low-level record stream:
///
///  - a *free* is an object-pointer write of null; an *allocation* is an
///    object-pointer write of a valid object;
///  - a *use* is an object-pointer read whose value is later dereferenced.
///    Dereferences carry only the object id, so each one is matched to the
///    nearest previous pointer read in the same task that produced that
///    object id -- the paper's deliberately unsound heuristic whose
///    mismatches cause Type III false positives;
///  - guarded branches are matched to pointers the same way;
///  - every extracted item is annotated with its enclosing method frame
///    (reconstructed from MethodEnter/Exit) and the lockset held at its
///    record (for mutual-exclusion filtering).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_DETECT_ACCESSES_H
#define CAFA_DETECT_ACCESSES_H

#include "trace/Trace.h"

#include <vector>

namespace cafa {

class DerefResolver;

/// One extracted use, free, or allocation.
struct PtrAccess {
  /// Index of the PtrRead (use) / PtrWrite (free, alloc) record.
  uint32_t Record = 0;
  TaskId Task;
  VarId Var;
  MethodId Method;
  uint32_t Pc = 0;
  /// Enclosing frame id (0 when outside any frame; cannot happen for
  /// interpreter-emitted accesses).
  uint64_t Frame = 0;
  /// For uses: the record index of the first dereference matched to this
  /// read.
  uint32_t DerefRecord = 0;
  /// Sorted lock ids held when the record was emitted.
  std::vector<uint32_t> Lockset;
};

/// One extracted guarded branch (if-eqz / if-nez / if-eq on a pointer).
struct GuardBranch {
  uint32_t Record = 0;
  TaskId Task;
  BranchKind Kind = BranchKind::IfEqz;
  /// The pointer cell the branch was matched to (nearest previous read of
  /// the tested object), or invalid if no read matched.
  VarId Var;
  MethodId Method;
  uint32_t Pc = 0;
  uint32_t TargetPc = 0;
  uint64_t Frame = 0;
};

/// All extracted accesses of one trace.
struct AccessDb {
  std::vector<PtrAccess> Uses;
  std::vector<PtrAccess> Frees;
  std::vector<PtrAccess> Allocs;
  std::vector<GuardBranch> Branches;
  /// Pointer reads whose value was never dereferenced (not uses).
  uint64_t UnmatchedReads = 0;
  /// Dereferences with no matching previous read (runtime-produced
  /// objects handed straight to handlers; never uses).
  uint64_t UnmatchedDerefs = 0;
};

/// Streaming consumer of extracted accesses.  Callbacks fire during one
/// forward scan of the records: onFree/onAlloc/onBranch at their own
/// record in record order; onUse at the *dereference* record that
/// promotes the read (so uses arrive in promotion order -- exactly the
/// order of AccessDb::Uses -- and Use.Record is NOT monotone across
/// calls); onPtrRead at every non-null pointer read in record order
/// (passed by field so the common case copies nothing -- the pair
/// scan's stream source uses it to reconstruct a use *at its read
/// record*, where pairs against earlier frees are evaluated);
/// onRecordDone after each record's extraction work, which is the
/// scan's record cursor -- returning false stops the scan (deadline
/// cut).  UseOrdinal counts promotions and equals the use's index in
/// AccessDb::Uses.
class AccessSink {
public:
  virtual ~AccessSink();
  virtual void onUse(PtrAccess Use, size_t UseOrdinal) {
    (void)Use;
    (void)UseOrdinal;
  }
  virtual void onFree(PtrAccess Free) { (void)Free; }
  virtual void onAlloc(PtrAccess Alloc) { (void)Alloc; }
  virtual void onBranch(GuardBranch Br) { (void)Br; }
  virtual void onPtrRead(uint32_t Record, TaskId Task, VarId Var,
                         MethodId Method, uint32_t Pc, uint64_t Frame,
                         const std::vector<uint32_t> &SortedLockset) {
    (void)Record;
    (void)Task;
    (void)Var;
    (void)Method;
    (void)Pc;
    (void)Frame;
    (void)SortedLockset;
  }
  virtual bool onRecordDone(uint32_t Record) {
    (void)Record;
    return true;
  }
};

/// Tail counters of one streaming extraction.
struct StreamExtractCounts {
  uint64_t UnmatchedReads = 0;
  uint64_t UnmatchedDerefs = 0;
};

/// Single-pass streaming extraction: runs the same scan as
/// extractAccesses but hands every extracted item to \p Sink instead of
/// accumulating an AccessDb, so windowed analyses never hold the full
/// access tables resident.  extractAccesses is this function plus an
/// accumulating sink; the two are byte-identical by construction.
StreamExtractCounts streamAccesses(const Trace &T,
                                   const DerefResolver *Resolver,
                                   AccessSink &Sink);

/// Scans \p T once and extracts all high-level accesses.
///
/// When \p Resolver is provided (the Section 6.3 static-dataflow
/// improvement), dereferences and guard branches whose defining load is
/// statically unique are matched to the dynamic read of exactly that
/// load pc in the same frame; only ambiguous sites fall back to the
/// nearest-previous-read heuristic.  This removes the Type III false
/// positives at the cost of requiring the application bytecode.
AccessDb extractAccesses(const Trace &T, const TaskIndex &Index,
                         const DerefResolver *Resolver = nullptr);

} // namespace cafa

#endif // CAFA_DETECT_ACCESSES_H
