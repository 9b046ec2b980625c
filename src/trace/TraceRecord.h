//===- trace/TraceRecord.h - One operation in an execution -----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace operation vocabulary.
///
/// This is the paper's Figure 3 grammar (begin/end, rd/wr, fork/join,
/// wait/notify, send/sendAtFront, register/perform) extended with the
/// operations CAFA's instrumentation adds in Section 5: object-pointer
/// reads and writes (from which uses, frees and allocations are derived),
/// dereferences, the three guarded branch instructions, method
/// enter/exit (the calling-context stack), lock acquire/release (for
/// lockset checking -- deliberately *not* a happens-before source), and
/// Binder IPC send/receive pairs correlated by transaction id.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TRACE_TRACERECORD_H
#define CAFA_TRACE_TRACERECORD_H

#include "support/Ids.h"

#include <cstdint>
#include <string_view>

namespace cafa {

/// The kind of a trace operation.
enum class OpKind : uint8_t {
  /// Task lifecycle: emitted when a task (thread or event) starts/ends.
  TaskBegin,
  TaskEnd,
  /// Scalar memory access: arg0 = VarId, arg1 = value.
  Read,
  Write,
  /// Thread management: arg0 = TaskId of the forked/joined thread.
  Fork,
  Join,
  /// Condition synchronization: arg0 = MonitorId.
  Wait,
  Notify,
  /// Event generation: arg0 = TaskId of the event, arg1 = delay in
  /// milliseconds (Send only), arg2 = QueueId.
  Send,
  SendAtFront,
  /// Listener lifecycle: arg0 = ListenerId.
  RegisterListener,
  PerformListener,
  /// Mutual exclusion: arg0 = LockId.  Locks contribute locksets, not
  /// happens-before edges (Section 3.1).
  LockAcquire,
  LockRelease,
  /// Binder IPC: arg0 = TransactionId.
  IpcSend,
  IpcRecv,
  /// Object-pointer read (i-get-object family): arg0 = VarId of the
  /// pointer cell, arg1 = ObjectId read (0 = null).
  PtrRead,
  /// Object-pointer write (i-put-object family): arg0 = VarId, arg1 =
  /// ObjectId written (0 = null, i.e. a *free*; nonzero = *allocation*).
  PtrWrite,
  /// Dereference of an object: arg0 = ObjectId, arg1 = DerefKind.
  Deref,
  /// Pointer-testing branch logged per the if-guard convention: arg0 =
  /// BranchKind, arg1 = ObjectId tested, arg2 = target pc.  Emitted only
  /// on the outcome that proves the pointer non-null on the continuing
  /// path (if-eqz: not taken; if-nez / if-eq: taken).
  Branch,
  /// Calling-context stack: arg0 = frame id unique per invocation;
  /// MethodExit arg1 = 1 when exiting by exception throw.
  MethodEnter,
  MethodExit,
};

/// Returns a stable lowercase mnemonic for \p Kind (used by the text
/// serialization and diagnostics).
const char *opKindName(OpKind Kind);

/// Parses \p Name back into an OpKind; returns false unless \p Name is a
/// whole mnemonic (a C string converts up to its NUL).
bool opKindFromName(std::string_view Name, OpKind &KindOut);

/// Number of distinct OpKind values (for stats arrays).
constexpr unsigned NumOpKinds = static_cast<unsigned>(OpKind::MethodExit) + 1;

/// Sub-kind for OpKind::Branch.
enum class BranchKind : uint8_t {
  IfEqz, ///< jump if pointer is null
  IfNez, ///< jump if pointer is non-null
  IfEq,  ///< jump if two pointers are equal (commonly `== this`)
};

/// Sub-kind for OpKind::Deref.
enum class DerefKind : uint8_t {
  FieldAccess, ///< read or write of a field of the object
  Invoke,      ///< virtual method invocation on the object
};

/// One operation performed by one task.
///
/// Records are fixed-size; the meaning of Arg0..Arg2 depends on Kind as
/// documented on \ref OpKind.  Pc/Method locate the bytecode instruction
/// that produced the record (0/invalid for runtime-emitted records such as
/// TaskBegin).  Time is the simulated timestamp; records appear in the
/// trace in a valid linearization of the execution.
struct TraceRecord {
  TaskId Task;
  OpKind Kind = OpKind::TaskBegin;
  MethodId Method;
  uint32_t Pc = 0;
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;
  uint64_t Arg2 = 0;
  uint64_t Time = 0;

  // --- Typed accessors (asserted in debug builds via the call sites). ---

  VarId var() const { return VarId(static_cast<uint32_t>(Arg0)); }
  ObjectId object() const { return ObjectId(static_cast<uint32_t>(Arg1)); }
  ObjectId derefObject() const {
    return ObjectId(static_cast<uint32_t>(Arg0));
  }
  TaskId targetTask() const { return TaskId(static_cast<uint32_t>(Arg0)); }
  uint64_t delayMs() const { return Arg1; }
  QueueId queue() const { return QueueId(static_cast<uint32_t>(Arg2)); }
  MonitorId monitor() const { return MonitorId(static_cast<uint32_t>(Arg0)); }
  ListenerId listener() const {
    return ListenerId(static_cast<uint32_t>(Arg0));
  }
  LockId lock() const { return LockId(static_cast<uint32_t>(Arg0)); }
  TransactionId transaction() const {
    return TransactionId(static_cast<uint32_t>(Arg0));
  }
  BranchKind branchKind() const { return static_cast<BranchKind>(Arg0); }
  ObjectId branchObject() const {
    return ObjectId(static_cast<uint32_t>(Arg1));
  }
  uint32_t branchTargetPc() const { return static_cast<uint32_t>(Arg2); }
  DerefKind derefKind() const { return static_cast<DerefKind>(Arg1); }
  uint64_t frameId() const { return Arg0; }
  bool exitedByThrow() const { return Arg1 != 0; }

  /// Returns true for a pointer write of null -- the paper's *free*.
  bool isFree() const {
    return Kind == OpKind::PtrWrite && Arg1 == 0;
  }
  /// Returns true for a pointer write of a valid object -- an *allocation*.
  bool isAllocation() const {
    return Kind == OpKind::PtrWrite && Arg1 != 0;
  }
};

} // namespace cafa

#endif // CAFA_TRACE_TRACERECORD_H
