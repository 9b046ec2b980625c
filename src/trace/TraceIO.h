//===- trace/TraceIO.h - Trace text serialization --------------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned line-oriented text serialization of traces.  This plays the
/// role of the paper's logger-device stream read over ADB: the customized
/// runtime writes it during execution, the offline analyzer reads it back
/// through IngestSession, whose salvage lexer is the grammar's only
/// reader (docs/trace-format.md).  The format is deliberately simple (one
/// record per line) so that traces can be inspected and diffed by hand.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TRACE_TRACEIO_H
#define CAFA_TRACE_TRACEIO_H

#include "support/Status.h"
#include "trace/Trace.h"

#include <string>

namespace cafa {

/// Serializes \p T into the v1 text format.
std::string serializeTrace(const Trace &T);

/// Serializes one record as a single line (no trailing newline).  Exposed
/// separately because the logging tracer streams records incrementally.
std::string serializeRecordLine(const TraceRecord &Rec);

/// Writes the serialized trace to \p Path.
Status writeTraceFile(const Trace &T, const std::string &Path);

} // namespace cafa

#endif // CAFA_TRACE_TRACEIO_H
