//===- trace/LoggerDevice.h - In-memory trace sink --------------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stand-in for the paper's kernel logger device.  Instrumentation
/// hooks append records here during a simulated execution; the offline
/// analyzer later takes the accumulated Trace.  When mirroring is on, the
/// device also serializes every record to an in-memory byte stream, so an
/// instrumented run pays a realistic per-record formatting/writing cost
/// (this is what Figure 8's slowdown measures).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TRACE_LOGGERDEVICE_H
#define CAFA_TRACE_LOGGERDEVICE_H

#include "trace/Trace.h"

#include <string>
#include <utility>

namespace cafa {

/// Accumulates trace records emitted by the instrumented runtime.
class LoggerDevice {
public:
  /// \param MirrorToStream when true, each record is additionally
  /// serialized to the text stream (costs CPU like a real logger write).
  /// \param WritePasses calibrates the per-record device-write cost: the
  /// paper's ROM crosses JNI and copies each record into a kernel logger
  /// device, which costs far more than the record's construction; each
  /// pass checksums the serialized bytes once.
  explicit LoggerDevice(bool MirrorToStream = true,
                        uint32_t WritePasses = 10)
      : MirrorToStream(MirrorToStream), WritePasses(WritePasses) {}

  /// The trace being accumulated (side tables are registered directly).
  Trace &trace() { return TraceData; }
  const Trace &trace() const { return TraceData; }

  /// Appends \p Rec, mirroring it to the byte stream when enabled.
  void append(const TraceRecord &Rec);

  /// Moves the accumulated trace out of the device.
  Trace take() { return std::move(TraceData); }

private:
  Trace TraceData;
  bool MirrorToStream;
  uint32_t WritePasses;
  std::string Stream;
};

} // namespace cafa

#endif // CAFA_TRACE_LOGGERDEVICE_H
