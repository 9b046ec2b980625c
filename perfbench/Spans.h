//===- perfbench/Spans.h - In-memory span recorder for the benchmark -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run of the benchmark wraps every call it makes into a CAFA
/// module in a span: name, start, end, the enclosing span, and the id of
/// the input trace it works on.  Spans stay in memory while the run
/// measures and are written out once it ends, so recording costs two
/// clock reads and a vector append per call.  The harness is single
/// threaded, so a span's children never overlap and its self time is
/// its duration minus theirs.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_PERFBENCH_SPANS_H
#define CAFA_PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace cafa {
namespace perfbench {

/// One timed interval.
struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Index of the enclosing span in the recorder, or -1 for a root.
  int64_t Parent = -1;
  /// Input trace the span works on (unique per trace and pass).
  uint32_t TraceId = 0;
  /// Measured pass the span belongs to.
  uint32_t Pass = 0;

  uint64_t durationNs() const { return EndNs - StartNs; }
};

class SpanRecorder {
public:
  /// Opens a span nested in the innermost open one and returns its index.
  size_t open(std::string Name, uint32_t TraceId, uint32_t Pass);
  /// Closes the innermost open span, which must be \p Id.
  void close(size_t Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Per span: its duration minus the durations of its direct children.
  std::vector<uint64_t> selfNanos() const;

  /// Writes one JSON object per span and line to \p Path.
  bool writeJsonLines(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<size_t> OpenStack;
};

/// Records a span for the lifetime of the object.  With a null recorder
/// it does nothing, so the untraced run shares the traced run's code.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name, uint32_t TraceId,
             uint32_t Pass)
      : R(R), Id(R ? R->open(Name, TraceId, Pass) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  size_t Id;
};

} // namespace perfbench
} // namespace cafa

#endif // CAFA_PERFBENCH_SPANS_H
