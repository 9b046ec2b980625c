//===- trace/IngestSession.h - Unified trace ingestion API -----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single public entry point for turning trace text into a Trace.
///
/// Configure an IngestOptions, feed the stream in arbitrary chunks (or
/// point it at a file), then finish() to receive the Trace and a
/// structured IngestReport.  Every reader of the `cafa-trace v1` grammar
/// goes through here, and through one lexer: the salvage pipeline
/// documented in docs/robustness.md — malformed lines are dropped at
/// per-line resynchronization points under error budgets, structural
/// violations are repaired when a sound repair exists, and every
/// decision is accounted in the IngestReport.  SalvageOptions::Strict
/// turns every such decision into a failure instead.
///
/// The session shards the input into byte ranges aligned to line
/// boundaries and runs the expensive line-local work (tokenizing, numeric
/// parsing, name interning) in IngestOptions::Threads worker threads.
/// The stateful salvage decisions (drop/repair/synthesize) are made in a
/// deterministic merge pass over the lexed shards in original byte
/// order, so the resulting Trace and IngestReport are **bit-identical at
/// every thread count** — parallelism changes wall-clock time, nothing
/// else.  See docs/trace-format.md ("Sharded ingestion") for the
/// shard-boundary and id-remap design.
///
/// Ingestion keeps no checkpoint: re-reading a trace is cheaper than
/// resuming a merge snapshot, so a crash mid-ingest re-reads the file.
/// Crash-safe resume belongs to the analysis (cafa/Checkpoint.h).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TRACE_INGESTSESSION_H
#define CAFA_TRACE_INGESTSESSION_H

#include "support/Status.h"
#include "trace/Trace.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cafa {

/// Tuning knobs for the salvage parser.
struct SalvageOptions {
  /// Strict reading: every line must lex and admit with no drop or
  /// repair, and no end-of-input repair runs.  The first incident fails
  /// the session, and finish() then leaves its output Trace untouched.
  bool Strict = false;
  /// Keep at most this many detailed diagnostics in the report (all
  /// incidents are still counted).
  uint32_t MaxDiagnostics = 16;
  /// Error budget, absolute: fail once more than this many lines have
  /// been dropped.
  uint64_t MaxDroppedLines = UINT64_MAX;
  /// Error budget, relative: fail (at finish) when more than this
  /// fraction of non-blank input lines was dropped.
  double MaxDroppedRatio = 0.5;
  /// Upper bound on entity ids (monitors, pointer cells) the analyzer
  /// indexes dense arrays with; records above it are dropped.
  uint64_t MaxEntityId = 1 << 20;
};

/// One noteworthy decision made during salvage.
struct IngestDiagnostic {
  size_t LineNo = 0; ///< 1-based input line; 0 for end-of-input repairs.
  std::string Message;
};

/// What the salvage parser kept, dropped, and repaired.
struct IngestReport {
  uint64_t LinesTotal = 0;            ///< non-blank, non-comment lines seen
  uint64_t LinesDropped = 0;          ///< lines discarded entirely
  uint64_t RecordsKept = 0;           ///< input records admitted to the trace
  uint64_t RecordsRepaired = 0;       ///< admitted after an in-place fixup
  uint64_t RecordsSynthesized = 0;    ///< bookkeeping records fabricated
  uint64_t TableEntriesSynthesized = 0; ///< placeholder side-table rows
  uint64_t UnsentEventBegins = 0;     ///< events admitted without a send
  bool MissingHeader = false;         ///< no 'cafa-trace v1' first line
  bool TruncatedFinalLine = false;    ///< input ended without a newline
  uint64_t IncidentsTotal = 0;        ///< drops + repairs, all categories
  /// The first SalvageOptions::MaxDiagnostics incidents, with line numbers.
  std::vector<IngestDiagnostic> Diagnostics;

  /// True when the input parsed without a single drop or repair.
  bool clean() const { return IncidentsTotal == 0 && !MissingHeader; }

  /// Renders a human-readable multi-line summary, newline-terminated.
  std::string summary() const;
};

/// Configuration for an IngestSession.
struct IngestOptions {
  /// Salvage tuning knobs, strict reading included.
  SalvageOptions Salvage;

  /// Lexer worker threads.  0 means auto: the
  /// CAFA_INGEST_THREADS environment variable if set, else
  /// std::thread::hardware_concurrency().  The output is bit-identical
  /// at every thread count.
  unsigned Threads = 0;

  /// Target shard size in bytes; each shard is extended to the next
  /// line boundary.  The output is bit-identical at every shard size.
  /// The default cuts a 1 MB app trace into eight shards, so every
  /// lexer thread gets work while the session thread merges.
  uint64_t ShardBytes = 128ull << 10;

  /// Input size budget in bytes (0 = unlimited).  feedFile() fstat's the
  /// target and fails up front with a usage error when a regular file
  /// exceeds the budget, instead of letting a non-windowed analysis OOM
  /// halfway through the slurp.  Drivers set this from --mem-limit when
  /// no streaming window is active.
  uint64_t MaxInputBytes = 0;
};

/// Streaming trace ingestion.  Feed the input in arbitrary chunks (or
/// via feedFile), then finish() once to take the Trace and the report.
class IngestSession {
public:
  explicit IngestSession(const IngestOptions &Options = IngestOptions());
  ~IngestSession();

  IngestSession(const IngestSession &) = delete;
  IngestSession &operator=(const IngestSession &) = delete;

  /// Consumes the next chunk of the stream.  Chunk boundaries need not
  /// align with lines.
  void feed(std::string_view Chunk);

  /// Streams \p Path into the session, straight out of a mapping when
  /// the file can be mapped.  Returns an error if the file cannot be
  /// opened or exceeds IngestOptions::MaxInputBytes.
  Status feedFile(const std::string &Path);

  /// Completes ingestion: drains the workers, merges the remaining
  /// shards, applies end-of-input repairs, and moves the result into
  /// \p Out.  Fails (leaving \p Out untouched) only under Strict or a
  /// blown error budget; \p ReportOut is filled either way.
  Status finish(Trace &Out, IngestReport &ReportOut);

  /// The thread count \p Requested resolves to (0 = auto: environment,
  /// then hardware concurrency).
  static unsigned resolveThreads(unsigned Requested);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// One-shot convenience: ingest \p Text under \p Options.
Status ingestTrace(const std::string &Text, Trace &Out, IngestReport &Report,
                   const IngestOptions &Options = IngestOptions());

/// One-shot convenience: ingest the file at \p Path under \p Options.
Status ingestTraceFile(const std::string &Path, Trace &Out,
                       IngestReport &Report,
                       const IngestOptions &Options = IngestOptions());

} // namespace cafa

#endif // CAFA_TRACE_INGESTSESSION_H
