//===- cafa/ReportJson.h - Machine-readable report output ------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rendering and parsing of race reports in the shared RaceDocument
/// model (cafa/RaceRecord.h), for CI pipelines and downstream tooling
/// that consumes CAFA's findings programmatically.  This is the single
/// place race JSON is produced or interpreted -- the fleet supervisor
/// and the race store consume RaceDocument values, never raw JSON.
/// The schema is flat and stable:
///
/// \code
/// {
///   "races": [ { "category": "a", "dynamicCount": 1,
///                "use":  {"method": "...", "pc": 3, "task": "...",
///                         "record": 12},
///                "free": {"method": "...", "pc": 7, "task": "...",
///                         "record": 30} } ],
///   "filters": { "candidates": 10, "orderedByHb": 2, ... },
///   "partial": false
/// }
/// \endcode
///
/// When the analysis hit a degradation deadline, "partial" is true and a
/// "partialCause" string ("hb-deadline" or "detect-deadline") follows:
///
/// \code
///   "partial": true,
///   "partialCause": "detect-deadline"
/// \endcode
///
/// When confirmation ran (offline_analyzer --confirm), each race gains a
/// "confirm" field with its verdict:
///
/// \code
///   {"category": "a", "dynamicCount": 1, "confirm": "confirmed", ...}
/// \endcode
///
/// Reports that never went through confirmation render without the
/// field, byte-identical to pre-confirmation builds.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_CAFA_REPORTJSON_H
#define CAFA_CAFA_REPORTJSON_H

#include "cafa/RaceRecord.h"
#include "detect/GroundTruth.h"
#include "detect/RaceReport.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace cafa {

/// Renders a race document as JSON.
std::string renderRaceReportJson(const RaceDocument &Doc);

/// Renders a race report as JSON (names resolved against \p T).
/// Equivalent to renderRaceReportJson(buildRaceDocument(Report, T)).
std::string renderRaceReportJson(const RaceReport &Report, const Trace &T);

/// Renders a race document for humans, one line per race
/// (renderRaceLine); verdicts append a per-race marker.
std::string renderRaceReportText(const RaceDocument &Doc);

/// Renders a race report for humans (names resolved against \p T).
/// Equivalent to renderRaceReportText(buildRaceDocument(Report, T)).
std::string renderRaceReport(const RaceReport &Report, const Trace &T);

/// Renders one race as a single line: both sites with their tasks, the
/// category and the dynamic count.
std::string renderRaceLine(const RaceRecord &Race);

/// Parses the JSON emitted by renderRaceReportJson back into a
/// document.  Tolerates unknown fields (schema growth) but fails on
/// malformed JSON or missing race keys; on failure \p Out is left
/// empty.
Status parseRaceReportJson(const std::string &Json, RaceDocument &Out);

/// Renders Table 1 rows as a JSON array.
std::string renderTable1Json(const std::vector<Table1Row> &Rows);

/// Escapes a string for embedding in JSON (exposed for tests).
std::string jsonEscape(const std::string &S);

} // namespace cafa

#endif // CAFA_CAFA_REPORTJSON_H
