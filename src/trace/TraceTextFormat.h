//===- trace/TraceTextFormat.h - Shared text-format helpers ----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the writer (TraceIO.cpp) and the salvage
/// lexer (SalvageEngine.cpp), the grammar's only reader: the v1 magic
/// line, name escaping, and the sentinel encoding of absent ids.  Not
/// installed; include only from src/trace.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TRACE_TRACETEXTFORMAT_H
#define CAFA_TRACE_TRACETEXTFORMAT_H

#include <cstdint>
#include <string>

namespace cafa {
namespace tracetext {

inline constexpr const char MagicLine[] = "cafa-trace v1";

/// Names may contain spaces in principle; we escape spaces and backslashes
/// so each header line stays whitespace-separated.  The lexer's
/// internName undoes it.
inline std::string escapeName(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == ' ') {
      Out += "\\s";
    } else if (C == '\\') {
      Out += "\\\\";
    } else {
      Out.push_back(C);
    }
  }
  return Out;
}

template <typename IdT> IdT idFromRaw(uint32_t Raw) {
  return Raw == 0xFFFFFFFFu ? IdT::invalid() : IdT(Raw);
}

template <typename IdT> uint32_t idOrSentinel(IdT Id) {
  return Id.isValid() ? Id.value() : 0xFFFFFFFFu;
}

} // namespace tracetext
} // namespace cafa

#endif // CAFA_TRACE_TRACETEXTFORMAT_H
