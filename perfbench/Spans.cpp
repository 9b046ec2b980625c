//===- perfbench/Spans.cpp - In-memory span recorder for the benchmark ----===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "cafa/ReportJson.h"
#include "support/Timer.h"

#include <cassert>
#include <cstdio>

using namespace cafa;
using namespace cafa::perfbench;

size_t SpanRecorder::open(std::string Name, uint32_t TraceId, uint32_t Pass) {
  Span S;
  S.Name = std::move(Name);
  S.Parent = OpenStack.empty() ? -1 : static_cast<int64_t>(OpenStack.back());
  S.TraceId = TraceId;
  S.Pass = Pass;
  Spans.push_back(std::move(S));
  OpenStack.push_back(Spans.size() - 1);
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  Spans.back().StartNs = wallTimeNanos();
  return Spans.size() - 1;
}

void SpanRecorder::close(size_t Id) {
  uint64_t Now = wallTimeNanos();
  assert(!OpenStack.empty() && OpenStack.back() == Id &&
         "spans must close innermost first");
  OpenStack.pop_back();
  Spans[Id].EndNs = Now;
}

std::vector<uint64_t> SpanRecorder::selfNanos() const {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].durationNs();
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.durationNs();
  return Self;
}

bool SpanRecorder::writeJsonLines(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<uint64_t> Self = selfNanos();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"trace\":%u,\"pass\":%u,"
                 "\"parent\":%lld,\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"self_ns\":%llu}\n",
                 I, jsonEscape(S.Name).c_str(), S.TraceId, S.Pass,
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<unsigned long long>(Self[I]));
  }
  return std::fclose(F) == 0;
}
