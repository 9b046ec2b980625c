//===- tests/rt/RuntimeGoldenTest.cpp -----------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins the runtime's schedule byte for byte: the FNV-1a digest of the
// serialized trace of every committed app model and of every fuzz seed
// (RandomScenario.h).  The fuzz scenarios block several tasks on one
// thread, one lock and one pipe, in an order other than their creation
// order.  A release wakes its waiters in ascending task index, and that
// order sequences the woken tasks' steps, so waking them in any other
// order changes a digest here.  A deliberate schedule change must
// re-pin the digests.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "rt/Runtime.h"
#include "support/Snapshot.h"
#include "trace/TraceIO.h"

#include "RandomScenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <utility>

using namespace cafa;

namespace {

uint64_t traceDigest(const Scenario &S) {
  std::string Bytes = serializeTrace(runScenario(S, RuntimeOptions()));
  return fnv1a64(Bytes.data(), Bytes.size());
}

std::string hex(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

TEST(RuntimeGoldenTest, AppTracesMatchPinnedDigests) {
  const std::pair<const char *, uint64_t> Golden[] = {
      {"connectbot", 0x5aa2ac4d02a704c9ull},
      {"mytracks", 0xa2ca5856962ceae9ull},
      {"zxing", 0x0fda1d4cba9a5398ull},
      {"todolist", 0x03f11385d40dc3d8ull},
      {"browser", 0xa91ccbb7d988f232ull},
      {"firefox", 0x275d5d13211f51d2ull},
      {"vlc", 0xe4c7cf28728c3263ull},
      {"fbreader", 0x2419f5a7dac99d99ull},
      {"camera", 0xa5730ac933ae0d7full},
      {"music", 0xcfe803f90ca3764bull},
  };
  ASSERT_EQ(std::size(Golden), apps::appNames().size());
  for (const auto &[Name, Want] : Golden)
    EXPECT_EQ(hex(traceDigest(apps::buildApp(Name).S)), hex(Want))
        << "app " << Name;
}

TEST(RuntimeGoldenTest, FuzzTracesMatchPinnedDigests) {
  const uint64_t Golden[] = {
      0x8d5c1ea08094a39aull, 0xbf892ad59c30109dull, 0x3fae091a497e5885ull,
      0x0d9fcb8d87d547c0ull, 0x12e81474d36f057dull, 0x92faa66428bd4d6eull,
      0xf440c072c8ba441bull, 0x2d506c44f8912947ull,
  };
  ASSERT_EQ(std::size(Golden), std::size(FuzzSeeds));
  for (size_t I = 0; I != std::size(FuzzSeeds); ++I)
    EXPECT_EQ(hex(traceDigest(randomScenario(FuzzSeeds[I]))),
              hex(Golden[I]))
        << "fuzz seed " << FuzzSeeds[I];
}

} // namespace
