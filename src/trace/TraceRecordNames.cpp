//===- trace/TraceRecordNames.cpp - OpKind mnemonics ----------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/TraceRecord.h"

#include <array>
#include <cassert>
#include <cstring>

using namespace cafa;

constexpr const char *KindNames[] = {
    "begin",     "end",      "rd",       "wr",       "fork",
    "join",      "wait",     "notify",   "send",     "sendatfront",
    "register",  "perform",  "lock",     "unlock",   "ipcsend",
    "ipcrecv",   "ptrread",  "ptrwrite", "deref",    "branch",
    "methenter", "methexit",
};

static_assert(sizeof(KindNames) / sizeof(KindNames[0]) == NumOpKinds,
              "KindNames must cover every OpKind");

const char *cafa::opKindName(OpKind Kind) {
  unsigned Index = static_cast<unsigned>(Kind);
  assert(Index < NumOpKinds && "invalid OpKind");
  return KindNames[Index];
}

namespace {

constexpr size_t MaxKindNameLength = 11; // "sendatfront"

/// The OpKinds whose mnemonic has each length, so a lookup compares one
/// to five candidates instead of scanning all of KindNames.
struct LengthBucket {
  uint8_t Count = 0;
  uint8_t Kinds[5] = {};
};

constexpr std::array<LengthBucket, MaxKindNameLength + 1> KindsByLength = [] {
  std::array<LengthBucket, MaxKindNameLength + 1> Buckets{};
  for (unsigned I = 0; I != NumOpKinds; ++I) {
    LengthBucket &B = Buckets[std::string_view(KindNames[I]).size()];
    // Constant evaluation rejects a name longer than MaxKindNameLength
    // and a sixth name of one length.
    B.Kinds[B.Count++] = static_cast<uint8_t>(I);
  }
  return Buckets;
}();

} // namespace

bool cafa::opKindFromName(std::string_view Name, OpKind &KindOut) {
  if (Name.size() > MaxKindNameLength)
    return false;
  const LengthBucket &B = KindsByLength[Name.size()];
  for (unsigned I = 0; I != B.Count; ++I) {
    if (std::memcmp(Name.data(), KindNames[B.Kinds[I]], Name.size()) == 0) {
      KindOut = static_cast<OpKind>(B.Kinds[I]);
      return true;
    }
  }
  return false;
}
