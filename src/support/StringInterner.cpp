//===- support/StringInterner.cpp - String uniquing pool -----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/StringInterner.h"

#include <cassert>

using namespace cafa;

StrId StringInterner::intern(std::string_view S) {
  auto It = Index.find(S);
  if (It != Index.end())
    return StrId(It->second);
  uint32_t Id = static_cast<uint32_t>(Strings.size());
  Strings.emplace_back(S);
  Index.emplace(Strings.back(), Id);
  return StrId(Id);
}

const std::string &StringInterner::str(StrId Id) const {
  assert(Id.isValid() && Id.index() < Strings.size() &&
         "string id out of range");
  return Strings[Id.index()];
}
