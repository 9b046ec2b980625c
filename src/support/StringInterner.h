//===- support/StringInterner.h - String uniquing pool ---------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns strings (method names, class names, app names) into dense
/// 32-bit ids so trace records stay fixed-size and comparisons are O(1).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_SUPPORT_STRINGINTERNER_H
#define CAFA_SUPPORT_STRINGINTERNER_H

#include "support/Ids.h"

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cafa {

/// Identifies an interned string within one StringInterner.
using StrId = StrongId<struct StrIdTag>;

/// A pool of uniqued strings with stable ids.
class StringInterner {
public:
  /// Interns \p S, returning its id; repeated calls with equal strings
  /// return the same id.
  StrId intern(std::string_view S);

  /// Returns the string for \p Id.  \p Id must come from this interner.
  const std::string &str(StrId Id) const;

  /// Returns the number of distinct strings interned.
  size_t size() const { return Strings.size(); }

private:
  /// Hashes std::string keys and std::string_view probes alike, so a
  /// lookup builds no string (C++20 heterogeneous lookup).
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };

  std::vector<std::string> Strings;
  std::unordered_map<std::string, uint32_t, ViewHash, std::equal_to<>> Index;
};

} // namespace cafa

#endif // CAFA_SUPPORT_STRINGINTERNER_H
