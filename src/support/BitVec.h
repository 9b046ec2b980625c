//===- support/BitVec.h - Dense dynamic bit vector -------------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense dynamic bit vector.  Its hot operation is OR-ing one row of a
/// reachability matrix into another: the transitive reduction of the
/// task digest (hb/DotExport.cpp) and the reference closure the tests
/// pin every oracle against.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_SUPPORT_BITVEC_H
#define CAFA_SUPPORT_BITVEC_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace cafa {

/// A fixed-universe set of small integers backed by 64-bit words.
class BitVec {
public:
  BitVec() = default;

  /// Creates a vector holding \p NumBits bits, all clear.
  explicit BitVec(size_t NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  /// Returns the universe size in bits.
  size_t size() const { return NumBits; }

  /// Resizes to \p NewNumBits; newly added bits are clear.
  void resize(size_t NewNumBits) {
    NumBits = NewNumBits;
    Words.resize((NewNumBits + 63) / 64, 0);
    clearTail();
  }

  /// Sets bit \p I.
  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I >> 6] |= (uint64_t(1) << (I & 63));
  }

  /// Clears bit \p I.
  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I >> 6] &= ~(uint64_t(1) << (I & 63));
  }

  /// Returns bit \p I.
  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I >> 6] >> (I & 63)) & 1;
  }

  /// Clears all bits.
  void clear() { std::memset(Words.data(), 0, Words.size() * 8); }

  /// ORs \p Other into this vector.  Universe sizes must match.
  /// \returns true if any bit changed.
  bool orWith(const BitVec &Other) {
    assert(NumBits == Other.NumBits && "universe size mismatch");
    uint64_t Changed = 0;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      uint64_t New = Old | Other.Words[I];
      Words[I] = New;
      Changed |= Old ^ New;
    }
    return Changed != 0;
  }

  /// ORs \p Other into this vector, skipping all words before the one
  /// holding \p FromBit.  The caller asserts Other has no set bit below
  /// \p FromBit (e.g. closure rows over a DAG in topological order only
  /// hold bits above the row's own node).  \returns true if any bit
  /// changed.
  bool orWithFrom(const BitVec &Other, size_t FromBit) {
    assert(NumBits == Other.NumBits && "universe size mismatch");
    uint64_t Changed = 0;
    for (size_t I = FromBit >> 6, E = Words.size(); I < E; ++I) {
      uint64_t Old = Words[I];
      uint64_t New = Old | Other.Words[I];
      Words[I] = New;
      Changed |= Old ^ New;
    }
    return Changed != 0;
  }

  /// Returns the number of 64-bit backing words.
  size_t numWords() const { return Words.size(); }

  /// Returns backing word \p I (bits [64*I, 64*I+63]).
  uint64_t word(size_t I) const { return Words[I]; }

  /// Returns true if this vector and \p Other share any set bit.
  bool anyCommon(const BitVec &Other) const {
    assert(NumBits == Other.NumBits && "universe size mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  /// Returns the number of set bits.
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// Returns true if no bit is set.
  bool none() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  /// Calls \p Fn(index) for every set bit in ascending order.
  template <typename FnT> void forEachSetBit(FnT Fn) const {
    for (size_t WI = 0, E = Words.size(); WI != E; ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// Returns the approximate heap footprint in bytes.
  size_t memoryBytes() const { return Words.capacity() * 8; }

private:
  /// Keeps bits past NumBits clear so count()/none() stay exact.
  void clearTail() {
    if (NumBits % 64 == 0 || Words.empty())
      return;
    Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace cafa

#endif // CAFA_SUPPORT_BITVEC_H
