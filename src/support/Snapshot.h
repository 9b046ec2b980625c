//===- support/Snapshot.h - Versioned checksummed binary snapshots -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny binary serialization layer for crash-safe state snapshots
/// (checkpoint/resume of the analysis pipeline, docs/robustness.md).
///
/// Design constraints, in order:
///  - a half-written or bit-flipped file must be *detected*, never
///    mis-decoded: every file carries a magic, a format version, the
///    payload length, and an FNV-1a checksum over the payload, and the
///    reader refuses anything that does not check out;
///  - writes are atomic at the filesystem level: the payload goes to a
///    sibling temp file, is flushed and fsync'd, and only then renamed
///    over the destination, so a crash leaves either the old snapshot or
///    the new one -- never a torn hybrid;
///  - decoding is bounds-checked primitive by primitive: a truncated or
///    hostile payload makes reads fail, it never reads out of bounds.
///
/// Encoding: fixed-width little-endian integers, length-prefixed strings
/// and arrays.  No varints, no alignment tricks -- snapshots are
/// ephemeral work-in-progress state, not an archival format, so
/// simplicity and verifiability win over density.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_SUPPORT_SNAPSHOT_H
#define CAFA_SUPPORT_SNAPSHOT_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace cafa {

/// FNV-1a 64-bit over a byte range, continuing from \p Seed (pass the
/// previous return value to hash discontiguous pieces).
uint64_t fnv1a64(const void *Data, size_t Size,
                 uint64_t Seed = 0xcbf29ce484222325ull);

/// Folds one 64-bit value into an FNV-1a hash (field-wise hashing of
/// structs without relying on their memory layout).
inline uint64_t fnv1a64Mix(uint64_t Hash, uint64_t Value) {
  for (int I = 0; I != 8; ++I) {
    Hash ^= (Value >> (I * 8)) & 0xFF;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

/// Appends the low \p Bytes bytes of \p V to \p Out, little-endian.
void appendLe(std::string &Out, uint64_t V, int Bytes);
/// Reads a \p Bytes-byte little-endian value at \p P.
uint64_t readLe(const char *P, int Bytes);

/// Appends primitives to a growing payload buffer, then writes the
/// framed file atomically.
class SnapshotWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  /// Length-prefixed string (u32 length + raw bytes).
  void str(std::string_view S);

  const std::string &buffer() const { return Buf; }

  /// Writes header + payload to \p Path via a sibling ".tmp" file,
  /// fsync, and rename.  \p Magic must be exactly 8 bytes.
  Status writeFileAtomic(const std::string &Path, const char *Magic,
                         uint32_t Version) const;

private:
  std::string Buf;
};

/// Loads and verifies a snapshot file, then hands out bounds-checked
/// primitive reads.  Every read returns false once the payload is
/// exhausted; decoders check as they go and bail out cleanly.
class SnapshotReader {
public:
  /// Reads \p Path, verifying magic, version, length, and checksum.
  /// On failure the reader holds no payload and every read fails.
  Status loadFile(const std::string &Path, const char *Magic,
                  uint32_t Version);

  /// Adopts an already-verified payload held in memory, for callers
  /// that frame records themselves (e.g. the race-store journal, whose
  /// per-record checksums are checked before decoding).
  void setPayload(std::string Bytes) {
    Payload = std::move(Bytes);
    Pos = 0;
  }

  bool u8(uint8_t &V);
  bool u32(uint32_t &V);
  bool u64(uint64_t &V);
  /// Reads a length-prefixed string of at most \p MaxLen bytes (the cap
  /// guards decode loops against corrupt lengths).
  bool str(std::string &S, size_t MaxLen = 1 << 20);

  /// True when the whole payload was consumed (decoders should verify
  /// this to reject trailing garbage).
  bool atEnd() const { return Pos == Payload.size(); }

private:
  std::string Payload;
  size_t Pos = 0;
};

} // namespace cafa

#endif // CAFA_SUPPORT_SNAPSHOT_H
