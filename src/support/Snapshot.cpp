//===- support/Snapshot.cpp - Versioned checksummed binary snapshots ----------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Snapshot.h"

#include "support/DurableFile.h"

#include <cstdio>
#include <cstring>

using namespace cafa;

uint64_t cafa::fnv1a64(const void *Data, size_t Size, uint64_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {

/// File framing: 8-byte magic, then three little-endian header fields,
/// then the payload.  28 bytes total before the payload.
constexpr size_t MagicBytes = 8;

} // namespace

void cafa::appendLe(std::string &Out, uint64_t V, int Bytes) {
  for (int I = 0; I != Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (I * 8)) & 0xFF));
}

uint64_t cafa::readLe(const char *P, int Bytes) {
  uint64_t V = 0;
  for (int I = 0; I != Bytes; ++I)
    V |= static_cast<uint64_t>(static_cast<unsigned char>(P[I])) << (I * 8);
  return V;
}

void SnapshotWriter::u32(uint32_t V) { appendLe(Buf, V, 4); }

void SnapshotWriter::u64(uint64_t V) { appendLe(Buf, V, 8); }

void SnapshotWriter::str(std::string_view S) {
  u32(static_cast<uint32_t>(S.size()));
  Buf.append(S.data(), S.size());
}

Status SnapshotWriter::writeFileAtomic(const std::string &Path,
                                       const char *Magic,
                                       uint32_t Version) const {
  std::string Framed;
  Framed.reserve(MagicBytes + 20 + Buf.size());
  Framed.append(Magic, MagicBytes);
  appendLe(Framed, Version, 4);
  appendLe(Framed, Buf.size(), 8);
  appendLe(Framed, fnv1a64(Buf.data(), Buf.size()), 8);
  Framed.append(Buf);
  return durableWrite(Path, Framed);
}

Status SnapshotReader::loadFile(const std::string &Path, const char *Magic,
                                uint32_t Version) {
  Payload.clear();
  Pos = 0;

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Status::error("cannot open '" + Path + "'");
  std::string Data;
  char Chunk[1 << 16];
  for (size_t N; (N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0;)
    Data.append(Chunk, N);
  bool ReadErr = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadErr)
    return Status::error("cannot read '" + Path + "'");

  if (Data.size() < MagicBytes + 20)
    return Status::error("snapshot truncated (no complete header)");
  if (std::memcmp(Data.data(), Magic, MagicBytes) != 0)
    return Status::error("not a snapshot file (bad magic)");
  uint32_t GotVersion =
      static_cast<uint32_t>(readLe(Data.data() + MagicBytes, 4));
  if (GotVersion != Version)
    return Status::error("unsupported snapshot version " +
                         std::to_string(GotVersion) + " (expected " +
                         std::to_string(Version) + ")");
  uint64_t PayloadSize = readLe(Data.data() + MagicBytes + 4, 8);
  uint64_t Checksum = readLe(Data.data() + MagicBytes + 12, 8);
  if (Data.size() - (MagicBytes + 20) != PayloadSize)
    return Status::error("snapshot truncated (payload length mismatch)");
  const char *P = Data.data() + MagicBytes + 20;
  if (fnv1a64(P, PayloadSize) != Checksum)
    return Status::error("snapshot checksum mismatch (corrupted file)");
  Payload.assign(P, PayloadSize);
  return Status::success();
}

bool SnapshotReader::u8(uint8_t &V) {
  if (Payload.size() - Pos < 1)
    return false;
  V = static_cast<uint8_t>(Payload[Pos++]);
  return true;
}

bool SnapshotReader::u32(uint32_t &V) {
  if (Payload.size() - Pos < 4)
    return false;
  V = static_cast<uint32_t>(readLe(Payload.data() + Pos, 4));
  Pos += 4;
  return true;
}

bool SnapshotReader::u64(uint64_t &V) {
  if (Payload.size() - Pos < 8)
    return false;
  V = readLe(Payload.data() + Pos, 8);
  Pos += 8;
  return true;
}

bool SnapshotReader::str(std::string &S, size_t MaxLen) {
  uint32_t Len;
  if (!u32(Len))
    return false;
  if (Len > MaxLen || Payload.size() - Pos < Len)
    return false;
  S.assign(Payload.data() + Pos, Len);
  Pos += Len;
  return true;
}

