//===- support/MappedFile.h - Read-only file memory mapping ----*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only memory mapping of a regular file, used by the sharded
/// ingestion path so multi-GB trace dumps are lexed straight out of the
/// page cache instead of being copied into a resident std::string.
///
/// open() maps only plain regular files; pipes, sockets, devices, and
/// empty files report NotMappable so callers can fall back to buffered
/// reads (IngestSession keeps its chunked ifstream path for exactly
/// that).  The mapping is advised for sequential access and unmapped in
/// the destructor; views handed out (contents()) must not outlive the
/// object.
///
/// A file truncated by someone else while it is mapped turns reads past
/// its new end into SIGBUS.  Processes that map paths they do not own
/// call installTruncatedMappingHandler() first, so that ends in a
/// classified exit instead of a signal.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_SUPPORT_MAPPEDFILE_H
#define CAFA_SUPPORT_MAPPEDFILE_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace cafa {

/// RAII read-only mapping of one regular file.
class MappedFile {
public:
  MappedFile() = default;
  ~MappedFile() { reset(); }

  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  MappedFile(MappedFile &&O) noexcept { *this = std::move(O); }
  MappedFile &operator=(MappedFile &&O) noexcept {
    if (this != &O) {
      reset();
      Base = O.Base;
      Size = O.Size;
      O.Base = nullptr;
      O.Size = 0;
    }
    return *this;
  }

  /// Why open() did not produce a mapping.
  enum class Outcome {
    Mapped,      ///< contents() is valid
    NotMappable, ///< not a regular file (or empty): use buffered reads
    Error,       ///< open/fstat/mmap failed on a regular file
  };

  /// Maps \p Path read-only.  On NotMappable the caller should fall back
  /// to a buffered reader; on Error \p ErrOut (when non-null) receives a
  /// diagnostic.
  Outcome open(const std::string &Path, Status *ErrOut = nullptr);

  /// Unmaps (no-op when nothing is mapped).
  void reset();

  bool mapped() const { return Base != nullptr; }
  size_t size() const { return Size; }

  /// The whole file as a view.  Valid until reset()/destruction.
  std::string_view contents() const {
    return std::string_view(static_cast<const char *>(Base), Size);
  }

  /// Byte size of \p Path if it is a regular file, -1 otherwise (the
  /// pre-flight the ingest size budget check uses; never opens the
  /// file's contents).
  static int64_t regularFileSize(const std::string &Path);

private:
  void *Base = nullptr;
  size_t Size = 0;
};

/// Installs a process-wide SIGBUS handler for mapped input.  A read of a
/// page past the end of a file truncated while mapped (si_code
/// BUS_ADRERR) writes "error: input changed during analysis" to stderr
/// and exits 2, the analyzer's unreadable-input code.  Any other SIGBUS
/// keeps the default action.
void installTruncatedMappingHandler();

} // namespace cafa

#endif // CAFA_SUPPORT_MAPPEDFILE_H
