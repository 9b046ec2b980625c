//===- support/MappedFile.cpp - Read-only file memory mapping ----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/MappedFile.h"

#include "support/Format.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace cafa;

int64_t MappedFile::regularFileSize(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
    return -1;
  return static_cast<int64_t>(St.st_size);
}

MappedFile::Outcome MappedFile::open(const std::string &Path,
                                     Status *ErrOut) {
  reset();
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    if (ErrOut)
      *ErrOut = Status::error(formatString("cannot open '%s': %s",
                                           Path.c_str(),
                                           std::strerror(errno)));
    return Outcome::Error;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    int E = errno;
    ::close(Fd);
    if (ErrOut)
      *ErrOut = Status::error(formatString("cannot stat '%s': %s",
                                           Path.c_str(), std::strerror(E)));
    return Outcome::Error;
  }
  if (!S_ISREG(St.st_mode) || St.st_size == 0) {
    // Pipes, devices, and empty files: the buffered reader's territory.
    ::close(Fd);
    return Outcome::NotMappable;
  }
  size_t Bytes = static_cast<size_t>(St.st_size);
  void *P = ::mmap(nullptr, Bytes, PROT_READ, MAP_PRIVATE, Fd, 0);
  // The mapping holds its own reference; the descriptor is not needed
  // past this point either way.
  ::close(Fd);
  if (P == MAP_FAILED) {
    if (ErrOut)
      *ErrOut = Status::error(formatString("cannot mmap '%s': %s",
                                           Path.c_str(),
                                           std::strerror(errno)));
    return Outcome::Error;
  }
#ifdef POSIX_MADV_SEQUENTIAL
  ::posix_madvise(P, Bytes, POSIX_MADV_SEQUENTIAL);
#endif
  Base = P;
  Size = Bytes;
  return Outcome::Mapped;
}

void MappedFile::reset() {
  if (Base) {
    ::munmap(Base, Size);
    Base = nullptr;
    Size = 0;
  }
}

static void onSigbus(int Sig, siginfo_t *Info, void *) {
  if (Info && Info->si_code == BUS_ADRERR) {
    // Async-signal-safe calls only.
    static const char Msg[] = "error: input changed during analysis\n";
    ssize_t Written = ::write(STDERR_FILENO, Msg, sizeof(Msg) - 1);
    (void)Written;
    ::_exit(2);
  }
  // Not a truncated mapping: die of the signal as if never handled.
  ::signal(Sig, SIG_DFL);
  ::raise(Sig);
}

void cafa::installTruncatedMappingHandler() {
  struct sigaction Action;
  std::memset(&Action, 0, sizeof(Action));
  Action.sa_sigaction = onSigbus;
  Action.sa_flags = SA_SIGINFO;
  sigemptyset(&Action.sa_mask);
  ::sigaction(SIGBUS, &Action, nullptr);
}
