//===- tests/TestScratch.h - Per-test scratch directories -------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// uniqueScratchDir(), the one way tests get a directory for files.
/// ctest runs every gtest case as its own process and `ctest -j` runs
/// them side by side, so a fixed testing::TempDir() subdirectory lets one
/// case rewrite another's trace or snapshot while it is being read.  The
/// directory name combines the running test's name with the process id
/// (which keeps parallel cases and earlier runs apart) and a per-process
/// counter (which keeps several directories of one process apart, as
/// when a plain gtest binary runs every case in one process).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_TESTS_TESTSCRATCH_H
#define CAFA_TESTS_TESTSCRATCH_H

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

namespace cafa {

namespace detail {

/// Removes the scratch directories a test process created when that
/// process exits.  A child forked by a test inherits the list but is not
/// the owner, so its exit leaves the parent's files alone.
struct ScratchReaper {
  pid_t Owner = ::getpid();
  std::vector<std::string> Dirs;
  ~ScratchReaper() {
    if (::getpid() != Owner)
      return;
    std::error_code Ignored;
    for (const std::string &Dir : Dirs)
      std::filesystem::remove_all(Dir, Ignored);
  }
};

inline ScratchReaper &scratchReaper() {
  static ScratchReaper Reaper;
  return Reaper;
}

} // namespace detail

/// Creates and returns <TempDir>/cafa_<suite>.<test>.<pid>.<n>, removed
/// again when this process exits.  Inside SetUpTestSuite, where no test
/// is running yet, the suite name stands in for the test name.
inline std::string uniqueScratchDir() {
  const testing::UnitTest &U = *testing::UnitTest::GetInstance();
  std::string Name = "test";
  if (const testing::TestInfo *Info = U.current_test_info())
    Name = std::string(Info->test_suite_name()) + "." + Info->name();
  else if (const testing::TestSuite *Suite = U.current_test_suite())
    Name = Suite->name();
  for (char &C : Name)
    if (C == '/')
      C = '_'; // parameterized names
  static unsigned Counter = 0;
  std::string Dir = testing::TempDir();
  if (Dir.empty() || Dir.back() != '/')
    Dir += '/';
  Dir += "cafa_" + Name + "." + std::to_string(::getpid()) + "." +
         std::to_string(Counter++);
  ::mkdir(Dir.c_str(), 0755);
  detail::scratchReaper().Dirs.push_back(Dir);
  return Dir;
}

} // namespace cafa

#endif // CAFA_TESTS_TESTSCRATCH_H
