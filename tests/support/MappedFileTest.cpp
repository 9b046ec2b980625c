//===- tests/support/MappedFileTest.cpp ---------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/MappedFile.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

using namespace cafa;

namespace {

std::string writeTemp(const std::string &Name, const std::string &Bytes) {
  std::string Path = uniqueScratchDir() + "/" + Name;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return Path;
}

TEST(MappedFileTest, MapsRegularFileContents) {
  std::string Bytes = "begin 1\nsend 1 2 0\nend 1\n";
  std::string Path = writeTemp("mapped_basic", Bytes);
  MappedFile M;
  ASSERT_EQ(M.open(Path), MappedFile::Outcome::Mapped);
  EXPECT_TRUE(M.mapped());
  EXPECT_EQ(M.size(), Bytes.size());
  EXPECT_EQ(M.contents(), Bytes);
  M.reset();
  EXPECT_FALSE(M.mapped());
  EXPECT_EQ(M.size(), 0u);
  std::remove(Path.c_str());
}

TEST(MappedFileTest, EmptyFileIsNotMappable) {
  std::string Path = writeTemp("mapped_empty", "");
  MappedFile M;
  EXPECT_EQ(M.open(Path), MappedFile::Outcome::NotMappable);
  EXPECT_FALSE(M.mapped());
  std::remove(Path.c_str());
}

TEST(MappedFileTest, NonRegularFileIsNotMappable) {
  // /dev/null exists everywhere the tests run and is a character device.
  MappedFile M;
  EXPECT_EQ(M.open("/dev/null"), MappedFile::Outcome::NotMappable);
  EXPECT_FALSE(M.mapped());
}

TEST(MappedFileTest, MissingFileIsError) {
  Status Err;
  MappedFile M;
  EXPECT_EQ(M.open(testing::TempDir() + "/definitely_missing_file", &Err),
            MappedFile::Outcome::Error);
  EXPECT_FALSE(Err.ok());
  EXPECT_FALSE(M.mapped());
}

TEST(MappedFileTest, MoveTransfersOwnership) {
  std::string Bytes(8192, 'x');
  std::string Path = writeTemp("mapped_move", Bytes);
  MappedFile A;
  ASSERT_EQ(A.open(Path), MappedFile::Outcome::Mapped);
  MappedFile B(std::move(A));
  EXPECT_FALSE(A.mapped());
  ASSERT_TRUE(B.mapped());
  EXPECT_EQ(B.contents(), Bytes);
  std::remove(Path.c_str());
}

TEST(MappedFileTest, RegularFileSizePreflight) {
  std::string Path = writeTemp("mapped_size", "12345");
  EXPECT_EQ(MappedFile::regularFileSize(Path), 5);
  EXPECT_EQ(MappedFile::regularFileSize("/dev/null"), -1);
  EXPECT_EQ(MappedFile::regularFileSize(Path + ".missing"), -1);
  std::remove(Path.c_str());
}

/// A file truncated while mapped: the read past its new end must end in
/// exit 2 with a diagnostic, never a SIGBUS death.  The death test runs
/// the whole sequence in a forked child.
TEST(MappedFileTest, TruncatedWhileMappedExitsTwo) {
  std::string Path = writeTemp("mapped_truncated", std::string(3 * 4096, 'x'));
  EXPECT_EXIT(
      {
        installTruncatedMappingHandler();
        MappedFile M;
        if (M.open(Path) != MappedFile::Outcome::Mapped)
          std::_Exit(10);
        if (::truncate(Path.c_str(), 0) != 0)
          std::_Exit(11);
        volatile char Last = M.contents()[M.size() - 1];
        (void)Last;
        std::_Exit(12);
      },
      testing::ExitedWithCode(2), "error: input changed during analysis");
  std::remove(Path.c_str());
}

} // namespace
