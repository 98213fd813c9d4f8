#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/error.hpp"

namespace ccd::util {
namespace {

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ccd_atomic_file_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "file.bin").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(AtomicFileTest, Fnv1aMatchesReferenceVector) {
  // Standard FNV-1a 64 test vector: "a" -> 0xaf63dc4c8601ec8c.
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);  // offset basis
}

TEST_F(AtomicFileTest, WriteThenReadRoundTrips) {
  const std::string payload("binary\0payload", 14);
  atomic_write_file(path_, payload);
  EXPECT_EQ(read_file(path_), payload);
}

TEST_F(AtomicFileTest, WriteReplacesExistingFile) {
  atomic_write_file(path_, "old");
  atomic_write_file(path_, "new");
  EXPECT_EQ(read_file(path_), "new");
  // The temp file never lingers after a successful replace.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(AtomicFileTest, AppendExtendsTheFileThePathNamesNow) {
  atomic_write_file(path_, "snapshot-1|");
  append_file_durable(path_, "record-a|");
  // A rename replaces the inode; the next append must land on the new one.
  atomic_write_file(path_, "snapshot-2|");
  append_file_durable(path_, "record-b|");
  append_file_durable(path_, "record-c|");
  EXPECT_EQ(read_file(path_), "snapshot-2|record-b|record-c|");
}

TEST_F(AtomicFileTest, AppendNeverCreatesTheFile) {
  const std::string absent = (dir_ / "absent").string();
  EXPECT_THROW(append_file_durable(absent, "record"), DataError);
  EXPECT_FALSE(std::filesystem::exists(absent));
}

TEST_F(AtomicFileTest, ReadMissingFileThrowsDataError) {
  EXPECT_THROW(read_file((dir_ / "absent").string()), DataError);
}

TEST_F(AtomicFileTest, FramedRoundTripPreservesVersionAndPayload) {
  const std::string payload("\x00\x01\x02framed", 9);
  write_framed_file(path_, "TEST", 3, payload);
  const FramedPayload got = read_framed_file(path_, "TEST", 1, 5);
  EXPECT_EQ(got.version, 3u);
  EXPECT_EQ(got.payload, payload);
}

TEST_F(AtomicFileTest, FramedRejectsWrongTag) {
  write_framed_file(path_, "AAAA", 1, "payload");
  EXPECT_THROW(read_framed_file(path_, "BBBB", 1, 1), DataError);
}

TEST_F(AtomicFileTest, FramedRejectsUnsupportedVersion) {
  write_framed_file(path_, "TEST", 9, "payload");
  EXPECT_THROW(read_framed_file(path_, "TEST", 1, 8), DataError);
}

TEST_F(AtomicFileTest, FramedRejectsTruncation) {
  write_framed_file(path_, "TEST", 1, "a fairly long payload to truncate");
  std::string bytes = read_file(path_);
  bytes.resize(bytes.size() - 5);
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_THROW(read_framed_file(path_, "TEST", 1, 1), DataError);
  // Truncating into the header is rejected too.
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, 10);
  EXPECT_THROW(read_framed_file(path_, "TEST", 1, 1), DataError);
}

TEST_F(AtomicFileTest, FramedRejectsBitFlip) {
  write_framed_file(path_, "TEST", 1, "checksummed payload");
  std::string bytes = read_file(path_);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_THROW(read_framed_file(path_, "TEST", 1, 1), DataError);
}

TEST_F(AtomicFileTest, FramedRejectsWrongMagic) {
  write_framed_file(path_, "TEST", 1, "payload");
  std::string bytes = read_file(path_);
  bytes[0] = 'X';
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_THROW(read_framed_file(path_, "TEST", 1, 1), DataError);
}

}  // namespace
}  // namespace ccd::util
