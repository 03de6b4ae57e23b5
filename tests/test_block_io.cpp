// Tests for DistBlock binary persistence: the one distance-file format
// (CAPSPDB2, written by write_snapshot and read by SnapshotReader)
// round-trips every entry bit-exactly and refuses malformed bytes, and
// the read_exact_bytes primitive under it reports shortfalls.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

#include "semiring/block_io.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

DistBlock random_block(std::int64_t rows, std::int64_t cols,
                       std::uint64_t seed) {
  Rng rng(seed);
  DistBlock block(rows, cols);
  for (auto& v : block.data())
    v = rng.bernoulli(0.1) ? kInf : rng.uniform_real(-100, 100);
  return block;
}

/// Unique per test case, since ctest may run the cases in parallel.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/capsp_block_io_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

/// Write `block` as a snapshot and read every tile back into one matrix.
DistBlock round_trip(const DistBlock& block, std::int64_t tile_dim) {
  const std::string path = temp_path("roundtrip.snap");
  write_snapshot(path, block, tile_dim);
  DistBlock full = read_matrix(SnapshotReader(path));
  std::remove(path.c_str());
  return full;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string snapshot_bytes(const DistBlock& block, std::int64_t tile_dim) {
  const std::string path = temp_path("bytes.snap");
  write_snapshot(path, block, tile_dim);
  std::string bytes = file_bytes(path);
  std::remove(path.c_str());
  return bytes;
}

/// A header-only file: the magic, then the given int64 fields.
std::string header_bytes(std::initializer_list<std::int64_t> fields) {
  std::string bytes = "CAPSPDB2";
  for (const std::int64_t field : fields)
    bytes.append(reinterpret_cast<const char*>(&field), sizeof(field));
  return bytes;
}

void expect_rejected(const std::string& bytes) {
  const std::string path = temp_path("rejected.snap");
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(SnapshotReader reader(path), check_error);
  std::remove(path.c_str());
}

TEST(BlockIo, StreamRoundTrip) {
  // tile_dim >= rows and cols: one monolithic tile.
  const DistBlock block = random_block(9, 13, 1);
  EXPECT_EQ(round_trip(block, 16), block);
}

TEST(BlockIo, RoundTripPreservesInfinities) {
  DistBlock block(3, 3);
  block.zero_diagonal();
  block.at(2, 0) = -kInf;
  const DistBlock loaded = round_trip(block, 2);
  EXPECT_TRUE(is_inf(loaded.at(0, 1)));
  EXPECT_EQ(loaded.at(2, 0), -kInf);
  EXPECT_EQ(loaded.at(1, 1), 0);
}

TEST(BlockIo, EmptyBlockRoundTrip) {
  const DistBlock loaded = round_trip(DistBlock(0, 7), 4);
  EXPECT_EQ(loaded.rows(), 0);
  EXPECT_EQ(loaded.cols(), 7);
}

TEST(BlockIo, FileRoundTrip) {
  const DistBlock block = random_block(20, 20, 2);
  EXPECT_EQ(round_trip(block, 6), block);
}

TEST(BlockIo, ZeroByZeroRoundTrip) {
  // magic + rows + cols + tile_dim, no index and no payload
  EXPECT_EQ(snapshot_bytes(DistBlock(0, 0), 4).size(),
            8u + 3 * sizeof(std::int64_t));
  const DistBlock loaded = round_trip(DistBlock(0, 0), 4);
  EXPECT_EQ(loaded.rows(), 0);
  EXPECT_EQ(loaded.cols(), 0);
}

TEST(BlockIo, TruncatedMagicRejected) {
  expect_rejected("CAPS");  // EOF mid-magic
}

TEST(BlockIo, TruncatedHeaderRejected) {
  expect_rejected(header_bytes({3}));  // cols and tile_dim missing
}

TEST(BlockIo, ReadExactBytesReportsShortfall) {
  std::stringstream stream(std::string("abc"),
                           std::ios::in | std::ios::binary);
  char buffer[8];
  try {
    read_exact_bytes(stream, buffer, 8, "probe");
    FAIL() << "expected a truncation CHECK";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("probe"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(BlockIo, BadMagicRejected) {
  expect_rejected("NOTCAPSP" + header_bytes({0, 0, 4}).substr(8));
  // The retired monolithic format's version byte is refused too.
  std::string bytes = snapshot_bytes(random_block(4, 4, 3), 4);
  bytes[7] = '1';
  expect_rejected(bytes);
}

TEST(BlockIo, TruncatedPayloadRejected) {
  std::string bytes = snapshot_bytes(random_block(6, 6, 3), 4);
  bytes.pop_back();  // mid-double
  expect_rejected(bytes);
}

TEST(BlockIo, TrailingGarbageRejected) {
  expect_rejected(snapshot_bytes(random_block(2, 2, 4), 2) + "junk");
}

TEST(BlockIo, AbsurdDimensionsRejected) {
  expect_rejected(header_bytes({std::int64_t{1} << 40, 2, 4}));
  expect_rejected(header_bytes({-1, 2, 4}));
  expect_rejected(header_bytes({4, 4, 0}));   // tile_dim must be >= 1
  expect_rejected(header_bytes({4, 4, -8}));
  // In range, but an index of 2^62 tiles cannot fit in the file.
  expect_rejected(header_bytes({std::int64_t{1} << 31,
                                std::int64_t{1} << 31, 1}));
}

}  // namespace
}  // namespace capsp
