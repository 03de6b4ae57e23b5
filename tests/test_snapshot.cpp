// Tests for the tiled CAPSPDB2 snapshot format (serve/snapshot):
// round-trip fidelity, writer geometry CHECKs, and reader rejection of
// truncated/corrupt files (test_block_io covers the byte-level cases).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/capsp_snapshot_" + name;
}

DistBlock random_matrix(std::int64_t rows, std::int64_t cols,
                        std::uint64_t seed) {
  Rng rng(seed);
  DistBlock block(rows, cols);
  for (auto& v : block.data())
    v = rng.bernoulli(0.1) ? kInf : rng.uniform_real(-100, 100);
  return block;
}

TEST(SnapshotHeader, TileGeometry) {
  const SnapshotHeader h{10, 7, 4};
  EXPECT_EQ(h.tile_rows(), 3);
  EXPECT_EQ(h.tile_cols(), 2);
  EXPECT_EQ(h.num_tiles(), 6);
  EXPECT_EQ(h.tile_row_dim(0), 4);
  EXPECT_EQ(h.tile_row_dim(2), 2);  // clipped edge tile
  EXPECT_EQ(h.tile_col_dim(1), 3);
  EXPECT_EQ(h.tile_id(2, 1), 5);
}

TEST(Snapshot, RoundTripBitExact) {
  DistBlock matrix = random_matrix(21, 21, 7);
  matrix.at(3, 5) = -kInf;  // random_matrix already holds +inf entries
  const std::string path = temp_path("roundtrip.snap");
  write_snapshot(path, matrix, 8);
  const SnapshotReader reader(path);
  EXPECT_TRUE(reader.file_backed());
  EXPECT_EQ(reader.header().tile_dim, 8);
  EXPECT_EQ(read_matrix(reader), matrix);
  std::remove(path.c_str());
}

// write_snapshot -> tiles preserves every entry bit-exactly, over random
// dims (including degenerate ones) and tile dims (1, non-divisor,
// divisor, oversize).
TEST(Snapshot, FuzzRoundTripPreservesEveryEntry) {
  Rng rng(99);
  const std::string path = temp_path("fuzz.snap");
  for (int round = 0; round < 40; ++round) {
    std::int64_t rows = 0, cols = 0;
    switch (round) {
      case 0: rows = 0; cols = 0; break;
      case 1: rows = 1; cols = 1; break;
      case 2: rows = 0; cols = 5; break;
      default:
        rows = static_cast<std::int64_t>(rng.uniform(40));
        cols = static_cast<std::int64_t>(rng.uniform(40));
    }
    const std::int64_t tile_choices[] = {1, 3, 8, 64};
    const std::int64_t tile =
        tile_choices[rng.uniform(4)];
    const DistBlock matrix =
        random_matrix(rows, cols, 1000 + static_cast<std::uint64_t>(round));
    write_snapshot(path, matrix, tile);
    const SnapshotReader reader(path);
    ASSERT_EQ(reader.header().rows, rows);
    ASSERT_EQ(reader.header().cols, cols);
    ASSERT_EQ(read_matrix(reader), matrix)
        << "round " << round << ": " << rows << "x" << cols << " tile "
        << tile;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, InMemoryReaderTilesVirtually) {
  const DistBlock matrix = random_matrix(11, 5, 4);
  const SnapshotReader reader(matrix, 4);
  EXPECT_FALSE(reader.file_backed());
  EXPECT_EQ(reader.header().num_tiles(), 3 * 2);
  EXPECT_EQ(read_matrix(reader), matrix);
  EXPECT_EQ(reader.tile_bytes(0),
            4 * 4 * static_cast<std::int64_t>(sizeof(Dist)));
  // bottom-right tile is clipped to 3x1
  EXPECT_EQ(reader.tile_bytes(5),
            3 * 1 * static_cast<std::int64_t>(sizeof(Dist)));
}

TEST(Snapshot, StreamingWriterMatchesOneShot) {
  const DistBlock matrix = random_matrix(13, 10, 5);
  const std::string one_shot = temp_path("oneshot.snap");
  const std::string streamed = temp_path("streamed.snap");
  write_snapshot(one_shot, matrix, 4);
  {
    SnapshotWriter writer(streamed, 13, 10, 4);
    const SnapshotHeader& h = writer.header();
    for (std::int64_t tr = 0; tr < h.tile_rows(); ++tr)
      for (std::int64_t tc = 0; tc < h.tile_cols(); ++tc)
        writer.write_tile(matrix.sub_block(tr * 4, tc * 4, h.tile_row_dim(tr),
                                           h.tile_col_dim(tc)));
    writer.close();
  }
  std::ifstream a(one_shot, std::ios::binary), b(streamed, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(one_shot.c_str());
  std::remove(streamed.c_str());
}

TEST(SnapshotWriter, RejectsWrongTileGeometry) {
  const std::string path = temp_path("badtile.snap");
  SnapshotWriter writer(path, 10, 10, 4);
  EXPECT_THROW(writer.write_tile(DistBlock(3, 4)), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotWriter, CloseBeforeAllTilesRejected) {
  const std::string path = temp_path("short.snap");
  SnapshotWriter writer(path, 8, 8, 4);
  writer.write_tile(DistBlock(4, 4));
  EXPECT_THROW(writer.close(), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotReader, RejectsBadMagic) {
  const std::string path = temp_path("badmagic.snap");
  std::ofstream(path, std::ios::binary) << "NOTADB!!garbagegarbage";
  EXPECT_THROW(SnapshotReader reader(path), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotReader, RejectsTruncatedHeader) {
  const std::string path = temp_path("shorthdr.snap");
  std::ofstream(path, std::ios::binary) << "CAPSPDB2";
  EXPECT_THROW(SnapshotReader reader(path), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotReader, RejectsTruncatedPayload) {
  const DistBlock matrix = random_matrix(12, 12, 6);
  const std::string path = temp_path("truncated.snap");
  write_snapshot(path, matrix, 4);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 16);
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(SnapshotReader reader(path), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotReader, RejectsCorruptIndex) {
  const DistBlock matrix = random_matrix(12, 12, 8);
  const std::string path = temp_path("badindex.snap");
  write_snapshot(path, matrix, 4);
  // First index entry starts at byte 32; smash its offset.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(32);
  const std::int64_t bogus = 12345;
  file.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  file.close();
  EXPECT_THROW(SnapshotReader reader(path), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotReader, ChecksumCatchesFlippedPayloadBit) {
  const DistBlock matrix = random_matrix(12, 12, 9);
  const std::string path = temp_path("bitflip.snap");
  write_snapshot(path, matrix, 4);
  const SnapshotHeader h{12, 12, 4};
  // Structural checks still pass (size and offsets untouched); only the
  // per-tile checksum can catch a payload bit flip.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  const std::int64_t payload_start = 32 + h.num_tiles() * 16;
  file.seekg(payload_start + 5);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(payload_start + 5);
  file.write(&byte, 1);
  file.close();
  const SnapshotReader reader(path);  // structural open succeeds
  EXPECT_THROW(reader.read_tile(0), check_error);
  EXPECT_NO_THROW(reader.read_tile(1));  // other tiles unaffected
  std::remove(path.c_str());
}

TEST(SnapshotReader, EmptyMatrixSnapshot) {
  const std::string path = temp_path("empty.snap");
  write_snapshot(path, DistBlock(0, 0), 4);
  const SnapshotReader reader(path);
  EXPECT_EQ(reader.header().num_tiles(), 0);
  EXPECT_THROW(reader.read_tile(0), check_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace capsp
