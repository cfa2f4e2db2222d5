// Checkpoint layer unit tests: byte-level serializer round trips, the
// CRC-32 reference vector, and the snapshot container's rejection
// matrix (bad magic, version skew, truncation, corruption, kind
// mismatch) — every failure mode must surface as a descriptive
// dh::Error, never as garbage state.
#include "common/ckpt/serialize.hpp"
#include "common/ckpt/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dh::ckpt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dh_ckpt_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST(Crc32, MatchesReferenceVector) {
  // The standard IEEE 802.3 check value for the ASCII digits "123456789".
  const std::string s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Serializer, RoundTripsEveryFieldType) {
  Serializer s;
  s.begin_section("TEST");
  s.write_u8(0xAB);
  s.write_u32(0xDEADBEEFu);
  s.write_u64(0x0123456789ABCDEFull);
  s.write_i64(-42);
  s.write_bool(true);
  s.write_bool(false);
  s.write_f64(-0.1);  // not exactly representable: bit pattern must survive
  s.write_string("hello snapshot");
  s.write_f64_vec({1.0, 2.5, -3.75});
  s.write_bool_vec({true, false, true, true});

  Deserializer d{s.take()};
  d.expect_section("TEST");
  EXPECT_EQ(d.read_u8(), 0xAB);
  EXPECT_EQ(d.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.read_i64(), -42);
  EXPECT_TRUE(d.read_bool());
  EXPECT_FALSE(d.read_bool());
  EXPECT_EQ(d.read_f64(), -0.1);
  EXPECT_EQ(d.read_string(), "hello snapshot");
  EXPECT_EQ(d.read_f64_vec(), (std::vector<double>{1.0, 2.5, -3.75}));
  EXPECT_EQ(d.read_bool_vec(), (std::vector<bool>{true, false, true, true}));
  EXPECT_TRUE(d.exhausted());
}

TEST(Serializer, SectionMismatchNamesBothTags) {
  Serializer s;
  s.begin_section("AAAA");
  Deserializer d{s.take()};
  try {
    d.expect_section("BBBB");
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("AAAA"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("BBBB"), std::string::npos);
  }
}

TEST(Serializer, ReadPastEndThrows) {
  Serializer s;
  s.write_u32(1);
  Deserializer d{s.take()};
  (void)d.read_u32();
  EXPECT_THROW((void)d.read_u64(), Error);
}

TEST(Serializer, EngineRoundTripContinuesBitIdentically) {
  std::mt19937_64 a{12345};
  for (int i = 0; i < 1000; ++i) (void)a();  // advance mid-stream
  Serializer s;
  save_engine(s, a);
  std::mt19937_64 b;  // different state on purpose
  Deserializer d{s.take()};
  load_engine(d, b);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST_F(CkptTest, SnapshotRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 250, 251, 252};
  const std::string p = path("ok.dhck");
  write_snapshot(p, "unit_test", payload);
  EXPECT_EQ(read_snapshot(p, "unit_test"), payload);
  EXPECT_EQ(read_snapshot(p), payload);  // kind check optional
  EXPECT_TRUE(snapshot_valid(p, "unit_test"));
  // Atomicity: no temp file left behind.
  EXPECT_FALSE(fs::exists(p + ".tmp"));

  bool crc_ok = false;
  const SnapshotHeader h = read_snapshot_header(p, &crc_ok);
  EXPECT_EQ(h.version, kSchemaVersion);
  EXPECT_EQ(h.kind, "unit_test");
  EXPECT_EQ(h.payload_size, payload.size());
  EXPECT_TRUE(crc_ok);
}

TEST_F(CkptTest, EmptyPayloadIsValid) {
  const std::string p = path("empty.dhck");
  write_snapshot(p, "unit_test", {});
  EXPECT_TRUE(read_snapshot(p, "unit_test").empty());
}

TEST_F(CkptTest, OverwriteReplacesAtomically) {
  const std::string p = path("ow.dhck");
  write_snapshot(p, "unit_test", {1, 1, 1});
  write_snapshot(p, "unit_test", {2, 2});
  EXPECT_EQ(read_snapshot(p, "unit_test"),
            (std::vector<std::uint8_t>{2, 2}));
}

TEST_F(CkptTest, MissingFileRejectedWithPath) {
  const std::string p = path("nope.dhck");
  EXPECT_FALSE(snapshot_valid(p, "unit_test"));
  try {
    (void)read_snapshot(p);
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos);
  }
}

TEST_F(CkptTest, ForeignFileRejectedAsBadMagic) {
  const std::string p = path("foreign.dhck");
  std::ofstream(p) << "{\"this\": \"is json, not a snapshot\"}";
  EXPECT_FALSE(snapshot_valid(p, "unit_test"));
  try {
    (void)read_snapshot(p);
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(CkptTest, VersionSkewNamesBothVersions) {
  // The previous schema (its sections differ) and a future one are both
  // refused on the version field, before any payload is parsed.
  for (const std::uint32_t other : {kSchemaVersion - 1, kSchemaVersion + 41}) {
    const std::string p = path("skew.dhck");
    write_snapshot(p, "unit_test", {1, 2, 3});
    // Rewrite the on-disk schema version field (bytes 4..7, little-endian).
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&other), 4);
    f.close();
    EXPECT_FALSE(snapshot_valid(p, "unit_test"));
    try {
      (void)read_snapshot(p);
      FAIL() << "expected dh::Error for version " << other;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::to_string(kSchemaVersion)), std::string::npos);
      EXPECT_NE(msg.find(std::to_string(other)), std::string::npos);
    }
  }
}

TEST_F(CkptTest, CorruptedPayloadRejectedByCrc) {
  const std::string p = path("corrupt.dhck");
  write_snapshot(p, "unit_test", {10, 20, 30, 40, 50});
  // Flip one bit in the last payload byte.
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto end = f.tellg();
  f.seekg(static_cast<std::streamoff>(end) - 1);
  char c = 0;
  f.read(&c, 1);
  f.seekp(static_cast<std::streamoff>(end) - 1);
  c = static_cast<char>(c ^ 0x01);
  f.write(&c, 1);
  f.close();
  EXPECT_FALSE(snapshot_valid(p, "unit_test"));
  try {
    (void)read_snapshot(p);
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST_F(CkptTest, TruncatedFileRejected) {
  const std::string p = path("trunc.dhck");
  write_snapshot(p, "unit_test", std::vector<std::uint8_t>(64, 7));
  const auto full = fs::file_size(p);
  fs::resize_file(p, full - 10);
  EXPECT_FALSE(snapshot_valid(p, "unit_test"));
  EXPECT_THROW((void)read_snapshot(p), Error);
  // Even a header-only stub must be rejected cleanly.
  fs::resize_file(p, 6);
  EXPECT_FALSE(snapshot_valid(p, "unit_test"));
  EXPECT_THROW((void)read_snapshot(p), Error);
}

TEST_F(CkptTest, KindMismatchNamesBothKinds) {
  const std::string p = path("kind.dhck");
  write_snapshot(p, "system_sim", {1});
  EXPECT_FALSE(snapshot_valid(p, "unit_test"));
  try {
    (void)read_snapshot(p, "unit_test");
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("system_sim"), std::string::npos);
    EXPECT_NE(msg.find("unit_test"), std::string::npos);
  }
}

TEST_F(CkptTest, RandomPayloadFuzzRoundTrip) {
  std::mt19937_64 rng{99};
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(rng() % 4096));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    const std::string p = path("fuzz.dhck");
    write_snapshot(p, "fuzz", payload);
    EXPECT_EQ(read_snapshot(p, "fuzz"), payload);
  }
}

}  // namespace
}  // namespace dh::ckpt
