// Versioned snapshot container for checkpoint files (*.dhck).
//
// File layout (all integers little-endian):
//   bytes 0-3   magic "DHCK"
//   bytes 4-7   u32 schema version (kSchemaVersion)
//
//   u64 kind length + kind bytes   what the payload holds ("system_sim"
//                                  for SystemSimulator checkpoints)
//   u64 payload length
//   u32 CRC-32 of the payload
//   payload bytes
//
// write_snapshot is atomic: the file is written to "<path>.tmp" and
// renamed into place, so a reader never sees a half-written snapshot and
// a crash mid-write leaves any previous snapshot intact. read_snapshot
// rejects missing/foreign/truncated/corrupted/version-skewed files with a
// descriptive dh::Error naming the failure, the path, and (for version
// skew) both versions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dh::ckpt {

inline constexpr std::uint32_t kSchemaVersion = 4;
inline constexpr char kMagic[4] = {'D', 'H', 'C', 'K'};

struct SnapshotHeader {
  std::uint32_t version = 0;
  std::string kind;
  std::uint64_t payload_size = 0;
  std::uint32_t payload_crc = 0;
};

/// Write `payload` to `path` atomically (temp file + rename). Throws
/// dh::Error when the directory/file cannot be written. Emits a
/// `ckpt/write` trace event.
void write_snapshot(const std::string& path, const std::string& kind,
                    const std::vector<std::uint8_t>& payload);

/// Read and fully validate a snapshot. `expected_kind` (when non-empty)
/// must match the stored kind. Throws dh::Error on any validation
/// failure; never returns a partially-checked payload.
[[nodiscard]] std::vector<std::uint8_t> read_snapshot(
    const std::string& path, const std::string& expected_kind = "");

/// Header only (no payload CRC check beyond length) — what ckpt_inspect
/// uses to describe a file. `crc_ok`, when non-null, receives the result
/// of the full payload CRC check.
[[nodiscard]] SnapshotHeader read_snapshot_header(const std::string& path,
                                                  bool* crc_ok = nullptr);

/// True if `path` exists and read_snapshot(path, expected_kind) would
/// succeed. Never throws — SystemSimulator::run uses this to start fresh
/// instead of resuming from a missing or corrupt DH_CKPT_DIR snapshot.
[[nodiscard]] bool snapshot_valid(const std::string& path,
                                  const std::string& expected_kind) noexcept;

}  // namespace dh::ckpt
