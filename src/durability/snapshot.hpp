#pragma once
// Atomic registry snapshots (docs/robustness.md).
//
// A snapshot serializes the whole registered-matrix set, the per-handle
// version counters, and the *metadata* of warm plan-cache entries (which
// handles held a plan, and whether it was tuned — plans themselves are
// deterministic rebuilds, so only the fact that they were warm is worth
// persisting).  Layout:
//
//   "MPSSNAP2" | u64 last_seq | u32 n_matrices |
//     { u64 handle | u64 version | csr binary } x n_matrices |
//   u32 n_warm | { u64 handle | u8 tuned } x n_warm |
//   u32 fleet_devices | u32 n_layouts |
//     { u64 handle | u8 replica | u32 n_blocks |
//       { i32 row_begin | i32 row_end | i32 device } x n_blocks
//     } x n_layouts |
//   u64 fnv1a(everything above)
//
// Version-1 snapshots ("MPSSNAP1", no shard section) still load —
// recovery re-shards deterministically, so the layout records are a
// cross-check against placement drift, not required state.
//
// The file is written to `snapshot.bin.tmp` and atomically renamed over
// `snapshot.bin`: a reader sees either the old complete snapshot or the
// new complete snapshot, never a partial one.  A stray .tmp (crash
// mid-write) is ignored and overwritten by the next snapshot.  The WAL
// is truncated only after the rename, and only if no append raced the
// capture — replay is idempotent (seq <= last_seq is skipped), so a
// crash between rename and truncate is harmless.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace mps::durability {

inline constexpr const char* kSnapshotFileName = "snapshot.bin";
inline constexpr const char* kSnapshotTmpSuffix = ".tmp";

struct MatrixRecord {
  std::uint64_t handle = 0;
  std::uint64_t version = 0;
  std::shared_ptr<const sparse::CsrD> matrix;
};

/// A plan-cache entry that was warm at snapshot time.  Warm recovery
/// (EngineConfig::durable_warm) rebuilds these eagerly so the first
/// post-restart request pays no partition (or trial-protocol) cost.
struct WarmEntry {
  std::uint64_t handle = 0;
  bool tuned = false;
};

/// One placement's persisted shard layout: which row block of a sharded
/// handle lives on which fleet slot.  Recovery re-shards
/// deterministically from the matrix + fleet shape; when the recovered
/// fleet matches `SnapshotData::fleet_devices`, the rebuilt layout must
/// equal the recorded one (RecoveryError otherwise — placement drift
/// would silently re-route bitwise-pinned work).
struct ShardLayoutRecord {
  std::uint64_t handle = 0;
  bool replica = false;
  struct Block {
    std::int32_t row_begin = 0;
    std::int32_t row_end = 0;
    std::int32_t device = -1;
  };
  std::vector<Block> blocks;
};

struct SnapshotData {
  std::vector<MatrixRecord> matrices;
  std::vector<WarmEntry> warm;
  /// Shard placements at capture time (empty in legacy single-device
  /// mode or for a v1 snapshot).
  std::vector<ShardLayoutRecord> shard_layouts;
  /// Fleet size the layouts were placed on (0 = legacy mode or v1).
  std::uint32_t fleet_devices = 0;
  /// WAL sequence number the capture covered: every record with
  /// seq <= last_seq is reflected in `matrices`.
  std::uint64_t last_seq = 0;
};

/// Writes `data` atomically into `dir` (tmp + rename).  Crash points
/// kSnapshotMid / kSnapshotPost fire inside.  Raises IoError.
void write_snapshot(const std::string& dir, const SnapshotData& data);

/// Loads `path`; nullopt when the file does not exist.  Any truncation,
/// checksum mismatch, or structural damage raises RecoveryError — unlike
/// the WAL there is no torn-tail tolerance, because the atomic rename
/// means a visible snapshot was always written completely.
std::optional<SnapshotData> read_snapshot(const std::string& path);

}  // namespace mps::durability
