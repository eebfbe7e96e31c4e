// LocalStore: an I/O daemon's backing storage — one sparse byte file per
// PVFS handle (real PVFS iods kept /pvfs-data/fXXXX files on ext2; we keep
// chunked in-memory files so the functional system moves real bytes).
//
// Reads of never-written ranges return zeros, matching the behaviour of a
// sparse Unix file. Size is the high-water mark of written bytes.
//
// Integrity layer (see docs/integrity.md):
//   * Every allocated chunk carries a CRC32C; reads verify it and return
//     kCorruption on mismatch (after attempting a journal-based repair).
//   * Every write is one write-ahead intent with one life cycle: Stage
//     appends the record (with its own CRC) before any byte lands, Apply
//     lands its bytes in parts, Commit sets the commit mark after the
//     last part. WriteV is exactly stage -> apply -> commit; an iod's flow
//     stages a whole request and applies it segment by segment. A crash
//     between those steps leaves either a complete uncommitted record
//     (replayed on recovery) or a torn record (rolled back — its chunks
//     were never touched).
//   * A staged intent is owned by its caller until Commit: Recover never
//     replays or drops an intent a live writer still owns, so recovery
//     run by one request cannot race another request's write. Stage
//     waits while a live intent overlaps the new one, so bytes written
//     twice land in journal order — the order repair replays them in.
//   * Scrub() walks every chunk, verifies checksums and repairs from the
//     retained journal history where possible.
//
// Thread safety: fully thread-safe. Every public entry point takes an
// internal mutex, so concurrent flow segments (src/pvfs/flow) and
// overlapping Serve calls can share one store. Each call is atomic with
// respect to every other call; a multi-part intent is atomic with respect
// to crashes (replay-or-rollback), not to concurrent readers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/extent.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace pvfs {

class LocalStore {
 public:
  /// Chunk granularity for sparse allocation (and checksum granularity).
  static constexpr ByteCount kChunkBytes = 256 * 1024;

  /// Journal retention: committed records are kept until the retained data
  /// bytes exceed this, giving scrub a repair window without unbounded
  /// memory growth.
  static constexpr ByteCount kJournalRetainBytes = 4 * 1024 * 1024;

  /// One contiguous piece of a (possibly multi-region) write intent.
  struct WritePiece {
    FileOffset offset = 0;
    std::span<const std::byte> data;
  };

  /// Read `out.size()` bytes at `offset` from the handle's local file.
  /// Holes and ranges past the high-water mark read as zeros. Returns
  /// kCorruption if a touched chunk fails its checksum and cannot be
  /// repaired from the retained journal history.
  Status Read(FileHandle handle, FileOffset offset, std::span<std::byte> out);

  /// Write bytes at `offset`, allocating chunks as needed. Journaled as a
  /// single-piece intent.
  void Write(FileHandle handle, FileOffset offset,
             std::span<const std::byte> data);

  /// Multi-piece write as one intent: Stage, Apply every byte, Commit. A
  /// crash mid-apply replays the whole intent on recovery.
  void WriteV(FileHandle handle, std::span<const WritePiece> pieces);

  /// Names a staged intent (its journal sequence number).
  using IntentId = std::uint64_t;

  /// Journal a write intent before any of its bytes land. `data` holds the
  /// bytes of `pieces` (local extents) back to back. The caller owns the
  /// intent until it calls Commit or Abandon. Blocks while a live intent
  /// on the same handle overlaps these bytes, and first recovers a crashed
  /// one that does, so overlapping intents land in journal order.
  IntentId Stage(FileHandle handle, std::vector<Extent> pieces,
                 std::vector<std::byte> data);

  /// Land bytes [begin, begin + length) of a staged intent's data at the
  /// offsets its pieces give them. Parts may land in any order, from any
  /// thread. A no-op for an intent whose handle was removed meanwhile.
  void Apply(IntentId intent, ByteCount begin, ByteCount length);

  /// Set the commit mark of an intent whose every byte has landed.
  void Commit(IntentId intent);

  /// Fault hook: the owner of a staged intent crashed after some of its
  /// parts landed. The intent stays uncommitted and becomes unowned, so
  /// the next Recover replays it in full.
  void Abandon(IntentId intent);

  /// Fault hook: the crash hit the journal append of this intent. The
  /// record is left truncated (its CRC cannot verify), unowned, and no
  /// chunk is touched — the next Recover rolls it back.
  void StageTorn(FileHandle handle, std::vector<Extent> pieces,
                 std::vector<std::byte> data);

  /// True if the journal holds uncommitted intents no live writer owns
  /// (i.e. a writer crashed mid-write).
  bool NeedsRecovery() const;

  struct RecoveryStats {
    std::uint64_t replayed = 0;     // complete intents re-applied
    std::uint64_t rolled_back = 0;  // torn intents discarded
  };
  /// Replay-or-rollback every pending unowned intent: a record whose own
  /// CRC verifies is re-applied in full (redo); a torn record is discarded
  /// (its chunks were never touched, so discarding restores the
  /// consistent pre-write state). Owned intents are left to their owners.
  RecoveryStats Recover();

  struct ScrubStats {
    std::uint64_t chunks_scanned = 0;
    std::uint64_t corrupt_chunks = 0;
    std::uint64_t repaired_chunks = 0;  // rebuilt from journal history
  };
  /// Verify every allocated chunk's checksum; rebuild corrupt chunks whose
  /// entire write history is still retained in the journal.
  ScrubStats Scrub();

  /// Fault hook: flip one deterministic bit of stored data without
  /// updating the chunk checksum (media rot). `selector` picks the victim
  /// file/chunk/bit by modular arithmetic over a sorted walk, so equal
  /// selectors on equal store states rot the same bit. No-op on an empty
  /// store; returns true if a bit was flipped.
  bool CorruptStoredBit(std::uint64_t selector);

  /// Drop all data for a handle. Removing an unknown handle is a no-op
  /// (idempotent, as iod remove was). Also drops the handle's journal
  /// records — pending intents for removed files are not recovered.
  void Remove(FileHandle handle);

  /// Checksum state of one allocated chunk, for cross-replica comparison.
  struct ChunkSum {
    std::uint64_t chunk_index = 0;
    std::uint32_t crc = 0;   // recorded CRC32C
    bool valid = false;      // stored bytes still match the recorded CRC
  };
  /// Per-chunk checksum manifest for a handle, in ascending chunk order.
  /// Non-mutating: chunks that fail verification are reported invalid, not
  /// repaired (re-replication copies over them from a healthy replica).
  /// An unknown handle yields an empty manifest.
  std::vector<ChunkSum> ChunkSums(FileHandle handle) const;

  /// High-water mark of written bytes for the handle (0 if unknown).
  ByteCount SizeOf(FileHandle handle) const;

  /// Bytes of chunk storage currently allocated (for tests / accounting).
  ByteCount AllocatedBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return allocated_;
  }

  bool Contains(FileHandle handle) const {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.contains(handle);
  }

  /// Cumulative integrity counters (reads that hit corruption, journal
  /// recoveries, scrub results). Exposed through iod stats.
  struct IntegrityCounters {
    std::uint64_t read_corruptions = 0;  // chunk CRC mismatches seen by reads
    std::uint64_t read_repairs = 0;      // of those, healed from the journal
    std::uint64_t journal_replays = 0;
    std::uint64_t journal_rollbacks = 0;
    std::uint64_t scrub_chunks_scanned = 0;
    std::uint64_t scrub_corruptions = 0;
    std::uint64_t scrub_repairs = 0;
  };
  /// Snapshot (by value: reads mutate the counters concurrently).
  IntegrityCounters integrity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return integrity_;
  }

 private:
  struct Chunk {
    std::vector<std::byte> data;
    std::uint32_t crc = 0;
    /// Lowest journal seq of any record that wrote into this chunk. The
    /// chunk is reconstructible iff every record since then is retained.
    std::uint64_t first_write_seq = 0;
  };

  struct SparseFile {
    std::map<std::uint64_t, Chunk> chunks;
    ByteCount size = 0;
  };

  /// One journaled write intent. `data` is the concatenation of the
  /// pieces' bytes; `crc` covers handle, piece geometry and data, so a
  /// torn append is detectable. `owned` marks an intent a live writer is
  /// still applying: recovery leaves it alone.
  struct JournalRecord {
    std::uint64_t seq = 0;
    FileHandle handle = 0;
    std::vector<Extent> pieces;
    std::vector<std::byte> data;
    std::uint32_t crc = 0;
    bool committed = false;
    bool owned = false;
  };

  JournalRecord& Append(FileHandle handle, std::vector<Extent> pieces,
                        std::vector<std::byte> data);
  /// The record staged as `intent`, or nullptr once it was removed.
  JournalRecord* Find(IntentId intent);
  static std::uint32_t RecordCrc(const JournalRecord& rec);
  static bool RecordIntact(const JournalRecord& rec);

  /// Raw chunk mutation: no journaling, updates checksums and size.
  /// Lowers first_write_seq of every touched chunk to `seq`.
  void ApplyBytes(FileHandle handle, FileOffset offset,
                  std::span<const std::byte> data, std::uint64_t seq);
  /// Land bytes [begin, begin + length) of a record's data.
  void ApplyRange(const JournalRecord& rec, ByteCount begin,
                  ByteCount length);
  RecoveryStats RecoverLocked();
  /// Drop committed records from the front while over the retention cap.
  void TrimJournal();
  /// Rebuild a corrupt chunk by replaying its retained write history.
  bool RepairChunk(FileHandle handle, std::uint64_t chunk_index);

  /// Guards every member below. Public methods lock it; private helpers
  /// assume it is held.
  mutable std::mutex mu_;
  /// Signalled when a staged intent stops being owned (Commit, Abandon,
  /// Remove), waking Stage calls that overlap it.
  std::condition_variable intent_done_;
  std::unordered_map<FileHandle, SparseFile> files_;
  std::deque<JournalRecord> journal_;
  std::uint64_t next_seq_ = 1;
  ByteCount journal_data_bytes_ = 0;
  /// Records with seq below this have been trimmed; chunks whose
  /// first_write_seq is older are beyond repair.
  std::uint64_t retained_min_seq_ = 1;
  ByteCount allocated_ = 0;
  IntegrityCounters integrity_;
};

}  // namespace pvfs
