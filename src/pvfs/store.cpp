#include "pvfs/store.hpp"

#include <algorithm>
#include <cstring>

#include "common/wire.hpp"

namespace pvfs {

namespace {

/// True if any byte lies in both extent lists.
bool PiecesOverlap(std::vector<Extent> a, std::vector<Extent> b) {
  std::ranges::sort(a, {}, &Extent::offset);
  std::ranges::sort(b, {}, &Extent::offset);
  // Sweep both sorted lists: drop whichever extent ends before the other
  // begins; anything else shares a byte.
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].offset + a[i].length <= b[j].offset) {
      ++i;
    } else if (b[j].offset + b[j].length <= a[i].offset) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

// ---- Journal records -------------------------------------------------------

std::uint32_t LocalStore::RecordCrc(const JournalRecord& rec) {
  WireWriter w;
  w.U64(rec.seq);
  w.U64(rec.handle);
  w.U32(static_cast<std::uint32_t>(rec.pieces.size()));
  for (const auto& [offset, length] : rec.pieces) {
    w.U64(offset);
    w.U64(length);
  }
  std::uint32_t crc = Crc32c(w.data());
  return Crc32c(rec.data, crc);
}

bool LocalStore::RecordIntact(const JournalRecord& rec) {
  ByteCount total = 0;
  for (const auto& [offset, length] : rec.pieces) total += length;
  if (total != rec.data.size()) return false;  // torn append
  return RecordCrc(rec) == rec.crc;
}

LocalStore::JournalRecord& LocalStore::Append(FileHandle handle,
                                              std::vector<Extent> pieces,
                                              std::vector<std::byte> data) {
  JournalRecord& rec = journal_.emplace_back();
  rec.seq = next_seq_++;
  rec.handle = handle;
  rec.pieces = std::move(pieces);
  rec.data = std::move(data);
  rec.crc = RecordCrc(rec);
  journal_data_bytes_ += rec.data.size();
  return rec;
}

LocalStore::JournalRecord* LocalStore::Find(IntentId intent) {
  // Records stay in ascending seq order: appends are in order and every
  // erase keeps the survivors' order.
  auto it = std::lower_bound(
      journal_.begin(), journal_.end(), intent,
      [](const JournalRecord& rec, IntentId id) { return rec.seq < id; });
  return it != journal_.end() && it->seq == intent ? &*it : nullptr;
}

// ---- Chunk-level plumbing --------------------------------------------------

void LocalStore::ApplyBytes(FileHandle handle, FileOffset offset,
                            std::span<const std::byte> data,
                            std::uint64_t seq) {
  if (data.empty()) return;
  SparseFile& file = files_[handle];
  size_t done = 0;
  while (done < data.size()) {
    FileOffset pos = offset + done;
    std::uint64_t index = pos / kChunkBytes;
    ByteCount within = pos % kChunkBytes;
    size_t take = static_cast<size_t>(
        std::min<ByteCount>(kChunkBytes - within, data.size() - done));
    auto [cit, inserted] = file.chunks.try_emplace(index);
    Chunk& chunk = cit->second;
    if (inserted) {
      chunk.data.assign(kChunkBytes, std::byte{0});
      chunk.first_write_seq = seq;
      allocated_ += kChunkBytes;
    }
    // Intents on disjoint bytes may land out of journal order, so an
    // older intent can write into a chunk a newer one allocated.
    chunk.first_write_seq = std::min(chunk.first_write_seq, seq);
    std::memcpy(chunk.data.data() + within, data.data() + done, take);
    chunk.crc = Crc32c(chunk.data);
    done += take;
  }
  file.size = std::max<ByteCount>(file.size, offset + data.size());
}

void LocalStore::ApplyRange(const JournalRecord& rec, ByteCount begin,
                            ByteCount length) {
  const ByteCount end = begin + length;
  ByteCount cursor = 0;
  for (const auto& [offset, piece_length] : rec.pieces) {
    const ByteCount lo = std::max(begin, cursor);
    const ByteCount hi = std::min(end, cursor + piece_length);
    if (lo < hi) {
      ApplyBytes(rec.handle, offset + (lo - cursor),
                 std::span{rec.data}.subspan(lo, hi - lo), rec.seq);
    }
    cursor += piece_length;
    if (cursor >= end) break;
  }
}

void LocalStore::TrimJournal() {
  while (journal_data_bytes_ > kJournalRetainBytes && journal_.size() > 1 &&
         journal_.front().committed) {
    journal_data_bytes_ -= journal_.front().data.size();
    retained_min_seq_ = journal_.front().seq + 1;
    journal_.pop_front();
  }
}

// ---- Public write paths ----------------------------------------------------

void LocalStore::Write(FileHandle handle, FileOffset offset,
                       std::span<const std::byte> data) {
  WritePiece piece{offset, data};
  WriteV(handle, std::span{&piece, 1});
}

void LocalStore::WriteV(FileHandle handle,
                        std::span<const WritePiece> pieces) {
  std::vector<Extent> extents;
  extents.reserve(pieces.size());
  std::vector<std::byte> data;
  for (const WritePiece& p : pieces) {
    extents.push_back({p.offset, p.data.size()});
    data.insert(data.end(), p.data.begin(), p.data.end());
  }
  const ByteCount total = data.size();
  const IntentId intent = Stage(handle, std::move(extents), std::move(data));
  Apply(intent, 0, total);
  Commit(intent);
}

LocalStore::IntentId LocalStore::Stage(FileHandle handle,
                                       std::vector<Extent> pieces,
                                       std::vector<std::byte> data) {
  std::unique_lock<std::mutex> lock(mu_);
  // Overlapping intents land in journal order, which is the order repair
  // and recovery replay them in: wait out a live writer of any of these
  // bytes, and roll a crashed one forward (or back) before staging.
  for (;;) {
    auto pending = std::ranges::find_if(journal_, [&](const JournalRecord& r) {
      return !r.committed && r.handle == handle &&
             PiecesOverlap(r.pieces, pieces);
    });
    if (pending == journal_.end()) break;
    if (pending->owned) {
      intent_done_.wait(lock);
    } else {
      RecoverLocked();
    }
  }
  JournalRecord& rec = Append(handle, std::move(pieces), std::move(data));
  rec.owned = true;
  return rec.seq;
}

void LocalStore::Apply(IntentId intent, ByteCount begin, ByteCount length) {
  std::lock_guard<std::mutex> lock(mu_);
  if (JournalRecord* rec = Find(intent)) ApplyRange(*rec, begin, length);
}

void LocalStore::Commit(IntentId intent) {
  std::lock_guard<std::mutex> lock(mu_);
  JournalRecord* rec = Find(intent);
  if (rec == nullptr) return;
  rec->committed = true;  // commit mark written only after the data landed
  rec->owned = false;
  TrimJournal();
  intent_done_.notify_all();
}

void LocalStore::Abandon(IntentId intent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (JournalRecord* rec = Find(intent)) rec->owned = false;
  intent_done_.notify_all();
}

void LocalStore::StageTorn(FileHandle handle, std::vector<Extent> pieces,
                           std::vector<std::byte> data) {
  if (data.empty()) return;  // nothing to tear
  std::lock_guard<std::mutex> lock(mu_);
  JournalRecord& rec = Append(handle, std::move(pieces), std::move(data));
  // The append stopped partway: a truncated record whose CRC cannot verify.
  const ByteCount kept = rec.data.size() - rec.data.size() / 2 - 1;
  journal_data_bytes_ -= rec.data.size() - kept;
  rec.data.resize(kept);
}

// ---- Recovery and scrub ----------------------------------------------------

bool LocalStore::NeedsRecovery() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const JournalRecord& rec : journal_) {
    if (!rec.committed && !rec.owned) return true;
  }
  return false;
}

LocalStore::RecoveryStats LocalStore::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  return RecoverLocked();
}

LocalStore::RecoveryStats LocalStore::RecoverLocked() {
  RecoveryStats stats;
  for (JournalRecord& rec : journal_) {
    if (rec.committed || rec.owned) continue;
    if (RecordIntact(rec)) {
      // The intent survived the crash in full: redo it. Re-applying bytes
      // that already landed is idempotent.
      ApplyRange(rec, 0, rec.data.size());
      rec.committed = true;
      ++stats.replayed;
    }
  }
  // Torn records never touched a chunk, so dropping them rolls the file
  // back to its consistent pre-write state.
  std::erase_if(journal_, [&](const JournalRecord& rec) {
    if (rec.committed || rec.owned) return false;
    journal_data_bytes_ -= rec.data.size();
    ++stats.rolled_back;
    return true;
  });
  integrity_.journal_replays += stats.replayed;
  integrity_.journal_rollbacks += stats.rolled_back;
  TrimJournal();
  return stats;
}

bool LocalStore::RepairChunk(FileHandle handle, std::uint64_t chunk_index) {
  auto fit = files_.find(handle);
  if (fit == files_.end()) return false;
  auto cit = fit->second.chunks.find(chunk_index);
  if (cit == fit->second.chunks.end()) return false;
  Chunk& chunk = cit->second;
  // Reconstructible only if every write since the chunk was allocated is
  // still in the retained journal window.
  if (chunk.first_write_seq < retained_min_seq_) return false;

  const FileOffset chunk_begin = chunk_index * kChunkBytes;
  const FileOffset chunk_end = chunk_begin + kChunkBytes;
  std::fill(chunk.data.begin(), chunk.data.end(), std::byte{0});
  // Committed history plus intents still being applied: an owned intent
  // lands in full (or is replayed in full), so its bytes belong here too.
  for (const JournalRecord& rec : journal_) {
    if (rec.handle != handle || !(rec.committed || rec.owned)) continue;
    ByteCount cursor = 0;
    for (const auto& [offset, length] : rec.pieces) {
      FileOffset begin = std::max<FileOffset>(offset, chunk_begin);
      FileOffset end = std::min<FileOffset>(offset + length, chunk_end);
      if (begin < end) {
        std::memcpy(chunk.data.data() + (begin - chunk_begin),
                    rec.data.data() + cursor + (begin - offset),
                    static_cast<size_t>(end - begin));
      }
      cursor += length;
    }
  }
  chunk.crc = Crc32c(chunk.data);
  return true;
}

LocalStore::ScrubStats LocalStore::Scrub() {
  std::lock_guard<std::mutex> lock(mu_);
  ScrubStats stats;
  for (auto& [handle, file] : files_) {
    for (auto& [index, chunk] : file.chunks) {
      ++stats.chunks_scanned;
      if (Crc32c(chunk.data) == chunk.crc) continue;
      ++stats.corrupt_chunks;
      if (RepairChunk(handle, index)) ++stats.repaired_chunks;
    }
  }
  integrity_.scrub_chunks_scanned += stats.chunks_scanned;
  integrity_.scrub_corruptions += stats.corrupt_chunks;
  integrity_.scrub_repairs += stats.repaired_chunks;
  return stats;
}

bool LocalStore::CorruptStoredBit(std::uint64_t selector) {
  std::lock_guard<std::mutex> lock(mu_);
  // Deterministic victim selection: walk files in sorted handle order so
  // equal selectors over equal store states rot the same bit regardless of
  // unordered_map iteration order.
  std::vector<FileHandle> handles;
  handles.reserve(files_.size());
  std::uint64_t chunk_total = 0;
  for (const auto& [handle, file] : files_) {
    if (!file.chunks.empty()) handles.push_back(handle);
    chunk_total += file.chunks.size();
  }
  if (chunk_total == 0) return false;
  std::sort(handles.begin(), handles.end());

  std::uint64_t target = selector % chunk_total;
  for (FileHandle handle : handles) {
    SparseFile& file = files_[handle];
    if (target >= file.chunks.size()) {
      target -= file.chunks.size();
      continue;
    }
    auto cit = file.chunks.begin();
    std::advance(cit, static_cast<std::ptrdiff_t>(target));
    Chunk& chunk = cit->second;
    std::uint64_t bit = (selector / chunk_total) % (kChunkBytes * 8);
    chunk.data[bit / 8] ^= std::byte{static_cast<std::uint8_t>(1u << (bit % 8))};
    return true;  // checksum left stale on purpose: that is the corruption
  }
  return false;
}

// ---- Reads and bookkeeping -------------------------------------------------

Status LocalStore::Read(FileHandle handle, FileOffset offset,
                        std::span<std::byte> out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = files_.find(handle);
  if (fit == files_.end()) {
    std::memset(out.data(), 0, out.size());
    return Status::Ok();
  }
  SparseFile& file = fit->second;
  size_t done = 0;
  while (done < out.size()) {
    FileOffset pos = offset + done;
    std::uint64_t index = pos / kChunkBytes;
    ByteCount within = pos % kChunkBytes;
    size_t take = static_cast<size_t>(
        std::min<ByteCount>(kChunkBytes - within, out.size() - done));
    auto cit = file.chunks.find(index);
    if (cit == file.chunks.end()) {
      std::memset(out.data() + done, 0, take);
    } else {
      Chunk& chunk = cit->second;
      if (Crc32c(chunk.data) != chunk.crc) {
        ++integrity_.read_corruptions;
        if (!RepairChunk(handle, index)) {
          return CorruptionError(
              "stored chunk failed checksum (handle " +
              std::to_string(handle) + ", chunk " + std::to_string(index) +
              ") and its write history is no longer retained");
        }
        ++integrity_.read_repairs;
      }
      std::memcpy(out.data() + done, chunk.data.data() + within, take);
    }
    done += take;
  }
  return Status::Ok();
}

void LocalStore::Remove(FileHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(handle);
  if (it != files_.end()) {
    allocated_ -= it->second.chunks.size() * kChunkBytes;
    files_.erase(it);
  }
  std::erase_if(journal_, [&](const JournalRecord& rec) {
    if (rec.handle != handle) return false;
    journal_data_bytes_ -= rec.data.size();
    return true;
  });
  intent_done_.notify_all();  // staged intents on the handle are gone
}

ByteCount LocalStore::SizeOf(FileHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(handle);
  return it == files_.end() ? 0 : it->second.size;
}

std::vector<LocalStore::ChunkSum> LocalStore::ChunkSums(
    FileHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChunkSum> out;
  auto it = files_.find(handle);
  if (it == files_.end()) return out;
  out.reserve(it->second.chunks.size());
  for (const auto& [index, chunk] : it->second.chunks) {
    out.push_back(
        {index, chunk.crc, Crc32c(chunk.data) == chunk.crc});
  }
  return out;
}

}  // namespace pvfs
