#include "infer/embedding_cache.h"

#include "common/failpoint.h"
#include "io/codec.h"

namespace agl::infer {
namespace {

std::string EncodeSpillRecord(const CacheKey& key,
                              const std::vector<float>& embedding) {
  io::BufferWriter w;
  w.PutVarint64(key.node);
  w.PutVarint64(static_cast<uint64_t>(static_cast<uint32_t>(key.round)));
  w.PutVarint64(key.version);
  w.PutFloatArray(embedding);
  return w.Release();
}

agl::Status DecodeSpillRecord(const std::string& bytes, CacheKey* key,
                              std::vector<float>* embedding) {
  io::BufferReader r(bytes);
  uint64_t node, round, version;
  AGL_RETURN_IF_ERROR(r.GetVarint64(&node));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&round));
  AGL_RETURN_IF_ERROR(r.GetVarint64(&version));
  AGL_RETURN_IF_ERROR(r.GetFloatArray(embedding));
  key->node = node;
  key->round = static_cast<int32_t>(static_cast<uint32_t>(round));
  key->version = version;
  return agl::Status::OK();
}

}  // namespace

agl::Status EmbeddingCache::EnableSpill(const std::string& path) {
  common::MutexLock lock(&mu_);
  AGL_ASSIGN_OR_RETURN(io::RecordWriter writer, io::RecordWriter::Open(path));
  spill_writer_.emplace(std::move(writer));
  spill_reader_.reset();
  spill_offset_.clear();
  spill_flushed_bytes_ = 0;
  spill_path_ = path;
  return agl::Status::OK();
}

agl::Status EmbeddingCache::RestoreSpill(const std::string& path,
                                         const SpillSnapshot& snap) {
  common::MutexLock lock(&mu_);
  AGL_ASSIGN_OR_RETURN(io::RecordWriter writer,
                       io::RecordWriter::OpenAppend(path, snap.valid_bytes));
  spill_writer_.emplace(std::move(writer));
  spill_reader_.reset();
  spill_offset_.clear();
  for (const auto& [key, offset] : snap.entries) {
    // Defensive: an offset at or past the durable prefix points into the
    // truncated tail; admitting it would read garbage, so drop it.
    if (offset < snap.valid_bytes) {
      spill_offset_[key] = offset;
      NoteKeyLocked(key);
    }
  }
  spill_flushed_bytes_ = snap.valid_bytes;
  spill_path_ = path;
  return agl::Status::OK();
}

agl::Result<SpillSnapshot> EmbeddingCache::PublishSpill() {
  common::MutexLock lock(&mu_);
  if (!spill_writer_.has_value()) {
    return agl::Status::FailedPrecondition("no spill file configured");
  }
  // Park every RAM-resident entry in the spill file so the snapshot covers
  // the full working set, not just what the budget already evicted.
  for (const Entry& e : lru_) {
    if (spill_offset_.find(e.key) != spill_offset_.end()) continue;
    AGL_RETURN_IF_ERROR(SpillAppendLocked(e.key, e.embedding));
  }
  // One durability point for the whole batch.
  agl::Status synced = spill_writer_->Sync();
  if (!synced.ok()) {
    ++stats_.spill_failures;
    return synced;
  }
  spill_flushed_bytes_ = spill_writer_->bytes_written();
  SpillSnapshot snap;
  snap.valid_bytes = spill_flushed_bytes_;
  snap.entries.assign(spill_offset_.begin(), spill_offset_.end());
  return snap;
}

bool EmbeddingCache::Lookup(const CacheKey& key, std::vector<float>* out) {
  if (!enabled()) return false;
  common::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->embedding;
    ++stats_.hits;
    return true;
  }
  if (SpillLookupLocked(key, out)) {
    ++stats_.hits;
    ++stats_.spill_hits;
    // Re-admit: the entry is hot again. Its spill offset stays valid, so a
    // later re-eviction is free.
    AdmitLocked(key, *out);
    return true;
  }
  ++stats_.misses;
  return false;
}

void EmbeddingCache::Insert(const CacheKey& key,
                            const std::vector<float>& embedding) {
  if (!enabled()) return;
  common::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Values are immutable per key: only refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  AdmitLocked(key, embedding);
}

void EmbeddingCache::Invalidate(uint64_t node, int32_t min_round) {
  if (!enabled()) return;
  common::MutexLock lock(&mu_);
  if (versions_.size() * rounds_.size() <=
      index_.size() + spill_offset_.size()) {
    for (uint64_t version : versions_) {
      for (auto r = rounds_.lower_bound(min_round); r != rounds_.end(); ++r) {
        EraseLocked({node, *r, version});
      }
    }
    return;
  }
  std::vector<CacheKey> doomed;
  for (const auto& [key, it] : index_) {
    if (key.node == node && key.round >= min_round) doomed.push_back(key);
  }
  for (const auto& [key, offset] : spill_offset_) {
    if (key.node == node && key.round >= min_round) doomed.push_back(key);
  }
  for (const CacheKey& key : doomed) EraseLocked(key);
}

void EmbeddingCache::EraseLocked(const CacheKey& key) {
  if (auto it = index_.find(key); it != index_.end()) {
    stats_.resident_bytes -= EntryBytes(it->second->embedding);
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidations;
  }
  // The spilled bytes stay in the file (it is append-only); forgetting the
  // offset is what makes the entry unreachable.
  if (spill_offset_.erase(key) > 0) ++stats_.invalidations;
}

EmbeddingCacheStats EmbeddingCache::stats() const {
  common::MutexLock lock(&mu_);
  EmbeddingCacheStats out = stats_;
  out.resident_entries = static_cast<int64_t>(lru_.size());
  return out;
}

void EmbeddingCache::AdmitLocked(const CacheKey& key,
                                 std::vector<float> embedding) {
  stats_.resident_bytes += EntryBytes(embedding);
  lru_.push_front(Entry{key, std::move(embedding)});
  index_[key] = lru_.begin();
  NoteKeyLocked(key);
  ++stats_.inserts;
  if (bounded()) {
    while (stats_.resident_bytes > budget_bytes_ && !lru_.empty()) {
      EvictOneLocked();
    }
  }
}

void EmbeddingCache::EvictOneLocked() {
  Entry& victim = lru_.back();
  if (spill_writer_.has_value() &&
      spill_offset_.find(victim.key) == spill_offset_.end()) {
    // A failed append degrades the eviction to a plain drop — correctness
    // holds, the entry is just recomputed on the next miss.
    (void)SpillAppendLocked(victim.key, victim.embedding);
  }
  stats_.resident_bytes -= EntryBytes(victim.embedding);
  index_.erase(victim.key);
  lru_.pop_back();
  ++stats_.evictions;
}

void EmbeddingCache::NoteKeyLocked(const CacheKey& key) {
  versions_.insert(key.version);
  rounds_.insert(key.round);
}

agl::Status EmbeddingCache::SpillAppendLocked(
    const CacheKey& key, const std::vector<float>& embedding) {
  // Failpoint "infer.spill": an injected fault fails this spill write only.
  agl::Status s = fail::MaybeFail("infer.spill");
  if (s.ok()) {
    const uint64_t offset = spill_writer_->bytes_written();
    s = spill_writer_->Append(EncodeSpillRecord(key, embedding));
    if (s.ok()) {
      // Buffered append: the bytes reach the reader lazily (flush before a
      // read past spill_flushed_bytes_) and stable storage on PublishSpill.
      spill_offset_[key] = offset;
      NoteKeyLocked(key);
      ++stats_.spilled;
    }
  }
  if (!s.ok()) ++stats_.spill_failures;
  return s;
}

bool EmbeddingCache::SpillLookupLocked(const CacheKey& key,
                                       std::vector<float>* out) {
  auto it = spill_offset_.find(key);
  if (it == spill_offset_.end() || !spill_writer_.has_value()) return false;
  // Failpoint "infer.spill": an injected read fault is transient — count
  // it and miss, but keep the offset so a later lookup can still be
  // served.
  if (agl::Status injected = fail::MaybeFail("infer.spill");
      !injected.ok()) {
    ++stats_.spill_failures;
    return false;
  }
  agl::Status s = agl::Status::OK();
  // The target record may still sit in the writer's stdio buffer; push the
  // batch down before reading past the flushed prefix. Offsets are record
  // starts and the boundary is a record boundary, so a record is fully
  // visible iff it starts below the boundary.
  if (it->second >= spill_flushed_bytes_) {
    s = spill_writer_->Flush();
    if (s.ok()) spill_flushed_bytes_ = spill_writer_->bytes_written();
  }
  if (s.ok() && !spill_reader_.has_value()) {
    auto reader = io::RecordReader::Open(spill_path_);
    if (reader.ok()) {
      spill_reader_.emplace(std::move(*reader));
    } else {
      s = reader.status();
    }
  }
  std::string bytes;
  if (s.ok()) s = spill_reader_->SeekTo(it->second);
  if (s.ok()) s = spill_reader_->Next(&bytes);
  CacheKey stored;
  if (s.ok()) s = DecodeSpillRecord(bytes, &stored, out);
  if (s.ok() && !(stored == key)) {
    s = agl::Status::Corruption("spill entry key mismatch");
  }
  if (!s.ok()) {
    // A failed read (injected fault, torn write, bad offset) is just a
    // miss; drop the offset so we stop consulting a bad slot.
    spill_offset_.erase(it);
    ++stats_.spill_failures;
    return false;
  }
  return true;
}

}  // namespace agl::infer
