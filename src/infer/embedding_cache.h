// Cross-slice segment-embedding cache for batched GraphInfer.
//
// The paper's GraphInfer computes every segment (per-round) embedding
// exactly once *within* one pipeline run, but a production serving flow runs
// many inference slices over the same graph and re-derives the shared
// neighborhood embeddings per slice. This cache keeps those intermediates
// resident between slices (the Polynesia co-design lesson: hot intermediate
// state stays put instead of being recomputed across stages): entries are
// keyed by (node, round, model_version), kept LRU under a byte budget, and
// — when a spill file is configured — evicted entries spill to a
// record_file on the DFS instead of being dropped, so budgets smaller than
// the working set still serve hits.
//
// The cache is a pure optimization layer: every entry holds a value that is
// bit-identical to what the reducer would recompute, and any failure on the
// spill path (fault-injected or real) degrades to a miss, never to a wrong
// answer.
//
// Spill writes are batched: an eviction appends into the stdio buffer and
// the bytes are only pushed down (a) lazily, right before a spill read that
// needs them, or (b) durably, by PublishSpill() — one fsync per publish
// instead of one flush per evicted entry.

#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "infer/embedding_store.h"
#include "io/record_file.h"

namespace agl::infer {

/// Everything a restarted process needs to re-attach a spill file:
/// the durable byte prefix and the (key -> offset) index into it.
/// PersistentEmbeddingStore serializes this into its index dataset.
struct SpillSnapshot {
  uint64_t valid_bytes = 0;
  std::vector<std::pair<CacheKey, uint64_t>> entries;
};

/// Thread-safe LRU embedding cache with optional record_file spill.
///
/// Budget semantics: negative = unbounded, 0 = disabled (lookups fail and
/// inserts are dropped without touching the counters), positive = resident
/// byte budget (approximate: payload + fixed per-entry overhead).
class EmbeddingCache final : public EmbeddingStore {
 public:
  explicit EmbeddingCache(int64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  bool enabled() const override { return budget_bytes_ != 0; }
  bool bounded() const { return budget_bytes_ > 0; }
  int64_t budget_bytes() const { return budget_bytes_; }

  /// Routes future evictions to a record_file at `path` (created/truncated
  /// now) instead of dropping them. The file uses the LocalDfs part-file
  /// format, so a spill parked under a DFS root is readable with the
  /// ordinary record tooling.
  agl::Status EnableSpill(const std::string& path) EXCLUDES(mu_);

  /// Re-attaches an existing spill file from a snapshot taken by a previous
  /// process: appends resume after `snap.valid_bytes` (anything past that —
  /// a torn tail from a crash mid-append — is truncated away) and the
  /// offset index is restored, so lookups hit the old process's entries.
  agl::Status RestoreSpill(const std::string& path, const SpillSnapshot& snap)
      EXCLUDES(mu_);

  /// Spills every RAM-resident entry that has no spill slot yet, then
  /// flushes and fsyncs the file once and returns the snapshot needed to
  /// re-attach it. The cache keeps serving afterwards; only the snapshot's
  /// prefix is durable.
  agl::Result<SpillSnapshot> PublishSpill() EXCLUDES(mu_);

  /// Returns true and fills `*out` when `key` is resident (in RAM or in the
  /// spill file). A spill hit is re-admitted to RAM.
  bool Lookup(const CacheKey& key, std::vector<float>* out) override
      EXCLUDES(mu_);

  /// Admits `embedding` under `key` (no-op when disabled or already
  /// present; an existing entry is only refreshed in LRU order — values are
  /// immutable per (node, round, version)).
  void Insert(const CacheKey& key, const std::vector<float>& embedding)
      override EXCLUDES(mu_);

  /// Drops every entry (RAM and spill index) for `node` with
  /// round >= `min_round`, across all model versions. Probes the keys
  /// (node, r, v) for every version v and round r >= min_round any key
  /// has ever carried — in serving 1 version x 2-3 rounds — instead of
  /// scanning the store; when that product exceeds the number of stored
  /// keys (a hostile restored index) it scans instead, so it never costs
  /// more than a scan.
  void Invalidate(uint64_t node, int32_t min_round) override EXCLUDES(mu_);

  EmbeddingCacheStats stats() const override EXCLUDES(mu_);

 private:
  struct Entry {
    CacheKey key;
    std::vector<float> embedding;
  };

  static int64_t EntryBytes(const std::vector<float>& embedding) {
    // Payload + approximate list/index node overhead.
    return static_cast<int64_t>(embedding.size() * sizeof(float)) + 64;
  }

  /// Inserts at the LRU front and evicts (spilling when configured) until
  /// the budget holds again.
  void AdmitLocked(const CacheKey& key, std::vector<float> embedding)
      REQUIRES(mu_);
  void EvictOneLocked() REQUIRES(mu_);
  /// Records the key's version and round for Invalidate's probes. Called
  /// wherever a key enters index_ or spill_offset_.
  void NoteKeyLocked(const CacheKey& key) REQUIRES(mu_);
  /// Erases `key` from index_ and spill_offset_, counting each erase.
  void EraseLocked(const CacheKey& key) REQUIRES(mu_);
  /// Appends one entry to the spill file (buffered; no flush) and records
  /// its offset. Counts a spill_failure and reports non-OK on error.
  agl::Status SpillAppendLocked(const CacheKey& key,
                                const std::vector<float>& embedding)
      REQUIRES(mu_);
  /// Attempts to serve `key` from the spill file.
  bool SpillLookupLocked(const CacheKey& key, std::vector<float>* out)
      REQUIRES(mu_);

  const int64_t budget_bytes_;

  // One mutex guards everything, including spill I/O: evictions and spill
  // reads are rare next to RAM hits, and the offset map stays trivially
  // consistent. If spill traffic ever dominates a profile, stage the
  // encode/IO outside the lock (collect victims under it, write after
  // release, re-check the offset map on re-entry).
  mutable common::Mutex mu_;
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_ GUARDED_BY(mu_);
  // Spill state: append-only writer plus a byte-offset index into the file.
  // Entries are immutable, so an offset written once stays valid and a
  // re-evicted entry is never rewritten. Appends sit in the stdio buffer
  // until a read needs them: `spill_flushed_bytes_` is the prefix known
  // visible to the reader (always a record boundary — it only advances to
  // bytes_written() right after a flush).
  std::string spill_path_ GUARDED_BY(mu_);
  std::optional<io::RecordWriter> spill_writer_ GUARDED_BY(mu_);
  std::optional<io::RecordReader> spill_reader_ GUARDED_BY(mu_);
  uint64_t spill_flushed_bytes_ GUARDED_BY(mu_) = 0;
  std::unordered_map<CacheKey, uint64_t, CacheKeyHash> spill_offset_
      GUARDED_BY(mu_);
  // Every version and round a key in index_ or spill_offset_ has ever
  // carried. They only grow: a stale value costs Invalidate one probe,
  // a missing one would leave an entry un-invalidated.
  std::set<uint64_t> versions_ GUARDED_BY(mu_);
  std::set<int32_t> rounds_ GUARDED_BY(mu_);
  EmbeddingCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace agl::infer
