// The narrow store interface behind batched GraphInfer's segment-embedding
// reuse: (node, round, model_version) -> embedding bytes.
//
// Two implementations live behind it: the in-memory LRU `EmbeddingCache`
// (optionally spilling evictions to a record_file) and the
// `PersistentEmbeddingStore` that additionally publishes its spill + offset
// index through the crash-consistent LocalDfs path so a restarted process
// re-opens the store warm. The inference core only sees this interface, so
// a serving loop can hand the same store to many inference passes.
//
// Contract: a store is a pure optimization layer. Every Lookup hit must
// return bytes bit-identical to what the reducer would recompute for that
// key on the current graph; when the graph changes, the owner must
// Invalidate the affected (node, round) range before the next Lookup.
// Any internal failure degrades to a miss, never to a wrong answer.

#pragma once

#include <cstdint>
#include <vector>

#include "infer/cache_key.h"

namespace agl::infer {

class EmbeddingStore {
 public:
  virtual ~EmbeddingStore() = default;

  /// False = the store ignores all traffic (Lookups miss silently, Inserts
  /// drop). Callers may skip encoding work when disabled.
  virtual bool enabled() const = 0;

  /// Returns true and fills `*out` when `key` is resident.
  virtual bool Lookup(const CacheKey& key, std::vector<float>* out) = 0;

  /// Admits `embedding` under `key`. Values are immutable per key: an
  /// insert over an existing entry must not change its bytes.
  virtual void Insert(const CacheKey& key,
                      const std::vector<float>& embedding) = 0;

  /// Drops every entry for `node` with round >= `min_round` (all model
  /// versions). The serving layer calls this when a mutation dirties a
  /// node's round-`min_round` embedding: deeper rounds at that node
  /// transitively depend on it, shallower ones do not. Called once per
  /// invalidated node of every mutation batch, so it must cost in the
  /// keys it could match, not in the size of the store.
  virtual void Invalidate(uint64_t node, int32_t min_round) = 0;

  virtual EmbeddingCacheStats stats() const = 0;
};

}  // namespace agl::infer
