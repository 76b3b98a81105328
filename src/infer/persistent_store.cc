#include "infer/persistent_store.h"

#include <algorithm>
#include <filesystem>

#include "io/codec.h"

namespace agl::infer {
namespace {

// Bumped whenever the index record layout changes; an unknown magic is
// treated as "no usable index", i.e. a cold start.
constexpr const char* kIndexMagic = "AGLESTORE2";

std::string EncodeIndexHeader(uint64_t model_version, uint64_t graph_version,
                              uint64_t valid_bytes, uint64_t entry_count) {
  io::BufferWriter w;
  w.PutString(kIndexMagic);
  w.PutVarint64(model_version);
  w.PutVarint64(graph_version);
  w.PutVarint64(valid_bytes);
  w.PutVarint64(entry_count);
  return w.Release();
}

std::string EncodeIndexEntry(const CacheKey& key, uint64_t offset) {
  io::BufferWriter w;
  w.PutVarint64(key.node);
  w.PutVarint64(static_cast<uint64_t>(static_cast<uint32_t>(key.round)));
  w.PutVarint64(key.version);
  w.PutVarint64(offset);
  return w.Release();
}

/// Parses the published index records into a snapshot. Any structural
/// problem (bad magic, short records, count mismatch) returns kCorruption —
/// the caller degrades to a cold start.
agl::Result<SpillSnapshot> ParseIndex(const std::vector<std::string>& records,
                                      uint64_t expected_version,
                                      uint64_t expected_graph_version) {
  if (records.empty()) return agl::Status::Corruption("empty index");
  io::BufferReader header(records[0]);
  std::string magic;
  uint64_t version = 0, graph_version = 0, valid_bytes = 0, entry_count = 0;
  AGL_RETURN_IF_ERROR(header.GetString(&magic));
  if (magic != kIndexMagic) {
    return agl::Status::Corruption("bad index magic: " + magic);
  }
  AGL_RETURN_IF_ERROR(header.GetVarint64(&version));
  AGL_RETURN_IF_ERROR(header.GetVarint64(&graph_version));
  AGL_RETURN_IF_ERROR(header.GetVarint64(&valid_bytes));
  AGL_RETURN_IF_ERROR(header.GetVarint64(&entry_count));
  if (version != expected_version) {
    // Not corruption — a model push happened between publish and reopen.
    // The embeddings are valid for weights we no longer serve.
    return agl::Status::FailedPrecondition("index model_version mismatch");
  }
  if (graph_version != expected_graph_version) {
    // Also not corruption: the graph moved (e.g. the last incarnation
    // persisted after mutations and this one serves different tables).
    // Its embeddings answer questions about a graph we are not serving.
    return agl::Status::FailedPrecondition("index graph_version mismatch");
  }
  if (entry_count != records.size() - 1) {
    return agl::Status::Corruption("index entry count mismatch");
  }
  SpillSnapshot snap;
  snap.valid_bytes = valid_bytes;
  snap.entries.reserve(records.size() - 1);
  for (std::size_t i = 1; i < records.size(); ++i) {
    io::BufferReader r(records[i]);
    uint64_t node = 0, round = 0, key_version = 0, offset = 0;
    AGL_RETURN_IF_ERROR(r.GetVarint64(&node));
    AGL_RETURN_IF_ERROR(r.GetVarint64(&round));
    AGL_RETURN_IF_ERROR(r.GetVarint64(&key_version));
    AGL_RETURN_IF_ERROR(r.GetVarint64(&offset));
    CacheKey key;
    key.node = node;
    key.round = static_cast<int32_t>(static_cast<uint32_t>(round));
    key.version = key_version;
    snap.entries.emplace_back(key, offset);
  }
  return snap;
}

}  // namespace

agl::Result<std::unique_ptr<PersistentEmbeddingStore>>
PersistentEmbeddingStore::Open(mr::LocalDfs* dfs, const std::string& name,
                               const Options& options) {
  if (dfs == nullptr) {
    return agl::Status::InvalidArgument("persistent store needs a DFS");
  }
  if (name.empty()) {
    return agl::Status::InvalidArgument("persistent store needs a name");
  }
  if (options.budget_bytes == 0) {
    return agl::Status::InvalidArgument(
        "persistent store budget_bytes must not be 0 (disabled cache)");
  }
  std::unique_ptr<PersistentEmbeddingStore> store(
      new PersistentEmbeddingStore(dfs, name, options));

  // Try to re-attach the previous incarnation. Everything short of success
  // degrades to a cold start — the store must come up serving either way.
  std::error_code ec;
  const uint64_t spill_bytes =
      std::filesystem::file_size(store->spill_path_, ec);
  if (dfs->DatasetExists(store->index_dataset_) && !ec) {
    auto records = dfs->ReadDataset(store->index_dataset_);
    if (records.ok()) {
      auto snap = ParseIndex(*records, options.model_version,
                             options.graph_version);
      // An index claiming more durable bytes than the spill file holds is
      // corrupt; restoring it would grow the file to the claimed size.
      if (snap.ok() && snap->valid_bytes <= spill_bytes &&
          store->cache_.RestoreSpill(store->spill_path_, *snap).ok()) {
        store->opened_warm_ = !snap->entries.empty();
      }
    }
  }
  if (!store->opened_warm_) {
    // Cold start. If a spill file already exists (a published index we
    // could not use, or a crashed incarnation), append past it instead of
    // truncating: the old bytes are unreachable from this incarnation, but
    // a still-published index describes that prefix, and clobbering it
    // would orphan the index for any later incarnation it DOES match.
    if (!ec) {
      SpillSnapshot fresh;
      fresh.valid_bytes = spill_bytes;
      AGL_RETURN_IF_ERROR(
          store->cache_.RestoreSpill(store->spill_path_, fresh));
    } else {
      AGL_RETURN_IF_ERROR(store->cache_.EnableSpill(store->spill_path_));
    }
  }
  return store;
}

agl::Status PersistentEmbeddingStore::Publish() {
  AGL_ASSIGN_OR_RETURN(SpillSnapshot snap, cache_.PublishSpill());
  // Canonical entry order: the published bytes are a deterministic function
  // of the store contents, not of unordered_map iteration order.
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const auto& a, const auto& b) {
              const CacheKey& x = a.first;
              const CacheKey& y = b.first;
              if (x.node != y.node) return x.node < y.node;
              if (x.round != y.round) return x.round < y.round;
              return x.version < y.version;
            });
  std::vector<std::string> records;
  records.reserve(snap.entries.size() + 1);
  records.push_back(EncodeIndexHeader(model_version_, graph_version_,
                                      snap.valid_bytes, snap.entries.size()));
  for (const auto& [key, offset] : snap.entries) {
    records.push_back(EncodeIndexEntry(key, offset));
  }
  // Atomic publish: a crash before the rename leaves the previous index in
  // place, which still describes a valid (shorter) prefix of the spill.
  return dfs_->WriteDataset(index_dataset_, records, /*num_parts=*/1);
}

}  // namespace agl::infer
