// LocalDfs: a directory of checksummed part-files standing in for the
// distributed file system where GraphFlat stores flattened GraphFeatures
// ("Storing" step of §3.2.1) and GraphInfer reads/writes embeddings.
//
// Crash consistency: a dataset is only ever published with a single
// directory rename. Writers assemble parts plus a MANIFEST (part names and
// sizes) in a scratch directory ("<name>.tmp-<pid>-<nonce>" for
// WriteDataset, "<name>.unify-tmp-<pid>" for UnifyDatasets), fsync
// everything, and rename the scratch over the destination. A crash
// therefore leaves either the old dataset or the new one — never a
// readable partial. Scratch directories orphaned by a crash are swept on
// Open and DropDataset; a dataset whose MANIFEST is missing or disagrees
// with the part files on disk is reported as kCorruption, never silently
// read.
//
// Concurrency contract: many processes may Open the same root and
// read/write concurrently, subject to single-writer-per-dataset — for any
// dataset name, at most one process publishes (writes or unifies onto) it
// at a time. Under that contract every sweep is safe: the owner pid
// embedded in a scratch name lets Open / DropDataset / the pre-publish
// sweep reclaim only scratches whose owner is dead (or ourselves —
// leftovers of a failed earlier attempt), never a live peer's in-flight
// publish. ValidateAllDatasets likewise treats a live foreign scratch as
// expected traffic and flags only orphans. Legacy pid-less scratch names
// are always treated as orphaned. Two processes racing a publish onto the
// SAME name is outside the contract (last rename wins; a sweep may delete
// the loser's scratch).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace agl::mr {

/// File-system backed record store. Datasets are subdirectories holding
/// part-00000..part-NNNNN record files plus a MANIFEST.
class LocalDfs {
 public:
  /// `root` is created if missing; stale scratch directories left by a
  /// crashed writer are removed.
  static agl::Result<LocalDfs> Open(const std::string& root);

  /// Writes `records` as `num_parts` part files (round-robin), replacing the
  /// dataset if it exists. The publish is atomic (scratch + rename).
  agl::Status WriteDataset(const std::string& name,
                           const std::vector<std::string>& records,
                           int num_parts = 1);

  /// Reads every record of a dataset (part order, then file order).
  agl::Result<std::vector<std::string>> ReadDataset(
      const std::string& name) const;

  /// Lists the part files of a dataset (absolute paths, manifest order —
  /// which is part-number order). Returns kNotFound when the dataset does
  /// not exist and kCorruption when its manifest is missing or any part's
  /// size disagrees with it (torn write).
  agl::Result<std::vector<std::string>> ListParts(
      const std::string& name) const;

  /// True when the dataset directory and its manifest both exist.
  bool DatasetExists(const std::string& name) const;

  /// Removes a dataset, its part files, and any scratch directories left
  /// for it by a crashed writer.
  agl::Status DropDataset(const std::string& name);

  /// Unifies the part files of `sources` (in order) under a single dataset
  /// `dest` with stable part numbering: source i's parts keep their relative
  /// order and are renamed part-<offset+j> where offset counts all parts of
  /// earlier sources. The sources are consumed (their directories removed)
  /// only after `dest` is published, so a crash mid-unify leaves every
  /// source intact and the operation can simply be re-run. An existing
  /// `dest` is replaced. Sharded GraphFlat uses this to merge per-shard
  /// outputs into one logical dataset.
  agl::Status UnifyDatasets(const std::string& dest,
                            const std::vector<std::string>& sources);

  /// Total bytes across the dataset's part files.
  agl::Result<uint64_t> DatasetBytes(const std::string& name) const;

  /// Names of all published datasets under the root (sorted). Scratch
  /// directories are excluded.
  std::vector<std::string> ListDatasets() const;

  /// Integrity sweep over the whole root: kCorruption if any scratch
  /// directory is present (crashed writer not yet swept) or any dataset's
  /// parts disagree with its manifest. The chaos harness runs this after
  /// every faulted pipeline to prove no partial state leaked.
  agl::Status ValidateAllDatasets() const;

  const std::string& root() const { return root_; }

 private:
  explicit LocalDfs(std::string root) : root_(std::move(root)) {}

  std::string DatasetDir(const std::string& name) const;

  /// Removes only the published directory of `name` (not its scratches) —
  /// the pre-rename step of a publish, which must not purge the publisher's
  /// own scratch the way DropDataset would.
  agl::Status RemovePublishedDir(const std::string& name);

  /// Removes scratch directories belonging to `name`.
  void SweepScratchFor(const std::string& name);

  /// Manifest + part-size check for one published dataset directory.
  agl::Status ValidateDatasetDir(const std::string& name) const;

  std::string root_;
};

/// Canonical name of shard `shard`'s slice of dataset `base`
/// ("<base>.shard-NN"): the staging layout sharded writers produce before
/// UnifyDatasets. No reader takes a slice for the dataset: only the
/// unified dataset holds every shard's records.
std::string ShardDatasetName(const std::string& base, int shard);

}  // namespace agl::mr
