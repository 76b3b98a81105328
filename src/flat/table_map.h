// The map step every table-driven MapReduce job shares (§3.2.1): parse
// the raw node and edge rows and emit the three kinds of information,
// keyed by node id — self (the node row), in-edge (keyed by dst) and
// out-edge (keyed by src). GraphFlat and the analytics vertex programs
// both start from it; GraphInfer tags its own records with Tagged.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "flat/tables.h"
#include "mr/mapreduce.h"

namespace agl::flat {

// Value tags of the map output. Jobs that consume it add their own tags
// for later rounds; those must not reuse these three.
constexpr char kTagNode = 'N';     // NodeRecord keyed by its id
constexpr char kTagInEdge = 'I';   // EdgeRecord keyed by dst
constexpr char kTagOutEdge = 'O';  // EdgeRecord keyed by src

/// `tag` followed by `payload`: the value layout of every tagged record.
/// Inline: every reduce round calls it once per emitted record.
inline std::string Tagged(char tag, const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 1);
  out.push_back(tag);
  out.append(payload);
  return out;
}

/// Runs the map phase over the tables: one (id, kTagNode) record per node
/// and one (dst, kTagInEdge) plus one (src, kTagOutEdge) record per edge,
/// unshuffled, each carrying the row's serialized bytes.
agl::Result<std::vector<mr::KeyValue>> MapTables(
    const mr::JobConfig& job, const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges, mr::JobStats* stats);

}  // namespace agl::flat
