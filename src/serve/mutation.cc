#include "serve/mutation.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "flat/csv_io.h"

namespace agl::serve {
namespace {

std::vector<std::string> SplitWs(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

agl::Result<Mutation> Mutation::Parse(const std::string& line) {
  const std::vector<std::string> tok = SplitWs(line);
  const std::string op = tok.empty() ? "" : tok[0];
  Mutation m;
  const bool add = op == "add-edge" && (tok.size() == 4 || tok.size() == 5);
  if (add || (op == "remove-edge" && tok.size() == 3)) {
    m.type = add ? Type::kAddEdge : Type::kRemoveEdge;
    AGL_ASSIGN_OR_RETURN(m.edge.src, flat::ParseU64(tok[1], "node id"));
    AGL_ASSIGN_OR_RETURN(m.edge.dst, flat::ParseU64(tok[2], "node id"));
    if (add) {
      AGL_ASSIGN_OR_RETURN(m.edge.weight, flat::ParseF32(tok[3], "weight"));
    }
    if (tok.size() == 5) {
      AGL_ASSIGN_OR_RETURN(m.edge.features,
                           flat::ParseFloatList(tok[4], "feature", ','));
    }
    return m;
  }
  if (op == "update-features" && tok.size() == 3) {
    m.type = Type::kUpdateFeatures;
    AGL_ASSIGN_OR_RETURN(m.node, flat::ParseU64(tok[1], "node id"));
    AGL_ASSIGN_OR_RETURN(m.features,
                         flat::ParseFloatList(tok[2], "feature", ','));
    return m;
  }
  return agl::Status::InvalidArgument(
      "bad mutation '" + line +
      "'; want add-edge <src> <dst> <weight> [f1,f2,...], "
      "remove-edge <src> <dst> or update-features <node> f1,f2,...");
}

std::string Mutation::ToString() const {
  switch (type) {
    case Type::kAddEdge: {
      std::string out = "add-edge " + std::to_string(edge.src) + " " +
                        std::to_string(edge.dst) + " " +
                        flat::JoinFloats({edge.weight}, ',');
      if (!edge.features.empty()) {
        out += ' ';
        out += flat::JoinFloats(edge.features, ',');
      }
      return out;
    }
    case Type::kRemoveEdge:
      return "remove-edge " + std::to_string(edge.src) + " " +
             std::to_string(edge.dst);
    case Type::kUpdateFeatures:
      return "update-features " + std::to_string(node) + " " +
             flat::JoinFloats(features, ',');
  }
  return "";
}

agl::Result<Mutation> ApplyMutation(const Mutation& m,
                                    flat::TableGraph* graph) {
  Mutation inverse = m;
  switch (m.type) {
    case Mutation::Type::kAddEdge:
      AGL_RETURN_IF_ERROR(graph->AddEdge(m.edge));
      inverse.type = Mutation::Type::kRemoveEdge;
      return inverse;
    case Mutation::Type::kRemoveEdge: {
      AGL_ASSIGN_OR_RETURN(inverse.edge,
                           graph->RemoveEdge(m.edge.src, m.edge.dst));
      inverse.type = Mutation::Type::kAddEdge;
      return inverse;
    }
    case Mutation::Type::kUpdateFeatures: {
      AGL_ASSIGN_OR_RETURN(inverse.features,
                           graph->SetFeatures(m.node, m.features));
      return inverse;
    }
  }
  return agl::Status::Internal("unreachable mutation type");
}

void UndoMutation(const Mutation& inverse, flat::TableGraph* graph) {
  if (inverse.type == Mutation::Type::kAddEdge) {
    graph->InsertEdge(inverse.edge);
  } else {
    // Always re-applies: the edge an AddEdge admitted is the only (src, dst)
    // row, and an old feature row has the table's width.
    AGL_CHECK_OK(ApplyMutation(inverse, graph).status());
  }
}

agl::Status ApplyMutation(const Mutation& m,
                          std::vector<flat::NodeRecord>* nodes,
                          std::vector<flat::EdgeRecord>* edges) {
  flat::TableGraph graph(std::move(*nodes), std::move(*edges));
  const agl::Status status = ApplyMutation(m, &graph).status();
  std::move(graph).Release(nodes, edges);
  return status;
}

DirtySeeds ComputeDirtySeeds(gnn::ModelType model,
                             const std::vector<Mutation>& batch,
                             const flat::TableGraph& post) {
  std::set<flat::NodeId> dataset;
  // node -> best (lowest) base round.
  std::map<flat::NodeId, int> cache;
  auto seed_cache = [&](flat::NodeId id, int base) {
    auto [it, inserted] = cache.emplace(id, base);
    if (!inserted && base < it->second) it->second = base;
  };
  for (const Mutation& m : batch) {
    switch (m.type) {
      case Mutation::Type::kAddEdge:
      case Mutation::Type::kRemoveEdge: {
        // Dataset: only dst's round-0 info (its in-edge set) changed.
        dataset.insert(m.edge.dst);
        seed_cache(m.edge.dst, 1);
        if (model == gnn::ModelType::kGcn) {
          // col_deg(src) changed: every entry in column src, i.e. src's
          // self-loop row and every out-neighbor's row.
          seed_cache(m.edge.src, 1);
          for (std::size_t r :
               post.Adjacent(m.edge.src, flat::TableGraph::Direction::kOut)) {
            seed_cache(post.edges()[r].dst, 1);
          }
        }
        break;
      }
      case Mutation::Type::kUpdateFeatures:
        dataset.insert(m.node);
        seed_cache(m.node, 0);
        break;
    }
  }
  return {{dataset.begin(), dataset.end()}, {cache.begin(), cache.end()}};
}

std::vector<std::pair<flat::NodeId, int32_t>> PropagateInvalidations(
    const std::vector<std::pair<flat::NodeId, int>>& cache_seeds,
    const flat::TableGraph& post, int num_layers) {
  const std::unordered_map<flat::NodeId, int> levels =
      post.Levels(cache_seeds, flat::TableGraph::Direction::kOut, num_layers);
  std::vector<std::pair<flat::NodeId, int32_t>> out;
  out.reserve(levels.size());
  for (const auto& [id, level] : levels) {
    out.emplace_back(id, static_cast<int32_t>(std::max(1, level)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv1a(const void* data, std::size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t HashFloats(const std::vector<float>& v, uint64_t h) {
  h = Fnv1a(v.data(), v.size() * sizeof(float), h);
  const uint64_t n = v.size();
  return Fnv1a(&n, sizeof(n), h);
}

}  // namespace

uint64_t GraphFingerprint(const std::vector<flat::NodeRecord>& nodes,
                          const std::vector<flat::EdgeRecord>& edges) {
  // Per-row FNV-1a hashes combined by addition: commutative (row order is
  // irrelevant) but still sensitive to any field of any row. Node and edge
  // rows seed differently so an id can't masquerade as a src.
  uint64_t acc = 0x9ae16a3b2f90404fULL;
  for (const flat::NodeRecord& n : nodes) {
    uint64_t h = Fnv1a(&n.id, sizeof(n.id), kFnvOffset ^ 0x4eULL);
    h = HashFloats(n.features, h);
    h = Fnv1a(&n.label, sizeof(n.label), h);
    h = HashFloats(n.multilabel, h);
    acc += h * 0x9e3779b97f4a7c15ULL;
  }
  for (const flat::EdgeRecord& e : edges) {
    uint64_t h = Fnv1a(&e.src, sizeof(e.src), kFnvOffset ^ 0x45ULL);
    h = Fnv1a(&e.dst, sizeof(e.dst), h);
    h = Fnv1a(&e.weight, sizeof(e.weight), h);
    h = HashFloats(e.features, h);
    acc += h * 0xbf58476d1ce4e5b9ULL;
  }
  acc ^= nodes.size() * kFnvPrime;
  acc ^= edges.size();
  return acc;
}

}  // namespace agl::serve
