#include "flat/table_map.h"

#include <memory>

namespace agl::flat {
namespace {

/// Parses raw table rows and emits the self, in-edge and out-edge records.
class TableMapper : public mr::Mapper {
 public:
  agl::Status Map(const mr::KeyValue& input, mr::Emitter* out) override {
    if (input.value.empty()) {
      return agl::Status::InvalidArgument("empty input record");
    }
    const char tag = input.value[0];
    const std::string payload = input.value.substr(1);
    if (tag == kTagNode) {
      AGL_ASSIGN_OR_RETURN(NodeRecord node, NodeRecord::Parse(payload));
      out->Emit(std::to_string(node.id), Tagged(kTagNode, payload));
      return agl::Status::OK();
    }
    if (tag == kTagInEdge) {  // raw edge row
      AGL_ASSIGN_OR_RETURN(EdgeRecord edge, EdgeRecord::Parse(payload));
      out->Emit(std::to_string(edge.dst), Tagged(kTagInEdge, payload));
      out->Emit(std::to_string(edge.src), Tagged(kTagOutEdge, payload));
      return agl::Status::OK();
    }
    return agl::Status::InvalidArgument("unknown input tag");
  }
};

/// Raw-table rows tagged as map input.
std::vector<mr::KeyValue> BuildMapInput(const std::vector<NodeRecord>& nodes,
                                        const std::vector<EdgeRecord>& edges) {
  std::vector<mr::KeyValue> input;
  input.reserve(nodes.size() + edges.size());
  for (const NodeRecord& n : nodes) {
    input.push_back({"", Tagged(kTagNode, n.Serialize())});
  }
  for (const EdgeRecord& e : edges) {
    input.push_back({"", Tagged(kTagInEdge, e.Serialize())});
  }
  return input;
}

}  // namespace

agl::Result<std::vector<mr::KeyValue>> MapTables(
    const mr::JobConfig& job, const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges, mr::JobStats* stats) {
  return mr::RunMapPhase(job, BuildMapInput(nodes, edges),
                         [] { return std::make_unique<TableMapper>(); },
                         stats);
}

}  // namespace agl::flat
