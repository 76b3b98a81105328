#include "flat/csv_io.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_set>

namespace agl::flat {
namespace {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

template <typename T>
agl::Result<T> ParseInt(const std::string& s, const char* what) {
  T v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return agl::Status::InvalidArgument(std::string("bad ") + what + ": '" +
                                        s + "'");
  }
  return v;
}

/// Trailing empty columns (spreadsheet exports pad rows, and a CRLF file
/// stripped of its '\r' can leave one) are treated as absent optional
/// columns rather than mis-parsed as empty values. `min_cols` protects the
/// required columns, whose emptiness must stay visible to validation.
void DropTrailingEmptyColumns(std::vector<std::string>* cols,
                              std::size_t min_cols) {
  while (cols->size() > min_cols && cols->back().empty()) cols->pop_back();
}

/// Iterates data lines (skipping blanks and '#' comments).
template <typename Fn>
agl::Status ForEachLine(const std::string& text, Fn&& fn) {
  std::size_t start = 0;
  int line_no = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty() && line[0] != '#') {
      agl::Status s = fn(line);
      if (!s.ok()) {
        return agl::Status(s.code(), "line " + std::to_string(line_no) +
                                         ": " + s.message());
      }
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return agl::Status::OK();
}

agl::Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return agl::Status::IoError("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

agl::Result<uint64_t> ParseU64(const std::string& s, const char* what) {
  return ParseInt<uint64_t>(s, what);
}

agl::Result<float> ParseF32(const std::string& s, const char* what) {
  // std::from_chars<float> is not universally available; strtof suffices —
  // but strtof silently skips leading whitespace and saturates on
  // overflow, so both are rejected explicitly (from_chars-parity with the
  // integer columns).
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return agl::Status::InvalidArgument(std::string("bad ") + what + ": '" +
                                        s + "'");
  }
  char* end = nullptr;
  errno = 0;
  const float v = std::strtof(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return agl::Status::InvalidArgument(std::string("bad ") + what + ": '" +
                                        s + "'");
  }
  if (errno == ERANGE && std::isinf(v)) {
    return agl::Status::InvalidArgument(std::string("out-of-range ") + what +
                                        ": '" + s + "'");
  }
  return v;
}

agl::Result<std::vector<float>> ParseFloatList(const std::string& s,
                                               const char* what, char sep) {
  std::vector<float> out;
  if (s.empty()) return out;
  for (const std::string& piece : Split(s, sep)) {
    AGL_ASSIGN_OR_RETURN(float v, ParseF32(piece, what));
    out.push_back(v);
  }
  return out;
}

std::string JoinFloats(const std::vector<float>& v, char sep) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << sep;
    os << v[i];
  }
  return os.str();
}

agl::Result<std::vector<NodeRecord>> ParseNodeCsv(const std::string& text) {
  std::vector<NodeRecord> nodes;
  std::unordered_set<NodeId> seen_ids;
  AGL_RETURN_IF_ERROR(ForEachLine(text, [&](const std::string& line) {
    std::vector<std::string> cols = Split(line, ',');
    DropTrailingEmptyColumns(&cols, 3);
    if (cols.size() < 3 || cols.size() > 4) {
      return agl::Status::InvalidArgument(
          "node row needs 3-4 columns (id,label,features[,multilabel])");
    }
    NodeRecord node;
    AGL_ASSIGN_OR_RETURN(node.id, ParseU64(cols[0], "node id"));
    if (!seen_ids.insert(node.id).second) {
      return agl::Status::InvalidArgument("duplicate node id " + cols[0]);
    }
    if (!cols[1].empty()) {
      AGL_ASSIGN_OR_RETURN(node.label, ParseInt<int64_t>(cols[1], "label"));
    }
    if (cols[2].empty()) {
      return agl::Status::InvalidArgument(
          "node row has an empty feature column");
    }
    AGL_ASSIGN_OR_RETURN(node.features,
                         ParseFloatList(cols[2], "node feature", ';'));
    if (cols.size() == 4) {
      AGL_ASSIGN_OR_RETURN(node.multilabel,
                           ParseFloatList(cols[3], "multilabel", ';'));
    }
    nodes.push_back(std::move(node));
    return agl::Status::OK();
  }));
  return nodes;
}

agl::Result<std::vector<EdgeRecord>> ParseEdgeCsv(const std::string& text) {
  std::vector<EdgeRecord> edges;
  AGL_RETURN_IF_ERROR(ForEachLine(text, [&](const std::string& line) {
    std::vector<std::string> cols = Split(line, ',');
    DropTrailingEmptyColumns(&cols, 2);
    if (cols.size() < 2 || cols.size() > 4) {
      return agl::Status::InvalidArgument(
          "edge row needs 2-4 columns (src,dst[,weight[,features]])");
    }
    EdgeRecord edge;
    AGL_ASSIGN_OR_RETURN(edge.src, ParseU64(cols[0], "src id"));
    AGL_ASSIGN_OR_RETURN(edge.dst, ParseU64(cols[1], "dst id"));
    if (cols.size() >= 3 && !cols[2].empty()) {
      AGL_ASSIGN_OR_RETURN(edge.weight, ParseF32(cols[2], "weight"));
    }
    if (cols.size() == 4) {
      AGL_ASSIGN_OR_RETURN(edge.features,
                           ParseFloatList(cols[3], "edge feature", ';'));
    }
    edges.push_back(std::move(edge));
    return agl::Status::OK();
  }));
  return edges;
}

agl::Result<std::vector<NodeRecord>> ReadNodeCsv(const std::string& path) {
  AGL_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseNodeCsv(text);
}

agl::Result<std::vector<EdgeRecord>> ReadEdgeCsv(const std::string& path) {
  AGL_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseEdgeCsv(text);
}

std::string WriteNodeCsv(const std::vector<NodeRecord>& nodes) {
  std::ostringstream os;
  os << "# id,label,features[,multilabel]\n";
  for (const NodeRecord& n : nodes) {
    os << n.id << ',' << n.label << ',' << JoinFloats(n.features, ';');
    if (!n.multilabel.empty()) os << ',' << JoinFloats(n.multilabel, ';');
    os << '\n';
  }
  return os.str();
}

std::string WriteEdgeCsv(const std::vector<EdgeRecord>& edges) {
  std::ostringstream os;
  os << "# src,dst,weight[,features]\n";
  for (const EdgeRecord& e : edges) {
    os << e.src << ',' << e.dst << ',' << e.weight;
    if (!e.features.empty()) os << ',' << JoinFloats(e.features, ';');
    os << '\n';
  }
  return os.str();
}

namespace {
agl::Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return agl::Status::IoError("cannot write " + path);
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (n != content.size()) return agl::Status::IoError("short write " + path);
  return agl::Status::OK();
}
}  // namespace

agl::Status WriteNodeCsvFile(const std::string& path,
                             const std::vector<NodeRecord>& nodes) {
  return WriteFile(path, WriteNodeCsv(nodes));
}

agl::Status WriteEdgeCsvFile(const std::string& path,
                             const std::vector<EdgeRecord>& edges) {
  return WriteFile(path, WriteEdgeCsv(edges));
}

}  // namespace agl::flat
