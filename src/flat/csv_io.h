// CSV readers/writers for the node and edge tables — the concrete file
// format behind Figure 6's `GraphFlat -n node_table -e edge_table`.
//
// Node table row:   id,label,f0;f1;...;fn[,m0;m1;...;mk]
//   - label -1 (or empty) means unlabeled
//   - the optional 4th column holds multi-label targets
// Edge table row:   src,dst,weight,f0;f1;...;fm
//   - trailing columns optional (weight defaults to 1, features to none)
//
// Feature vectors use ';' as the inner separator so the files stay plain
// single-char-delimited CSV.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flat/tables.h"

namespace agl::flat {

/// Strict number parsers behind every text surface (these tables, the
/// mutation stream, the serve script): the whole of `s` must be one
/// in-range number — no sign on an id, no surrounding whitespace, no
/// trailing junk, no saturation. Errors are kInvalidArgument naming `what`.
agl::Result<uint64_t> ParseU64(const std::string& s, const char* what);
agl::Result<float> ParseF32(const std::string& s, const char* what);
/// A `sep`-separated list of ParseF32 values; empty `s` is the empty list
/// and an empty item is an error. JoinFloats writes one back ("%g").
agl::Result<std::vector<float>> ParseFloatList(const std::string& s,
                                               const char* what, char sep);
std::string JoinFloats(const std::vector<float>& v, char sep);

/// Parses a node table from CSV text (one record per line, '#' comments
/// and blank lines skipped; CRLF endings and trailing empty optional
/// columns tolerated). Malformed rows — non-numeric or duplicate ids, bad
/// or empty feature lists, out-of-range values — are kInvalidArgument
/// errors carrying the line number, never silent mis-parses.
agl::Result<std::vector<NodeRecord>> ParseNodeCsv(const std::string& text);

/// Parses an edge table from CSV text.
agl::Result<std::vector<EdgeRecord>> ParseEdgeCsv(const std::string& text);

/// Reads and parses a node table file.
agl::Result<std::vector<NodeRecord>> ReadNodeCsv(const std::string& path);

/// Reads and parses an edge table file.
agl::Result<std::vector<EdgeRecord>> ReadEdgeCsv(const std::string& path);

/// Serializes tables back to CSV (round-trips with the parsers).
std::string WriteNodeCsv(const std::vector<NodeRecord>& nodes);
std::string WriteEdgeCsv(const std::vector<EdgeRecord>& edges);

/// Writes a table file; parent directory must exist.
agl::Status WriteNodeCsvFile(const std::string& path,
                             const std::vector<NodeRecord>& nodes);
agl::Status WriteEdgeCsvFile(const std::string& path,
                             const std::vector<EdgeRecord>& edges);

}  // namespace agl::flat
