// Line-oriented text format for temporal property graphs, so examples and
// user pipelines can persist and exchange datasets.
//
//   # comment / blank lines ignored
//   H  <horizon>
//   V  <vid> <start> <end>
//   E  <eid> <src-vid> <dst-vid> <start> <end>
//   VP <vid> <label> <start> <end> <value>
//   EP <eid> <label> <start> <end> <value>
//
// Time-points accept "inf" / "+inf" / "-inf"; other numbers are base-10
// int64s with an optional sign. Labels are non-empty and contain no
// whitespace (IsValidLabel). Fields are separated by runs of C-locale
// whitespace (IsFieldSpace), so CRLF files read as LF ones; every number
// must parse whole, and a record with a field too many or too few is
// rejected with its line number.
#ifndef GRAPHITE_IO_TEXT_FORMAT_H_
#define GRAPHITE_IO_TEXT_FORMAT_H_

#include <string>
#include <string_view>

#include "graph/temporal_graph.h"
#include "util/status.h"

namespace graphite {

/// Serializes a graph to the text format.
std::string WriteTextGraph(const TemporalGraph& g);

/// Parses the text format (validates Constraints 1-3 via the builder) in
/// one pass, tokenizing each line in place.
Result<TemporalGraph> ReadTextGraph(std::string_view text);

/// Convenience file wrappers.
Status WriteTextGraphFile(const TemporalGraph& g, const std::string& path);
Result<TemporalGraph> ReadTextGraphFile(const std::string& path);

}  // namespace graphite

#endif  // GRAPHITE_IO_TEXT_FORMAT_H_
