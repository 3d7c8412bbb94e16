#include "io/text_format.h"

#include <sys/stat.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "graph/builder.h"

namespace graphite {

namespace {

std::string TpToString(TimePoint t) {
  if (t == kTimeMax) return "inf";
  if (t == kTimeMin) return "-inf";
  return std::to_string(t);
}

// The whole token, as a base-10 int64 with an optional sign.
bool ParseInt(std::string_view tok, int64_t* out) {
  const char* first = tok.data();
  const char* const last = first + tok.size();
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '-') ++first;
  const auto [end, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && end == last;
}

bool ParseTp(std::string_view tok, TimePoint* out) {
  if (tok == "inf" || tok == "+inf") {
    *out = kTimeMax;
    return true;
  }
  if (tok == "-inf") {
    *out = kTimeMin;
    return true;
  }
  return ParseInt(tok, out);
}

}  // namespace

std::string WriteTextGraph(const TemporalGraph& g) {
  std::ostringstream out;
  out << "# graphite temporal graph\n";
  out << "H " << g.horizon() << "\n";
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    const Interval& iv = g.vertex_interval(v);
    out << "V " << g.vertex_id(v) << " " << TpToString(iv.start) << " "
        << TpToString(iv.end) << "\n";
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    out << "E " << e.eid << " " << g.vertex_id(e.src) << " "
        << g.vertex_id(e.dst) << " " << TpToString(e.interval.start) << " "
        << TpToString(e.interval.end) << "\n";
  }
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (const auto& [label, map] : g.VertexProperties(v)) {
      for (const auto& entry : map.entries()) {
        out << "VP " << g.vertex_id(v) << " " << g.LabelName(label) << " "
            << TpToString(entry.interval.start) << " "
            << TpToString(entry.interval.end) << " " << entry.value << "\n";
      }
    }
  }
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    for (const auto& [label, map] : g.EdgeProperties(pos)) {
      for (const auto& entry : map.entries()) {
        out << "EP " << g.edge(pos).eid << " " << g.LabelName(label) << " "
            << TpToString(entry.interval.start) << " "
            << TpToString(entry.interval.end) << " " << entry.value << "\n";
      }
    }
  }
  return out.str();
}

Result<TemporalGraph> ReadTextGraph(std::string_view text) {
  TemporalGraphBuilder builder;
  BuilderOptions options;
  int lineno = 0;
  auto error = [&lineno](std::string_view msg) {
    return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                   std::string(msg));
  };
  // One pass over the buffer: each line is split into views of its
  // fields in place, one more than the longest record takes, so a
  // record with a field too many shows as kMaxFields tokens.
  constexpr size_t kMaxFields = 7;
  std::string_view tok[kMaxFields];
  const char* p = text.data();
  const char* const text_end = p + text.size();
  while (p != text_end) {
    const char* const nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(text_end - p)));
    const char* const eol = nl != nullptr ? nl : text_end;
    ++lineno;
    size_t n = 0;
    while (n < kMaxFields) {
      while (p != eol && IsFieldSpace(*p)) ++p;
      if (p == eol) break;
      const char* const first = p;
      while (p != eol && !IsFieldSpace(*p)) ++p;
      tok[n++] = std::string_view(first, static_cast<size_t>(p - first));
    }
    p = nl != nullptr ? nl + 1 : text_end;
    if (n == 0 || tok[0][0] == '#') continue;
    const std::string_view kind = tok[0];
    auto interval = [&tok](size_t i, Interval* iv) {
      return ParseTp(tok[i], &iv->start) && ParseTp(tok[i + 1], &iv->end) &&
             iv->IsValid();
    };
    if (kind == "H") {
      if (n != 2 || !ParseInt(tok[1], &options.horizon) ||
          options.horizon <= 0) {
        return error("bad horizon");
      }
    } else if (kind == "V") {
      VertexId vid;
      Interval iv;
      if (n != 4 || !ParseInt(tok[1], &vid) || !interval(2, &iv)) {
        return error("bad V record");
      }
      builder.AddVertex(vid, iv);
    } else if (kind == "E") {
      EdgeId eid;
      VertexId src, dst;
      Interval iv;
      if (n != 6 || !ParseInt(tok[1], &eid) || !ParseInt(tok[2], &src) ||
          !ParseInt(tok[3], &dst) || !interval(4, &iv)) {
        return error("bad E record");
      }
      builder.AddEdge(eid, src, dst, iv);
    } else if (kind == "VP" || kind == "EP") {
      int64_t id;
      Interval iv;
      PropValue value;
      if (n != 6 || !ParseInt(tok[1], &id) || !interval(3, &iv) ||
          !ParseInt(tok[5], &value)) {
        return error(kind == "VP" ? "bad VP record" : "bad EP record");
      }
      if (kind == "VP") {
        builder.SetVertexProperty(id, tok[2], iv, value);
      } else {
        builder.SetEdgeProperty(id, tok[2], iv, value);
      }
    } else {
      return error("unknown record kind '" + std::string(kind) + "'");
    }
  }
  return builder.Build(options);
}

Status WriteTextGraphFile(const TemporalGraph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const std::string text = WriteTextGraph(g);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<TemporalGraph> ReadTextGraphFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  // fopen succeeds on a directory; only its reads fail.
  struct stat st;
  if (fstat(fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::IoError("not a regular file: " + path);
  }
  // Read into a buffer sized from the fstat, one byte over so that a
  // file still at that size ends in a short read; a file that grew since
  // is read on to EOF.
  std::string text(static_cast<size_t>(st.st_size) + 1, '\0');
  size_t len = 0;
  while ((len += std::fread(text.data() + len, 1, text.size() - len, f)) ==
         text.size()) {
    text.resize(2 * text.size());
  }
  text.resize(len);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read failed: " + path);
  return ReadTextGraph(text);
}

}  // namespace graphite
