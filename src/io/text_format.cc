#include "io/text_format.h"

#include <sys/stat.h>

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "graph/builder.h"

namespace graphite {

namespace {

std::string TpToString(TimePoint t) {
  if (t == kTimeMax) return "inf";
  if (t == kTimeMin) return "-inf";
  return std::to_string(t);
}

bool ParseTp(const std::string& tok, TimePoint* out) {
  if (tok == "inf" || tok == "+inf") {
    *out = kTimeMax;
    return true;
  }
  if (tok == "-inf") {
    *out = kTimeMin;
    return true;
  }
  // The whole token, as a base-10 integer with an optional sign.
  const char* first = tok.data();
  const char* const last = first + tok.size();
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '-') ++first;
  const auto [end, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && end == last;
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

Result<TemporalGraph> ReadTextGraph(const std::string& text) {
  TemporalGraphBuilder builder;
  BuilderOptions options;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto error = [&lineno](const std::string& msg) {
    return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                   msg);
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    // Every field must parse whole, and a record must end after its last.
    auto read_int = [&ls](int64_t* v) {
      return ls >> *v && (ls.eof() || std::isspace(ls.peek()));
    };
    auto read_interval = [&ls](Interval* iv) {
      std::string a, b;
      return ls >> a >> b && ParseTp(a, &iv->start) &&
             ParseTp(b, &iv->end) && iv->IsValid();
    };
    auto at_end = [&ls] { return (ls >> std::ws).eof(); };
    if (kind == "H") {
      if (!read_int(&options.horizon) || options.horizon <= 0 || !at_end()) {
        return error("bad horizon");
      }
    } else if (kind == "V") {
      VertexId vid;
      Interval iv;
      if (!read_int(&vid) || !read_interval(&iv) || !at_end()) {
        return error("bad V record");
      }
      builder.AddVertex(vid, iv);
    } else if (kind == "E") {
      EdgeId eid;
      VertexId src, dst;
      Interval iv;
      if (!read_int(&eid) || !read_int(&src) || !read_int(&dst) ||
          !read_interval(&iv) || !at_end()) {
        return error("bad E record");
      }
      builder.AddEdge(eid, src, dst, iv);
    } else if (kind == "VP" || kind == "EP") {
      int64_t id;
      std::string label;
      Interval iv;
      PropValue value;
      if (!read_int(&id) || !(ls >> label) || !read_interval(&iv) ||
          !read_int(&value) || !at_end()) {
        return error("bad " + kind + " record");
      }
      if (kind == "VP") {
        builder.SetVertexProperty(id, label, iv, value);
      } else {
        builder.SetEdgeProperty(id, label, iv, value);
      }
    } else {
      return error("unknown record kind '" + kind + "'");
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
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read failed: " + path);
  return ReadTextGraph(text);
}

}  // namespace graphite
