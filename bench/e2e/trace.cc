#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

namespace graphite {
namespace e2e {

namespace {

size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return rank < 1 ? 0 : std::min(n, static_cast<size_t>(rank)) - 1;
}

}  // namespace

Status Tracer::WriteChrome(const std::string& path,
                           const std::string& other_data) const {
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    w.BeginObject();
    w.Key("name").String(name);
    w.Key("cat").String(name.substr(0, name.find('.')));
    w.Key("ph").String("X");
    w.Key("ts").Double(static_cast<double>(s.start_ns - origin) / 1e3);
    w.Key("dur").Double(static_cast<double>(s.dur_ns) / 1e3);
    w.Key("pid").Int(1);
    w.Key("tid").Int(s.tid);
    w.Key("args").BeginObject();
    w.Key("span").Int(static_cast<int64_t>(i));
    w.Key("parent").Int(s.parent);
    if (s.request >= 0) w.Key("request").Int(s.request);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.Key("otherData").Raw(other_data);
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << '\n';
  out.flush();
  if (!out) return Status::IoError("cannot write trace " + path);
  return Status::OK();
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t k = RankIndex(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

}  // namespace e2e
}  // namespace graphite
