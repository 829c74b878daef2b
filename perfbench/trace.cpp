#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <unordered_map>

namespace perfbench {

std::map<std::string, double> Tracer::self_seconds() const {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == kNone || s.t1 < 0) continue;
    const Span& p = spans_[s.parent - 1];
    if (p.t1 < 0) continue;
    const std::int64_t a = std::max(s.t0, p.t0);
    const std::int64_t b = std::min(s.t1, p.t1);
    if (b > a) kids[s.parent - 1].emplace_back(a, b);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1 < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[s.layer] += 1e-9 * static_cast<double>(s.t1 - s.t0 - covered);
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path, std::size_t max_per_name) const {
  std::ofstream os(path);
  if (!os) return false;
  std::unordered_map<std::string_view, std::size_t> written;
  std::size_t dropped = 0;
  std::string events;
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1 < 0) continue;
    if (written[s.name]++ >= max_per_name) {
      ++dropped;
      continue;
    }
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", 1e-3 * static_cast<double>(s.t0),
                  1e-3 * static_cast<double>(s.t1 - s.t0));
    // Requests get one lane per in-flight slot (64); everything else lane 0.
    const std::uint64_t lane = s.req == 0 ? 0 : 1 + s.req % 64;
    if (!events.empty()) events += ",\n";
    events += "{\"name\":\"" + std::string(s.name) + "\",\"cat\":\"" + s.layer +
              "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(lane) + ",\"ts\":" + buf +
              ",\"args\":{\"id\":" + std::to_string(i + 1) + ",\"parent\":" +
              std::to_string(s.parent) + ",\"req\":" + std::to_string(s.req) + "}}";
  }
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":" << spans_.size()
     << ",\"dropped\":" << dropped << "},\"traceEvents\":[\n"
     << events << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
