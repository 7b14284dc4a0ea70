// Report normalization shared by the suites that compare two runs' report
// documents byte for byte.
#pragma once

#include <string>

namespace twill {

/// Zeroes every *_wall_ms value: the only fields whose bytes legitimately
/// differ between two runs of the same workload. (Hand-rolled: gcc 12's
/// <regex> trips -Wmaybe-uninitialized under the sanitizer build.)
inline std::string normalizeWalls(const std::string& json) {
  const std::string marker = "_wall_ms\": ";
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = json.find(marker, pos);
    if (hit == std::string::npos) {
      out.append(json, pos, std::string::npos);
      return out;
    }
    size_t valueStart = hit + marker.size();
    out.append(json, pos, valueStart - pos);
    out.push_back('0');
    pos = valueStart;
    while (pos < json.size() && std::string("+-.eE0123456789").find(json[pos]) != std::string::npos)
      ++pos;
  }
}

}  // namespace twill
