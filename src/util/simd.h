// The warp kernel has one scalar endpoint pass; these names remain only
// for bench/e2e's host report, which prints "scalar".
#ifndef GRAPHITE_UTIL_SIMD_H_
#define GRAPHITE_UTIL_SIMD_H_

namespace graphite {

enum class SimdLevel : int { kScalar = 0 };
inline SimdLevel SimdDispatchLevel() { return SimdLevel::kScalar; }
inline const char* SimdLevelName(SimdLevel) { return "scalar"; }

}  // namespace graphite

#endif  // GRAPHITE_UTIL_SIMD_H_
