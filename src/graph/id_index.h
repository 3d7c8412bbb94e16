// Sorted (external id, position) arrays: how TemporalGraphBuilder::Build
// and TemporalGraph::Append resolve vertex and edge ids without a
// node-per-entry hash map. One sort per array, then a lookup per id.
#ifndef GRAPHITE_GRAPH_ID_INDEX_H_
#define GRAPHITE_GRAPH_ID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace graphite {

/// (id, position) pairs; sorted by id once built.
template <typename Id>
using IdIndex = std::vector<std::pair<Id, uint32_t>>;

/// Sorts `ids` (given with positions 0, 1, ...: input order) by id and
/// returns the earliest position whose id an earlier position already
/// used, or `none`: the element an in-order duplicate check rejects
/// first.
template <typename Id>
uint32_t SortAndFindFirstDuplicate(IdIndex<Id>* ids, uint32_t none) {
  std::sort(ids->begin(), ids->end());
  uint32_t first = none;
  for (size_t k = 1; k < ids->size(); ++k) {
    if ((*ids)[k].first == (*ids)[k - 1].first) {
      first = std::min(first, (*ids)[k].second);
    }
  }
  return first;
}

/// The position paired with `id` in `ids` (sorted, ids unique); nullptr
/// if absent. Ids that run contiguous from the first resolve with one
/// probe at `id - first id`; others binary-search.
template <typename Id>
const uint32_t* FindId(const IdIndex<Id>& ids, Id id) {
  if (ids.empty()) return nullptr;
  const uint64_t probe =
      static_cast<uint64_t>(id) - static_cast<uint64_t>(ids.front().first);
  if (probe < ids.size() && ids[probe].first == id) return &ids[probe].second;
  auto it = std::lower_bound(
      ids.begin(), ids.end(), id,
      [](const std::pair<Id, uint32_t>& p, Id x) { return p.first < x; });
  return it != ids.end() && it->first == id ? &it->second : nullptr;
}

}  // namespace graphite

#endif  // GRAPHITE_GRAPH_ID_INDEX_H_
