// LRU cache for rendered query results (the serving layer's answer to
// "millions of users re-ask the same questions"). Keys are canonical
// request strings built by the query service — (graph, epoch, op,
// algorithm, source, window, params) — so a reloaded graph (new epoch)
// never serves stale payloads. Values are the cacheable `result` JSON
// fragment of a response; the per-request envelope (id, queue wait, run
// latency) is assembled around the fragment on every request, cached or
// not, which keeps hit and miss responses byte-identical in their result
// portion.
//
// Thread-safe; eviction is strict LRU over entries with an additional
// byte-capacity bound. Hit/miss/eviction counters feed the server's
// `metrics` op and the bench gate (a repeated request must be a hit).
#ifndef GRAPHITE_SERVER_RESULT_CACHE_H_
#define GRAPHITE_SERVER_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace graphite {

struct ResultCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t inserts = 0;
  int64_t entries = 0;  ///< Current resident entries.
  int64_t bytes = 0;    ///< Current resident key+payload bytes.
};

class ResultCache {
 public:
  /// `max_entries` == 0 disables caching (every Get is a miss, Put is a
  /// no-op); `max_bytes` additionally bounds resident key+payload bytes.
  explicit ResultCache(size_t max_entries,
                       size_t max_bytes = static_cast<size_t>(-1))
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  /// Returns the payload and refreshes recency; counts a hit or miss.
  std::optional<std::string> Get(const std::string& key);

  /// Like Get but an absent key does NOT count as a miss. Used by the
  /// scheduler's pre-admission fast path, which is followed by a real
  /// Get on the worker — counting both would double-count every miss.
  std::optional<std::string> GetIfPresent(const std::string& key);

  /// Inserts or refreshes `key`; evicts least-recently-used entries until
  /// both capacity bounds hold. A payload larger than max_bytes is not
  /// admitted (it would evict everything and still not fit). When
  /// `superseded` is given it is read under the cache lock and a true
  /// value skips the insert, so an ErasePrefix issued after the flag was
  /// set can never be overtaken by this Put.
  void Put(const std::string& key, std::string payload,
           const std::atomic<bool>* superseded = nullptr);

  /// Drops every entry whose key starts with `prefix` (graph drop/reload).
  /// Returns the number of entries removed (not counted as evictions).
  int64_t ErasePrefix(const std::string& prefix);

  void Clear();

  ResultCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::string payload;
  };

  void EvictToCapacity() GRAPHITE_REQUIRES(mu_);

  const size_t max_entries_;
  const size_t max_bytes_;

  mutable Mutex mu_;
  std::list<Entry> lru_ GRAPHITE_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GRAPHITE_GUARDED_BY(mu_);
  size_t bytes_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t hits_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t misses_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t evictions_ GRAPHITE_GUARDED_BY(mu_) = 0;
  int64_t inserts_ GRAPHITE_GUARDED_BY(mu_) = 0;
};

}  // namespace graphite

#endif  // GRAPHITE_SERVER_RESULT_CACHE_H_
