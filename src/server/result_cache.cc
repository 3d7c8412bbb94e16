#include "server/result_cache.h"

namespace graphite {

std::optional<std::string> ResultCache::Get(const std::string& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->payload;
}

std::optional<std::string> ResultCache::GetIfPresent(const std::string& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->payload;
}

void ResultCache::Put(const std::string& key, std::string payload,
                      const std::atomic<bool>* superseded) {
  if (max_entries_ == 0) return;
  const size_t cost = key.size() + payload.size();
  if (cost > max_bytes_) return;
  MutexLock lock(mu_);
  if (superseded != nullptr && superseded->load()) return;
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->payload.size();
    bytes_ += payload.size();
    it->second->payload = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front({key, std::move(payload)});
    index_[key] = lru_.begin();
    bytes_ += cost;
    ++inserts_;
  }
  EvictToCapacity();
}

void ResultCache::EvictToCapacity() {
  while (!lru_.empty() &&
         (index_.size() > max_entries_ || bytes_ > max_bytes_)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.key.size() + victim.payload.size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

int64_t ResultCache::ErasePrefix(const std::string& prefix) {
  MutexLock lock(mu_);
  int64_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.compare(0, prefix.size(), prefix) == 0) {
      bytes_ -= it->key.size() + it->payload.size();
      index_.erase(it->key);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

void ResultCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(mu_);
  ResultCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.inserts = inserts_;
  s.entries = static_cast<int64_t>(index_.size());
  s.bytes = static_cast<int64_t>(bytes_);
  return s;
}

}  // namespace graphite
