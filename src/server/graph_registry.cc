#include "server/graph_registry.h"

namespace graphite {

Mutex& GraphRegistry::WriterLock(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Mutex>& writer = writers_[name];
  if (writer == nullptr) writer = std::make_unique<Mutex>();
  return *writer;
}

std::shared_ptr<ResidentGraph> GraphRegistry::Swap(
    const std::string& name, std::shared_ptr<ResidentGraph> next) {
  MutexLock lock(mu_);
  std::shared_ptr<ResidentGraph> old;
  auto it = graphs_.find(name);
  if (it != graphs_.end()) {
    old = std::move(it->second);
    old->superseded.store(true);
    if (next == nullptr) graphs_.erase(it);
  }
  if (next != nullptr) {
    next->epoch = ++epochs_[name];
    graphs_[name] = std::move(next);
  }
  return old;
}

uint64_t GraphRegistry::Add(const std::string& name, TemporalGraph g) {
  auto next = std::make_shared<ResidentGraph>(name, 0, std::move(g));
  MutexLock writer(WriterLock(name));
  Swap(name, next);  // The replaced entry is released here, outside mu_.
  return next->epoch;
}

Result<ResidentGraphInfo> GraphRegistry::Append(const std::string& name,
                                                const EdgeBatch& batch,
                                                bool compact) {
  MutexLock writer(WriterLock(name));
  std::shared_ptr<ResidentGraph> current = Get(name);
  if (current == nullptr) {
    return Status::NotFound("graph not resident: \"" + name + "\"");
  }
  // Copy-on-append: grow a private copy (sharing the sealed base), then
  // swap it in under a fresh epoch. The old entry stays alive for
  // whatever jobs still hold it. Only the swap takes mu_.
  TemporalGraph g = current->workload.graph();
  GRAPHITE_RETURN_NOT_OK(g.Append(batch));
  if (compact) g.Compact();
  auto next = std::make_shared<ResidentGraph>(name, 0, std::move(g));
  const std::shared_ptr<ResidentGraph> old = Swap(name, next);
  const TemporalGraph& ng = next->workload.graph();
  return ResidentGraphInfo{name,           next->epoch,  ng.num_vertices(),
                           ng.num_edges(), ng.horizon(), ng.head()};
}

std::shared_ptr<ResidentGraph> GraphRegistry::Get(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second;
}

bool GraphRegistry::Drop(const std::string& name) {
  MutexLock writer(WriterLock(name));
  return Swap(name, nullptr) != nullptr;
}

std::vector<ResidentGraphInfo> GraphRegistry::List() const {
  MutexLock lock(mu_);
  std::vector<ResidentGraphInfo> out;
  out.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) {
    const TemporalGraph& g = entry->workload.graph();
    out.push_back({name, entry->epoch, g.num_vertices(), g.num_edges(),
                   g.horizon(), g.head()});
  }
  return out;
}

size_t GraphRegistry::size() const {
  MutexLock lock(mu_);
  return graphs_.size();
}

}  // namespace graphite
