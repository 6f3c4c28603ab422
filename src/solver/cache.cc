#include "solver/cache.h"

#include <stdexcept>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "solver/store.h"

namespace amalgam {

namespace {

// The replacement order for entries sharing a key: cursor phase, cursor
// position, then edge count (a mid-member early exit records edges without
// advancing the cursor). Strictly-greater progress replaces the incumbent.
bool StrictlyFurtherAlong(const SubTransitionGraph& incumbent,
                          const SubTransitionGraph& candidate) {
  const BuildCursor& a = incumbent.cursor();
  const BuildCursor& b = candidate.cursor();
  return std::tie(a.phase, a.next_member) < std::tie(b.phase, b.next_member) ||
         (a == b && incumbent.num_edges() < candidate.num_edges());
}

// The fingerprint is length-prefixed so the key decodes uniquely even if a
// backend's fingerprint happens to embed the separator byte.
std::string KeyHeader(const SolverBackend& backend, int k) {
  const std::string fp = backend.Fingerprint();
  std::string key = std::to_string(fp.size());
  key += ':';
  key += fp;
  key += '\x1f';
  key += std::to_string(k);
  return key;
}

// Length-prefixed: printed guards embed free-text symbol names, which must
// not be able to imitate the separator and merge two different guard lists
// into one key.
void AppendGuardText(std::string& key, std::string_view printed) {
  key += '\x1f';
  key += std::to_string(printed.size());
  key += ':';
  key += printed;
}

}  // namespace

GraphCache::GraphCache(std::size_t max_entries) : max_entries_(max_entries) {}

GraphCache::~GraphCache() = default;

std::string GraphCache::Key(const SolverBackend& backend, int k,
                            std::span<const FormulaRef> guards) {
  std::string key = KeyHeader(backend, k);
  const Schema& schema = *backend.schema();
  // Slots holding the same formula object print it once; later slots copy
  // its segment (offset and length within `key`).
  std::unordered_map<const Formula*, std::pair<std::size_t, std::size_t>>
      segments;
  for (const FormulaRef& g : guards) {
    auto [it, fresh] = segments.try_emplace(g.get());
    if (!fresh) {
      key.append(key, it->second.first, it->second.second);
      continue;
    }
    const std::size_t begin = key.size();
    AppendGuardText(key, g->ToString(schema));
    it->second = {begin, key.size() - begin};
  }
  return key;
}

std::string GraphCache::KeyOfPrinted(const SolverBackend& backend, int k,
                                     std::span<const std::string> printed) {
  std::string key = KeyHeader(backend, k);
  for (const std::string& text : printed) AppendGuardText(key, text);
  return key;
}

void GraphCache::AttachStore(const std::string& dir) {
  // The new tier is constructed (and its directory created) outside the
  // lock; only the handle swap is serialized.
  std::shared_ptr<const GraphStore> fresh;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (store_ && store_->dir() == dir) return;
  }
  fresh = std::make_shared<GraphStore>(dir);
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_ && store_->dir() == dir) return;  // lost a benign attach race
  store_ = std::move(fresh);
}

bool GraphCache::has_store() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_ != nullptr;
}

std::shared_ptr<const GraphStore> GraphCache::StoreSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Freshen the entry's recency rank. Skipped when already freshest — the
  // common case for a hot key — so steady-state hits touch no list nodes.
  if (it->second.lru_pos != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  return it->second.graph;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Lookup(
    const std::string& key, const SchemaRef& schema,
    std::span<const FormulaRef> guards, int k, TraceRecorder* trace) {
  std::shared_ptr<const GraphStore> store;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(key);
    if (it != graphs_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (it->second.lru_pos != lru_.begin()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      return it->second.graph;
    }
    store = store_;  // snapshot: the load below must not hold the lock
  }
  if (store) {
    // Disk I/O outside the mutex — concurrent queries for other keys (or
    // this one) proceed instead of convoying behind the read.
    ScopedSpan load_span(trace, "store_load");
    GraphStore::LoadResult loaded = store->Load(key, schema, guards, k);
    load_span.Annotate("found", std::uint64_t{loaded.graph != nullptr});
    if (loaded.graph) {
      std::shared_ptr<const SubTransitionGraph> graph = std::move(loaded.graph);
      hits_.fetch_add(1, std::memory_order_relaxed);
      store_loads_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      // Double-checked promote: a racing query may have populated the key
      // while we were reading the file. InsertLocked keeps whichever graph
      // is further along; return the surviving entry either way (it is at
      // least as far along as what we loaded).
      InsertLocked(key, std::move(graph), /*want_store_write=*/false);
      return graphs_.find(key)->second.graph;
    }
    if (loaded.file_found) {
      store_load_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Peek(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(key);
  return it == graphs_.end() ? nullptr : it->second.graph;
}

void GraphCache::Insert(const std::string& key,
                        std::shared_ptr<const SubTransitionGraph> graph,
                        TraceRecorder* trace) {
  if (!graph) {
    throw std::invalid_argument("GraphCache cannot store a null graph");
  }
  std::shared_ptr<const SubTransitionGraph> to_write;
  std::shared_ptr<const GraphStore> store;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    to_write = InsertLocked(key, std::move(graph), /*want_store_write=*/true);
    store = store_;
  }
  // Write-through outside the mutex. Save is progress-guarded on its own
  // (it peeks the incumbent file's header), so racing writers cannot
  // regress the persisted trajectory even without the lock.
  if (to_write && store) {
    ScopedSpan save_span(trace, "store_save");
    const bool accepted = store->Save(key, *to_write);
    save_span.Annotate("accepted", std::uint64_t{accepted});
    if (accepted) {
      store_writes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::shared_ptr<const SubTransitionGraph> GraphCache::InsertLocked(
    const std::string& key, std::shared_ptr<const SubTransitionGraph> graph,
    bool want_store_write) {
  auto it = graphs_.find(key);
  if (it != graphs_.end()) {
    if (!StrictlyFurtherAlong(*it->second.graph, *graph)) return nullptr;
    it->second.graph = graph;
    if (it->second.lru_pos != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    }
  } else {
    if (max_entries_ > 0 && graphs_.size() >= max_entries_) {
      graphs_.erase(lru_.back());
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    lru_.push_front(key);
    graphs_.emplace(key, Entry{graph, lru_.begin()});
  }
  return want_store_write ? graph : nullptr;
}

StoreSweepResult GraphCache::SweepStore(std::uint64_t max_bytes,
                                        std::uint64_t max_files) {
  std::shared_ptr<const GraphStore> store = StoreSnapshot();
  if (!store) return StoreSweepResult{};
  return store->Sweep(max_bytes, max_files);
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

}  // namespace amalgam
