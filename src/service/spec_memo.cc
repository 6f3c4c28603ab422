#include "service/spec_memo.h"

#include <functional>
#include <utility>

namespace amalgam {

std::uint64_t SpecMemo::HashOf(Key key) {
  const std::uint64_t h = std::hash<std::string_view>{}(key.bytes);
  return key.id_stripped ? h ^ 0x9e3779b97f4a7c15ull : h;
}

SpecMemo::Found SpecMemo::Find(Key key) {
  const std::uint64_t hash = HashOf(key);
  Found found;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(hash);
  if (it != index_.end() && it->second->id_stripped == key.id_stripped &&
      it->second->bytes == key.bytes) {
    lru_.splice(lru_.end(), lru_, it->second);
    ++hits_;
    found.query = it->second->query;
    if (!key.id_stripped) found.id_json = it->second->id_json;
    return found;
  }
  std::uint64_t& slot = doorkeeper_[hash % kDoorkeeperSlots];
  found.admit = slot == hash;
  slot = hash;
  return found;
}

void SpecMemo::Admit(Key key, std::shared_ptr<const PreparedQuery> query,
                     std::string id_json) {
  if (key.bytes.size() > kMaxKeyBytes) return;
  const std::uint64_t hash = HashOf(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto erase = [this](std::list<Entry>::iterator entry) {
    key_bytes_ -= entry->bytes.size();
    index_.erase(entry->hash);
    lru_.erase(entry);
  };
  // Another session may have admitted the same key first, or a different
  // key may share the hash: the newest entry wins either way.
  if (const auto it = index_.find(hash); it != index_.end()) erase(it->second);
  while (!lru_.empty() && (lru_.size() >= kMaxEntries ||
                           key_bytes_ + key.bytes.size() > kMaxKeyBytes)) {
    erase(lru_.begin());
  }
  // A stripped line echoes its own id, so only whole-line entries keep one.
  if (key.id_stripped) id_json.clear();
  lru_.push_back(Entry{hash, std::string(key.bytes), key.id_stripped,
                       std::move(id_json), std::move(query)});
  key_bytes_ += key.bytes.size();
  index_.emplace(hash, std::prev(lru_.end()));
}

std::uint64_t SpecMemo::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t SpecMemo::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace amalgam
