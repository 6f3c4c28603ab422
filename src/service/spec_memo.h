// The spec memo: each distinct query line is prepared once.
//
// In the paper a query's answer depends only on its system, class and k,
// so a request line that repeats an earlier one byte for byte — apart from
// a leading numeric "id" — asks the same query. The session layer keys
// such lines by their id-less bytes (IdentifyLine, service/protocol.h) and
// asks this table for the PreparedQuery an earlier repeat built. A hit
// skips the JSON parse, the system/class/automaton construction, guard
// parsing and the graph-spec derivation with its key print; the line
// still echoes its own id, gets its own trace recorder and passes the
// store attach, the inflight cap and the access log like any other.
//
// Admission is on the second sighting. The first time a key is seen, a
// fixed-size doorkeeper records only a 64-bit hash of it, so a stream of
// one-off lines (cold builds) pays a hash and a probe per line and never
// fills the table. Entries are evicted least recently used, bounded both
// by count (kMaxEntries) and by key bytes (kMaxKeyBytes): a client
// repeating huge lines cannot grow the daemon without bound. Entries are
// immutable once published and shared by every session of the service;
// each operation takes one short mutex.
#ifndef AMALGAM_SERVICE_SPEC_MEMO_H_
#define AMALGAM_SERVICE_SPEC_MEMO_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "service/query.h"

namespace amalgam {

class SpecMemo {
 public:
  static constexpr std::size_t kMaxEntries = 1024;
  static constexpr std::size_t kMaxKeyBytes = std::size_t{4} << 20;
  static constexpr std::size_t kDoorkeeperSlots = 4096;

  /// A line's memo identity: the bytes left once a leading numeric id is
  /// stripped (the whole line when none was), and whether one was. A
  /// stripped line echoes the id it carries; a whole-line entry is only
  /// ever hit by that same line, so it keeps that line's echo. The flag
  /// keeps the two kinds from sharing an entry.
  struct Key {
    std::string_view bytes;
    bool id_stripped = false;
  };

  struct Found {
    /// An earlier repeat's prepared query; null on a miss.
    std::shared_ptr<const PreparedQuery> query;
    /// On a hit of a whole-line key: the id echo of that line.
    std::string id_json;
    /// On a miss: the key was sighted before, so its prepared query
    /// should be admitted.
    bool admit = false;
  };

  /// Looks `key` up. A hit counts and freshens the entry; a miss records
  /// the sighting in the doorkeeper.
  Found Find(Key key);

  /// Publishes `query` under `key`, evicting least recently used entries
  /// past either bound; a key longer than kMaxKeyBytes is not kept.
  /// `id_json` is the admitting line's id echo. The query must be
  /// immutable from here on.
  void Admit(Key key, std::shared_ptr<const PreparedQuery> query,
             std::string id_json);

  std::uint64_t hits() const;
  std::size_t entries() const;

 private:
  struct Entry {
    std::uint64_t hash;
    std::string bytes;
    bool id_stripped;
    std::string id_json;
    std::shared_ptr<const PreparedQuery> query;
  };

  static std::uint64_t HashOf(Key key);

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // least recently used first
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t key_bytes_ = 0;
  std::uint64_t hits_ = 0;
  // Direct-mapped: slot hash % kDoorkeeperSlots holds the last hash seen
  // there, so a key reads as sighted until another key takes its slot.
  std::array<std::uint64_t, kDoorkeeperSlots> doorkeeper_{};
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_SPEC_MEMO_H_
