// Persistent storage of sub-transition graphs (solver/graph.h).
//
// The complete graph for a (backend fingerprint, k, guard set) is the
// solver's expensive artifact; this module lets it outlive the process. A
// GraphStore is a directory holding one file per cache key, written
// atomically (temp file + rename) and read back into a SubTransitionGraph
// whose resumed or cached behavior is indistinguishable from the original:
// serialize/deserialize/serialize is byte-identical, and a restored
// *partial* graph (its BuildCursor travels with it) resumes its member
// sweep exactly where the suspended build stopped.
//
// File format, version 1 — everything after the magic is varint-coded with
// the same LEB128 encoding as AppendFullWidth (base/structure.h), so the
// file shares its vocabulary with the canonical keys it contains:
//
//   "AMGS" magic, varint format version (= 1)
//   varint key length, key bytes        (the GraphCache key, verified on load)
//   varint k, varint guard count        (verified against the loading query;
//                                       the distinct guards of the key's set)
//   varint cursor phase, varint cursor next_member, varint edge count
//                                       (progress header — lets Save compare
//                                       two files without parsing the body)
//   schema block: #relations, per symbol (name length, name, arity);
//                 #functions likewise    (verified against the backend schema)
//   shape block:  #shapes, per shape its Structure content (EncodeContent
//                 bytes — decoded, not just compared), marks, canonical key,
//                 canonical permutation
//   varint #initial shapes, their ids
//   step block:   #steps, per step (guard, joint Structure content, 2k marks)
//   edge block:   per shape (#edges, per edge guard, new shape, step id)
//   8-byte little-endian FNV-1a checksum of all preceding bytes
//
// Guards are NOT serialized: the key already pins the printed guard set —
// the sorted distinct texts, and a step's or an edge's guard is a slot in
// that order — and the loading query supplies the live FormulaRefs, so the
// store never needs a formula parser, and a key match guarantees the
// guards line up.
// Every read is bounds-checked and every index validated; any mismatch
// (truncation, corruption, key/schema drift, version skew) makes the load
// fail soft — the caller falls back to a fresh build.
//
// A key's file is replaced only by a further-along graph (see Save). The
// directory layout, write protocol and recovery rules are specified
// normatively in docs/STORE_FORMAT.md.
#ifndef AMALGAM_SOLVER_STORE_H_
#define AMALGAM_SOLVER_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "solver/graph.h"

namespace amalgam {

/// The serialization format version written by SerializeGraph and required
/// by DeserializeGraph. Bump on any layout change; old files then fail
/// soft (rebuild) instead of being misread.
inline constexpr std::uint32_t kGraphStoreFormatVersion = 1;

/// Serializes `graph` (complete or partial) under its cache key. The
/// output is a pure function of the graph's logical content — two
/// bit-identical graphs serialize identically.
std::string SerializeGraph(const SubTransitionGraph& graph,
                           std::string_view key);

/// Parses `bytes` back into a graph. `schema` becomes the schema of every
/// reconstructed structure (the file's schema block must match it
/// structurally); `guards`/`k` come from the loading query and must match
/// the serialized counts. Returns nullptr on any validation failure.
std::shared_ptr<SubTransitionGraph> DeserializeGraph(
    std::string_view bytes, std::string_view key, const SchemaRef& schema,
    std::span<const FormulaRef> guards, int k);

/// Writes `bytes` to `path` through a temp file beside it whose name is
/// unique per process and per call ("<path>.tmp.<pid>.<n>"), then
/// rename(2)s it into place: concurrent writers never interleave, and a
/// reader sees the old file or the new one, never a torn write. On failure
/// the temp file is removed, `path` is left as it was, and false is
/// returned.
bool WriteFileAtomically(const std::string& path, std::string_view bytes);

/// What GraphStore::Sweep removed and what survived it.
struct StoreSweepResult {
  std::uint64_t files_removed = 0;
  std::uint64_t bytes_removed = 0;
  std::uint64_t files_kept = 0;
  std::uint64_t bytes_kept = 0;
};

/// Cumulative per-handle counters the stats surface reads (plain atomics:
/// queries on other threads bump them while a stats path reads them).
/// Loads, load failures and writes are counted by GraphCache.
struct StoreCounters {
  std::uint64_t save_skips = 0;  // saves refused by the progress guard
  std::uint64_t sweeps = 0;      // Sweep passes that enforced a cap
  std::uint64_t sweep_files_removed = 0;
  std::uint64_t sweep_bytes_removed = 0;
};

/// A directory of serialized graphs, one file per key: file names are a
/// hash of the key, and the key stored inside the file disambiguates hash
/// collisions, which simply behave as misses. Methods are const and touch
/// only the filesystem and per-handle counters — callers coordinate
/// cross-call concurrency themselves (GraphCache snapshots the handle and
/// runs I/O outside its map mutex) — see docs/STORE_FORMAT.md for the
/// cross-process story (atomic renames; torn readers rebuild).
class GraphStore {
 public:
  /// Creates `dir` (recursively) if it does not exist. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit GraphStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// The file a given key persists to.
  std::string PathFor(const std::string& key) const;

  struct LoadResult {
    std::shared_ptr<SubTransitionGraph> graph;  // nullptr on miss/corrupt
    /// True when a file was present for the key — with a null graph this
    /// means the file was unreadable or failed validation, which callers
    /// surface as a load failure rather than a plain miss.
    bool file_found = false;
  };

  /// Reads and validates the graph persisted under `key`.
  LoadResult Load(const std::string& key, const SchemaRef& schema,
                  std::span<const FormulaRef> guards, int k) const;

  /// Persists `graph` under `key` via WriteFileAtomically — but only when
  /// it is strictly further along (by cursor, then edge count — the same
  /// order GraphCache::Insert replaces entries by) than the valid file
  /// already persisted for the key, so a less-explored graph never clobbers
  /// progress persisted by another process. Corrupt/torn incumbents are
  /// always overwritten. Returns true only when a file was actually
  /// written; false means the write failed or was skipped in favor of the
  /// further-along incumbent.
  bool Save(const std::string& key, const SubTransitionGraph& graph) const;

  /// The build progress persisted for `key`, read from the file's header
  /// without materializing a graph.
  struct KeyProgress {
    bool found = false;  // a valid file exists for the key
    BuildCursor cursor;
    std::uint64_t num_edges = 0;
  };
  KeyProgress PeekKey(const std::string& key) const;

  /// Snapshot of the cumulative per-handle counters.
  StoreCounters counters() const;

  /// Caps the store: while it holds more than `max_files` graph files or
  /// more than `max_bytes` of them, the least-recently-*read* file (by
  /// atime, falling back to mtime where atime is older than the write — a
  /// conservative LRU under relatime mounts) is deleted. 0 means unlimited
  /// for either cap; Sweep(0, 0) is a no-op. Only "*.amg" graph files are
  /// considered — foreign files and in-flight ".tmp.*" writes are never
  /// touched. Deleting a file a concurrent query is about to read is
  /// benign: the load misses and the query rebuilds (the same contract as
  /// a corrupt file).
  StoreSweepResult Sweep(std::uint64_t max_bytes, std::uint64_t max_files) const;

 private:
  std::string dir_;

  mutable std::atomic<std::uint64_t> save_skips_{0};
  mutable std::atomic<std::uint64_t> sweeps_{0};
  mutable std::atomic<std::uint64_t> sweep_files_removed_{0};
  mutable std::atomic<std::uint64_t> sweep_bytes_removed_{0};
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_STORE_H_
