#include "solver/store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "util/hash.h"

namespace amalgam {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'G', 'S'};

// 64-bit LEB128, the same encoding AppendFullWidth uses for 32-bit values
// (the two are wire-compatible; cursor positions and counts can exceed 32
// bits on large classes).
void AppendVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Bounds-checked sequential reader over the serialized payload. Every
// primitive returns false on truncation or malformed data; callers
// propagate the failure up to a nullptr load.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadVarint(std::uint64_t* v) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return false;
      const std::uint8_t byte = static_cast<std::uint8_t>(data_[pos_++]);
      *v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) return true;
    }
    return false;  // > 10 continuation bytes: malformed
  }

  // Varint that must fit the target integer type.
  template <typename T>
  bool ReadCounted(T* out) {
    std::uint64_t v;
    if (!ReadVarint(&v)) return false;
    if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  }

  bool ReadBytes(std::size_t n, std::string_view* out) {
    if (n > data_.size() - pos_) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

void AppendSchema(std::string& out, const Schema& schema) {
  AppendVarint(out, schema.num_relations());
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Symbol& sym = schema.relation(r);
    AppendVarint(out, sym.name.size());
    out += sym.name;
    AppendVarint(out, sym.arity);
  }
  AppendVarint(out, schema.num_functions());
  for (int f = 0; f < schema.num_functions(); ++f) {
    const Symbol& sym = schema.function(f);
    AppendVarint(out, sym.name.size());
    out += sym.name;
    AppendVarint(out, sym.arity);
  }
}

// The schema block is validation only — reconstructed structures share the
// backend's live SchemaRef — so reading is comparing.
bool ReadAndCheckSchema(Reader& r, const Schema& schema) {
  auto check_symbols = [&](int count, auto&& symbol_of) {
    std::uint64_t n;
    if (!r.ReadVarint(&n) || n != static_cast<std::uint64_t>(count)) {
      return false;
    }
    for (int i = 0; i < count; ++i) {
      const Symbol& sym = symbol_of(i);
      std::uint64_t len;
      std::string_view name;
      std::uint64_t arity;
      if (!r.ReadVarint(&len) || !r.ReadBytes(len, &name)) return false;
      if (!r.ReadVarint(&arity)) return false;
      if (name != sym.name || arity != static_cast<std::uint64_t>(sym.arity)) {
        return false;
      }
    }
    return true;
  };
  return check_symbols(schema.num_relations(),
                       [&](int i) -> const Symbol& {
                         return schema.relation(i);
                       }) &&
         check_symbols(schema.num_functions(), [&](int i) -> const Symbol& {
           return schema.function(i);
         });
}

// Structures travel as their EncodeContent bytes (base/structure.h): the
// domain size as a varint, then per relation the dense 0/1 table bytes,
// then per function the varint-coded value table. Given the schema the
// encoding is self-delimiting, so this decoder is the exact inverse.
bool ReadStructure(Reader& r, const SchemaRef& schema, Structure* out) {
  std::size_t n;
  if (!r.ReadCounted(&n)) return false;
  // Dense tables must fit in the remaining payload (each entry costs at
  // least one byte), which caps a corrupt domain size long before any
  // allocation could hurt. The generated structures this library persists
  // are tiny — a few elements — so the bound never bites on valid files.
  auto table_size = [&](int arity) -> std::size_t {
    std::size_t size = 1;
    for (int i = 0; i < arity; ++i) {
      size *= n;
      if (n != 0 && size > r.remaining()) return SIZE_MAX;
    }
    return size;
  };
  if (n > r.remaining() + 1) return false;
  Structure s(schema, n);
  std::vector<Elem> tuple;
  for (int rel = 0; rel < schema->num_relations(); ++rel) {
    const int arity = schema->relation(rel).arity;
    const std::size_t size = table_size(arity);
    std::string_view raw;
    if (size == SIZE_MAX || !r.ReadBytes(size, &raw)) return false;
    tuple.assign(arity, 0);
    for (std::size_t idx = 0; idx < size; ++idx) {
      const std::uint8_t bit = static_cast<std::uint8_t>(raw[idx]);
      if (bit > 1) return false;
      if (!bit) continue;
      std::size_t rest = idx;
      for (int i = 0; i < arity; ++i) {
        tuple[i] = static_cast<Elem>(rest % n);
        rest /= n;
      }
      s.SetHolds(rel, tuple, true);
    }
  }
  for (int fn = 0; fn < schema->num_functions(); ++fn) {
    const int arity = schema->function(fn).arity;
    const std::size_t size = table_size(arity);
    if (size == SIZE_MAX) return false;
    tuple.assign(arity, 0);
    for (std::size_t idx = 0; idx < size; ++idx) {
      std::uint64_t value;
      if (!r.ReadVarint(&value)) return false;
      if (n == 0) {
        // A constant over the empty domain is the constructor's untouched
        // 0 placeholder; anything else is corrupt.
        if (value != 0) return false;
        continue;
      }
      if (value >= n) return false;
      std::size_t rest = idx;
      for (int i = 0; i < arity; ++i) {
        tuple[i] = static_cast<Elem>(rest % n);
        rest /= n;
      }
      s.SetFunction(fn, tuple, static_cast<Elem>(value));
    }
  }
  *out = std::move(s);
  return true;
}

bool ReadMarks(Reader& r, std::size_t expected_count, std::size_t domain,
               std::vector<Elem>* out) {
  std::uint64_t count;
  if (!r.ReadVarint(&count) || count != expected_count) return false;
  out->clear();
  out->reserve(expected_count);
  for (std::size_t i = 0; i < expected_count; ++i) {
    std::uint64_t m;
    if (!r.ReadVarint(&m) || m >= domain) return false;
    out->push_back(static_cast<Elem>(m));
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

void AppendU64LE(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t ReadU64LE(std::string_view bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[i]))
         << (8 * i);
  }
  return v;
}

// The fields every record opens with, ahead of the schema block.
struct RecordHeader {
  std::uint64_t k = 0;
  std::uint64_t num_guards = 0;
  BuildCursor cursor;
  std::uint64_t num_edges = 0;
};

/// Validates a record down to its header — checksum, magic, version and
/// the embedded key, which must equal `key` (a mismatch is a file-name
/// hash collision) — and reads the header, leaving `*r` at the schema
/// block. False on any mismatch: the record reads as absent.
bool ReadRecordHeader(std::string_view bytes, std::string_view key, Reader* r,
                      RecordHeader* header) {
  if (bytes.size() < sizeof(kMagic) + 8) return false;
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  if (Fnv1a64(payload) != ReadU64LE(bytes.substr(bytes.size() - 8))) {
    return false;
  }
  if (payload.substr(0, sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    return false;
  }
  *r = Reader(payload.substr(sizeof(kMagic)));
  std::uint64_t version, key_len;
  std::string_view stored_key;
  return r->ReadVarint(&version) && version == kGraphStoreFormatVersion &&
         r->ReadVarint(&key_len) && r->ReadBytes(key_len, &stored_key) &&
         stored_key == key && r->ReadVarint(&header->k) &&
         r->ReadVarint(&header->num_guards) &&
         r->ReadCounted(&header->cursor.phase) &&
         r->ReadVarint(&header->cursor.next_member) &&
         r->ReadVarint(&header->num_edges);
}

bool StrictlyBefore(const BuildCursor& a, std::uint64_t a_edges,
                    const BuildCursor& b, std::uint64_t b_edges) {
  return a < b || (a == b && a_edges < b_edges);
}

}  // namespace

std::string SerializeGraph(const SubTransitionGraph& graph,
                           std::string_view key) {
  std::string out(kMagic, sizeof(kMagic));
  AppendVarint(out, kGraphStoreFormatVersion);
  AppendVarint(out, key.size());
  out += key;
  AppendVarint(out, graph.k());
  AppendVarint(out, graph.guards().size());
  AppendVarint(out, graph.cursor().phase);
  AppendVarint(out, graph.cursor().next_member);
  // In the header so Save can compare two files' progress — (cursor, edge
  // count) is the same order GraphCache::Insert replaces entries by —
  // without parsing the shape and edge blocks.
  AppendVarint(out, graph.num_edges());

  // The schema is shared by every structure in the graph: shapes and step
  // joints alike are members (or projections of members) of one backend
  // class. Shapes of an empty graph leave it undetermined, but then there
  // is nothing to reconstruct either — fall back to the steps, then to an
  // empty block that validates against any schema... every graph with
  // content has at least one shape, so take it from there.
  const Schema* schema = nullptr;
  if (graph.num_shapes() > 0) {
    schema = &graph.interner().shape(0).structure.schema();
  } else if (graph.num_steps() > 0) {
    schema = &graph.step(0).joint.schema();
  }
  if (schema == nullptr) {
    AppendVarint(out, 0);
    AppendVarint(out, 0);
  } else {
    AppendSchema(out, *schema);
  }

  AppendVarint(out, graph.num_shapes());
  for (int id = 0; id < graph.num_shapes(); ++id) {
    const CanonicalForm& form = graph.interner().shape(id);
    out += form.structure.EncodeContent();
    AppendVarint(out, form.marks.size());
    for (Elem m : form.marks) AppendVarint(out, m);
    AppendVarint(out, form.key.size());
    out += form.key;
    for (Elem p : form.perm) AppendVarint(out, p);
  }

  AppendVarint(out, graph.initial_shapes().size());
  for (int shape : graph.initial_shapes()) AppendVarint(out, shape);

  AppendVarint(out, graph.num_steps());
  for (int i = 0; i < graph.num_steps(); ++i) {
    const SubTransition& step = graph.step(i);
    AppendVarint(out, step.guard);
    out += step.joint.EncodeContent();
    AppendVarint(out, step.marks.size());
    for (Elem m : step.marks) AppendVarint(out, m);
  }

  for (int shape = 0; shape < graph.num_shapes(); ++shape) {
    const auto& edges = graph.edges_from(shape);
    AppendVarint(out, edges.size());
    for (const SubTransitionGraph::Edge& e : edges) {
      AppendVarint(out, e.guard);
      AppendVarint(out, e.new_shape);
      AppendVarint(out, e.step);
    }
  }

  AppendU64LE(out, Fnv1a64(out));
  return out;
}

std::shared_ptr<SubTransitionGraph> DeserializeGraph(
    std::string_view bytes, std::string_view key, const SchemaRef& schema,
    std::span<const FormulaRef> guards, int k) {
  Reader r{std::string_view()};
  RecordHeader header;
  if (!ReadRecordHeader(bytes, key, &r, &header) ||
      header.k != static_cast<std::uint64_t>(k) ||
      header.num_guards != static_cast<std::uint64_t>(guards.size()) ||
      !ReadAndCheckSchema(r, *schema)) {
    return nullptr;
  }

  std::size_t num_shapes;
  if (!r.ReadCounted(&num_shapes) || num_shapes > r.remaining()) {
    return nullptr;
  }
  std::vector<CanonicalForm> shapes;
  shapes.reserve(num_shapes);
  for (std::size_t id = 0; id < num_shapes; ++id) {
    CanonicalForm form{Structure(schema, 0), {}, {}, {}, 0};
    if (!ReadStructure(r, schema, &form.structure)) return nullptr;
    const std::size_t n = form.structure.size();
    if (!ReadMarks(r, static_cast<std::size_t>(k), n, &form.marks)) {
      return nullptr;
    }
    std::uint64_t key_size;
    std::string_view canon_key;
    if (!r.ReadVarint(&key_size) || !r.ReadBytes(key_size, &canon_key)) {
      return nullptr;
    }
    form.key.assign(canon_key);
    std::vector<char> seen_perm(n, 0);
    form.perm.reserve(n);
    for (std::size_t e = 0; e < n; ++e) {
      std::uint64_t p;
      if (!r.ReadVarint(&p) || p >= n || seen_perm[p]) return nullptr;
      seen_perm[p] = 1;
      form.perm.push_back(static_cast<Elem>(p));
    }
    form.hash = HashRange(form.key.begin(), form.key.end());
    shapes.push_back(std::move(form));
  }

  std::size_t num_initial;
  if (!r.ReadCounted(&num_initial) || num_initial > num_shapes) {
    return nullptr;
  }
  std::vector<int> initial_shapes;
  initial_shapes.reserve(num_initial);
  for (std::size_t i = 0; i < num_initial; ++i) {
    int shape;
    if (!r.ReadCounted(&shape)) return nullptr;
    initial_shapes.push_back(shape);
  }

  std::size_t num_steps;
  if (!r.ReadCounted(&num_steps) || num_steps > r.remaining()) {
    return nullptr;
  }
  // Each deduplicated edge records exactly one step, so the header's edge
  // count must match.
  if (header.num_edges != static_cast<std::uint64_t>(num_steps)) {
    return nullptr;
  }
  std::vector<SubTransition> steps;
  steps.reserve(num_steps);
  for (std::size_t i = 0; i < num_steps; ++i) {
    SubTransition step{0, Structure(schema, 0), {}};
    if (!r.ReadCounted(&step.guard)) return nullptr;
    if (!ReadStructure(r, schema, &step.joint)) return nullptr;
    if (!ReadMarks(r, static_cast<std::size_t>(2 * k), step.joint.size(),
                   &step.marks)) {
      return nullptr;
    }
    steps.push_back(std::move(step));
  }

  std::vector<std::vector<SubTransitionGraph::Edge>> edges(num_shapes);
  for (std::size_t shape = 0; shape < num_shapes; ++shape) {
    std::size_t count;
    if (!r.ReadCounted(&count) || count > r.remaining()) return nullptr;
    edges[shape].reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      SubTransitionGraph::Edge e;
      if (!r.ReadCounted(&e.guard) || !r.ReadCounted(&e.new_shape) ||
          !r.ReadCounted(&e.step)) {
        return nullptr;
      }
      edges[shape].push_back(e);
    }
  }
  if (!r.done()) return nullptr;  // trailing garbage

  return SubTransitionGraph::FromParts(
      std::vector<FormulaRef>(guards.begin(), guards.end()), k,
      std::move(shapes), std::move(initial_shapes), std::move(steps),
      std::move(edges), header.cursor);
}

GraphStore::GraphStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("GraphStore: cannot create directory " + dir_);
  }
}

std::string GraphStore::PathFor(const std::string& key) const {
  // File names hash the key (keys embed arbitrary fingerprint bytes and can
  // be long); the key serialized inside the file resolves collisions — a
  // colliding file simply fails the key check and reads as a miss.
  char name[32];
  std::snprintf(name, sizeof(name), "g%016llx.amg",
                static_cast<unsigned long long>(Fnv1a64(key)));
  return (std::filesystem::path(dir_) / name).string();
}

bool WriteFileAtomically(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> temp_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(temp_counter.fetch_add(1));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

GraphStore::LoadResult GraphStore::Load(const std::string& key,
                                        const SchemaRef& schema,
                                        std::span<const FormulaRef> guards,
                                        int k) const {
  LoadResult result;
  std::string bytes;
  if (ReadFileBytes(PathFor(key), &bytes)) {
    // An existing file counts as found even when empty (a crashed writer's
    // leavings): the caller surfaces it as a load failure, not a miss.
    result.file_found = true;
    result.graph = DeserializeGraph(bytes, key, schema, guards, k);
  }
  return result;
}

GraphStore::KeyProgress GraphStore::PeekKey(const std::string& key) const {
  // Only the header is parsed: an absent, torn or colliding file reads as
  // not found, and overwriting it loses nothing.
  KeyProgress progress;
  std::string bytes;
  Reader r{std::string_view()};
  RecordHeader header;
  if (ReadFileBytes(PathFor(key), &bytes) &&
      ReadRecordHeader(bytes, key, &r, &header)) {
    progress = KeyProgress{true, header.cursor, header.num_edges};
  }
  return progress;
}

bool GraphStore::Save(const std::string& key,
                      const SubTransitionGraph& graph) const {
  // Never clobber further-along progress persisted by someone we have not
  // seen — another process, or another cache in this one — with a
  // less-explored graph: write only when this graph is strictly ahead of
  // the file already there, mirroring GraphCache::Insert's replacement
  // order. Last-writer-wins remains possible between racing saves of
  // incomparable snapshots, but both snapshots are then correct graphs and
  // the trajectory merely pauses, never corrupts.
  const KeyProgress incumbent = PeekKey(key);
  if (incumbent.found &&
      !StrictlyBefore(incumbent.cursor, incumbent.num_edges, graph.cursor(),
                      graph.num_edges())) {
    save_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return WriteFileAtomically(PathFor(key), SerializeGraph(graph, key));
}

StoreSweepResult GraphStore::Sweep(std::uint64_t max_bytes,
                                   std::uint64_t max_files) const {
  StoreSweepResult result;
  if (max_bytes == 0 && max_files == 0) return result;
  sweeps_.fetch_add(1, std::memory_order_relaxed);

  struct FileInfo {
    std::string path;
    std::uint64_t size = 0;
    // Last-use time in nanoseconds; atime where it is being maintained,
    // otherwise mtime (relatime mounts may leave atime frozen before the
    // last write, in which case the write is the best lower bound on use).
    std::int64_t used_ns = 0;
  };
  std::vector<FileInfo> files;
  std::uint64_t total_bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".amg") continue;  // skip temp files and strangers
    struct stat st;
    if (::stat(p.c_str(), &st) != 0) continue;
    const std::int64_t atime_ns =
        st.st_atim.tv_sec * 1'000'000'000LL + st.st_atim.tv_nsec;
    const std::int64_t mtime_ns =
        st.st_mtim.tv_sec * 1'000'000'000LL + st.st_mtim.tv_nsec;
    files.push_back(FileInfo{p.string(), static_cast<std::uint64_t>(st.st_size),
                             std::max(atime_ns, mtime_ns)});
    total_bytes += static_cast<std::uint64_t>(st.st_size);
  }
  // Oldest-use first: those go first when a cap is exceeded.
  std::sort(files.begin(), files.end(),
            [](const FileInfo& a, const FileInfo& b) {
              return a.used_ns != b.used_ns ? a.used_ns < b.used_ns
                                            : a.path < b.path;
            });
  std::uint64_t remaining_files = files.size();
  for (const FileInfo& f : files) {
    const bool over_files = max_files > 0 && remaining_files > max_files;
    const bool over_bytes = max_bytes > 0 && total_bytes > max_bytes;
    if (!over_files && !over_bytes) break;
    std::error_code remove_ec;
    if (std::filesystem::remove(f.path, remove_ec) && !remove_ec) {
      ++result.files_removed;
      result.bytes_removed += f.size;
      --remaining_files;
      total_bytes -= f.size;
    }
  }
  result.files_kept = remaining_files;
  result.bytes_kept = total_bytes;
  sweep_files_removed_.fetch_add(result.files_removed,
                                 std::memory_order_relaxed);
  sweep_bytes_removed_.fetch_add(result.bytes_removed,
                                 std::memory_order_relaxed);
  return result;
}

StoreCounters GraphStore::counters() const {
  StoreCounters c;
  c.save_skips = save_skips_.load(std::memory_order_relaxed);
  c.sweeps = sweeps_.load(std::memory_order_relaxed);
  c.sweep_files_removed = sweep_files_removed_.load(std::memory_order_relaxed);
  c.sweep_bytes_removed = sweep_bytes_removed_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace amalgam
