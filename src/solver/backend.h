// The backend interface consumed by the exploration engine.
//
// The Theorem 5 search is parameterized by a class of databases; the engine
// needs exactly two capabilities from it: enumeration of the members
// generated by a marked tuple (up to isomorphism), with support for early
// termination so the on-the-fly strategy can stop as soon as an accepting
// configuration is reached, and an amalgamation operator for witness
// reconstruction. FraisseClass (and through it the word/tree run-pattern
// classes and the data-value products) implements this interface, so all
// front doors — SolveEmptiness, SolveWordEmptiness, SolveTreeEmptiness —
// route through one engine. The interface depends only on base/, keeping
// the solver layer free of class-specific knowledge.
#ifndef AMALGAM_SOLVER_BACKEND_H_
#define AMALGAM_SOLVER_BACKEND_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/ops.h"
#include "base/schema.h"
#include "base/structure.h"

namespace amalgam {

/// Structured "candidate space too large" error thrown by enumerators whose
/// per-member candidate grid exceeds a configurable cap (the relational
/// atom-mask grids). Carries the offending size and the cap so front doors
/// can report it in-band (amalgamd surfaces it as a JSON error with
/// `error_code` = kCode) instead of dying on an opaque invalid_argument.
class EnumerationCapError : public std::runtime_error {
 public:
  static constexpr const char* kCode = "enumeration_cap";

  EnumerationCapError(std::uint64_t atoms, std::uint32_t cap)
      : std::runtime_error("enumeration candidate space too large: " +
                           std::to_string(atoms) +
                           " atoms exceeds the cap of " + std::to_string(cap) +
                           " (raise atom_cap to proceed)"),
        atoms_(atoms),
        cap_(cap) {}

  std::uint64_t atoms() const { return atoms_; }
  std::uint32_t cap() const { return cap_; }

 private:
  std::uint64_t atoms_;
  std::uint32_t cap_;
};

/// What a backend's cursor machinery can actually do, as opposed to what the
/// default adapters fake by filtering the full stream. Reported by
/// SolverBackend::cursor_support(); all fields default to false (adapter
/// behavior). `native_shard`/`native_from` are purely informational — the
/// adapters are semantically equivalent, just slower — but `extensions` gates
/// a real capability: EnumerateExtensions throws unless it is set.
struct CursorSupport {
  /// EnumerateGeneratedShard is overridden with a real partition of the
  /// member space (contiguous ranges or equivalent), not a strided filter.
  bool native_shard = false;
  /// EnumerateGeneratedFrom is overridden with a real seek: generation cost
  /// is O(stream - start), not O(stream).
  bool native_from = false;
  /// EnumerateExtensions is implemented: joint members can be generated
  /// per-shape instead of filtered out of the global 2k stream.
  bool extensions = false;
};

/// The tuples a set of quantifier-free guards reads on a joint member,
/// named by mark positions: the atom R(x_p1, ..., x_pn) of a guard reads
/// the tuple of the elements that marks p1..pn point at. Marks below
/// `old_marks` are the old registers, the rest the new ones.
/// SubTransitionGraph builds one per graph from its distinct guards; a
/// guard set with a quantifier or a function term reads every tuple and
/// has none.
struct ReadSet {
  struct Atom {
    int rel;
    std::vector<int> positions;
    friend bool operator==(const Atom&, const Atom&) = default;
  };
  int old_marks = 0;
  std::vector<Atom> atoms;  // distinct
};

/// Out-of-band knobs threaded through the positioned enumeration entry
/// points. `generated` (when non-null) is incremented once per member the
/// backend *materializes* — for native cursors that is only the requested
/// slice; the default adapters materialize the full stream to filter it, so
/// they count every member. The members_generated / members_enumerated split
/// in SolveStats is exactly this distinction. `atom_cap` overrides the
/// relational enumerators' candidate-space cap (0 = backend default).
///
/// `reads` (when non-null) names the tuples the sweep's guards read. A
/// backend closed under deleting *cross* tuples — those holding an element
/// only old marks point at and one only new marks point at, so neither
/// projection holds them — may fix every unread cross tuple absent: each
/// (old shape, guard, new shape) edge is still produced, by the member with
/// those tuples deleted. The stream it enumerates is then the pruned one,
/// and positions, shard ranges and cursors all index that stream. Backends
/// that do not qualify ignore it; null reads everything.
struct EnumControl {
  std::uint64_t* generated = nullptr;
  std::uint32_t atom_cap = 0;
  const ReadSet* reads = nullptr;
};

/// Abstract source of small configurations for the exploration engine.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// The common schema of all members.
  virtual const SchemaRef& schema() const = 0;

  /// A stable serialization of the class's identity: two backends with
  /// equal fingerprints must enumerate identical member streams (same
  /// structures, same marks, same order) for every m and every
  /// EnumControl::reads. Used by GraphCache to key complete and partial
  /// sub-transition graphs across queries (a partial's cursor indexes one
  /// of those streams); include every parameter that shapes enumeration
  /// (schema, templates, automata, caps, and whether the read set prunes).
  virtual std::string Fingerprint() const = 0;

  /// Callback receiving a member structure and the generating m-tuple of
  /// (not necessarily distinct) elements.
  using EnumCallback =
      std::function<void(const Structure&, std::span<const Elem>)>;
  /// Like EnumCallback, but the return value steers the enumeration:
  /// returning false stops it (the on-the-fly early exit).
  using StopCallback =
      std::function<bool(const Structure&, std::span<const Elem>)>;
  /// Callback for one shard of the member stream. `stream_index` is the
  /// member's position in the full EnumerateGeneratedUntil stream — the
  /// deterministic merge core orders shapes and edges by it, so sharded
  /// builds are bit-identical to serial ones. Returning false stops this
  /// shard only.
  using ShardCallback = std::function<bool(
      const Structure&, std::span<const Elem>, std::uint64_t stream_index)>;

  /// Enumerates, up to isomorphism of marked structures, every pair
  /// (D, marks) where D is a member generated by the m-tuple `marks`.
  /// Each isomorphism class is produced exactly once. Stops (promptly, not
  /// necessarily instantly) once `cb` returns false.
  virtual void EnumerateGeneratedUntil(int m, const StopCallback& cb) const = 0;

  /// Which of the positioned entry points below are backed by real cursors
  /// into the member space rather than the filtering default adapters.
  virtual CursorSupport cursor_support() const { return {}; }

  /// Enumerates shard `shard` of `n_shards` disjoint slices of the
  /// EnumerateGeneratedUntil(m, ...) stream (the pruned stream when
  /// `ctl.reads` prunes; see EnumControl). Requirements on overrides: the
  /// n_shards shards must partition the full stream, each member must be
  /// reported with its position in that full stream, and positions within a
  /// shard must arrive in increasing order. Must be safe to call from
  /// n_shards threads concurrently on one backend (the default adapter is:
  /// every concrete backend enumerates with call-local state only).
  ///
  /// The default adapter walks the full stream and forwards every n_shards-th
  /// member, so each worker pays the generation cost of the whole stream but
  /// only the per-member processing cost (guard evaluation, canonicalization,
  /// interning — the dominant part) of its slice. Backends with a natural
  /// partition of their member space can override with a real shard cursor.
  virtual void EnumerateGeneratedShard(int m, int n_shards, int shard,
                                       const ShardCallback& cb,
                                       const EnumControl& ctl = {}) const {
    std::uint64_t index = 0;
    EnumerateGeneratedUntil(
        m, [&](const Structure& s, std::span<const Elem> marks) {
          const std::uint64_t here = index++;
          if (ctl.generated != nullptr) ++*ctl.generated;
          if (here % static_cast<std::uint64_t>(n_shards) !=
              static_cast<std::uint64_t>(shard)) {
            return true;
          }
          return cb(s, marks, here);
        });
  }

  /// Enumerates the EnumerateGeneratedUntil(m, ...) stream (pruned as for
  /// EnumerateGeneratedShard) starting at position `start`, reporting each
  /// member with its stream position — the
  /// positioned enumeration behind resumable graph builds (a persisted
  /// partial graph records the position its suspended sweep would continue
  /// at; see SubTransitionGraph::cursor()). The default adapter walks the
  /// stream from the beginning and skips the prefix, so a resume pays the
  /// prefix's generation cost but none of its processing cost (guard
  /// evaluation, canonicalization, interning — the dominant part; the same
  /// trade as EnumerateGeneratedShard's default). Backends with a real
  /// cursor into their member space should override both together.
  virtual void EnumerateGeneratedFrom(int m, std::uint64_t start,
                                      const ShardCallback& cb,
                                      const EnumControl& ctl = {}) const {
    std::uint64_t index = 0;
    EnumerateGeneratedUntil(
        m, [&](const Structure& s, std::span<const Elem> marks) {
          const std::uint64_t here = index++;
          if (ctl.generated != nullptr) ++*ctl.generated;
          if (here < start) return true;
          return cb(s, marks, here);
        });
  }

  /// Enumerates, up to isomorphism, the joint members extending one already
  /// canonicalized shape: every pair (J, old_marks ++ new_marks) where J is
  /// generated by the combined tuple, the first `old_marks.size()` marks
  /// induce (a copy of) `old_structure` with `old_marks`, and `extra_marks`
  /// new marks are appended. The engine's frontier sweep uses this to
  /// generate joint members per reached shape — O(reached region) — instead
  /// of filtering the global 2k stream. The union of extension streams over
  /// every m-generated shape must reproduce the joint stream with the same
  /// `ctl.reads` (EnumerateGeneratedFrom(2m, 0, ..., ctl)) exactly: same
  /// isomorphism classes, each exactly once across all shapes (per-shape
  /// streams partition the joint stream), so frontier
  /// member counts never exceed — and on full sweeps equal — the eager
  /// count. Optional capability: only callable when
  /// cursor_support().extensions is true; the default throws.
  virtual void EnumerateExtensions(const Structure& old_structure,
                                   std::span<const Elem> old_marks,
                                   int extra_marks, const StopCallback& cb,
                                   const EnumControl& ctl = {}) const {
    (void)old_structure;
    (void)old_marks;
    (void)extra_marks;
    (void)cb;
    (void)ctl;
    throw std::logic_error(
        "EnumerateExtensions called on a backend without the capability; "
        "check cursor_support().extensions first");
  }

  /// Run-to-completion convenience wrapper over EnumerateGeneratedUntil.
  void EnumerateGenerated(int m, const EnumCallback& cb) const {
    EnumerateGeneratedUntil(
        m, [&](const Structure& s, std::span<const Elem> marks) {
          cb(s, marks);
          return true;
        });
  }

  /// Amalgamates members `a` and `b` over the common part described by
  /// `b_to_a` (b-element -> a-element, kNoElem when only in b). Returns a
  /// member containing both as substructures, or nullopt when the backend
  /// does not support witness reconstruction.
  virtual std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const = 0;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_BACKEND_H_
