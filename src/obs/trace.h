// In-process request tracing: a recorder of nested, annotated spans.
//
// A TraceRecorder captures where one query spent its time as a tree of
// spans — each with a name from the span catalog (docs/OBSERVABILITY.md),
// a monotonic-clock start relative to the recorder's epoch, a duration,
// an optional parent, and key/value annotations (members swept, edges
// recorded, cache tier hit, resume cursor). The recorder rides the query:
// the session creates one for each `"trace":true` request line, the service
// and the engine add spans as the query moves through them, and the
// response formatter serializes the finished tree in-band as the
// response's "trace" member.
//
// Tracing is pay-for-what-you-use. Every instrumentation site goes
// through ScopedSpan (or an explicit null check), whose constructor is a
// single branch when the recorder pointer is null — a query without
// `"trace":true` carries a null slot end to end and pays one predictable
// branch per site, nothing else (BM_TraceOverhead in bench_e2_scaling
// keeps this honest). Only traced queries pay for the mutex, the clock
// reads and the span storage.
//
// Thread model: spans are recorded under a small internal mutex, so a
// recorder may be handed across threads (the session thread creates it,
// a worker thread records into it, the writer thread serializes it) —
// but span *nesting* is tracked by one open-span stack, so at most one
// thread should be opening/closing spans at a time. That is exactly the
// query pipeline's shape: one worker owns the query from pickup to
// verdict. RecordSpan() attaches an externally-measured interval (queue
// wait, measured from the submit timestamp) retroactively without
// touching the stack discipline.
#ifndef AMALGAM_OBS_TRACE_H_
#define AMALGAM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace amalgam {

/// One key/value annotation on a span. Numeric values serialize as JSON
/// numbers, the rest as strings.
struct TraceAnnotation {
  std::string key;
  std::string value;
  bool is_number = false;
};

struct TraceSpan {
  /// Index of the parent span in TraceRecorder::spans(), -1 for a root.
  int parent = -1;
  /// A span-catalog name (static string; see docs/OBSERVABILITY.md).
  const char* name = "";
  /// Monotonic start, nanoseconds since the recorder's epoch.
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::vector<TraceAnnotation> annotations;
};

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  TraceRecorder() : epoch_(Clock::now()) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens a span as a child of the innermost open span (or a root) and
  /// returns its id. Pair with EndSpan, or use ScopedSpan.
  int BeginSpan(const char* name);
  /// Closes span `id`, fixing its duration. Pops the open stack through
  /// `id`, so leaking a nested child cannot wedge the stack.
  void EndSpan(int id);

  /// Attaches an interval measured elsewhere — e.g. queue wait, clocked
  /// from the submit timestamp — as an already-closed child of the
  /// innermost open span. Both endpoints are clamped to the epoch.
  int RecordSpan(const char* name, Clock::time_point start,
                 Clock::time_point end);

  void Annotate(int id, const char* key, std::uint64_t value);
  void Annotate(int id, const char* key, std::string value);
  /// Annotates the innermost open span (no-op when none is open).
  void AnnotateCurrent(const char* key, std::uint64_t value);

  /// Snapshot of every span recorded so far (ids are indices).
  std::vector<TraceSpan> Snapshot() const;
  std::size_t span_count() const;

  /// The span forest as a JSON array of root spans, children nested:
  ///   [{"name":"query","start_us":0.0,"dur_us":812.4,
  ///     "ann":{"members_generated":118},"children":[...]}]
  /// Open spans serialize with their duration so far.
  std::string ToJson() const;

  Clock::time_point epoch() const { return epoch_; }

 private:
  std::uint64_t SinceEpoch(Clock::time_point t) const {
    return t <= epoch_
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t - epoch_)
                         .count());
  }

  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
  std::vector<int> open_;  // stack of open span ids, innermost last
};

/// RAII span guard, null-safe: with a null recorder the constructor is
/// one branch and the destructor another — the disabled-tracing fast
/// path. All instrumentation sites should use this.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const char* name)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->BeginSpan(name)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Annotate(const char* key, std::uint64_t value) {
    if (recorder_ != nullptr) recorder_->Annotate(id_, key, value);
  }
  void Annotate(const char* key, std::string value) {
    if (recorder_ != nullptr) recorder_->Annotate(id_, key, std::move(value));
  }

  int id() const { return id_; }
  TraceRecorder* recorder() const { return recorder_; }

 private:
  TraceRecorder* const recorder_;
  const int id_;
};

}  // namespace amalgam

#endif  // AMALGAM_OBS_TRACE_H_
