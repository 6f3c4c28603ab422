#include "service/service.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "solver/store.h"
#include "trees/solve.h"
#include "words/solve.h"

namespace amalgam {

namespace {

// The keyed spec of the graph `request` needs: its kind's backend (the
// front doors' own constructors for the word and tree run classes, which
// retain the request's nfa/automaton — the request keeps them alive) over
// its system's guards.
GraphSpec SpecOf(const QueryRequest& request) {
  auto require = [](bool present, const char* what) {
    if (!present) throw std::invalid_argument(what);
  };
  switch (request.kind) {
    case QueryKind::kSystem:
      require(request.system && request.cls,
              "system query needs `system` and `cls`");
      return GraphSpecFor(request.cls, *request.system, /*keyed=*/true);
    case QueryKind::kWord:
      require(request.system && request.nfa,
              "word query needs `system` and `nfa`");
      return GraphSpecFor(WordRunClassFor(*request.system, *request.nfa),
                          *request.system, /*keyed=*/true);
    case QueryKind::kTree:
      require(request.system && request.automaton,
              "tree query needs `system` and `automaton`");
      return GraphSpecFor(TreeRunClassFor(*request.system, *request.automaton,
                                          request.extra_pattern_cap),
                          *request.system, /*keyed=*/true);
    case QueryKind::kBranching:
      require(request.branching && request.cls,
              "branching query needs `branching` and `cls`");
      return GraphSpecFor(request.cls, *request.branching, /*keyed=*/true);
  }
  throw std::invalid_argument("unknown query kind");
}

// The graph cache key embeds a separator byte and free-form formula text;
// the recent-query log wants a compact, log-greppable identifier instead.
// FNV-1a is stable across runs, so "the same graph" hashes the same after
// a restart.
std::string HashedKey(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSystem:
      return "system";
    case QueryKind::kWord:
      return "word";
    case QueryKind::kTree:
      return "tree";
    case QueryKind::kBranching:
      return "branching";
  }
  return "unknown";
}

QueryService::QueryService(Options options)
    : options_(std::move(options)), cache_(options_.cache_max_entries) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.build_threads < 1) options_.build_threads = 1;
  if (!options_.store_dir.empty()) {
    cache_.AttachStore(options_.store_dir);
    attached_store_dir_ = options_.store_dir;
  }
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  latency_hist_ = &metrics_->Histogram(
      "amalgam_query_latency_ms",
      "Query latency from worker pickup to verdict, milliseconds",
      DefaultLatencyBoundsMs());
  queue_wait_hist_ = &metrics_->Histogram(
      "amalgam_queue_wait_ms",
      "Queue wait from submit to worker pickup, milliseconds",
      DefaultLatencyBoundsMs());
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

std::shared_ptr<const PreparedQuery> QueryService::Prepare(
    QueryRequest request, std::string store_dir) {
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->traced = request.trace != nullptr;
  request.trace.reset();
  prepared->request = std::move(request);
  prepared->store_dir = std::move(store_dir);
  // The spec builds every backend the query runs on — TreeRunClassFor
  // runs the automaton's lazy analyses — so nothing is left to mutate
  // once the prepared query is shared.
  try {
    prepared->spec = SpecOf(prepared->request);
  } catch (const std::exception& e) {
    prepared->setup_error = e.what();
  }
  return prepared;
}

void QueryService::RegisterFlight(Task& task) {
  const std::string& key = task.query->spec.key;
  if (!task.query->setup_error.empty()) return;
  // A complete cached graph serves the query with zero build work: run it
  // directly, off the flight table, so hot complete keys never serialize.
  // A *partial* entry goes through the table as a resume flight — without
  // one, N concurrent queries over a warm-but-partial key would each copy
  // the entry and duplicate the same suffix sweep (the progress-guarded
  // insert keeps only the furthest, so all but one copy is wasted work).
  const std::shared_ptr<const SubTransitionGraph> cached =
      cache_.Peek(key);
  if (cached != nullptr && cached->complete()) {
    task.role = Role::kDirect;
    return;
  }
  task.resume = cached != nullptr;
  std::lock_guard<std::mutex> flock(flights_mutex_);
  auto it = flights_.find(key);
  if (it != flights_.end()) {
    task.role = Role::kJoiner;
    task.join_on = it->second.done;
    std::lock_guard<std::mutex> slock(stats_mutex_);
    if (task.resume) {
      ++resume_coalesced_;
    } else {
      ++coalesced_joins_;
    }
  } else {
    task.role = Role::kLeader;
    task.lead_done = std::make_shared<std::promise<void>>();
    flights_.emplace(key, Flight{task.lead_done->get_future()});
    std::lock_guard<std::mutex> slock(stats_mutex_);
    if (task.resume) {
      ++resume_leads_;
    } else {
      ++single_flight_leads_;
    }
  }
}

QueryService::Task QueryService::MakeTask(
    std::shared_ptr<const PreparedQuery> query,
    std::shared_ptr<TraceRecorder> trace) {
  Task task;
  task.query = std::move(query);
  task.trace = std::move(trace);
  task.submitted_at = std::chrono::steady_clock::now();
  return task;
}

std::future<QueryResult> QueryService::Submit(QueryRequest request) {
  std::shared_ptr<TraceRecorder> trace = request.trace;
  return Submit(Prepare(std::move(request)), std::move(trace));
}

std::future<QueryResult> QueryService::Submit(
    std::shared_ptr<const PreparedQuery> query,
    std::shared_ptr<TraceRecorder> trace) {
  Task task = MakeTask(std::move(query), std::move(trace));
  std::future<QueryResult> future = task.promise.get_future();
  {
    // Registration and enqueue are atomic together: a joiner must never
    // precede its leader in the queue, or a one-worker pool would pick up
    // the joiner first and deadlock waiting for a build that cannot start.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      throw std::runtime_error("QueryService is shut down");
    }
    RegisterFlight(task);
    queue_.push_back(std::move(task));
    ++outstanding_;
  }
  queue_cv_.notify_one();
  return future;
}

std::vector<std::future<QueryResult>> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<Task> tasks;
  std::vector<std::future<QueryResult>> futures;
  tasks.reserve(requests.size());
  futures.reserve(requests.size());
  for (QueryRequest& request : requests) {
    // Per-request backend and key, unlocked.
    std::shared_ptr<TraceRecorder> trace = request.trace;
    tasks.push_back(MakeTask(Prepare(std::move(request)), std::move(trace)));
    futures.push_back(tasks.back().promise.get_future());
  }
  {
    // One lock for the whole batch: every request is registered in the
    // single-flight table before any worker can start the first one, so
    // identical cold queries in a batch coalesce deterministically.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      throw std::runtime_error("QueryService is shut down");
    }
    for (Task& task : tasks) {
      RegisterFlight(task);
      queue_.push_back(std::move(task));
      ++outstanding_;
    }
  }
  queue_cv_.notify_all();
  return futures;
}

void QueryService::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueryResult result = Execute(task);
    // Decrement before resolving the promise: an observer that synced on
    // the future (a session writer emitting the response, an idleness
    // probe through Pending()) must never read this query as still
    // outstanding afterwards. Drain() may consequently return a moment
    // before the final set_value lands; callers that need the result
    // still block in future.get(), so nothing observes a gap.
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --outstanding_;
    }
    drained_cv_.notify_all();
    task.promise.set_value(std::move(result));
  }
}

QueryResult QueryService::RunQuery(const Task& task) {
  const QueryRequest& request = task.query->request;
  SolveOptions options;
  // Trees have no generic amalgamation, so no witness to reconstruct.
  options.build_witness =
      request.build_witness && request.kind != QueryKind::kTree;
  options.strategy = request.strategy;
  options.cache = &cache_;
  options.store_max_bytes = options_.store_max_bytes;
  options.store_max_files = options_.store_max_files;
  options.num_threads = request.num_threads > 0 ? request.num_threads
                                                : options_.build_threads;
  options.relational_atom_cap = request.atom_cap;
  options.trace = task.trace.get();
  QueryResult result;
  if (request.kind == QueryKind::kBranching) {
    BranchingSolveResult solved =
        SolveBranchingEmptiness(*request.branching, task.query->spec, options);
    result.nonempty = solved.nonempty;
    result.stats = solved.stats;
  } else {
    SolveResult solved =
        ExplorationEngine(*request.system, task.query->spec, options).Run();
    result.nonempty = solved.nonempty;
    result.stats = solved.stats;
  }
  result.ok = true;
  return result;
}

QueryResult QueryService::Execute(Task& task) {
  const auto start = std::chrono::steady_clock::now();
  const PreparedQuery& query = *task.query;
  TraceRecorder* trace = task.trace.get();
  QueryResult result;
  {
    // The root span covers everything the service does on the worker
    // thread; the queue wait — measured from submit to pickup — is
    // attached retroactively as its first child. The span must close
    // before the rollup below reads durations, hence the scope.
    ScopedSpan query_span(trace, "query");
    if (trace != nullptr) {
      query_span.Annotate("kind", QueryKindName(query.request.kind));
      query_span.Annotate("role", task.role == Role::kLeader   ? "leader"
                                  : task.role == Role::kJoiner ? "joiner"
                                                               : "direct");
      trace->RecordSpan("queue_wait", task.submitted_at, start);
    }
    if (!query.setup_error.empty()) {
      result.error = query.setup_error;
    } else {
      if (task.role == Role::kJoiner) {
        ScopedSpan wait_span(trace, "coalesced_wait");
        task.join_on.wait();
        result.coalesced = true;
      }
      try {
        const bool coalesced = result.coalesced;
        {
          ScopedSpan run_span(trace, task.role == Role::kLeader ? "lead_build"
                                                                : "run");
          result = RunQuery(task);
        }
        result.coalesced = coalesced;
      } catch (const EnumerationCapError& e) {
        // Structured: clients can distinguish "raise atom_cap and retry"
        // from a malformed request without parsing the message text.
        result.ok = false;
        result.error = e.what();
        result.error_code = EnumerationCapError::kCode;
      } catch (const std::exception& e) {
        result.ok = false;
        result.error = e.what();
      }
    }
    if (task.role == Role::kLeader) {
      // Resolve the flight whatever happened: joiners proceed (a failed
      // leader's joiners retry the build themselves through the ordinary
      // cache path) and the key becomes eligible for a fresh flight.
      {
        std::lock_guard<std::mutex> flock(flights_mutex_);
        flights_.erase(query.spec.key);
      }
      task.lead_done->set_value();
    }
  }
  result.trace = task.trace;
  result.latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  latency_hist_->Observe(result.latency_ms);
  queue_wait_hist_->Observe(std::chrono::duration<double, std::milli>(
                                start - task.submitted_at)
                                .count());
  RecentQuery entry;
  entry.key =
      query.spec.key.empty() ? std::string() : HashedKey(query.spec.key);
  entry.kind = QueryKindName(query.request.kind);
  entry.ok = result.ok;
  entry.nonempty = result.nonempty;
  entry.coalesced = result.coalesced;
  entry.from_cache = result.stats.graph_from_cache;
  entry.resumed = result.stats.graph_resumed;
  entry.traced = trace != nullptr;
  entry.latency_ms = result.latency_ms;
  if (trace != nullptr) {
    // Where the time went, by span name — the closed "query" root makes
    // the rollup cover the whole service-side path.
    std::map<std::string, double> by_name;
    for (const TraceSpan& span : trace->Snapshot()) {
      by_name[span.name] += static_cast<double>(span.duration_ns) / 1e6;
    }
    entry.span_rollup.assign(by_name.begin(), by_name.end());
  }
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++completed_;
    if (!result.ok) ++failed_;
    members_enumerated_ += result.stats.members_enumerated;
    members_generated_ += result.stats.members_generated;
    if (options_.recent_capacity > 0) {
      entry.seq = ++recent_seq_;
      recent_.push_back(std::move(entry));
      if (recent_.size() > options_.recent_capacity) recent_.pop_front();
    }
  }
  return result;
}

std::vector<RecentQuery> QueryService::Recent() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return std::vector<RecentQuery>(recent_.begin(), recent_.end());
}

std::uint64_t QueryService::Pending() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return outstanding_;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void QueryService::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    // Graceful: everything accepted before the stop flag runs to its
    // verdict; only *new* submissions are refused.
    stopping_ = true;
  }
  queue_cv_.notify_all();
  Drain();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

StoreSweepResult QueryService::SweepStore(std::uint64_t max_bytes,
                                          std::uint64_t max_files) {
  return cache_.SweepStore(max_bytes, max_files);
}

std::string QueryService::TryAttachStore(const std::string& dir) {
  std::lock_guard<std::mutex> lock(store_attach_mutex_);
  if (attached_store_dir_.empty()) {
    try {
      cache_.AttachStore(dir);
    } catch (const std::exception& e) {
      return e.what();
    }
    attached_store_dir_ = dir;
    return "";
  }
  if (dir != attached_store_dir_) {
    return "store_dir mismatch: this service persists to " +
           attached_store_dir_;
  }
  return "";
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    stats.queries = completed_;
    stats.failed = failed_;
    stats.coalesced_joins = coalesced_joins_;
    stats.single_flight_leads = single_flight_leads_;
    stats.resume_leads = resume_leads_;
    stats.resume_coalesced = resume_coalesced_;
    stats.members_enumerated = members_enumerated_;
    stats.members_generated = members_generated_;
  }
  {
    std::lock_guard<std::mutex> qlock(queue_mutex_);
    stats.pending = outstanding_;
  }
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.store_loads = cache_.store_loads();
  stats.store_load_failures = cache_.store_load_failures();
  stats.store_writes = cache_.store_writes();
  if (const std::shared_ptr<const GraphStore> store = cache_.store()) {
    const StoreCounters counters = store->counters();
    stats.store_save_skips = counters.save_skips;
    stats.store_sweeps = counters.sweeps;
    stats.store_sweep_files_removed = counters.sweep_files_removed;
    stats.store_sweep_bytes_removed = counters.sweep_bytes_removed;
  }
  stats.spec_memo_hits = spec_memo_.hits();
  stats.spec_memo_entries = spec_memo_.entries();
  stats.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  stats.p50_latency_ms = latency_hist_->Quantile(0.50);
  stats.p95_latency_ms = latency_hist_->Quantile(0.95);
  stats.p99_latency_ms = latency_hist_->Quantile(0.99);
  return stats;
}

}  // namespace amalgam
