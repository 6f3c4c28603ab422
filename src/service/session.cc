#include "service/session.h"

#include <future>
#include <string>
#include <utility>

#include "service/maintenance.h"
#include "service/protocol.h"

namespace amalgam {

namespace {

// What every scrape and stats answer reports beyond the service's own
// stats; the per-connection fields stay zero.
ServiceStats DaemonStats(QueryService& service,
                         const ConnectionCounters* counters,
                         const MaintenanceLoop* maintenance) {
  ServiceStats stats = service.Stats();
  if (counters != nullptr) {
    stats.connections_open = counters->open.load(std::memory_order_relaxed);
    stats.connections_opened =
        counters->opened.load(std::memory_order_relaxed);
    stats.overload_rejections =
        counters->overload_rejections.load(std::memory_order_relaxed);
  }
  if (maintenance != nullptr) {
    const MaintenanceStats mstats = maintenance->GetStats();
    stats.maintenance_passes = mstats.passes;
    stats.partials_completed = mstats.partials_completed;
    stats.prewarm_loads = mstats.prewarm_loads;
  }
  return stats;
}

}  // namespace

Session::Session(QueryService& service, Options options, Emit emit,
                 ConnectionCounters* counters)
    : service_(service),
      options_(options),
      emit_(std::move(emit)),
      counters_(counters),
      writer_([this] { WriterLoop(); }) {}

Session::~Session() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_one();
  writer_.join();  // drains the queue: every accepted line gets its line out
}

void Session::WriterLoop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to emit
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // Rendering may block (a query future, an admin drain); the emitted
    // line lands with the transport in request order because this loop is
    // the only consumer of the FIFO.
    emit_(item.render());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++written_;
      if (item.is_query) --inflight_;
    }
    written_cv_.notify_all();
    if (options_.on_written) options_.on_written();
  }
}

void Session::Push(Item item) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++enqueued_;
    if (item.is_query) ++inflight_;
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void Session::PushRendered(std::string line) {
  Push(Item{[line = std::move(line)] { return line; }, /*is_query=*/false});
}

std::string RenderMetrics(QueryService& service,
                          const ConnectionCounters* counters,
                          const MaintenanceLoop* maintenance) {
  return FormatMetricsExposition(DaemonStats(service, counters, maintenance),
                                 service.latency_histogram(),
                                 service.queue_wait_histogram());
}

ServiceStats Session::SnapshotStats() const {
  ServiceStats stats = DaemonStats(service_, counters_, options_.maintenance);
  stats.conn_id = options_.id;
  stats.conn_requests = requests();
  stats.conn_rejected_overload = rejected_overload();
  return stats;
}

Session::LineOutcome Session::HandleLine(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // A repeat of an earlier query line — byte for byte apart from a leading
  // numeric id — reuses the query that line prepared: no parse, no spec.
  const LineIdentity identity = IdentifyLine(line);
  const SpecMemo::Key memo_key{identity.rest, identity.id_stripped()};
  SpecMemo::Found found = service_.spec_memo().Find(memo_key);
  ProtocolRequest echo;  // carries only the id the response echoes
  if (found.query != nullptr) {
    echo.id_json = identity.id_stripped() ? identity.id_json
                                          : std::move(found.id_json);
    SubmitQuery(identity, std::move(echo), std::move(found.query));
    return LineOutcome::kContinue;
  }
  ProtocolRequest request = ParseRequestLine(line);
  if (!request.error.empty()) {
    PushRendered(FormatErrorResponse(request, request.error));
    return LineOutcome::kContinue;
  }
  switch (request.op) {
    case ProtocolRequest::Op::kQuery: {
      std::shared_ptr<const PreparedQuery> prepared = QueryService::Prepare(
          std::move(request.query), std::move(request.store_dir));
      if (found.admit) {
        service_.spec_memo().Admit(memo_key, prepared, request.id_json);
      }
      echo.id_json = std::move(request.id_json);
      SubmitQuery(identity, std::move(echo), std::move(prepared));
      return LineOutcome::kContinue;
    }
    case ProtocolRequest::Op::kStats:
      // Drain so the answer reflects everything accepted before it —
      // queued earlier responses were emitted first (FIFO), and `pending`
      // reads the live remainder rather than a timing artifact.
      Push(Item{[this, request = std::move(request)] {
        service_.Drain();
        return FormatStatsResponse(request, SnapshotStats());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kSweep:
      Push(Item{[this, request = std::move(request)] {
        return FormatSweepResponse(
            request, service_.SweepStore(request.max_bytes,
                                         request.max_files));
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kMaintain:
      if (options_.maintenance == nullptr) {
        PushRendered(FormatErrorResponse(
            request,
            "this daemon runs no maintenance loop (start amalgamd with "
            "--store-dir to enable {\"op\":\"maintain\"})",
            "no_maintenance"));
        return LineOutcome::kContinue;
      }
      // Rendered on the writer thread: the pass runs after every earlier
      // response on this connection, and the FIFO keeps later ones behind
      // it — slow maintenance never reorders a client's stream.
      Push(Item{[this, request = std::move(request)] {
        const MaintenancePassResult pass = options_.maintenance->RunOnce();
        return FormatMaintainResponse(request, pass,
                                      options_.maintenance->GetStats());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kMetrics:
      // Deliberately no Drain: a scrape is a cheap point-in-time snapshot
      // (Prometheus hits it on a schedule), and the FIFO already puts it
      // after every earlier response on this connection.
      Push(Item{[this, request = std::move(request)] {
        return FormatMetricsResponse(
            request,
            RenderMetrics(service_, counters_, options_.maintenance));
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kRecent:
      Push(Item{[this, request = std::move(request)] {
        return FormatRecentResponse(request, service_.Recent());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kDrain:
      Push(Item{[this, request = std::move(request)] {
        service_.Drain();
        return FormatDrainResponse(request, SnapshotStats());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kShutdown:
      Push(Item{[this, request = std::move(request)] {
        service_.Drain();
        return FormatShutdownResponse(request, SnapshotStats());
      }});
      return LineOutcome::kShutdown;
  }
  return LineOutcome::kContinue;
}

void Session::SubmitQuery(const LineIdentity& identity, ProtocolRequest echo,
                          std::shared_ptr<const PreparedQuery> query) {
  if (!query->store_dir.empty()) {
    const std::string error = service_.TryAttachStore(query->store_dir);
    if (!error.empty()) {
      PushRendered(FormatErrorResponse(echo, error));
      return;
    }
  }
  if (options_.max_inflight > 0 && inflight() >= options_.max_inflight) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->overload_rejections.fetch_add(1, std::memory_order_relaxed);
    }
    PushRendered(FormatErrorResponse(
        echo,
        "per-connection inflight cap (" +
            std::to_string(options_.max_inflight) +
            ") reached; read pending responses before sending more",
        "overloaded"));
    return;
  }
  // Each execution records into a recorder of its own, created here so
  // its epoch covers the whole service-side life of the query.
  std::shared_ptr<TraceRecorder> trace =
      query->traced ? std::make_shared<TraceRecorder>() : nullptr;
  std::shared_future<QueryResult> future;
  try {
    future = service_.Submit(std::move(query), std::move(trace)).share();
  } catch (const std::exception& e) {
    PushRendered(FormatErrorResponse(echo, e.what()));
    return;
  }
  // Accepted: the line joins the access log, the maintenance loop's
  // recipe for finishing this query's graph and prewarming it on restart.
  if (options_.maintenance != nullptr) {
    options_.maintenance->RecordAccess(identity);
  }
  Push(Item{[echo = std::move(echo), future] {
              return FormatQueryResponse(echo, future.get());
            },
            /*is_query=*/true});
}

void Session::HandleOversizedLine() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ProtocolRequest request;  // no parsable id inside an oversized line
  PushRendered(FormatErrorResponse(
      request, "request line exceeds the maximum line length",
      "line_too_long"));
}

void Session::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  written_cv_.wait(lock, [this] { return written_ == enqueued_; });
}

bool Session::FlushedAll() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_ == enqueued_;
}

int Session::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

}  // namespace amalgam
