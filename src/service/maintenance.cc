#include "service/maintenance.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "service/protocol.h"
#include "solver/store.h"

namespace amalgam {

namespace {

// A logged query line as maintenance replays it: eager, no witness and
// untraced whatever the client asked, so a replay builds the whole graph
// and never records into a trace. Null for a line that is not a valid
// query.
std::shared_ptr<const PreparedQuery> PrepareLoggedLine(
    const std::string& line) {
  ProtocolRequest parsed = ParseRequestLine(line);
  if (!parsed.error.empty() || parsed.op != ProtocolRequest::Op::kQuery) {
    return nullptr;
  }
  parsed.query.strategy = SolveStrategy::kEager;
  parsed.query.build_witness = false;
  parsed.query.trace.reset();
  std::shared_ptr<const PreparedQuery> prepared =
      QueryService::Prepare(std::move(parsed.query));
  if (!prepared->setup_error.empty()) return nullptr;
  return prepared;
}

}  // namespace

MaintenanceLoop::MaintenanceLoop(QueryService& service,
                                 MaintenanceOptions options)
    : service_(service), options_(std::move(options)) {
  // Seed the access buffer from the persisted log, so a daemon that never
  // sees traffic does not clobber its predecessor's log on the first
  // flush, and Prewarm() has lines to replay.
  if (options_.store_dir.empty() || options_.access_log_capacity == 0) return;
  // Logs written before lines were stored id-less still carry their ids:
  // keying them the same way folds their repeats together.
  std::ifstream in(AccessLogPath());
  std::string line;
  while (in && access_lines_.size() < options_.access_log_capacity &&
         std::getline(in, line)) {
    if (line.empty()) continue;
    std::string id_less = IdentifyLine(line).IdLess();
    if (access_index_.count(id_less)) continue;
    access_lines_.push_back(std::move(id_less));
    access_index_.emplace(access_lines_.back(),
                          std::prev(access_lines_.end()));
  }
}

MaintenanceLoop::~MaintenanceLoop() { Stop(); }

std::string MaintenanceLoop::AccessLogPath() const {
  return (std::filesystem::path(options_.store_dir) / "access.jsonl")
      .string();
}

void MaintenanceLoop::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (started_ || options_.interval_ms <= 0) return;
  started_ = true;
  thread_ = std::thread([this] { ThreadLoop(); });
}

void MaintenanceLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    stop_ = true;
  }
  thread_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  FlushAccessLog();
}

void MaintenanceLoop::ThreadLoop() {
  std::unique_lock<std::mutex> lock(thread_mutex_);
  while (!stop_) {
    if (thread_cv_.wait_for(lock,
                            std::chrono::milliseconds(options_.interval_ms),
                            [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    RunOnce();
    lock.lock();
  }
}

std::vector<std::string> MaintenanceLoop::AccessLines() const {
  std::lock_guard<std::mutex> lock(access_mutex_);
  return std::vector<std::string>(access_lines_.begin(), access_lines_.end());
}

MaintenancePassResult MaintenanceLoop::RunOnce() {
  std::lock_guard<std::mutex> pass_lock(pass_mutex_);
  MaintenancePassResult result;
  FlushAccessLog();
  const std::shared_ptr<const GraphStore> store = service_.cache().store();

  // Complete partials: every logged line whose graph stopped short of
  // complete, resumed through the ordinary submit path so it occupies the
  // key's resume flight — a live query either joins this build or this
  // build joins it, never a duplicate sweep. A completed key reads
  // complete to every later line that names it, which dedupes the pass.
  for (const std::string& line : AccessLines()) {
    if (service_.Pending() > 0) break;  // live traffic: the pool is not idle
    const std::shared_ptr<const PreparedQuery> recipe = PrepareLoggedLine(line);
    if (recipe == nullptr) continue;
    const std::string& key = recipe->spec.key;
    const std::shared_ptr<const SubTransitionGraph> cached =
        service_.cache().Peek(key);
    if (cached != nullptr && cached->complete()) continue;
    if (cached == nullptr) {
      // Nothing in memory: only a *partial* persisted entry needs work
      // (a complete one is prewarm's business, not completion's).
      if (!store) continue;
      const GraphStore::KeyProgress progress = store->PeekKey(key);
      if (!progress.found || progress.cursor.phase == kCursorPhaseComplete) {
        continue;
      }
    }
    try {
      const QueryResult completed = service_.Submit(recipe, nullptr).get();
      if (completed.ok) ++result.partials_completed;
    } catch (const std::exception&) {
      break;  // service shutting down underneath the pass
    }
  }

  if (options_.store_max_bytes > 0 || options_.store_max_files > 0) {
    result.sweep_files_removed =
        service_
            .SweepStore(options_.store_max_bytes, options_.store_max_files)
            .files_removed;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.passes;
    stats_.partials_completed += result.partials_completed;
  }
  return result;
}

std::uint64_t MaintenanceLoop::Prewarm() {
  std::uint64_t loads = 0;
  for (const std::string& line : AccessLines()) {
    const std::shared_ptr<const PreparedQuery> recipe = PrepareLoggedLine(line);
    if (recipe == nullptr) continue;
    const GraphSpec& spec = recipe->spec;
    if (service_.cache().Lookup(spec.key, spec.backend->schema(), spec.guards,
                                spec.k) != nullptr) {
      ++loads;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.prewarm_loads += loads;
  return loads;
}

void MaintenanceLoop::RecordAccess(std::string_view line) {
  RecordAccess(IdentifyLine(line));
}

void MaintenanceLoop::RecordAccess(const LineIdentity& identity) {
  if (options_.access_log_capacity == 0 || identity.rest.empty()) return;
  // Lines that differ only in a leading numeric id ask the same query:
  // keep one id-less line for them.
  std::string id_less = identity.IdLess();
  std::lock_guard<std::mutex> lock(access_mutex_);
  auto it = access_index_.find(id_less);
  if (it != access_index_.end()) {
    // Re-accessed: move to the warm end so eviction drops colder lines.
    access_lines_.splice(access_lines_.end(), access_lines_, it->second);
  } else {
    if (access_lines_.size() >= options_.access_log_capacity) {
      access_index_.erase(access_lines_.front());
      access_lines_.pop_front();
    }
    access_lines_.push_back(std::move(id_less));
    access_index_.emplace(access_lines_.back(),
                          std::prev(access_lines_.end()));
  }
  access_dirty_ = true;
}

void MaintenanceLoop::FlushAccessLog() {
  if (options_.store_dir.empty()) return;
  std::string log;
  {
    std::lock_guard<std::mutex> lock(access_mutex_);
    if (!access_dirty_) return;
    for (const std::string& line : access_lines_) {
      log += line;
      log += '\n';
    }
    access_dirty_ = false;
  }
  if (!WriteFileAtomically(AccessLogPath(), log)) {
    // Disk trouble: the old log stays, and the next pass retries.
    std::lock_guard<std::mutex> lock(access_mutex_);
    access_dirty_ = true;
  }
}

MaintenanceStats MaintenanceLoop::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace amalgam
