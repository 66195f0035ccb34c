#include "src/net/executor.h"

#include <utility>

#include "src/analysis/plan_analyzer.h"

namespace bunshin {
namespace net {

namespace {

std::unique_ptr<support::ThreadPool> MakeWorkerPool(const ExecutorOptions& options) {
  support::ThreadPool::Options pool_options;
  pool_options.n_workers = options.n_workers;
  pool_options.pin_threads = options.pin_threads;
  return std::make_unique<support::ThreadPool>(pool_options);
}

}  // namespace

ExecutorServer::ExecutorServer(const ExecutorOptions& options)
    : options_(options),
      plan_cache_(options.plan_cache_capacity),
      engine_pool_(options.engine_pool_capacity == 0
                       ? nullptr
                       : std::make_shared<nxe::EnginePool>(options.engine_pool_capacity,
                                                           options.plan_cache_capacity)),
      pool_(MakeWorkerPool(options)) {}

ExecutorServer::~ExecutorServer() { Stop(); }

void ExecutorServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!stopped_) {
    return;
  }
  stopped_ = false;
  // A restarted daemon is a fresh process: its plan cache starts cold.
  plan_cache_.Clear();
  if (pool_ == nullptr) {
    pool_ = MakeWorkerPool(options_);
  }
}

void ExecutorServer::Stop() {
  std::unordered_map<uint64_t, Connection> connections;
  std::vector<std::thread> finished;
  std::unique_ptr<support::TcpListener> listener;
  std::thread accept_thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    connections.swap(connections_);
    finished.swap(finished_);
    listener = std::move(listener_);
    accept_thread = std::move(accept_thread_);
  }
  // Close everything first (wakes blocked reads on both ends — the peer of a
  // mid-run connection observes kUnavailable, exactly like a killed daemon),
  // then join the serve threads.
  if (listener != nullptr) {
    listener->Close();
  }
  for (const auto& [id, connection] : connections) {
    connection.socket->Close();
  }
  for (auto& [id, connection] : connections) {
    connection.thread.join();
  }
  for (auto& thread : finished) {
    thread.join();
  }
  if (accept_thread.joinable()) {
    accept_thread.join();
  }
}

Status ExecutorServer::ListenTcp(uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    return FailedPrecondition("executor is stopped; Start() first");
  }
  if (listener_ != nullptr) {
    return AlreadyExists("executor is already listening on port " + std::to_string(port_));
  }
  auto listener = std::make_unique<support::TcpListener>();
  Status status = listener->Listen(port);
  if (!status.ok()) {
    return status;
  }
  port_ = listener->port();
  listener_ = std::move(listener);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ExecutorServer::AcceptLoop() {
  for (;;) {
    support::TcpListener* listener;
    {
      std::lock_guard<std::mutex> lock(mu_);
      listener = listener_.get();
      if (stopped_ || listener == nullptr) {
        return;
      }
    }
    StatusOr<std::unique_ptr<support::Socket>> accepted = listener->Accept();
    if (!accepted.ok()) {
      return;  // listener closed by Stop()
    }
    StartConnection(std::move(*accepted));
  }
}

StatusOr<std::unique_ptr<support::Socket>> ExecutorServer::ConnectLoopback() {
  auto [client, server] = support::LoopbackSocketPair();
  if (!StartConnection(std::move(server))) {
    return Unavailable("executor is stopped");
  }
  return std::move(client);
}

bool ExecutorServer::StartConnection(std::shared_ptr<support::Socket> socket) {
  std::vector<std::thread> reaped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      socket->Close();
      return false;
    }
    reaped.swap(finished_);
    // The thread cannot finish before its entry exists: FinishConnection
    // takes mu_, held here until the entry is in.
    const uint64_t id = next_connection_id_++;
    std::thread thread([this, id, socket] {
      ServeConnection(*socket);
      FinishConnection(id);
    });
    connections_.emplace(id, Connection{std::move(socket), std::move(thread)});
  }
  // Threads that already left FinishConnection; each join returns at once.
  for (auto& thread : reaped) {
    thread.join();
  }
  return true;
}

void ExecutorServer::FinishConnection(uint64_t id) {
  Connection finished;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;  // Stop() took the entry and joins this thread
  }
  finished = std::move(it->second);
  connections_.erase(it);
  // This thread cannot join itself; the next connection (or Stop()) does.
  finished_.push_back(std::move(finished.thread));
  // `finished.socket` drops the table's reference here; the serve lambda's
  // copy goes when this thread returns, closing the connection's fd.
}

void ExecutorServer::ServeConnection(support::Socket& socket) {
  for (;;) {
    StatusOr<Frame> frame = ReadFrame(socket);
    if (!frame.ok()) {
      return;  // peer done, Stop(), or an unrecoverable framing error
    }
    Frame reply;
    reply.request_id = frame->request_id;
    switch (frame->type) {
      case MessageType::kPing:
        reply.type = MessageType::kPong;
        reply.payload = EncodeOccupancy(occupancy());
        break;
      case MessageType::kRunRequest:
        reply.type = MessageType::kRunReply;
        reply.payload = EncodeRunReplyMsg(HandleRun(frame->payload));
        break;
      default: {
        // A reply-typed frame from a client is a protocol violation; answer
        // with a definite error so the peer never hangs.
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        RunReplyMsg error;
        error.run_status = InvalidArgument("unexpected message type on an executor connection");
        error.occupancy = occupancy();
        reply.type = MessageType::kRunReply;
        reply.payload = EncodeRunReplyMsg(error);
        break;
      }
    }
    if (!WriteFrame(socket, reply).ok()) {
      return;
    }
  }
}

RunReplyMsg ExecutorServer::HandleRun(const std::string& payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  RunReplyMsg reply;

  StatusOr<RunRequestMsg> msg = DecodeRunRequestMsg(payload);
  if (!msg.ok()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    reply.run_status = msg.status();
    reply.occupancy = occupancy();
    return reply;
  }

  // Plan resolution through the local cache: repeat plans (the common case —
  // one hot plan, many runs) skip decode and validation entirely. The
  // factory re-verifies that the decoded plan's own CacheKey matches the
  // claimed wire key, so a request cannot poison the cache under a false key.
  // The factory and the pool task below reference msg's fields directly:
  // msg outlives both, since this call blocks until the task is done.
  bool was_hit = false;
  StatusOr<std::shared_ptr<const api::VariantPlan>> plan = plan_cache_.GetOrPlan(
      msg->cache_key,
      [&msg, this]() -> StatusOr<api::VariantPlan> {
        StatusOr<api::VariantPlan> decoded = DecodeVariantPlan(msg->plan_bytes);
        if (!decoded.ok()) {
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          return decoded.status();
        }
        if (decoded->CacheKey() != msg->cache_key) {
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          return InvalidArgument(
              "wire: request cache_key does not match the decoded plan's CacheKey");
        }
        // The wire is a trust boundary: a syntactically valid plan can still
        // be hostile (under-covered subsets, conflicting sanitizer groups,
        // deadlock-shaped configs). Run the full static analyzer before the
        // plan is cached or any backend is built from it; rejection is a
        // factory error, so a bad plan never occupies a cache slot.
        analysis::AnalysisReport report = analysis::AnalyzePlan(*decoded);
        if (!report.ok()) {
          analysis_rejects_.fetch_add(1, std::memory_order_relaxed);
          return InvalidArgument("wire: plan rejected by static analysis: " + report.Summary() +
                                 "\n" + report.Render());
        }
        decoded->analysis =
            std::make_shared<const analysis::AnalysisReport>(std::move(report));
        return decoded;
      },
      &was_hit);
  if (was_hit) {
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!plan.ok()) {
    // The factory counted the failure where it happened (decode_errors_ or
    // analysis_rejects_), so a request is never counted twice.
    reply.run_status = plan.status();
    reply.occupancy = occupancy();
    return reply;
  }
  if ((*plan)->n_variants() != msg->n_variants) {
    reply.run_status =
        InvalidArgument("wire: request n_variants " + std::to_string(msg->n_variants) +
                        " does not match the plan's " + std::to_string((*plan)->n_variants()));
    reply.occupancy = occupancy();
    return reply;
  }

  StatusOr<std::unique_ptr<api::Backend>> backend =
      api::MakeTraceBackend(*plan, msg->members, msg->owns_baseline, engine_pool_);
  if (!backend.ok()) {
    reply.run_status = backend.status();
    reply.occupancy = occupancy();
    return reply;
  }

  // Execute on the pool; the connection thread blocks for the result (each
  // connection serves its requests in order; concurrency comes from many
  // connections sharing the pool). queue_depth/in_flight are the occupancy
  // feedback the dispatcher's routing consumes.
  const api::Backend* run_backend = backend->get();
  const api::RunRequest& request = msg->request;
  StatusOr<api::PartialReport> partial = Status(StatusCode::kInternal, "not executed");
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  pool_->Submit([&] {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    StatusOr<api::PartialReport> result = run_backend->RunPartial(request);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(done_mu);
    partial = std::move(result);
    done = true;
    done_cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done; });
  }

  reply.occupancy = occupancy();
  reply.occupancy.plan_cache_hit = was_hit;
  if (!partial.ok()) {
    reply.run_status = partial.status();
    return reply;
  }
  reply.run_status = Status::Ok();
  reply.partial = std::move(*partial);
  return reply;
}

ExecutorOccupancy ExecutorServer::occupancy() const {
  ExecutorOccupancy occupancy;
  occupancy.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  occupancy.in_flight = in_flight_.load(std::memory_order_relaxed);
  occupancy.plans_cached = plan_cache_.stats().entries;
  if (engine_pool_ != nullptr) {
    const nxe::EnginePool::Stats pool_stats = engine_pool_->stats();
    occupancy.engine_pool_hits = pool_stats.hits;
    occupancy.engine_pool_misses = pool_stats.misses;
  }
  return occupancy;
}

ExecutorStats ExecutorServer::stats() const {
  ExecutorStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  stats.analysis_rejects = analysis_rejects_.load(std::memory_order_relaxed);
  return stats;
}

Endpoint LoopbackEndpoint(std::shared_ptr<ExecutorServer> server, std::string name) {
  Endpoint endpoint;
  endpoint.name = std::move(name);
  endpoint.dial = [server] { return server->ConnectLoopback(); };
  return endpoint;
}

}  // namespace net
}  // namespace bunshin
