#include "sim/sharded_engine.hh"

#include <cstring>
#include <string>

#include "common/log.hh"
#include "obs/trace.hh"

namespace psoram {

namespace {

std::vector<PsOramController *>
systemControllers(ShardedSystem &system)
{
    std::vector<PsOramController *> controllers;
    controllers.reserve(system.numShards());
    for (unsigned k = 0; k < system.numShards(); ++k)
        controllers.push_back(&system.controller(k));
    return controllers;
}

} // namespace

ShardedOramEngine::ShardedOramEngine(ShardedSystem &system, Config config)
    : ShardedOramEngine(system.router, systemControllers(system),
                        std::move(config))
{
}

ShardedOramEngine::ShardedOramEngine(
    const ShardRouter &router,
    std::vector<PsOramController *> controllers, Config config)
    : router_(router), config_(config)
{
    if (controllers.size() != router_.numShards())
        PSORAM_PANIC("router expects ", router_.numShards(),
                     " shards, got ", controllers.size(),
                     " controllers");
    if (config_.pipeline_depth > 1)
        PSORAM_FATAL("pipeline_depth must be 0 or 1 (got ",
                     config_.pipeline_depth, ")");
    EngineConfig inner;
    inner.coalesce = config_.coalesce;
    // Workers hand completions to the drain thread; the inner engines
    // must not also retain them.
    inner.record_completions = false;
    workers_.reserve(controllers.size());
    for (unsigned k = 0; k < controllers.size(); ++k) {
        auto worker = std::make_unique<Worker>();
        worker->shard = k;
        worker->controller = controllers[k];
        worker->engine =
            std::make_unique<OramEngine>(*controllers[k], inner);
        workers_.push_back(std::move(worker));
    }
    start();
}

void
ShardedOramEngine::start()
{
    drain_thread_ = std::thread([this] { drainLoop(); });
    for (auto &worker : workers_)
        worker->thread =
            std::thread([this, w = worker.get()] { workerLoop(*w); });
}

ShardedOramEngine::~ShardedOramEngine()
{
    for (auto &worker : workers_) {
        {
            std::lock_guard<std::mutex> lock(worker->mutex);
            worker->stop = true;
        }
        worker->cv.notify_all();
        worker->space_cv.notify_all();
    }
    for (auto &worker : workers_)
        worker->thread.join();
    {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        completion_stop_ = true;
    }
    completion_cv_.notify_all();
    drain_thread_.join();
}

ShardedOramEngine::RequestId
ShardedOramEngine::submit(BlockAddr addr, bool is_write,
                          const std::uint8_t *data, Callback callback)
{
    const ShardSlot slot = router_.route(addr);
    const RequestId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    Request request;
    request.id = id;
    request.global_addr = addr;
    request.local_addr = slot.local;
    request.is_write = is_write;
    if (is_write)
        std::memcpy(request.data.data(), data, kBlockDataBytes);
    request.callback = std::move(callback);

    submitted_.fetch_add(1, std::memory_order_relaxed);
    PSORAM_TRACE_INSTANT_ARG("engine",
                             is_write ? "submit_write" : "submit_read",
                             id, "shard",
                             static_cast<std::int64_t>(slot.shard));
    Worker &worker = *workers_[slot.shard];
    bool was_empty;
    {
        std::unique_lock<std::mutex> lock(worker.mutex);
        // Submit-side backpressure: block until the worker has swapped
        // the mailbox below the bound (or is shutting down), so an
        // open-loop producer cannot grow it without limit.
        if (worker.mailbox.size() >= config_.max_mailbox)
            ++worker.backpressure_waits;
        worker.space_cv.wait(lock, [&] {
            return worker.stop ||
                   worker.mailbox.size() < config_.max_mailbox;
        });
        was_empty = worker.mailbox.empty();
        worker.mailbox.push_back(std::move(request));
    }
    // The worker only ever waits on an empty mailbox (the predicate is
    // re-checked under the same mutex), so pushes onto a non-empty
    // mailbox never need a wake-up — mid-burst submissions just grow
    // the batch the worker will swap out next.
    if (was_empty)
        worker.cv.notify_one();
    return id;
}

ShardedOramEngine::RequestId
ShardedOramEngine::submitRead(BlockAddr addr, Callback callback)
{
    return submit(addr, false, nullptr, std::move(callback));
}

ShardedOramEngine::RequestId
ShardedOramEngine::submitWrite(BlockAddr addr, const std::uint8_t *data,
                               Callback callback)
{
    return submit(addr, true, data, std::move(callback));
}

void
ShardedOramEngine::workerLoop(Worker &worker)
{
    // One trace track per shard worker, named once at thread start.
    obs::TraceRecorder::setThreadName(
        "shard" + std::to_string(worker.shard) + ".worker");
    for (;;) {
        std::deque<Request> batch;
        {
            std::unique_lock<std::mutex> lock(worker.mutex);
            worker.cv.wait(lock, [&] {
                return worker.stop || !worker.mailbox.empty();
            });
            if (worker.mailbox.empty() && worker.stop)
                return;
            batch.swap(worker.mailbox);
        }
        // The swap freed the whole mailbox; wake submitters parked on
        // the max_mailbox bound.
        worker.space_cv.notify_all();
        // Feed the whole batch into the shard engine so back-to-back
        // same-block requests coalesce exactly as in the single-shard
        // stack, then run it to completion. Only this thread touches
        // the shard's controller, stash and device.
        //
        // Requests with no callback when completion records are off
        // skip the drain thread entirely: nothing would observe the
        // Completion, so copying it through the queue (plus a cv
        // wakeup per request) would be pure overhead. They are counted
        // in one batched idle update after the engine drains.
        std::uint64_t fire_and_forget = 0;
        for (Request &request : batch) {
            const bool silent =
                !request.callback && !config_.record_completions;
            if (silent)
                ++fire_and_forget;
            auto wrapped = silent
                ? OramEngine::Callback()
                : OramEngine::Callback(
                      [this, id = request.id,
                       global = request.global_addr,
                       shard = worker.shard,
                       callback = std::move(request.callback)](
                          const OramEngine::Completion &inner) {
                          Completion out;
                          out.id = id;
                          out.addr = global;
                          out.shard = shard;
                          out.local_addr = inner.addr;
                          out.is_write = inner.is_write;
                          out.coalesced = inner.coalesced;
                          out.latency_cycles = inner.latency_cycles;
                          out.info = inner.info;
                          out.data = inner.data;
                          deliver(std::move(out), std::move(callback));
                      });
            // Force the outer request id onto the inner engine so the
            // shard controller's phase events carry the id the caller
            // observed at submit time.
            if (request.is_write)
                worker.engine->submitWrite(request.local_addr,
                                           request.data.data(),
                                           std::move(wrapped),
                                           request.id);
            else
                worker.engine->submitRead(request.local_addr,
                                          std::move(wrapped),
                                          request.id);
        }
        worker.engine->drain();
        if (fire_and_forget != 0) {
            {
                std::lock_guard<std::mutex> lock(idle_mutex_);
                completed_ += fire_and_forget;
            }
            idle_cv_.notify_all();
        }
    }
}

void
ShardedOramEngine::deliver(Completion completion, Callback callback)
{
    {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        completion_queue_.push_back(
            Delivery{std::move(completion), std::move(callback)});
    }
    completion_cv_.notify_one();
}

void
ShardedOramEngine::drainLoop()
{
    obs::TraceRecorder::setThreadName("completions.drain");
    for (;;) {
        // Swap the whole queue per wakeup (condition-variable wait, no
        // spinning): a burst of completions costs one wakeup, one
        // records_ lock and one idle update instead of one of each per
        // completion.
        std::deque<Delivery> batch;
        {
            std::unique_lock<std::mutex> lock(completion_mutex_);
            completion_cv_.wait(lock, [&] {
                return completion_stop_ || !completion_queue_.empty();
            });
            if (completion_queue_.empty() && completion_stop_)
                return;
            batch.swap(completion_queue_);
        }
        for (Delivery &delivery : batch)
            if (delivery.callback)
                delivery.callback(delivery.completion);
        if (config_.record_completions) {
            std::lock_guard<std::mutex> lock(records_mutex_);
            for (Delivery &delivery : batch)
                records_.push_back(std::move(delivery.completion));
        }
        {
            std::lock_guard<std::mutex> lock(idle_mutex_);
            completed_ += batch.size();
        }
        idle_cv_.notify_all();
    }
}

void
ShardedOramEngine::drain()
{
    std::unique_lock<std::mutex> lock(idle_mutex_);
    idle_cv_.wait(lock, [&] {
        return completed_ == submitted_.load(std::memory_order_relaxed);
    });
}

std::uint64_t
ShardedOramEngine::pending() const
{
    std::lock_guard<std::mutex> lock(idle_mutex_);
    return submitted_.load(std::memory_order_relaxed) - completed_;
}

std::vector<ShardedOramEngine::Completion>
ShardedOramEngine::takeCompletions()
{
    std::vector<Completion> out;
    std::lock_guard<std::mutex> lock(records_mutex_);
    out.swap(records_);
    return out;
}

ShardedOramEngine::StatsSnapshot
ShardedOramEngine::shardStats(unsigned shard) const
{
    const Worker &worker = *workers_.at(shard);
    const OramEngine::Stats &inner = worker.engine->stats();
    StatsSnapshot snap;
    snap.submitted = inner.submitted.value();
    snap.completed = inner.completed.value();
    snap.physical_accesses = inner.physical_accesses.value();
    snap.coalesced = inner.coalesced.value();
    snap.controller_accesses = worker.controller->accessCount();
    snap.stash_hits = worker.controller->stashHits();
    snap.backpressure_waits = worker.backpressure_waits.value();
    return snap;
}

PhaseLatencyStats
ShardedOramEngine::mergedPhaseHostNs() const
{
    PhaseLatencyStats merged;
    for (const auto &worker : workers_)
        merged.merge(worker->controller->phaseHostNs());
    return merged;
}

PhaseLatencyStats
ShardedOramEngine::mergedPhaseSimCycles() const
{
    PhaseLatencyStats merged;
    for (const auto &worker : workers_)
        merged.merge(worker->controller->phaseSimCycles());
    return merged;
}

void
ShardedOramEngine::registerShardStats(unsigned shard,
                                      StatGroup &group) const
{
    const Worker &worker = *workers_.at(shard);
    worker.engine->registerStats(group);
    worker.controller->registerStats(group);
    group.addCounter("mailbox_backpressure_waits",
                     &worker.backpressure_waits,
                     "submits that parked on the full mailbox");
}

ShardedOramEngine::StatsSnapshot
ShardedOramEngine::stats() const
{
    StatsSnapshot total;
    for (unsigned k = 0; k < numShards(); ++k) {
        const StatsSnapshot shard = shardStats(k);
        total.submitted += shard.submitted;
        total.completed += shard.completed;
        total.physical_accesses += shard.physical_accesses;
        total.coalesced += shard.coalesced;
        total.controller_accesses += shard.controller_accesses;
        total.stash_hits += shard.stash_hits;
        total.backpressure_waits += shard.backpressure_waits;
    }
    return total;
}

} // namespace psoram
