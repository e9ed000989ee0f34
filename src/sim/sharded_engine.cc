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
    workers_.reserve(controllers.size());
    for (unsigned k = 0; k < controllers.size(); ++k) {
        auto worker = std::make_unique<Worker>();
        worker->shard = k;
        worker->controller = controllers[k];
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
        if (worker.mailbox.size() >= kMaxMailbox)
            ++worker.backpressure_waits;
        worker.space_cv.wait(lock, [&] {
            return worker.stop ||
                   worker.mailbox.size() < kMaxMailbox;
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
        // the kMaxMailbox bound.
        worker.space_cv.notify_all();
        runBatch(worker, batch);
    }
}

void
ShardedOramEngine::runBatch(Worker &worker, std::deque<Request> &batch)
{
    // Only this thread touches the shard's controller, stash and
    // device.
    PsOramController &ctrl = *worker.controller;
    worker.submitted += batch.size();
    // Completions not yet released, in request order.
    std::vector<Delivery> unreleased;
    std::uint64_t unobserved = 0;
    ctrl.beginGroup();
    for (std::size_t head = 0; head < batch.size();) {
        // The next coalescing run: the head request plus every
        // back-to-back successor addressing the same block.
        const BlockAddr addr = batch[head].local_addr;
        std::size_t end = head + 1;
        while (config_.coalesce && end < batch.size() &&
               batch[end].local_addr == addr)
            ++end;

        const Cycle start = ctrl.nowCycles();
        std::array<std::uint8_t, kBlockDataBytes> block{};
        OramAccessInfo info;
        // A run headed by a read must observe the pre-run block value,
        // so it opens with a physical read. A run headed by a write
        // squashes the old value (writes are full-block), so no read
        // is needed.
        if (!batch[head].is_write) {
            ctrl.setNextAccessId(batch[head].id);
            info = ctrl.read(addr, block.data());
            if (!info.stash_hit)
                ++worker.physical_accesses;
        }
        // Fold the run over the local copy: each request observes the
        // block as of its queue position (kept in its data field),
        // writes squash in order.
        bool any_write = false;
        for (std::size_t i = head; i < end; ++i) {
            if (batch[i].is_write) {
                block = batch[i].data;
                any_write = true;
            }
            batch[i].data = block;
        }
        // All folded writes land in one physical write of the final
        // value.
        if (any_write) {
            ctrl.setNextAccessId(batch[head].id);
            const OramAccessInfo winfo = ctrl.write(addr, block.data());
            if (!winfo.stash_hit)
                ++worker.physical_accesses;
            if (batch[head].is_write)
                info = winfo;
        }

        const Cycle latency = ctrl.nowCycles() - start;
        const bool older_waiting = !unreleased.empty();
        for (std::size_t i = head; i < end; ++i) {
            Request &request = batch[i];
            Delivery delivery;
            Completion &out = delivery.completion;
            out.id = request.id;
            out.addr = request.global_addr;
            out.shard = worker.shard;
            out.local_addr = request.local_addr;
            out.is_write = request.is_write;
            out.coalesced = i > head;
            out.latency_cycles = latency;
            out.info = info;
            out.data = request.data;
            delivery.callback = std::move(request.callback);
            unreleased.push_back(std::move(delivery));
        }
        // Nothing is acknowledged before it is durable: a completion
        // waits for the group's sync while one is pending (and behind
        // any that already wait, to keep the order).
        if (!older_waiting && !ctrl.commitPending())
            unobserved += release(worker, unreleased);
        head = end;
    }
    if (ctrl.endGroup(batch.size())) {
        ++worker.group_syncs;
        worker.group_requests += batch.size();
    }
    unobserved += release(worker, unreleased);
    if (unobserved != 0) {
        {
            std::lock_guard<std::mutex> lock(idle_mutex_);
            completed_ += unobserved;
        }
        idle_cv_.notify_all();
    }
}

std::uint64_t
ShardedOramEngine::release(Worker &worker,
                           std::vector<Delivery> &deliveries)
{
    // Requests with no callback when completion records are off skip
    // the drain thread entirely: nothing would observe the Completion,
    // so queueing it (plus a drain-thread wakeup) would be pure
    // overhead. The caller counts them in one batched idle update
    // after the group commits.
    const auto observed = [this](const Delivery &delivery) {
        return delivery.callback || config_.record_completions;
    };
    std::uint64_t unobserved = 0;
    for (const Delivery &delivery : deliveries) {
        ++worker.completed;
        if (delivery.completion.coalesced)
            ++worker.coalesced;
        PSORAM_TRACE_INSTANT("engine", "complete", delivery.completion.id);
        if (!observed(delivery))
            ++unobserved;
    }
    if (unobserved < deliveries.size()) {
        {
            std::lock_guard<std::mutex> lock(completion_mutex_);
            for (Delivery &delivery : deliveries)
                if (observed(delivery))
                    completion_queue_.push_back(std::move(delivery));
        }
        completion_cv_.notify_one();
    }
    deliveries.clear();
    return unobserved;
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
    StatsSnapshot snap;
    snap.submitted = worker.submitted.value();
    snap.completed = worker.completed.value();
    snap.physical_accesses = worker.physical_accesses.value();
    snap.coalesced = worker.coalesced.value();
    snap.controller_accesses = worker.controller->accessCount();
    snap.stash_hits = worker.controller->stashHits();
    snap.backpressure_waits = worker.backpressure_waits.value();
    snap.group_syncs = worker.group_syncs.value();
    snap.group_requests = worker.group_requests.value();
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
        total.group_syncs += shard.group_syncs;
        total.group_requests += shard.group_requests;
    }
    return total;
}

} // namespace psoram
