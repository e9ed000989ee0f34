#include "serve/batch_scheduler.hh"

#include <cstring>

namespace psoram::serve {

BatchScheduler::BatchScheduler(ShardedOramEngine &engine)
    : engine_(engine)
{
}

void
BatchScheduler::submitRead(BlockAddr addr, Callback callback)
{
    ++stats_.reads;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto pending = pending_writes_.find(addr);
        if (pending != pending_writes_.end()) {
            Result result;
            result.addr = addr;
            result.coalesced = true;
            result.data = pending->second.data;
            ++stats_.forwarded_reads;
            lock.unlock();
            // Inline completion on the submitting thread: the value is
            // already known, no engine round-trip exists to defer to.
            if (callback)
                callback(result);
            return;
        }
        const auto inflight = inflight_reads_.find(addr);
        if (inflight != inflight_reads_.end()) {
            inflight->second.waiters.push_back(Waiter{std::move(callback)});
            ++stats_.deduped_reads;
            return;
        }
        inflight_reads_.emplace(addr, InflightRead{});
    }
    // Leader: the one submission that reaches the engine. Submitted
    // outside the lock — the engine applies submit-side backpressure
    // and may block; duplicate reads keep attaching meanwhile.
    ++stats_.engine_reads;
    engine_.submitRead(
        addr, [this, addr, callback = std::move(callback)](
                  const ShardedOramEngine::Completion &inner) mutable {
            completeLeader(addr, inner, std::move(callback));
        });
}

void
BatchScheduler::completeLeader(BlockAddr addr,
                               const ShardedOramEngine::Completion &inner,
                               Callback leader_callback)
{
    std::vector<Waiter> waiters;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = inflight_reads_.find(addr);
        if (it != inflight_reads_.end()) {
            waiters = std::move(it->second.waiters);
            inflight_reads_.erase(it);
        }
    }
    Result result;
    result.addr = addr;
    result.is_write = false;
    result.coalesced = false;
    result.data = inner.data;
    if (leader_callback)
        leader_callback(result);
    // Fan the one physical access out to every attached duplicate.
    result.coalesced = true;
    for (Waiter &waiter : waiters)
        if (waiter.callback)
            waiter.callback(result);
}

void
BatchScheduler::submitWrite(BlockAddr addr, const std::uint8_t *data,
                            Callback callback)
{
    ++stats_.writes;
    std::uint64_t seq;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        seq = ++write_seq_;
        PendingWrite &pending = pending_writes_[addr];
        std::memcpy(pending.data.data(), data, kBlockDataBytes);
        pending.seq = seq;
    }
    engine_.submitWrite(
        addr, data,
        [this, addr, seq, callback = std::move(callback)](
            const ShardedOramEngine::Completion &inner) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                const auto it = pending_writes_.find(addr);
                // Only the latest write retires the forwarding entry;
                // an older completion racing a newer submit must not
                // drop the newer payload.
                if (it != pending_writes_.end() &&
                    it->second.seq == seq)
                    pending_writes_.erase(it);
            }
            if (callback) {
                Result result;
                result.addr = addr;
                result.is_write = true;
                result.coalesced = inner.coalesced;
                result.data = inner.data;
                callback(result);
            }
        });
}

void
BatchScheduler::drain()
{
    // Forwarded reads complete inline at submit; everything else is an
    // engine request whose scheduler-side fan-out (waiters) runs inside
    // the engine callback — by the time the engine is idle every
    // scheduler callback has fired too.
    engine_.drain();
}

} // namespace psoram::serve
