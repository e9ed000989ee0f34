#include "sim/engine.hh"

#include <cstring>
#include <utility>

#include "obs/trace.hh"

namespace psoram {

OramEngine::RequestId
OramEngine::submitRead(BlockAddr addr, Callback callback,
                       RequestId forced_id)
{
    Pending request;
    request.id = forced_id != 0 ? forced_id : next_id_++;
    request.addr = addr;
    request.is_write = false;
    request.callback = std::move(callback);
    queue_.push_back(std::move(request));
    ++stats_.submitted;
    // A forced id means an outer frontend already emitted the submit
    // marker on the caller's thread; don't double-count the event.
    if (forced_id == 0)
        PSORAM_TRACE_INSTANT("engine", "submit_read",
                             queue_.back().id);
    const RequestId id = queue_.back().id;
    backpressure();
    return id;
}

OramEngine::RequestId
OramEngine::submitWrite(BlockAddr addr, const std::uint8_t *data,
                        Callback callback, RequestId forced_id)
{
    Pending request;
    request.id = forced_id != 0 ? forced_id : next_id_++;
    request.addr = addr;
    request.is_write = true;
    std::memcpy(request.data.data(), data, kBlockDataBytes);
    request.callback = std::move(callback);
    queue_.push_back(std::move(request));
    ++stats_.submitted;
    if (forced_id == 0)
        PSORAM_TRACE_INSTANT("engine", "submit_write",
                             queue_.back().id);
    const RequestId id = queue_.back().id;
    backpressure();
    return id;
}

void
OramEngine::backpressure()
{
    // Bound the pending queue: an open-loop producer that outruns the
    // controller drives the engine inline until it is back under the
    // configured watermark, instead of growing the deque without limit.
    if (queue_.size() > kMaxPending)
        ++stats_.backpressure_stalls;
    while (queue_.size() > kMaxPending)
        poll();
}

void
OramEngine::finish(const Pending &request, bool coalesced, Cycle start,
                   const OramAccessInfo &info,
                   const std::array<std::uint8_t, kBlockDataBytes> &block)
{
    Completion completion;
    completion.id = request.id;
    completion.addr = request.addr;
    completion.is_write = request.is_write;
    completion.coalesced = coalesced;
    completion.latency_cycles = ctrl_.nowCycles() - start;
    completion.info = info;
    completion.data = block;
    // Nothing is acknowledged before it is durable: inside drain()'s
    // commit group a completion waits for the group's sync while one
    // is pending (and behind any that already wait, to keep the
    // order). Outside it each access was durable on return.
    if (!held_.empty() || ctrl_.commitPending())
        held_.emplace_back(std::move(completion), request.callback);
    else
        complete(std::move(completion), request.callback);
}

void
OramEngine::complete(Completion completion, const Callback &callback)
{
    ++stats_.completed;
    if (completion.coalesced)
        ++stats_.coalesced;
    PSORAM_TRACE_INSTANT("engine", "complete", completion.id);
    if (callback)
        callback(completion);
    if (config_.record_completions)
        completions_.push_back(std::move(completion));
}

std::size_t
OramEngine::poll()
{
    if (queue_.empty())
        return 0;

    // Pop the next coalescing run: the head request plus every
    // back-to-back successor addressing the same block.
    std::vector<Pending> batch;
    const BlockAddr addr = queue_.front().addr;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    while (config_.coalesce && !queue_.empty() &&
           queue_.front().addr == addr) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }

    const Cycle start = ctrl_.nowCycles();
    std::array<std::uint8_t, kBlockDataBytes> block{};
    OramAccessInfo info;

    // A run headed by a read must observe the pre-run block value, so
    // it opens with a physical read. A run headed by a write squashes
    // the old value (writes are full-block), so no read is needed.
    if (!batch.front().is_write) {
        ctrl_.setNextAccessId(batch.front().id);
        info = ctrl_.read(addr, block.data());
        if (!info.stash_hit)
            ++stats_.physical_accesses;
    }

    // Fold the run over the local copy: each request observes the block
    // as of its queue position, writes squash in order.
    std::vector<std::array<std::uint8_t, kBlockDataBytes>> observed;
    observed.reserve(batch.size());
    bool any_write = false;
    for (const Pending &request : batch) {
        if (request.is_write) {
            block = request.data;
            any_write = true;
        }
        observed.push_back(block);
    }

    // All folded writes land in one physical write of the final value.
    if (any_write) {
        ctrl_.setNextAccessId(batch.front().id);
        const OramAccessInfo winfo = ctrl_.write(addr, block.data());
        if (!winfo.stash_hit)
            ++stats_.physical_accesses;
        if (batch.front().is_write)
            info = winfo;
    }

    for (std::size_t i = 0; i < batch.size(); ++i)
        finish(batch[i], i > 0, start, info, observed[i]);

    return batch.size();
}

std::size_t
OramEngine::drain()
{
    std::size_t total = 0;
    ctrl_.beginGroup();
    while (!queue_.empty())
        total += poll();
    if (ctrl_.commitPending()) {
        const std::uint64_t sync0 = obs::hostNowNs();
        if (ctrl_.endGroup(total)) {
            stats_.group_size.sample(static_cast<double>(total));
            stats_.group_sync_ns.sample(
                static_cast<double>(obs::hostNowNs() - sync0));
        }
    } else {
        ctrl_.endGroup(total);
    }
    std::vector<std::pair<Completion, Callback>> held;
    held.swap(held_);
    for (auto &[completion, callback] : held)
        complete(std::move(completion), callback);
    return total;
}

std::vector<OramEngine::Completion>
OramEngine::takeCompletions()
{
    std::vector<Completion> out;
    out.swap(completions_);
    return out;
}

void
OramEngine::registerStats(StatGroup &group) const
{
    group.addCounter("submitted", &stats_.submitted,
                     "requests enqueued");
    group.addCounter("completed", &stats_.completed,
                     "completions delivered");
    group.addCounter("physical_accesses", &stats_.physical_accesses,
                     "controller accesses that touched the tree");
    group.addCounter("coalesced", &stats_.coalesced,
                     "requests absorbed into an earlier access");
    group.addCounter("backpressure_stalls", &stats_.backpressure_stalls,
                     "submits that hit the pending-queue bound");
    group.addDistribution("group_commit.size", &stats_.group_size,
                          "completions per commit group that synced "
                          "the device");
    group.addDistribution("group_commit.sync_ns", &stats_.group_sync_ns,
                          "host ns of one commit group's device sync");
}

} // namespace psoram
