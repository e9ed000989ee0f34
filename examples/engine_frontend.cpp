/**
 * @file
 * Engine frontend demo: queue asynchronous reads/writes on a one-shard
 * ShardedOramEngine, let its worker coalesce back-to-back accesses to
 * one hot block inside a mailbox batch, and compare the tree traffic
 * with an uncoalesced twin.
 *
 *   $ ./example_engine_frontend
 */

#include <cstring>
#include <future>
#include <iomanip>
#include <iostream>
#include <string>

#include "sim/sharded_engine.hh"
#include "sim/system.hh"

using namespace psoram;

namespace {

SystemConfig
demoConfig()
{
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = 10;
    config.cipher = CipherKind::Aes128Ctr;
    config.seed = 99;
    return config;
}

void
submitHotLoop(ShardedOramEngine &engine, int repeats)
{
    std::uint8_t block[kBlockDataBytes] = {};
    std::memcpy(block, "hot block", 9);
    engine.submitWrite(7, block);
    for (int i = 0; i < repeats; ++i)
        engine.submitRead(7); // back-to-back: coalescable
    engine.submitRead(3);     // different block: new physical access
}

/**
 * Submit a first read of block 7, then the hot loop while the worker is
 * still inside that read's path access. A worker swaps its whole
 * mailbox as one batch, so the hot loop runs as one batch — what a busy
 * shard sees under load, made deterministic here.
 */
void
submitBehindBusyWorker(ShardedOramEngine &engine, PsOramController &ctrl,
                       ShardedOramEngine::Callback first_callback)
{
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    ctrl.setPathObserver([&, first = true](PathId) mutable {
        if (!first)
            return;
        first = false;
        entered.set_value();
        released.wait();
    });
    engine.submitRead(7, std::move(first_callback));
    entered.get_future().wait();
    submitHotLoop(engine, 3);
    release.set_value();
    engine.drain();
    ctrl.setPathObserver(nullptr);
}

} // namespace

int
main()
{
    // 1. Build a system and put a one-shard engine in front of it.
    System system = buildSystem(demoConfig());
    ShardedOramEngine engine(ShardRouter({1}, system.params.num_blocks),
                             {system.controller.get()});

    // 2. Submission returns at once; the shard worker runs the requests
    //    and completions arrive via callbacks (on the engine's drain
    //    thread) or takeCompletions().
    std::cout << "submitting...\n";
    submitBehindBusyWorker(
        engine, *system.controller,
        [](const ShardedOramEngine::Completion &c) {
            std::cout << "  request " << c.id << " addr " << c.addr
                      << (c.coalesced ? " (coalesced)" : " (physical)")
                      << " latency " << c.latency_cycles
                      << " cycles\n";
        });

    const ShardedOramEngine::StatsSnapshot stats = engine.stats();
    std::cout << "\ncompleted " << stats.completed << " requests with "
              << stats.physical_accesses << " physical accesses ("
              << stats.coalesced << " coalesced away)\n";
    // Reads observe the block as of their queue position: the opening
    // read predates the write, the coalesced ones see its folded value.
    for (const auto &c : engine.takeCompletions())
        if (!c.is_write && c.addr == 7)
            std::cout << "  read " << c.id
                      << (c.coalesced ? " (coalesced)" : " (physical)")
                      << " of addr 7: \""
                      << reinterpret_cast<const char *>(c.data.data())
                      << "\"\n";

    // 3. The same request stream without coalescing: every duplicate
    //    read pays a full path load + eviction.
    System twin = buildSystem(demoConfig());
    ShardedEngineConfig raw;
    raw.coalesce = false;
    ShardedOramEngine uncoalesced(ShardRouter({1}, twin.params.num_blocks),
                                  {twin.controller.get()}, raw);
    submitBehindBusyWorker(uncoalesced, *twin.controller, nullptr);

    const TrafficCounts fast = system.controller->traffic();
    const TrafficCounts slow = twin.controller->traffic();
    std::cout << "\nNVM line traffic (reads+writes):\n"
              << "  coalescing on:  " << std::setw(6)
              << fast.reads + fast.writes << "\n"
              << "  coalescing off: " << std::setw(6)
              << slow.reads + slow.writes << "\n";
    return 0;
}
