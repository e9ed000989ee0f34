/**
 * @file
 * Observability-layer tests (src/obs/): the Chrome-trace recorder
 * (enable/disable contract, ring overwrite, per-thread tracks), phase
 * nesting of the controller's instrumentation through the single-shard
 * and sharded stacks, access-id correlation from submit to completion,
 * the JSON metrics exporter, and
 * concurrent recording while an exporter snapshots (the TSan job runs
 * every Obs* suite).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/sharded_engine.hh"
#include "sim/sharded_system.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

using obs::TraceEvent;
using obs::TraceRecorder;

/** Tear the global recorder back down after each test (the recorder is
 *  a process-wide singleton shared across the whole binary). */
struct RecorderGuard
{
    ~RecorderGuard()
    {
        TraceRecorder::instance().disable();
        TraceRecorder::instance().clear();
    }
};

SystemConfig
obsConfig(DesignKind design = DesignKind::PsOram)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 6;
    config.num_blocks = 120;
    config.stash_capacity = 64;
    config.seed = 23;
    return config;
}

std::vector<TraceEvent>
eventsNamed(const std::vector<TraceEvent> &events, const char *name)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &event : events)
        if (std::string(event.name) == name)
            out.push_back(event);
    return out;
}

TEST(ObsTrace, DisabledSitesRecordNothing)
{
    RecorderGuard guard;
    TraceRecorder::instance().disable();
    TraceRecorder::instance().clear();

    PSORAM_TRACE_INSTANT("test", "ghost", 1);
    {
        PSORAM_TRACE_SCOPE("test", "ghost_scope", 2);
    }
    EXPECT_TRUE(TraceRecorder::instance().snapshot().empty());
    EXPECT_FALSE(TraceRecorder::enabled());
}

TEST(ObsTrace, RecordsInstantAndCompleteEvents)
{
    RecorderGuard guard;
    TraceRecorder::instance().enable();

    {
        PSORAM_TRACE_SCOPE("test", "outer", 7);
        PSORAM_TRACE_INSTANT_ARG("test", "marker", 7, "value", 42);
    }

    const auto events = TraceRecorder::instance().snapshot();
    const auto outers = eventsNamed(events, "outer");
    const auto markers = eventsNamed(events, "marker");
    ASSERT_EQ(outers.size(), 1u);
    ASSERT_EQ(markers.size(), 1u);
    EXPECT_EQ(outers[0].phase, 'X');
    EXPECT_EQ(outers[0].id, 7u);
    EXPECT_EQ(markers[0].phase, 'i');
    EXPECT_STREQ(markers[0].arg_name, "value");
    EXPECT_EQ(markers[0].arg, 42);
    // The instant fired inside the scope's window.
    EXPECT_GE(markers[0].ts_ns, outers[0].ts_ns);
    EXPECT_LE(markers[0].ts_ns, outers[0].ts_ns + outers[0].dur_ns);
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDrops)
{
    RecorderGuard guard;
    TraceRecorder::instance().enable(16);

    for (int i = 0; i < 100; ++i)
        PSORAM_TRACE_INSTANT_ARG("test", "tick", 0, "i", i);

    const auto events = TraceRecorder::instance().snapshot();
    EXPECT_EQ(events.size(), 16u);
    EXPECT_EQ(TraceRecorder::instance().droppedEvents(), 84u);
    // The survivors are the *latest* 84..99 (oldest overwritten).
    for (const TraceEvent &event : events)
        EXPECT_GE(event.arg, 84);
}

TEST(ObsTrace, SingleShardPhaseEventsNestWithinTheirAccess)
{
    RecorderGuard guard;
    TraceRecorder::instance().enable();

    System system = buildSystem(obsConfig());
    ShardedOramEngine engine(ShardRouter({1}, system.params.num_blocks),
                             {system.controller.get()});
    for (BlockAddr addr = 0; addr < 60; ++addr) {
        std::uint8_t buf[kBlockDataBytes] = {
            static_cast<std::uint8_t>(addr)};
        engine.submitWrite(addr, buf);
    }
    engine.drain();

    const auto events = TraceRecorder::instance().snapshot();
    const auto accesses = eventsNamed(events, "access");
    ASSERT_FALSE(accesses.empty());

    // Every phase event sits inside the access event that carries the
    // same correlation id, on the same track.
    const char *const phase_names[] = {"remap", "load", "backup",
                                       "evict", "drain"};
    std::size_t phase_events = 0;
    for (const char *name : phase_names) {
        for (const TraceEvent &phase : eventsNamed(events, name)) {
            ++phase_events;
            bool contained = false;
            for (const TraceEvent &access : accesses) {
                if (access.id != phase.id || access.tid != phase.tid)
                    continue;
                if (phase.ts_ns >= access.ts_ns &&
                    phase.ts_ns + phase.dur_ns <=
                        access.ts_ns + access.dur_ns) {
                    contained = true;
                    break;
                }
            }
            EXPECT_TRUE(contained)
                << name << " event (id " << phase.id
                << ") not nested in its access";
        }
    }
    // The full path ran remap/load/backup/evict for every access.
    EXPECT_GE(phase_events, accesses.size() * 4);

    // Engine-side correlation: every access id also has submit and
    // complete markers.
    std::set<std::uint64_t> submit_ids;
    for (const TraceEvent &s : eventsNamed(events, "submit_write"))
        submit_ids.insert(s.id);
    std::set<std::uint64_t> complete_ids;
    for (const TraceEvent &c : eventsNamed(events, "complete"))
        complete_ids.insert(c.id);
    for (const TraceEvent &access : accesses) {
        EXPECT_TRUE(submit_ids.count(access.id));
        EXPECT_TRUE(complete_ids.count(access.id));
    }
}

TEST(ObsTrace, WritesWellFormedChromeTraceJson)
{
    RecorderGuard guard;
    TraceRecorder::instance().enable();

    System system = buildSystem(obsConfig());
    std::uint8_t buf[kBlockDataBytes] = {};
    for (BlockAddr addr = 0; addr < 8; ++addr)
        system.controller->write(addr, buf);

    const std::string path = "trace_obs_test.json";
    ASSERT_TRUE(TraceRecorder::instance().writeTo(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    std::remove(path.c_str());

    // Structural spot checks (CI additionally runs a real JSON parse
    // over the perf-smoke artifact).
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"access\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": "), std::string::npos);
    EXPECT_NE(json.find("\"dur\": "), std::string::npos);
    EXPECT_EQ(json.find("\n]}"), json.size() - 4);
    // Balanced braces — cheap well-formedness proxy.
    long depth = 0;
    for (const char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(ObsTraceSharded, WorkersGetDistinctNamedTracksAndIdsCorrelate)
{
    RecorderGuard guard;
    TraceRecorder::instance().enable();

    ShardedSystemConfig config;
    config.base = obsConfig();
    config.sharding.num_shards = 4;
    ShardedSystem sharded = buildShardedSystem(config);

    std::set<std::uint64_t> submitted;
    {
        ShardedOramEngine engine(sharded);
        std::uint8_t buf[kBlockDataBytes] = {};
        for (BlockAddr addr = 0; addr < 80; ++addr)
            submitted.insert(engine.submitWrite(addr, buf));
        engine.drain();
    } // join workers so all buffers are quiescent

    // One named track per shard worker plus the completion drain.
    // (>=: when the whole binary runs in one process, earlier tests'
    // dead worker threads leave their named buffers registered too.)
    std::set<std::string> names;
    std::set<std::uint32_t> worker_tids;
    for (const auto &[tid, name] : TraceRecorder::instance().threadNames()) {
        names.insert(name);
        if (name.rfind("shard", 0) == 0) {
            EXPECT_TRUE(worker_tids.insert(tid).second)
                << "duplicate tid for " << name;
        }
    }
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_TRUE(names.count("shard" + std::to_string(k) + ".worker"));
    EXPECT_TRUE(names.count("completions.drain"));
    EXPECT_GE(worker_tids.size(), 4u);

    const auto events = TraceRecorder::instance().snapshot();

    // Submit markers carry the caller's ids; the matching access events
    // run on a *worker* track with the same (forced) id.
    std::set<std::uint64_t> submit_ids;
    std::uint32_t submit_tid = 0;
    for (const TraceEvent &s : eventsNamed(events, "submit_write")) {
        submit_ids.insert(s.id);
        submit_tid = s.tid;
    }
    EXPECT_EQ(submit_ids, submitted);

    std::set<std::uint64_t> access_ids;
    for (const TraceEvent &access : eventsNamed(events, "access")) {
        EXPECT_TRUE(submitted.count(access.id))
            << "access id " << access.id << " never submitted";
        EXPECT_TRUE(worker_tids.count(access.tid))
            << "access ran off the worker tracks";
        EXPECT_NE(access.tid, submit_tid);
        access_ids.insert(access.id);
    }
    EXPECT_FALSE(access_ids.empty());
}

TEST(ObsTraceSharded, ConcurrentRecordingWhileExporterSnapshots)
{
    RecorderGuard guard;
    TraceRecorder::instance().enable(1024);

    // Stats mutated by the recorders, snapshotted by the exporter.
    Counter ticks;
    Distribution latencies;
    StatGroup group("concurrent");
    group.addCounter("ticks", &ticks, "events emitted");
    group.addDistribution("latency", &latencies, "synthetic latency");
    obs::MetricsExporter exporter;
    exporter.addGroup(&group);

    // 4 "shard" threads record + sample while the main thread snapshots
    // the trace and serializes metrics. TSan must see no race.
    std::atomic<bool> stop{false};
    std::vector<std::thread> shards;
    for (unsigned k = 0; k < 4; ++k) {
        shards.emplace_back([k, &stop, &ticks, &latencies] {
            TraceRecorder::setThreadName("conc" + std::to_string(k) +
                                         ".recorder");
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                PSORAM_TRACE_SCOPE("test", "work", ++i);
                PSORAM_TRACE_INSTANT("test", "tick", i);
                ++ticks;
                latencies.sample(static_cast<double>(i % 97));
            }
        });
    }

    // Keep snapshotting until the recorders have demonstrably run a
    // while (50 rounds alone can finish before the threads schedule).
    for (int round = 0; round < 50 || ticks.value() < 1000; ++round) {
        const auto events = TraceRecorder::instance().snapshot();
        for (const TraceEvent &event : events)
            ASSERT_NE(event.name, nullptr);
        std::ostringstream json;
        exporter.writeJson(json);
        EXPECT_NE(json.str().find("\"ticks\""), std::string::npos);
        (void)TraceRecorder::instance().droppedEvents();
        std::this_thread::yield();
    }

    stop.store(true);
    for (std::thread &t : shards)
        t.join();

    EXPECT_GT(ticks.value(), 0u);
    EXPECT_GE(TraceRecorder::instance().threadNames().size(), 4u);
}

TEST(ObsMetrics, JsonSnapshotCoversCountersAndDistributions)
{
    Counter hits;
    ++hits;
    ++hits;
    Distribution lat;
    lat.sample(2.0);
    lat.sample(4.0);
    StatGroup group("demo");
    group.addCounter("hits", &hits, "hit count");
    group.addDistribution("lat", &lat, "latency");

    obs::MetricsExporter exporter;
    exporter.addGroup(&group);
    EXPECT_EQ(exporter.numGroups(), 1u);
    exporter.addGroup(&group); // idempotent
    EXPECT_EQ(exporter.numGroups(), 1u);

    std::ostringstream out;
    exporter.writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"name\": \"demo\""), std::string::npos);
    EXPECT_NE(json.find("\"hits\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"sum\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"mean\": 3"), std::string::npos);
}

TEST(ObsStats, CounterCopyIsATearFreeSnapshot)
{
    Counter live;
    live += 41;
    ++live;
    Counter copy(live);
    EXPECT_EQ(copy.value(), 42u);
    ++live; // the copy is detached
    EXPECT_EQ(copy.value(), 42u);
    EXPECT_EQ(live.value(), 43u);

    copy = live; // assignment replaces, never merges
    EXPECT_EQ(copy.value(), 43u);
}

TEST(ObsStats, StatGroupSnapshotIsConsistent)
{
    Counter c;
    c += 3;
    Distribution d;
    d.sample(10.0);
    d.sample(20.0);
    StatGroup group("snap");
    group.addCounter("c", &c, "counter");
    group.addDistribution("d", &d, "dist");

    const StatGroup::Snapshot snap = group.snapshot();
    EXPECT_EQ(snap.name, "snap");
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, 3u);
    ASSERT_EQ(snap.dists.size(), 1u);
    EXPECT_EQ(snap.dists[0].stats.count, 2u);
    EXPECT_DOUBLE_EQ(snap.dists[0].stats.sum, 30.0);
    EXPECT_DOUBLE_EQ(snap.dists[0].stats.mean(), 15.0);
}

} // namespace
} // namespace psoram
