/**
 * @file
 * Crash forensics: recovery-phase stats, the persistent flight recorder
 * ("black box"), and the obliviousness argument that lets the recorder
 * run in production configs.
 *
 *  - RecoveryStats identity: the six phase distributions are adjacent
 *    host-clock windows, so their sums equal the total EXACTLY (no
 *    epsilon) — the same invariant the CI schema gate checks on
 *    BENCH_recovery.json rows.
 *  - Trace spans: RecoveryManager::recover emits a "recovery" category
 *    timeline whose child phases nest inside the recover span.
 *  - Black box: ring round-trip through a real crash/recover cycle,
 *    torn-tail degradation (CRC-failed slots are counted and skipped,
 *    recovery still passes the I1–I5 invariant checker), and
 *    seq-resume across a file-backed reopen.
 *  - Transparency differential: with the digest restricted to the
 *    protocol address range, a run with the recorder on is
 *    byte-for-byte identical to a run with it off — the black box
 *    never perturbs tree traffic (the obliviousness argument,
 *    DESIGN.md §16).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nvm/device.hh"
#include "nvm/flight_recorder.hh"
#include "obs/trace.hh"
#include "sim/crash_enumerator.hh"
#include "sim/recovery_invariants.hh"
#include "sim/sharded_system.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = 4;
    config.bucket_slots = 4;
    config.num_blocks = 48;
    config.stash_capacity = 96;
    config.wpq_entries = 8;
    config.seed = 7;
    return config;
}

/** Drive a deterministic write-heavy trace, tracking the oracle. */
void
driveTrace(System &system, RecoveryOracle &oracle, std::size_t ops,
           std::uint64_t seed = 11)
{
    const std::vector<TraceOp> trace =
        makeCrashTrace(seed, ops, system.config.num_blocks, 0.7);
    std::uint8_t buf[kBlockDataBytes];
    for (const TraceOp &op : trace) {
        if (op.is_write) {
            stampPayload(op.addr, op.version, buf);
            system.controller->write(op.addr, buf);
            oracle.latest[op.addr] = op.version;
        } else {
            system.controller->read(op.addr, buf);
        }
    }
}

void
wireOracle(System &system, RecoveryOracle &oracle)
{
    system.controller->setCommitObserver(oracle.observer());
    system.setRebindHook([&oracle](PsOramController &ctrl) {
        ctrl.setCommitObserver(oracle.observer());
    });
}

TEST(RecoveryStats, PhaseSumsEqualTotalExactly)
{
    SystemConfig config = smallConfig();
    config.flight_recorder = true;
    System system = buildSystem(config);
    RecoveryOracle oracle;
    wireOracle(system, oracle);
    driveTrace(system, oracle, 48);

    system.recoverController();

    const RecoveryStats &s = *system.recovery_stats;
    EXPECT_EQ(s.recoveries.value(), 1u);
    // Exact identity, not approximate: the phases are adjacent windows
    // of the same clock and the ns deltas are well inside 2^53.
    EXPECT_EQ(s.phaseSum(), s.total.sum());
    EXPECT_GT(s.wpq_replay.sum(), 0.0);
    EXPECT_GT(s.adr_redeliver.sum(), 0.0);
    EXPECT_GT(s.image_reload.sum(), 0.0);
    EXPECT_GT(s.posmap_rebuild.sum(), 0.0);
    // Flight ring was on: recovery decoded it before rebuilding.
    EXPECT_GT(s.blackbox_events.value(), 0u);
    EXPECT_EQ(checkRecoveryInvariants(system, oracle),
              std::vector<std::string>{});
}

/**
 * On disk the wpq_replay window is the redo-log replay: a crash with
 * records in the log replays them inside that window (the trace shows
 * the replay marker within the span), the six windows still sum to the
 * total exactly, and the replay's checkpoint stamps the black box
 * without tearing it.
 */
TEST(RecoveryStats, DiskLogReplayFillsWpqReplayWindow)
{
    const std::string path =
        ::testing::TempDir() + "recovery_stats_disk.tree";
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    SystemConfig config = smallConfig();
    config.flight_recorder = true;
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    {
        System system = buildSystem(config);
        RecoveryOracle oracle;
        wireOracle(system, oracle);
        driveTrace(system, oracle, 48);

        obs::TraceRecorder &recorder = obs::TraceRecorder::instance();
        recorder.enable();
        recorder.clear();
        system.recoverController();
        const std::vector<obs::TraceEvent> events = recorder.snapshot();
        recorder.disable();

        const RecoveryStats &s = *system.recovery_stats;
        EXPECT_EQ(s.phaseSum(), s.total.sum());
        EXPECT_GT(s.wpq_replay.sum(), 0.0);
        const obs::TraceEvent *window = nullptr;
        const obs::TraceEvent *replayed = nullptr;
        for (const obs::TraceEvent &e : events) {
            if (e.phase == 'X' && std::strcmp(e.name, "wpq_replay") == 0)
                window = &e;
            if (std::strcmp(e.name, "disk.log_replayed") == 0)
                replayed = &e;
        }
        ASSERT_NE(window, nullptr);
        ASSERT_NE(replayed, nullptr);
        EXPECT_GT(replayed->arg, 0) << "the log tail was empty";
        EXPECT_GE(replayed->ts_ns, window->ts_ns);
        EXPECT_LE(replayed->ts_ns, window->ts_ns + window->dur_ns);

        EXPECT_EQ(s.blackbox_torn.value(), 0u);
        const FlightRecorder::Decoded box =
            system.flight_recorder->decode(*system.device);
        EXPECT_EQ(box.torn_records, 0u);
        bool saw_checkpoint = false;
        for (const FlightEvent &ev : box.events)
            saw_checkpoint |= ev.kind == FlightEventKind::Checkpoint;
        EXPECT_TRUE(saw_checkpoint) << "replay checkpoint not stamped";
        EXPECT_EQ(checkRecoveryInvariants(system, oracle),
                  std::vector<std::string>{});
    }
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
}

TEST(RecoveryStats, IntegrityPhasesPopulatedUnderTreeMode)
{
    SystemConfig config = smallConfig();
    config.integrity = IntegrityMode::Tree;
    System system = buildSystem(config);
    RecoveryOracle oracle;
    wireOracle(system, oracle);
    driveTrace(system, oracle, 48);

    system.recoverController();

    const RecoveryStats &s = *system.recovery_stats;
    EXPECT_EQ(s.phaseSum(), s.total.sum());
    EXPECT_GT(s.integrity_verify.sum(), 0.0);
    EXPECT_GT(s.records_verified.value(), 0u);
    EXPECT_EQ(s.records_refused.value(), 0u);
    EXPECT_EQ(checkRecoveryInvariants(system, oracle),
              std::vector<std::string>{});
}

TEST(RecoveryStats, SecondRecoveryAccumulates)
{
    System system = buildSystem(smallConfig());
    RecoveryOracle oracle;
    wireOracle(system, oracle);
    driveTrace(system, oracle, 32);
    system.recoverController();
    driveTrace(system, oracle, 16, /*seed=*/13);
    system.recoverController();

    const RecoveryStats &s = *system.recovery_stats;
    EXPECT_EQ(s.recoveries.value(), 2u);
    EXPECT_EQ(s.total.count(), 2u);
    EXPECT_EQ(s.phaseSum(), s.total.sum());
}

TEST(RecoveryTrace, RecoverSpanNestsPhaseSpans)
{
    obs::TraceRecorder &recorder = obs::TraceRecorder::instance();
    recorder.enable();
    recorder.clear();

    System system = buildSystem(smallConfig());
    RecoveryOracle oracle;
    wireOracle(system, oracle);
    driveTrace(system, oracle, 32);
    recorder.clear(); // keep only the recovery timeline
    system.recoverController();

    const std::vector<obs::TraceEvent> events = recorder.snapshot();
    recorder.disable();

    const auto find = [&events](const char *name) -> const obs::TraceEvent * {
        for (const obs::TraceEvent &ev : events)
            if (ev.category && !std::strcmp(ev.category, "recovery") &&
                ev.name && !std::strcmp(ev.name, name))
                return &ev;
        return nullptr;
    };
    const obs::TraceEvent *recover = find("recover");
    ASSERT_NE(recover, nullptr);
    EXPECT_EQ(recover->phase, 'X');
    for (const char *phase :
         {"wpq_replay", "adr_redeliver", "image_reload",
          "posmap_rebuild"}) {
        const obs::TraceEvent *span = find(phase);
        ASSERT_NE(span, nullptr) << phase;
        EXPECT_EQ(span->phase, 'X') << phase;
        // Nested: the phase span lies inside the recover span's window.
        EXPECT_GE(span->ts_ns, recover->ts_ns) << phase;
        EXPECT_LE(span->ts_ns + span->dur_ns,
                  recover->ts_ns + recover->dur_ns)
            << phase;
    }
}

TEST(FlightRecorder, RecordsRoundTripThroughTheRing)
{
    SystemConfig config = smallConfig();
    config.flight_recorder = true;
    config.flight_records = 1024; // no wrap: every round survives
    System system = buildSystem(config);
    RecoveryOracle oracle;
    wireOracle(system, oracle);
    driveTrace(system, oracle, 24);

    const FlightRecorder::Decoded box =
        system.flight_recorder->decode(*system.device);
    ASSERT_TRUE(box.header_valid);
    EXPECT_EQ(box.torn_records, 0u);
    ASSERT_FALSE(box.events.empty());
    // The ring never wrapped: the whole history survives.
    ASSERT_EQ(box.events.size(), system.flight_recorder->nextSeq());
    std::uint64_t starts = 0, commits = 0;
    for (std::size_t i = 0; i < box.events.size(); ++i) {
        if (i > 0) {
            EXPECT_EQ(box.events[i].seq, box.events[i - 1].seq + 1);
        }
        if (box.events[i].kind == FlightEventKind::RoundStart)
            ++starts;
        if (box.events[i].kind == FlightEventKind::RoundCommit)
            ++commits;
    }
    EXPECT_GT(starts, 0u);
    EXPECT_GT(commits, 0u);
    // Bracketing: every commit belongs to an opened round.
    EXPECT_LE(commits, starts);
}

TEST(FlightRecorder, WrapKeepsTheNewestEvents)
{
    SystemConfig config = smallConfig();
    config.flight_recorder = true;
    config.flight_records = 8; // tiny: guaranteed wrap-around
    System system = buildSystem(config);
    RecoveryOracle oracle;
    wireOracle(system, oracle);
    driveTrace(system, oracle, 48);

    const FlightRecorder::Decoded box =
        system.flight_recorder->decode(*system.device);
    ASSERT_TRUE(box.header_valid);
    EXPECT_EQ(box.events.size(), 8u);
    ASSERT_NE(box.tail(), nullptr);
    EXPECT_EQ(box.tail()->seq + 1, system.flight_recorder->nextSeq());
}

TEST(FlightRecorder, TornTailIsSkippedAndRecoveryStillPasses)
{
    SystemConfig config = smallConfig();
    config.flight_recorder = true;
    System system = buildSystem(config);
    RecoveryOracle oracle;
    wireOracle(system, oracle);
    driveTrace(system, oracle, 32);

    // Tear the tail record: scribble over its payload bytes without
    // updating the CRC, as a crash mid-line-write would.
    const FlightRecorder &rec = *system.flight_recorder;
    const std::uint64_t tail_seq = rec.nextSeq() - 1;
    const Addr tail_slot =
        rec.base() + FlightRecorder::kHeaderBytes +
        (tail_seq % rec.numRecords()) * FlightRecorder::kRecordBytes;
    const std::uint8_t garbage[8] = {0xde, 0xad, 0xbe, 0xef,
                                     0xde, 0xad, 0xbe, 0xef};
    system.device->writeBytes(tail_slot + 16, garbage,
                                   sizeof(garbage), Durability::Quiet);

    const FlightRecorder::Decoded torn = rec.decode(*system.device);
    ASSERT_TRUE(torn.header_valid);
    EXPECT_EQ(torn.torn_records, 1u);
    ASSERT_NE(torn.tail(), nullptr);
    EXPECT_LT(torn.tail()->seq, tail_seq);

    // The degraded ring must not degrade recovery.
    system.recoverController();
    EXPECT_EQ(checkRecoveryInvariants(system, oracle),
              std::vector<std::string>{});
    EXPECT_GE(system.recovery_stats->blackbox_torn.value(), 1u);

    // format() reports the degradation without throwing.
    const std::string dump = FlightRecorder::format(torn);
    EXPECT_NE(dump.find("1 torn record(s)"), std::string::npos);
}

TEST(FlightRecorder, SequenceResumesAcrossFileBackedReopen)
{
    const std::string path = "flight_reopen_test.img";
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    SystemConfig config = smallConfig();
    config.flight_recorder = true;
    // File-backed: a disk tree whose page cache holds the whole tree.
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    config.disk_cache_pages = 4096;

    std::uint64_t first_run_seq = 0;
    {
        System system = buildSystem(config);
        RecoveryOracle oracle;
        wireOracle(system, oracle);
        driveTrace(system, oracle, 24);
        first_run_seq = system.flight_recorder->nextSeq();
        EXPECT_GT(first_run_seq, 0u);
    } // the destructor's persistBarrier stamps a Checkpoint marker

    {
        System reopened = buildSystem(config);
        // attach() found the previous run's ring: the sequence resumes
        // past its tail (the destructor checkpoint landed after
        // first_run_seq was read) instead of overwriting history.
        EXPECT_GT(reopened.flight_recorder->nextSeq(), first_run_seq);
        const FlightRecorder::Decoded box =
            reopened.flight_recorder->decode(*reopened.device);
        ASSERT_TRUE(box.header_valid);
        bool saw_checkpoint = false;
        for (const FlightEvent &ev : box.events)
            saw_checkpoint |= ev.kind == FlightEventKind::Checkpoint;
        EXPECT_TRUE(saw_checkpoint);
    }
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
}

/** On the disk backend the ring is write-back; it rides in the
 *  protocol's log records, so a crash keeps it. */
TEST(FlightRecorder, RingSurvivesDiskCrash)
{
    const std::string path =
        ::testing::TempDir() + "flight_disk_crash.tree";
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    SystemConfig config = smallConfig();
    config.flight_recorder = true;
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    {
        System system = buildSystem(config);
        RecoveryOracle oracle;
        wireOracle(system, oracle);
        driveTrace(system, oracle, 24);

        system.recoverController(); // drops the page cache first
        EXPECT_EQ(checkRecoveryInvariants(system, oracle),
                  std::vector<std::string>{});
        EXPECT_GT(system.recovery_stats->blackbox_events.value(), 0u);
        EXPECT_EQ(system.recovery_stats->blackbox_torn.value(), 0u);
    }
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
}

TEST(FlightRecorder, ShardedRecoveryMergesStats)
{
    ShardedSystemConfig config;
    config.base = smallConfig();
    config.base.flight_recorder = true;
    config.sharding.num_shards = 2;
    ShardedSystem sharded = buildShardedSystem(config);

    std::uint8_t buf[kBlockDataBytes];
    const std::vector<TraceOp> trace =
        makeCrashTrace(17, 48, sharded.router.totalBlocks(), 0.7);
    for (const TraceOp &op : trace) {
        const ShardSlot slot = sharded.router.route(op.addr);
        if (op.is_write) {
            stampPayload(slot.local, op.version, buf);
            sharded.controller(slot.shard).write(slot.local, buf);
        } else {
            sharded.controller(slot.shard).read(slot.local, buf);
        }
    }

    sharded.recoverShard(0);
    const RecoveryStats &victim = *sharded.shards[0].recovery_stats;
    EXPECT_EQ(victim.recoveries.value(), 1u);
    EXPECT_EQ(victim.phaseSum(), victim.total.sum());
    EXPECT_EQ(sharded.shards[1].recovery_stats->recoveries.value(), 0u);

    RecoveryStats fleet;
    for (const System &shard : sharded.shards)
        fleet.merge(*shard.recovery_stats);
    EXPECT_EQ(fleet.recoveries.value(), 1u);
    EXPECT_EQ(fleet.phaseSum(), fleet.total.sum());
}

/**
 * Digest functional traffic below @p limit only — the protocol address
 * range. The flight ring lives above the limit, so its appends (and the
 * attach-time decode reads) are excluded by address, never by opcode:
 * any recorder write that leaked into the protocol range WOULD change
 * the digest.
 */
class RegionDigestBackend final : public MemoryBackend
{
  public:
    RegionDigestBackend(MemoryBackend &inner, Addr limit)
        : MemoryBackend(inner.timing(), inner.capacity()), inner_(inner),
          limit_(limit)
    {
    }

    void
    readBytes(Addr addr, std::uint8_t *out,
              std::size_t len) const override
    {
        inner_.readBytes(addr, out, len);
        if (addr < limit_)
            mixOp('R', addr, len);
    }

    void
    writev(const WriteSpan *spans, std::size_t n,
           Durability durability) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (spans[i].addr >= limit_)
                continue;
            mixOp('W', spans[i].addr, spans[i].len);
            for (std::size_t b = 0; b < spans[i].len; ++b)
                mixByte(spans[i].data[b]);
        }
        inner_.writev(spans, n, durability);
    }

    MemoryImage image() const override { return inner_.image(); }
    void
    restoreImage(const MemoryImage &img) override
    {
        inner_.restoreImage(img);
    }

    std::uint64_t digest() const { return hash_; }
    std::uint64_t operations() const { return ops_; }

  private:
    void
    mixByte(std::uint8_t b) const
    {
        hash_ = (hash_ ^ b) * 0x100000001b3ULL; // FNV-1a 64
    }
    void
    mixOp(std::uint8_t op, Addr addr, std::size_t len) const
    {
        ++ops_;
        mixByte(op);
        for (int shift = 0; shift < 64; shift += 8)
            mixByte(static_cast<std::uint8_t>(addr >> shift));
        for (int shift = 0; shift < 32; shift += 8)
            mixByte(static_cast<std::uint8_t>(len >> shift));
    }

    MemoryBackend &inner_;
    const Addr limit_;
    mutable std::uint64_t hash_ = 0xcbf29ce484222325ULL;
    mutable std::uint64_t ops_ = 0;
};

TEST(FlightRecorder, TransparencyDifferentialTreeTrafficUnchanged)
{
    SystemConfig off_config = smallConfig();
    SystemConfig on_config = off_config;
    on_config.flight_recorder = true;

    const PsOramParams off_params = systemParams(off_config);
    const PsOramParams on_params = systemParams(on_config);
    ASSERT_NE(on_params.flight_recorder_base, 0u);
    // Region laid out last: enabling the ring moves no protocol region.
    ASSERT_EQ(off_params.posmap_region_base,
              on_params.posmap_region_base);
    const Addr limit = on_params.flight_recorder_base;
    const std::uint64_t capacity =
        limit +
        FlightRecorder::regionBytes(on_params.flight_recorder_records) +
        (1ULL << 20);

    const auto run = [&](const PsOramParams &params,
                         bool with_recorder) {
        NvmDevice device(timingsFor(NvmTech::PCM), 1, 8, capacity);
        RegionDigestBackend digesting(device, limit);
        std::unique_ptr<FlightRecorder> recorder;
        if (with_recorder) {
            recorder = std::make_unique<FlightRecorder>(
                params.flight_recorder_base,
                params.flight_recorder_records);
            recorder->attach(digesting);
            digesting.setFlightRecorder(recorder.get());
        }
        PsOramController controller(params, digesting);
        if (recorder)
            controller.attachFlightRecorder(recorder.get());
        const std::vector<TraceOp> trace =
            makeCrashTrace(23, 64, off_config.num_blocks, 0.7);
        std::uint8_t buf[kBlockDataBytes];
        for (const TraceOp &op : trace) {
            if (op.is_write) {
                stampPayload(op.addr, op.version, buf);
                controller.write(op.addr, buf);
            } else {
                controller.read(op.addr, buf);
            }
        }
        if (recorder) {
            EXPECT_GT(recorder->nextSeq(), 0u);
        }
        return std::make_pair(digesting.digest(),
                              digesting.operations());
    };

    const auto [off_digest, off_ops] = run(off_params, false);
    const auto [on_digest, on_ops] = run(on_params, true);
    // Byte-identical protocol traffic, operation for operation.
    EXPECT_EQ(off_ops, on_ops);
    EXPECT_EQ(off_digest, on_digest);
}

} // namespace
} // namespace psoram
