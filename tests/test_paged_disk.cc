/**
 * @file
 * PagedDiskBackend unit coverage: functional equivalence with the
 * in-memory model, redo-log durability semantics under dropVolatile()
 * (synced records survive, the unsynced tail and torn records do not),
 * LRU eviction + pinning with the write-ahead rule, image
 * snapshot/restore, reopen persistence, and the torn-page negative
 * control — a partial page write MUST be detected (CRC trailer
 * mismatch) when the page is next loaded, and healed by log replay —
 * and the IO shape of a PS-ORAM stack on an out-of-core tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "nvm/device.hh"
#include "nvm/fault_injector.hh"
#include "nvm/paged_disk.hh"
#include "sim/engine.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

constexpr std::uint64_t kCapacity = 1ULL << 20; // 256 pages

/** Remove a tree and its redo log. */
void
removeTree(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
}

std::string
tmpTree(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    removeTree(path);
    return path;
}

PagedDiskConfig
diskConfig(const std::string &path)
{
    PagedDiskConfig config;
    config.path = path;
    config.cache_pages = 16;
    config.pinned_pages = 2;
    return config;
}

std::vector<std::uint8_t>
pattern(std::size_t len, std::uint8_t salt)
{
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < len; ++i)
        bytes[i] = static_cast<std::uint8_t>(salt + i * 13);
    return bytes;
}

TEST(PagedDisk, MatchesInMemoryModelOnMixedTraffic)
{
    const std::string path = tmpTree("paged_disk_equiv.tree");
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                          diskConfig(path));
    NvmDevice reference(pcmTimings(), 1, 8, kCapacity);

    // Mixed scalar/vectored writes, including page-straddling spans.
    std::uint64_t state = 42;
    const auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int i = 0; i < 200; ++i) {
        const std::size_t len = 32 + next() % 300;
        const Addr addr = next() % (kCapacity - 512);
        payloads.push_back(pattern(len, static_cast<std::uint8_t>(i)));
        const auto &bytes = payloads.back();
        if (i % 3 == 0) {
            const WriteSpan span{addr, bytes.data(), bytes.size()};
            disk.writev(&span, 1, Durability::Noisy);
            reference.writev(&span, 1, Durability::Noisy);
        } else if (i % 3 == 1) {
            disk.writeBytes(addr, bytes.data(), bytes.size());
            reference.writeBytes(addr, bytes.data(), bytes.size());
        } else {
            disk.writeBytes(addr, bytes.data(), bytes.size(),
                            Durability::Quiet);
            reference.writeBytes(addr, bytes.data(), bytes.size(),
                                 Durability::Quiet);
        }
    }

    // Spot-check reads both ways plus the full functional image.
    std::vector<std::uint8_t> got_disk(4096), got_ref(4096);
    for (Addr addr = 0; addr + 4096 <= kCapacity; addr += 64 * 1024 - 32) {
        disk.readBytes(addr, got_disk.data(), got_disk.size());
        reference.readBytes(addr, got_ref.data(), got_ref.size());
        EXPECT_EQ(got_disk, got_ref) << "mismatch at " << addr;
    }
    EXPECT_EQ(disk.image(), reference.image());
    EXPECT_EQ(disk.tornPagesDetected(), 0u);
    removeTree(path);
}

TEST(PagedDisk, TreePersistsAcrossReopen)
{
    const std::string path = tmpTree("paged_disk_reopen.tree");
    const auto payload = pattern(300, 7);
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                              diskConfig(path));
        disk.writeBytes(5000, payload.data(), payload.size());
        // Orderly destruction flushes and closes.
    }
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                              diskConfig(path));
        std::vector<std::uint8_t> got(300);
        disk.readBytes(5000, got.data(), got.size());
        EXPECT_EQ(got, payload);
        EXPECT_EQ(disk.tornPagesDetected(), 0u);
    }
    removeTree(path);
}

TEST(PagedDisk, DropVolatileLosesUnbarrieredQuietWrites)
{
    const std::string path = tmpTree("paged_disk_drop.tree");
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                          diskConfig(path));
    const auto payload = pattern(96, 11);

    // Quiet write-back without a barrier: cache-only, a crash loses it.
    disk.writeBytes(2048, payload.data(), payload.size(), Durability::Quiet);
    disk.dropVolatile();
    std::vector<std::uint8_t> got(96);
    disk.readBytes(2048, got.data(), got.size());
    EXPECT_EQ(got, std::vector<std::uint8_t>(96, 0))
        << "unbarriered quiet write must not survive the crash model";

    // Quiet write + persistBarrier: durable.
    disk.writeBytes(2048, payload.data(), payload.size(), Durability::Quiet);
    disk.persistBarrier();
    disk.dropVolatile();
    disk.readBytes(2048, got.data(), got.size());
    EXPECT_EQ(got, payload);

    // A noisy write is a log record: lost while unsynced, durable once
    // sync() reports it.
    const auto noisy = pattern(96, 12);
    disk.writeBytes(4096 * 3, noisy.data(), noisy.size());
    EXPECT_TRUE(disk.holdsUnsyncedTail());
    disk.dropVolatile();
    disk.readBytes(4096 * 3, got.data(), got.size());
    EXPECT_EQ(got, std::vector<std::uint8_t>(96, 0))
        << "an unsynced record must not survive the crash model";
    disk.writeBytes(4096 * 3, noisy.data(), noisy.size());
    EXPECT_TRUE(disk.sync());
    EXPECT_FALSE(disk.holdsUnsyncedTail());
    EXPECT_FALSE(disk.sync()) << "nothing left to sync";
    disk.dropVolatile();
    disk.readBytes(4096 * 3, got.data(), got.size());
    EXPECT_EQ(got, noisy);
    removeTree(path);
}

TEST(PagedDisk, NoisyWriteCarriesQuietWriteBack)
{
    const std::string path = tmpTree("paged_disk_carry.tree");
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                          diskConfig(path));
    FaultInjector injector;
    disk.setFaultInjector(&injector);
    const auto quiet = pattern(96, 31);
    const auto noisy = pattern(96, 32);

    // A quiet span rides in the next record, without a boundary of
    // its own: one DirectWrite, one LogAppend (the record), one
    // LogSync, and no page is written in place.
    disk.writeBytes(2048, quiet.data(), quiet.size(), Durability::Quiet);
    disk.writeBytes(4096 * 3, noisy.data(), noisy.size());
    disk.sync();
    EXPECT_EQ(injector.boundariesSeen(), 3u);
    EXPECT_EQ(injector.kindCount(PersistBoundary::LogAppend), 1u);
    EXPECT_EQ(injector.kindCount(PersistBoundary::LogSync), 1u);
    EXPECT_EQ(injector.kindCount(PersistBoundary::PageWrite), 0u);
    const PagedDiskBackend::IoStats io = disk.ioStats();
    EXPECT_EQ(io.log_appends, 1u);
    EXPECT_EQ(io.log_syncs, 1u);
    EXPECT_EQ(io.pages_flushed, 0u);
    disk.setFaultInjector(nullptr);

    disk.dropVolatile();
    std::vector<std::uint8_t> got(96);
    disk.readBytes(2048, got.data(), got.size());
    EXPECT_EQ(got, quiet);
    disk.readBytes(4096 * 3, got.data(), got.size());
    EXPECT_EQ(got, noisy);
    removeTree(path);
}

/**
 * A torn record ends replay: crash half-way through the second append
 * (the LogAppend boundary), lose RAM, and only the first, synced
 * record survives — the torn one fails its CRC, not silently applied.
 */
TEST(PagedDisk, TornLogRecordIsNotReplayed)
{
    const std::string path = tmpTree("paged_disk_torn_record.tree");
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                          diskConfig(path));
    const auto first = pattern(4096, 61);
    const auto second = pattern(4096, 62);
    disk.writeBytes(4096 * 5, first.data(), first.size());
    disk.sync();

    FaultInjector injector;
    disk.setFaultInjector(&injector);
    injector.armAt(2); // DirectWrite (1), LogAppend mid-record (2)
    EXPECT_THROW(disk.writeBytes(4096 * 6, second.data(), second.size()),
                 InjectedFault);
    EXPECT_EQ(injector.firedKind(), PersistBoundary::LogAppend);
    disk.setFaultInjector(nullptr);
    disk.dropVolatile();

    std::vector<std::uint8_t> got(4096);
    disk.readBytes(4096 * 5, got.data(), got.size());
    EXPECT_EQ(got, first);
    disk.readBytes(4096 * 6, got.data(), got.size());
    EXPECT_EQ(got, std::vector<std::uint8_t>(4096, 0))
        << "a torn record was replayed";
    removeTree(path);
}

/**
 * A reopen replays the synced records a crash left in the log, up to
 * the first one whose CRC fails; without the log it opens the last
 * checkpoint.
 */
TEST(PagedDisk, ReopenReplaysSyncedRecords)
{
    const std::string path = tmpTree("paged_disk_replay.tree");
    const auto first = pattern(96, 71);
    const auto second = pattern(96, 72);
    const std::string intact = path + ".intact";
    const std::string corrupt = path + ".corrupt";
    const std::string no_log = path + ".nolog";
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                              diskConfig(path));
        disk.writeBytes(4096 * 7, first.data(), first.size());
        disk.writeBytes(4096 * 8, second.data(), second.size());
        disk.sync();
        // Snapshot the files as a crash would leave them: the records
        // are only in the log, the tree still holds its checkpoint.
        for (const std::string &copy : {intact, corrupt, no_log}) {
            std::filesystem::copy_file(path, copy);
            std::filesystem::copy_file(path + ".wal", copy + ".wal");
        }
    }
    // Flip one byte inside the second record's spans.
    const std::size_t record =
        PagedDiskBackend::kLogRecordHeaderBytes +
        PagedDiskBackend::kLogSpanHeaderBytes + first.size() +
        PagedDiskBackend::kLogRecordTrailerBytes;
    const int fd = ::open((corrupt + ".wal").c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const std::uint8_t junk = 0xEE;
    ASSERT_EQ(::pwrite(fd, &junk, 1,
                       static_cast<off_t>(
                           PagedDiskBackend::kLogHeaderBytes + record +
                           PagedDiskBackend::kLogRecordHeaderBytes + 40)),
              1);
    ::close(fd);
    std::remove((no_log + ".wal").c_str());

    const auto readBack = [](const std::string &tree, Addr addr) {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                              diskConfig(tree));
        std::vector<std::uint8_t> got(96);
        disk.readBytes(addr, got.data(), got.size());
        return got;
    };
    const std::vector<std::uint8_t> zeros(96, 0);
    EXPECT_EQ(readBack(intact, 4096 * 7), first);
    EXPECT_EQ(readBack(intact, 4096 * 8), second);
    EXPECT_EQ(readBack(corrupt, 4096 * 7), first);
    EXPECT_EQ(readBack(corrupt, 4096 * 8), zeros)
        << "a record that fails its CRC was replayed";
    EXPECT_EQ(readBack(no_log, 4096 * 7), zeros);
    for (const std::string &tree : {path, intact, corrupt, no_log})
        removeTree(tree);
}

TEST(PagedDisk, EvictionWritesBackDirtyPages)
{
    const std::string path = tmpTree("paged_disk_evict.tree");
    PagedDiskConfig config = diskConfig(path);
    config.cache_pages = 4;
    config.pinned_pages = 0;
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);

    // Dirty far more pages than the cache holds (quietly, so nothing
    // but eviction write-back can make them durable).
    const auto payload = pattern(64, 21);
    for (std::uint64_t page = 0; page < 64; ++page)
        disk.writeBytes(page * PagedDiskBackend::kPageBytes,
                        payload.data(), payload.size(), Durability::Quiet);
    const PagedDiskBackend::IoStats io = disk.ioStats();
    EXPECT_GT(io.cache_evictions, 0u);
    EXPECT_LE(disk.residentPages(), 5u);

    // Evicted pages survive the crash model; only the still-cached
    // dirty tail may be lost.
    disk.dropVolatile();
    std::vector<std::uint8_t> got(64);
    std::size_t durable = 0;
    for (std::uint64_t page = 0; page < 64; ++page) {
        disk.readBytes(page * PagedDiskBackend::kPageBytes, got.data(),
                       got.size());
        if (got == payload)
            ++durable;
    }
    EXPECT_GE(durable, 64u - 5u);
    removeTree(path);
}

TEST(PagedDisk, PinnedPagesNeverReloadFromDisk)
{
    const std::string path = tmpTree("paged_disk_pin.tree");
    PagedDiskConfig config = diskConfig(path);
    config.cache_pages = 4;
    config.pinned_pages = 2;
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);

    std::vector<std::uint8_t> buf(64);
    disk.readBytes(0, buf.data(), buf.size()); // page 0: pinned
    // Cycle many colder pages through the tiny cache.
    for (std::uint64_t page = 8; page < 72; ++page)
        disk.readBytes(page * PagedDiskBackend::kPageBytes, buf.data(),
                       buf.size());
    const std::uint64_t preads = disk.ioStats().preads;
    disk.readBytes(0, buf.data(), buf.size());
    EXPECT_EQ(disk.ioStats().preads, preads)
        << "pinned page 0 must still be resident";
    removeTree(path);
}

TEST(PagedDisk, ImageSnapshotRestoreRoundtrips)
{
    const std::string path_a = tmpTree("paged_disk_img_a.tree");
    const std::string path_b = tmpTree("paged_disk_img_b.tree");
    PagedDiskBackend a(pcmTimings(), 1, 8, kCapacity, diskConfig(path_a));
    const auto p1 = pattern(96, 31);
    const auto p2 = pattern(96, 32);
    a.writeBytes(100, p1.data(), p1.size());
    a.writeBytes(40000, p2.data(), p2.size(), Durability::Quiet);

    const MemoryImage img = a.image();
    PagedDiskBackend b(pcmTimings(), 1, 8, kCapacity, diskConfig(path_b));
    b.restoreImage(img);
    EXPECT_EQ(b.image(), img);

    std::vector<std::uint8_t> got(96);
    b.readBytes(100, got.data(), got.size());
    EXPECT_EQ(got, p1);
    b.readBytes(40000, got.data(), got.size());
    EXPECT_EQ(got, p2);
    // Restore is a durable rewrite: the crash model keeps it.
    b.dropVolatile();
    b.readBytes(100, got.data(), got.size());
    EXPECT_EQ(got, p1);
    removeTree(path_a);
    removeTree(path_b);
}

/**
 * Torn-page negative control: corrupt half a page record on disk
 * out-of-band (simulating a pwrite cut short by power loss, CRC
 * trailer now stale) — the next load of that page MUST be detected.
 */
TEST(PagedDisk, TornPageIsDetectedAtNextLoad)
{
    const std::string path = tmpTree("paged_disk_torn.tree");
    const auto payload = pattern(4096, 41);
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                              diskConfig(path));
        disk.writeBytes(0, payload.data(), payload.size());
    }

    // Flip bytes in the first half of page 0's payload without
    // touching the trailer — exactly what a torn pwrite leaves behind.
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    std::uint8_t junk[512];
    std::memset(junk, 0x5A, sizeof(junk));
    ASSERT_EQ(::pwrite(fd, junk, sizeof(junk),
                       static_cast<off_t>(
                           PagedDiskBackend::kHeaderBytes)),
              static_cast<ssize_t>(sizeof(junk)));
    ::close(fd);

    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                          diskConfig(path));
    std::vector<std::uint8_t> got(4096);
    disk.readBytes(0, got.data(), got.size());
    EXPECT_GE(disk.tornPagesDetected(), 1u)
        << "partial-pwrite corruption escaped the CRC trailer";
    removeTree(path);
}

/**
 * The injector's PageWrite boundary really does tear: crash mid-pwrite
 * in a checkpoint's write-back, then verify the torn page is detected
 * when recovery next loads it — and that log replay heals it, since
 * every byte it lost is in a synced record.
 */
TEST(PagedDisk, InjectedCrashMidPageWriteLeavesDetectableTorn)
{
    const std::string path = tmpTree("paged_disk_torn_inject.tree");
    const auto payload = pattern(4096, 51);
    PagedDiskConfig config = diskConfig(path);
    config.cache_pages = 1;
    config.pinned_pages = 0;
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);
    disk.writeBytes(0, payload.data(), payload.size());
    disk.sync();

    // Fill the log with small rewrites of page 0's tail (same bytes)
    // until a noisy write checkpoints first; its one dirty page, page
    // 0, is written back torn.
    FaultInjector injector;
    disk.setFaultInjector(&injector);
    std::uint64_t k = 0;
    const std::vector<std::uint8_t> filler(payload.end() - 64,
                                           payload.end());
    injector.setObserver([&](PersistBoundary kind, std::uint64_t index) {
        if (kind == PersistBoundary::PageWrite && k == 0) {
            k = index;
            throw InjectedFault(kind, index);
        }
    });
    for (unsigned i = 0; i < 4096 && k == 0; ++i) {
        try {
            disk.writeBytes(4096 - 64, filler.data(), filler.size());
            disk.sync();
        } catch (const InjectedFault &) {
        }
    }
    ASSERT_NE(k, 0u) << "the log never filled";
    injector.setObserver(nullptr);
    disk.setFaultInjector(nullptr);

    const std::uint64_t torn_before = disk.tornPagesDetected();
    disk.dropVolatile(); // power gone: replay loads the torn page
    EXPECT_GT(disk.tornPagesDetected(), torn_before)
        << "mid-pwrite crash did not leave a detectable torn page";
    std::vector<std::uint8_t> got(4096);
    disk.readBytes(0, got.data(), got.size());
    EXPECT_EQ(got, payload) << "log replay did not heal the torn page";
    removeTree(path);
}

TEST(PagedDiskDeathTest, StrictTornModeRefusesCorruptPages)
{
    const std::string path = tmpTree("paged_disk_strict.tree");
    const auto payload = pattern(4096, 61);
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                              diskConfig(path));
        disk.writeBytes(0, payload.data(), payload.size());
    }
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    std::uint8_t junk[64];
    std::memset(junk, 0xA5, sizeof(junk));
    ASSERT_EQ(::pwrite(fd, junk, sizeof(junk),
                       static_cast<off_t>(
                           PagedDiskBackend::kHeaderBytes)),
              static_cast<ssize_t>(sizeof(junk)));
    ::close(fd);

    PagedDiskConfig config = diskConfig(path);
    config.strict_torn = true;
    std::vector<std::uint8_t> got(64);
    EXPECT_EXIT(
        {
            PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);
            disk.readBytes(0, got.data(), got.size());
        },
        ::testing::ExitedWithCode(1), "torn page");
    removeTree(path);
}

/** Concurrent functional reads and quiet writes share the internal
 *  mutex — TSan coverage. */
TEST(PagedDisk, ConcurrentReadsAndQuietWritesAreSafe)
{
    const std::string path = tmpTree("paged_disk_threads.tree");
    PagedDiskConfig config = diskConfig(path);
    config.cache_pages = 8;
    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);
    const auto payload = pattern(96, 71);
    for (std::uint64_t page = 0; page < 32; ++page)
        disk.writeBytes(page * PagedDiskBackend::kPageBytes,
                        payload.data(), payload.size(), Durability::Quiet);

    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&disk, t] {
            std::vector<std::uint8_t> buf(96);
            std::vector<ReadSpan> spans(4);
            std::vector<std::vector<std::uint8_t>> bufs(
                4, std::vector<std::uint8_t>(96));
            for (int i = 0; i < 200; ++i) {
                const std::uint64_t page =
                    (static_cast<std::uint64_t>(i) * 7 + t) % 32;
                disk.readBytes(page * PagedDiskBackend::kPageBytes,
                               buf.data(), buf.size());
                for (int s = 0; s < 4; ++s)
                    spans[s] = ReadSpan{
                        ((page + s) % 32) *
                            PagedDiskBackend::kPageBytes,
                        bufs[s].data(), bufs[s].size()};
                disk.readv(spans.data(), spans.size());
            }
        });
    }
    threads.emplace_back([&disk, &payload] {
        for (int i = 0; i < 100; ++i)
            disk.writeBytes(
                (static_cast<std::uint64_t>(i) % 32) *
                    PagedDiskBackend::kPageBytes,
                payload.data(), payload.size(), Durability::Quiet);
        disk.persistBarrier();
    });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(disk.tornPagesDetected(), 0u);
    removeTree(path);
}

/**
 * A PS-ORAM engine on a tree at least 8x its page cache, drained in
 * batches: every controller access that touches the tree loads its
 * path with exactly one vectored read and writes it back with a few
 * vectored writes, writes reach the file, group commit holds fsyncs to
 * at most one per access, and a clean run leaves no torn pages.
 */
TEST(PagedDisk, OutOfCorePathIoShape)
{
    const std::string path = tmpTree("paged_disk_io_shape.tree");
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = 11;
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    config.disk_cache_pages = 32;
    config.disk_pinned_pages = 4;
    {
        System system = buildSystem(config);
        auto *disk = dynamic_cast<PagedDiskBackend *>(system.device.get());
        ASSERT_NE(disk, nullptr);
        ASSERT_GE(disk->numPages(), 8 * config.disk_cache_pages)
            << "tree is not out of core";

        EngineConfig engine_config;
        engine_config.record_completions = false;
        OramEngine engine(*system.controller, engine_config);
        std::uint8_t buf[kBlockDataBytes] = {};
        BlockAddr addr = 0;
        const auto writeBatch = [&](unsigned count) {
            for (unsigned i = 0; i < count; ++i) {
                engine.submitWrite(addr, buf, nullptr);
                addr = (addr + 97) % system.params.num_blocks;
            }
            engine.drain();
        };
        writeBatch(256); // warm tree, stash and page cache
        disk->resetStats();
        const std::uint64_t physical_before =
            engine.stats().physical_accesses.value();
        for (int batch = 0; batch < 4; ++batch)
            writeBatch(128);

        const PagedDiskBackend::IoStats io = disk->ioStats();
        const std::uint64_t accesses =
            engine.stats().physical_accesses.value() - physical_before;
        ASSERT_GT(accesses, 0u);
        const auto perAccess = [&](std::uint64_t count) {
            return static_cast<double>(count) /
                   static_cast<double>(accesses);
        };
        EXPECT_EQ(io.readv_calls, accesses)
            << "path loads are not one vectored read each";
        EXPECT_LE(perAccess(io.writev_calls + io.writev_quiet_calls), 3.0)
            << "path writes are not vectored";
        EXPECT_GT(io.pwrites, 0u) << "writes never reached the file";
        EXPECT_GT(io.fsyncs, 0u) << "no fsync boundaries";
        EXPECT_LE(perAccess(io.fsyncs), 1.0)
            << "more than one fsync per access";
        EXPECT_EQ(io.torn_pages_detected, 0u) << "torn pages in a clean run";
    }
    removeTree(path);
}

} // namespace
} // namespace psoram
