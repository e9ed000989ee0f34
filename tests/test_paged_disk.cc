/**
 * @file
 * PagedDiskBackend unit coverage: functional equivalence with the
 * in-memory model, write-back/write-through durability semantics under
 * dropVolatile(), LRU eviction + pinning, image snapshot/restore,
 * reopen persistence, and the torn-page negative control — a partial
 * page write MUST be detected (CRC trailer mismatch) when the page is
 * next loaded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "nvm/device.hh"
#include "nvm/fault_injector.hh"
#include "nvm/paged_disk.hh"

namespace psoram {
namespace {

constexpr std::uint64_t kCapacity = 1ULL << 20; // 256 pages

std::string
tmpTree(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
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
    std::remove(path.c_str());
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
    std::remove(path.c_str());
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

    // Noisy writes are write-through: durable without any barrier.
    const auto noisy = pattern(96, 12);
    disk.writeBytes(4096 * 3, noisy.data(), noisy.size());
    disk.dropVolatile();
    disk.readBytes(4096 * 3, got.data(), got.size());
    EXPECT_EQ(got, noisy);
    std::remove(path.c_str());
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

    // A quiet page reaches the file with the next noisy write's flush,
    // without a boundary of its own: one DirectWrite, one PageWrite
    // (the noisy page), one Sync.
    disk.writeBytes(2048, quiet.data(), quiet.size(), Durability::Quiet);
    disk.writeBytes(4096 * 3, noisy.data(), noisy.size());
    EXPECT_EQ(injector.boundariesSeen(), 3u);
    EXPECT_EQ(injector.kindCount(PersistBoundary::PageWrite), 1u);
    disk.setFaultInjector(nullptr);

    disk.dropVolatile();
    std::vector<std::uint8_t> got(96);
    disk.readBytes(2048, got.data(), got.size());
    EXPECT_EQ(got, quiet);
    disk.readBytes(4096 * 3, got.data(), got.size());
    EXPECT_EQ(got, noisy);
    std::remove(path.c_str());
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
    std::remove(path.c_str());
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
    std::remove(path.c_str());
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
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
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
    std::remove(path.c_str());
}

/**
 * The injector's PageWrite boundary really does tear: crash mid-pwrite
 * inside a drain, then verify the next process detects the torn record
 * and still serves the raw bytes (ADR redelivery is what heals them at
 * the protocol layer — here we check detection, not healing).
 */
TEST(PagedDisk, InjectedCrashMidPageWriteLeavesDetectableTorn)
{
    const std::string path = tmpTree("paged_disk_torn_inject.tree");
    const auto payload = pattern(4096, 51);
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                              diskConfig(path));
        FaultInjector injector;
        disk.setFaultInjector(&injector);
        const FaultInjector::ScopedDrain drain(&injector);
        // Boundary sequence for one in-drain span: DrainWrite (1),
        // PageWrite mid-pwrite (2), Sync (3). Arm the PageWrite.
        injector.armAt(2);
        const WriteSpan span{0, payload.data(), payload.size()};
        EXPECT_THROW(disk.writev(&span, 1, Durability::Noisy),
                     InjectedFault);
        EXPECT_EQ(injector.firedKind(), PersistBoundary::PageWrite);
        disk.dropVolatile(); // power gone: the cached copy is lost
    }

    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                          diskConfig(path));
    std::vector<std::uint8_t> got(4096);
    disk.readBytes(0, got.data(), got.size());
    EXPECT_GE(disk.tornPagesDetected(), 1u)
        << "mid-pwrite crash did not leave a detectable torn page";
    // First half landed, second half never did.
    EXPECT_TRUE(std::memcmp(got.data(), payload.data(), 2048) == 0);
    EXPECT_TRUE(std::all_of(got.begin() + 2048, got.end(),
                            [](std::uint8_t b) { return b == 0; }));
    std::remove(path.c_str());
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
    std::remove(path.c_str());
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
    std::remove(path.c_str());
}

} // namespace
} // namespace psoram
