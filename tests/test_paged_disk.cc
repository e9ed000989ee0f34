/**
 * @file
 * PagedDiskBackend unit coverage: functional equivalence with the
 * in-memory model, redo-log durability semantics under dropVolatile()
 * (synced records survive, the unsynced tail and torn records do not),
 * LRU eviction + pinning with the write-ahead rule, image
 * snapshot/restore, reopen persistence, and the torn-page negative
 * control — a partial page write MUST be detected (CRC trailer
 * mismatch) when the page is next loaded, and healed by log replay —
 * the on-disk CRC format, the subtree map (every path in
 * ceil((L+1)/k) pages, checked over a geometry sweep and end to end
 * against the memory backend), the refusal of trees written in another
 * layout, and the IO shape of a PS-ORAM stack on an out-of-core tree.
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

#include "common/crc32.hh"
#include "common/random.hh"
#include "disk_trees.hh"
#include "nvm/device.hh"
#include "nvm/fault_injector.hh"
#include "sim/sharded_engine.hh"

namespace psoram {
namespace {

using testing::tmpTree;

constexpr std::uint64_t kCapacity = 1ULL << 20; // 256 pages

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
    removeDiskTrees(path);
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
    removeDiskTrees(path);
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
    removeDiskTrees(path);
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
    removeDiskTrees(path);
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
    removeDiskTrees(path);
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
        removeDiskTrees(tree);
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
    removeDiskTrees(path);
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
    removeDiskTrees(path);
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
    removeDiskTrees(path_a);
    removeDiskTrees(path_b);
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
    removeDiskTrees(path);
}

/**
 * image() loads each page it needs once. A subtree page's rows are
 * separate runs of the address space, so a walk that reloaded a page
 * per run would count one torn page once per row.
 */
TEST(PagedDisk, ImageCountsATornSubtreePageOnce)
{
    const std::string path = tmpTree("paged_disk_torn_image.tree");
    PagedDiskConfig config = diskConfig(path);
    config.cache_pages = 1;
    config.pinned_pages = 0;
    config.tree_levels = 6;
    config.bucket_bytes = 384;
    // Bucket 7 (level 3) roots the first subtree of the bottom tier,
    // whose page holds rows of levels 3, 4 and 5.
    const Addr bucket = 7 * config.bucket_bytes;
    const auto payload = pattern(config.bucket_bytes, 61);
    PagedDiskBackend::Location at{};
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);
        ASSERT_EQ(disk.subtreeLevels(), 3u);
        disk.writeBytes(bucket, payload.data(), payload.size());
        at = disk.locate(bucket);
    }

    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    std::uint8_t junk[256];
    std::memset(junk, 0x5A, sizeof(junk));
    ASSERT_EQ(::pwrite(fd, junk, sizeof(junk),
                       static_cast<off_t>(
                           PagedDiskBackend::kHeaderBytes +
                           at.page * PagedDiskBackend::kRecordBytes +
                           at.offset)),
              static_cast<ssize_t>(sizeof(junk)));
    ::close(fd);

    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);
    const std::uint64_t torn_before = disk.tornPagesDetected();
    disk.image();
    EXPECT_EQ(disk.tornPagesDetected(), torn_before + 1);
    removeDiskTrees(path);
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
    removeDiskTrees(path);
}

/** Read @p len bytes at @p offset of @p path, out of band. */
std::vector<std::uint8_t>
readFile(const std::string &path, std::uint64_t offset, std::size_t len)
{
    std::vector<std::uint8_t> bytes(len);
    const int fd = ::open(path.c_str(), O_RDONLY);
    EXPECT_GE(fd, 0) << path;
    EXPECT_EQ(::pread(fd, bytes.data(), len, static_cast<off_t>(offset)),
              static_cast<ssize_t>(len));
    ::close(fd);
    return bytes;
}

std::uint64_t
loadU64(const std::uint8_t *in)
{
    std::uint64_t v;
    std::memcpy(&v, in, sizeof(v));
    return v;
}

std::uint32_t
loadU32(const std::uint8_t *in)
{
    std::uint32_t v;
    std::memcpy(&v, in, sizeof(v));
    return v;
}

/**
 * Pins the on-disk format to the reference CRC: every page trailer,
 * the redo-log header and a log record's trailer carry crc32Scalar of
 * the bytes they cover, so files written on any host (and by any CRC
 * implementation before this one) reopen. A flipped payload byte is
 * then counted as torn at its next load.
 */
TEST(PagedDisk, TrailersMatchTheReferenceCrc)
{
    using D = PagedDiskBackend;
    const std::string path = tmpTree("paged_disk_crc_format.tree");
    {
        D disk(pcmTimings(), 1, 8, kCapacity, diskConfig(path));
        for (std::uint8_t page = 0; page < 6; ++page) {
            const auto bytes = pattern(D::kPageBytes, page);
            disk.writeBytes(page * D::kPageBytes, bytes.data(),
                            bytes.size());
        }
        disk.persistBarrier();
        const auto last = pattern(96, 99);
        disk.writeBytes(9 * D::kPageBytes, last.data(), last.size());
        disk.sync();

        // Tree file: every written page's trailer (the file ends at
        // the last page written).
        const std::uint64_t file_pages =
            testing::treeFilePageBytes(path) /
            D::kRecordBytes;
        ASSERT_LE(file_pages, disk.numPages());
        std::size_t pages_checked = 0;
        for (std::uint64_t page = 0; page < file_pages; ++page) {
            const auto rec = readFile(
                path, D::kHeaderBytes + page * D::kRecordBytes,
                D::kRecordBytes);
            const std::uint8_t *trailer = rec.data() + D::kPageBytes;
            if (loadU64(trailer) == 0)
                continue; // never written
            EXPECT_EQ(loadU64(trailer + 8), page);
            EXPECT_EQ(loadU32(trailer + 16),
                      crc32Scalar(rec.data(), D::kPageBytes))
                << "page " << page;
            ++pages_checked;
        }
        EXPECT_GE(pages_checked, 6u);

        // Log: the header CRC over its 32 field bytes, then the one
        // record appended since the barrier.
        const std::string wal = disk.logPath();
        const auto header = readFile(wal, 0, 36);
        EXPECT_EQ(loadU32(header.data() + 32),
                  crc32Scalar(header.data(), 32));
        const auto rec_header =
            readFile(wal, D::kLogHeaderBytes, D::kLogRecordHeaderBytes);
        const std::uint32_t body = loadU32(rec_header.data() + 28);
        const std::size_t covered = D::kLogRecordHeaderBytes + body;
        const auto rec = readFile(wal, D::kLogHeaderBytes,
                                  covered + D::kLogRecordTrailerBytes);
        EXPECT_GT(covered, 96u);
        EXPECT_EQ(loadU64(rec.data() + covered),
                  loadU64(rec.data() + 16)); // trailer repeats the seq
        EXPECT_EQ(loadU32(rec.data() + covered + 8),
                  crc32Scalar(rec.data(), covered));
    }

    // Flip one payload byte of page 3 out of band.
    const std::uint64_t at = D::kHeaderBytes + 3 * D::kRecordBytes + 100;
    auto byte = readFile(path, at, 1);
    byte[0] ^= 0x01;
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, byte.data(), 1, static_cast<off_t>(at)), 1);
    ::close(fd);

    D disk(pcmTimings(), 1, 8, kCapacity, diskConfig(path));
    EXPECT_EQ(disk.ioStats().torn_pages_detected, 0u);
    std::vector<std::uint8_t> got(D::kPageBytes);
    disk.readBytes(3 * D::kPageBytes, got.data(), got.size());
    EXPECT_EQ(disk.ioStats().torn_pages_detected, 1u)
        << "a flipped payload byte escaped the page CRC";
    removeDiskTrees(path);
}

TEST(PagedDisk, CorruptPageIsWarnedNotFatal)
{
    // A page that fails its trailer check is counted and warned, and
    // the load still delivers the stored bytes: the redo log, not the
    // loader, heals it.
    const std::string path = tmpTree("paged_disk_corrupt.tree");
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

    PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                          diskConfig(path));
    std::vector<std::uint8_t> got(64);
    ::testing::internal::CaptureStderr();
    disk.readBytes(0, got.data(), got.size());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(disk.tornPagesDetected(), 1u);
    EXPECT_NE(err.find("failed trailer verification"), std::string::npos)
        << err;
    EXPECT_EQ(got, std::vector<std::uint8_t>(64, 0xA5));
    removeDiskTrees(path);
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
    removeDiskTrees(path);
}

/**
 * The subtree map over a geometry sweep (heights 3-14, 96/128-B
 * records, Z 4/8): each bucket lies whole in one page, no two buckets
 * share a byte, the root opens page 0, every path's buckets land in
 * exactly ceil((L+1)/k) pages, bytes after the tree map linearly after
 * the last subtree page, and every page is below numPages(). Small
 * trees are also checked byte by byte.
 */
TEST(PagedDisk, SubtreeMapPacksEveryPath)
{
    using D = PagedDiskBackend;
    const std::string path = tmpTree("paged_disk_map.tree");
    for (unsigned height = 3; height <= 14; ++height) {
        for (const std::size_t record : {96u, 128u}) {
            for (const unsigned z : {4u, 8u}) {
                SCOPED_TRACE(::testing::Message()
                             << "height " << height << " record "
                             << record << " Z " << z);
                const TreeGeometry geo{height, z};
                const std::size_t bucket_bytes = z * record;
                const Addr tree_end = geo.numBuckets() * bucket_bytes;
                const Addr linear_start =
                    (tree_end + D::kPageBytes - 1) / D::kPageBytes *
                    D::kPageBytes;
                const std::uint64_t capacity =
                    linear_start + 5 * D::kPageBytes;
                PagedDiskConfig config = diskConfig(path);
                config.cache_pages = 1;
                config.pinned_pages = 0;
                config.tree_levels = geo.levels();
                config.bucket_bytes = bucket_bytes;
                removeDiskTrees(path);
                D disk(pcmTimings(), 1, 8, capacity, config);

                unsigned k = 0;
                while (((2u << k) - 1) * bucket_bytes <= D::kPageBytes)
                    ++k;
                ASSERT_EQ(disk.subtreeLevels(), k);
                const D::Location root = disk.locate(0);
                EXPECT_EQ(root.page, 0u);
                EXPECT_EQ(root.offset, 0u);

                // Buckets: whole in one page, pairwise disjoint.
                std::vector<std::pair<std::uint64_t, std::size_t>> at;
                std::uint64_t tree_pages = 0;
                for (BucketId b = 0; b < geo.numBuckets(); ++b) {
                    const Addr addr = b * bucket_bytes;
                    const D::Location first = disk.locate(addr);
                    const D::Location last =
                        disk.locate(addr + bucket_bytes - 1);
                    ASSERT_GE(first.contiguous, bucket_bytes);
                    ASSERT_LE(first.offset + first.contiguous,
                              D::kPageBytes);
                    ASSERT_EQ(last.page, first.page);
                    ASSERT_EQ(last.offset, first.offset + bucket_bytes - 1);
                    at.emplace_back(first.page, first.offset);
                    tree_pages = std::max(tree_pages, first.page + 1);
                }
                std::sort(at.begin(), at.end());
                for (std::size_t i = 1; i < at.size(); ++i) {
                    if (at[i].first == at[i - 1].first) {
                        ASSERT_GE(at[i].second,
                                  at[i - 1].second + bucket_bytes);
                    }
                }
                if (height <= 8) {
                    for (Addr addr = 0; addr < tree_end; ++addr) {
                        const D::Location byte = disk.locate(addr);
                        const D::Location bucket = disk.locate(
                            addr / bucket_bytes * bucket_bytes);
                        ASSERT_EQ(byte.page, bucket.page);
                        ASSERT_EQ(byte.offset,
                                  bucket.offset + addr % bucket_bytes);
                    }
                }

                // Paths: exactly ceil((L+1)/k) pages each.
                const std::size_t want = (geo.levels() + k - 1) / k;
                for (PathId leaf = 0; leaf < geo.numLeaves(); ++leaf) {
                    std::vector<std::uint64_t> pages;
                    for (const BucketId b : geo.pathBuckets(leaf))
                        pages.push_back(disk.locate(b * bucket_bytes).page);
                    std::sort(pages.begin(), pages.end());
                    pages.erase(std::unique(pages.begin(), pages.end()),
                                pages.end());
                    ASSERT_EQ(pages.size(), want) << "leaf " << leaf;
                }

                // After the tree: linear, past the last subtree page.
                const D::Location after = disk.locate(linear_start);
                EXPECT_GE(after.page, tree_pages);
                EXPECT_EQ(after.offset, 0u);
                for (Addr addr = linear_start; addr < capacity;
                     addr += 1000) {
                    const D::Location loc = disk.locate(addr);
                    EXPECT_EQ(loc.page, after.page +
                                            (addr - linear_start) /
                                                D::kPageBytes);
                    EXPECT_EQ(loc.offset, addr % D::kPageBytes);
                }
                EXPECT_EQ(disk.locate(capacity - 1).page + 1,
                          disk.numPages());
            }
        }
    }
    removeDiskTrees(path);
}

/**
 * A tree file is read only through the layout it was written with:
 * a level-ordered (PSDISK01) tree and a tree written with another
 * geometry are refused at open, naming the cause.
 */
TEST(PagedDiskDeathTest, LevelOrderedTreeIsRefused)
{
    const std::string path = tmpTree("paged_disk_layout.tree");
    PagedDiskConfig config = diskConfig(path);
    config.tree_levels = 6;
    config.bucket_bytes = 384;
    {
        PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, config);
    }
    const std::string level_ordered = path + ".v1";
    std::filesystem::copy_file(path, level_ordered);
    const int fd = ::open(level_ordered.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const std::uint64_t level_ordered_magic = 0x3130534b49445350ULL;
    ASSERT_EQ(::pwrite(fd, &level_ordered_magic, 8, 0), 8);
    ::close(fd);

    EXPECT_EXIT(
        {
            PagedDiskConfig old = config;
            old.path = level_ordered;
            PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, old);
        },
        ::testing::ExitedWithCode(1), "level-ordered PSDISK01");
    PagedDiskConfig taller = config;
    ++taller.tree_levels;
    EXPECT_EXIT(
        { PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity, taller); },
        ::testing::ExitedWithCode(1), "layout .* does not match");
    EXPECT_EXIT(
        {
            PagedDiskBackend disk(pcmTimings(), 1, 8, kCapacity,
                                  diskConfig(path));
        },
        ::testing::ExitedWithCode(1), "layout .* does not match");
    removeDiskTrees(path);
    removeDiskTrees(level_ordered);
}

/**
 * The same seeded traffic on a disk System whose cache is far smaller
 * than its subtree-packed tree and on a memory System: every read
 * value, the simulated NVM traffic and the barriered image agree, and
 * the disk image round-trips through restoreImage().
 */
void
runDiskMatchesMemory(IntegrityMode integrity)
{
    const std::string path = tmpTree("paged_disk_vs_memory.tree");
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = 9;
    config.num_blocks = 400;
    config.stash_capacity = 96;
    config.wpq_entries = 96;
    config.cipher = CipherKind::FastStream;
    config.seed = 4242;
    config.integrity = integrity;
    System memory = buildSystem(config);
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    config.disk_cache_pages = 8;
    config.disk_pinned_pages = 2;
    {
        System disk_system = buildSystem(config);
        auto *disk =
            dynamic_cast<PagedDiskBackend *>(disk_system.device.get());
        ASSERT_NE(disk, nullptr);
        ASSERT_EQ(disk->subtreeLevels(), 3u);
        ASSERT_GE(disk->numPages(), 16 * config.disk_cache_pages);

        Rng rng(77);
        std::uint8_t in[kBlockDataBytes];
        std::uint8_t from_disk[kBlockDataBytes];
        std::uint8_t from_memory[kBlockDataBytes];
        const auto traffic = [&](std::size_t ops) {
            for (std::size_t op = 0; op < ops; ++op) {
                const BlockAddr addr = rng.nextBelow(config.num_blocks);
                if (rng.nextBool(0.5)) {
                    for (std::size_t i = 0; i < kBlockDataBytes; ++i)
                        in[i] = static_cast<std::uint8_t>(op * 7 + i);
                    disk_system.controller->write(addr, in);
                    memory.controller->write(addr, in);
                } else {
                    disk_system.controller->read(addr, from_disk);
                    memory.controller->read(addr, from_memory);
                    ASSERT_EQ(std::memcmp(from_disk, from_memory,
                                          kBlockDataBytes),
                              0)
                        << "read of " << addr << " diverged at op " << op;
                }
            }
        };
        traffic(400);
        EXPECT_GT(disk->ioStats().cache_evictions, 0u) << "not out of core";
        const TrafficCounts disk_nvm = disk_system.controller->traffic();
        const TrafficCounts memory_nvm = memory.controller->traffic();
        EXPECT_EQ(disk_nvm.reads, memory_nvm.reads);
        EXPECT_EQ(disk_nvm.writes, memory_nvm.writes);
        EXPECT_EQ(disk_system.controller->nowCycles(),
                  memory.controller->nowCycles());

        disk->persistBarrier();
        memory.device->persistBarrier();
        const MemoryImage image = disk->image();
        EXPECT_EQ(image, memory.device->image());
        disk->restoreImage(image);
        EXPECT_EQ(disk->image(), image);
        disk->dropVolatile();
        EXPECT_EQ(disk->image(), image);
        // The restored tree serves the same values.
        traffic(100);
        EXPECT_EQ(disk->tornPagesDetected(), 0u);
    }
    removeDiskTrees(path);
}

TEST(PagedDisk, SubtreeMappedSystemMatchesMemory)
{
    runDiskMatchesMemory(IntegrityMode::Off);
}

TEST(PagedDisk, SubtreeMappedSystemMatchesMemoryWithIntegrityTree)
{
    runDiskMatchesMemory(IntegrityMode::Tree);
}

/**
 * A PS-ORAM engine on a tree at least 8x its page cache, drained in
 * batches: every controller access that touches the tree loads its
 * path with exactly one vectored read and writes it back with a few
 * vectored writes, writes reach the file, group commit holds fsyncs to
 * at most one per access, the subtree layout bounds the page IO per
 * access, and a clean run leaves no torn pages.
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

        ShardedEngineConfig engine_config;
        engine_config.record_completions = false;
        ShardedOramEngine engine(
            ShardRouter({1}, system.params.num_blocks),
            {system.controller.get()}, engine_config);
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
            engine.stats().physical_accesses;
        for (int batch = 0; batch < 4; ++batch)
            writeBatch(128);

        const PagedDiskBackend::IoStats io = disk->ioStats();
        const std::uint64_t accesses =
            engine.stats().physical_accesses - physical_before;
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
        // A path spans ceil(12/3) = 4 subtree pages, 1-2 of them
        // pinned or cached. The level-ordered layout (one page per
        // level) measured 7.650 preads / 6.959 pwrites per access here;
        // subtree packing measures 2.436 / 3.410.
        EXPECT_LE(perAccess(io.preads), 3.0)
            << "a path load reads more pages than its subtrees";
        EXPECT_LE(perAccess(io.pwrites), 4.0)
            << "a path write-back writes more pages than its subtrees";
    }
    removeDiskTrees(path);
}

} // namespace
} // namespace psoram
