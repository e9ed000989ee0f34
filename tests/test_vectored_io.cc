/**
 * @file
 * The vectored seam contract (mem/backend.hh), on both backends: the
 * default readv forwarding is byte-equivalent to scalar reads, a Noisy
 * writev reports one persist boundary per span before that span
 * applies, and a Quiet writev reports none.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mem/backend.hh"
#include "nvm/device.hh"
#include "nvm/fault_injector.hh"
#include "nvm/paged_disk.hh"

namespace psoram {
namespace {

constexpr std::uint64_t kCapacity = 1ULL << 20;

std::vector<std::uint8_t>
pattern(std::size_t len, std::uint8_t salt)
{
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < len; ++i)
        bytes[i] = static_cast<std::uint8_t>(salt + i * 7);
    return bytes;
}

/** One fresh instance of each backend; the disk tree file is
 *  removed when the fixture goes out of scope. */
struct Backends
{
    explicit Backends(const char *name)
        : path(::testing::TempDir() + name)
    {
        std::remove(path.c_str());
        std::remove((path + ".wal").c_str());
        PagedDiskConfig config;
        config.path = path;
        all.push_back(
            std::make_unique<NvmDevice>(pcmTimings(), 1, 8, kCapacity));
        all.push_back(std::make_unique<PagedDiskBackend>(
            pcmTimings(), 1, 8, kCapacity, config));
    }
    ~Backends()
    {
        all.clear();
        std::remove(path.c_str());
        std::remove((path + ".wal").c_str());
    }

    std::string path;
    std::vector<std::unique_ptr<MemoryBackend>> all;
};

const char *
nameOf(const MemoryBackend &backend)
{
    return dynamic_cast<const PagedDiskBackend *>(&backend) ? "disk"
                                                            : "memory";
}

const std::vector<std::uint8_t> kPayload = pattern(64, 9);
const std::vector<WriteSpan> kSpans{
    {0, kPayload.data(), kPayload.size()},
    {128, kPayload.data(), kPayload.size()},
    {256, kPayload.data(), kPayload.size()},
};

TEST(VectoredIo, DefaultForwardingMatchesScalarOps)
{
    NvmDevice vectored(pcmTimings(), 1, 8, kCapacity);
    NvmDevice scalar(pcmTimings(), 1, 8, kCapacity);

    const auto a = pattern(96, 1);
    const auto b = pattern(64, 2);
    const auto c = pattern(200, 3);
    const std::vector<WriteSpan> writes{
        {0, a.data(), a.size()},
        {4096, b.data(), b.size()},
        {70000, c.data(), c.size()},
    };
    vectored.writev(writes);
    for (const WriteSpan &span : writes)
        scalar.writeBytes(span.addr, span.data, span.len);

    std::vector<std::uint8_t> got_a(96), got_b(64), got_c(200);
    const std::vector<ReadSpan> reads{
        {0, got_a.data(), got_a.size()},
        {4096, got_b.data(), got_b.size()},
        {70000, got_c.data(), got_c.size()},
    };
    vectored.readv(reads);
    EXPECT_EQ(got_a, a);
    EXPECT_EQ(got_b, b);
    EXPECT_EQ(got_c, c);

    // Same functional image either way.
    EXPECT_EQ(vectored.image(), scalar.image());
}

TEST(VectoredIo, NoisyWritevReportsOneBoundaryPerSpan)
{
    Backends backends("vectored_noisy.tree");
    for (const auto &device : backends.all) {
        SCOPED_TRACE(nameOf(*device));
        FaultInjector injector;
        device->setFaultInjector(&injector);

        // One boundary per span. The disk backend then appends the
        // call as one log record (LogAppend); sync() is a separate
        // durability point.
        const bool disk = std::strcmp(nameOf(*device), "disk") == 0;
        device->writev(kSpans);
        EXPECT_EQ(injector.kindCount(PersistBoundary::DirectWrite), 3u);
        EXPECT_EQ(injector.boundariesSeen(), disk ? 4u : 3u);
        {
            const FaultInjector::ScopedDrain drain(&injector);
            device->writev(kSpans);
        }
        EXPECT_EQ(injector.kindCount(PersistBoundary::DrainWrite), 3u);
        device->setFaultInjector(nullptr);
    }
}

TEST(VectoredIo, QuietWritevReportsNoBoundaries)
{
    Backends backends("vectored_quiet.tree");
    for (const auto &device : backends.all) {
        SCOPED_TRACE(nameOf(*device));
        FaultInjector injector;
        device->setFaultInjector(&injector);

        // Quiet batches are not enumerable crash points, in a drain or
        // out of one.
        device->writev(kSpans, Durability::Quiet);
        {
            const FaultInjector::ScopedDrain drain(&injector);
            device->writev(kSpans, Durability::Quiet);
        }
        device->writeBytes(512, kPayload.data(), kPayload.size(),
                           Durability::Quiet);
        EXPECT_EQ(injector.boundariesSeen(), 0u);

        std::vector<std::uint8_t> got(64);
        device->readBytes(512, got.data(), got.size());
        EXPECT_EQ(got, kPayload);
        device->setFaultInjector(nullptr);
    }
}

TEST(VectoredIo, FaultMidWritevAppliesEarlierSpansOnly)
{
    Backends backends("vectored_fault.tree");
    for (const auto &device : backends.all) {
        SCOPED_TRACE(nameOf(*device));
        FaultInjector injector;
        device->setFaultInjector(&injector);
        injector.armAt(2); // second span's boundary fires before its write

        EXPECT_THROW(device->writev(kSpans), InjectedFault);
        device->setFaultInjector(nullptr);

        // NvmDevice applies span by span; the disk backend reports every
        // boundary of the call before its one log record, so nothing of
        // the call lands.
        const bool disk = std::strcmp(nameOf(*device), "disk") == 0;
        std::vector<std::uint8_t> got(64);
        device->readBytes(0, got.data(), got.size());
        EXPECT_EQ(got, disk ? std::vector<std::uint8_t>(64, 0) : kPayload)
            << "span before the fault: applied iff the backend applies "
               "span by span";
        device->readBytes(128, got.data(), got.size());
        EXPECT_EQ(got, std::vector<std::uint8_t>(64, 0))
            << "faulting span must not be applied";
        device->readBytes(256, got.data(), got.size());
        EXPECT_EQ(got, std::vector<std::uint8_t>(64, 0))
            << "span after the fault must not be applied";
    }
}

} // namespace
} // namespace psoram
