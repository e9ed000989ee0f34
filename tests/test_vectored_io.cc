/**
 * @file
 * The vectored seam contract (mem/backend.hh): the default readv/writev
 * forwarding is byte- and boundary-equivalent to scalar loops, noisy
 * batches keep per-span persist-boundary granularity.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/backend.hh"
#include "nvm/device.hh"
#include "nvm/fault_injector.hh"

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
    NvmDevice device(pcmTimings(), 1, 8, kCapacity);
    FaultInjector injector;
    device.setFaultInjector(&injector);

    const auto payload = pattern(64, 9);
    const std::vector<WriteSpan> spans{
        {0, payload.data(), payload.size()},
        {128, payload.data(), payload.size()},
        {256, payload.data(), payload.size()},
    };
    device.writev(spans);
    EXPECT_EQ(injector.boundariesSeen(), 3u);
    EXPECT_EQ(injector.kindCount(PersistBoundary::DirectWrite), 3u);

    {
        const FaultInjector::ScopedDrain drain(&injector);
        device.writev(spans);
    }
    EXPECT_EQ(injector.kindCount(PersistBoundary::DrainWrite), 3u);

    // Quiet batches are not enumerable crash points.
    const std::uint64_t before = injector.boundariesSeen();
    device.writevQuiet(spans);
    EXPECT_EQ(injector.boundariesSeen(), before);
}

TEST(VectoredIo, FaultMidWritevAppliesEarlierSpansOnly)
{
    NvmDevice device(pcmTimings(), 1, 8, kCapacity);
    FaultInjector injector;
    device.setFaultInjector(&injector);
    injector.armAt(2); // second span's boundary fires before its write

    const auto payload = pattern(64, 5);
    const std::vector<WriteSpan> spans{
        {0, payload.data(), payload.size()},
        {128, payload.data(), payload.size()},
        {256, payload.data(), payload.size()},
    };
    EXPECT_THROW(device.writev(spans), InjectedFault);

    std::vector<std::uint8_t> got(64);
    device.readBytes(0, got.data(), got.size());
    EXPECT_EQ(got, payload) << "span before the fault must be applied";
    device.readBytes(128, got.data(), got.size());
    EXPECT_EQ(got, std::vector<std::uint8_t>(64, 0))
        << "faulting span must not be applied";
    device.readBytes(256, got.data(), got.size());
    EXPECT_EQ(got, std::vector<std::uint8_t>(64, 0))
        << "span after the fault must not be applied";
}

} // namespace
} // namespace psoram
