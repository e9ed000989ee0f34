#include "nvm/timing.hh"

#include <algorithm>

#include "common/log.hh"
#include "nvm/channel.hh"

namespace psoram {

std::string
nvmTechName(NvmTech tech)
{
    switch (tech) {
      case NvmTech::PCM:
        return "PCM";
      case NvmTech::STTRAM:
        return "STTRAM";
    }
    PSORAM_PANIC("unknown NvmTech");
}

NvmTimingParams
pcmTimings()
{
    // 64B over an 8-byte DDR bus: 8 beats = 4 clock edges pairs -> 4 cycles.
    return NvmTimingParams{48, 60, 4, 3, 1, 2, 4, 400};
}

NvmTimingParams
sttramTimings()
{
    return NvmTimingParams{14, 14, 10, 5, 1, 2, 4, 400};
}

NvmTimingParams
timingsFor(NvmTech tech)
{
    return tech == NvmTech::PCM ? pcmTimings() : sttramTimings();
}

NvmTiming::NvmTiming(const NvmTimingParams &params, unsigned num_channels,
                     unsigned banks_per_channel)
{
    if (num_channels == 0)
        PSORAM_FATAL("NVM timing needs at least one channel");
    channels_.reserve(num_channels);
    for (unsigned i = 0; i < num_channels; ++i)
        channels_.emplace_back(params, banks_per_channel);
}

NvmTiming::NvmTiming(const NvmTiming &other) = default;
NvmTiming &NvmTiming::operator=(const NvmTiming &other) = default;
NvmTiming::~NvmTiming() = default;

namespace {

/** Decode a line address into (channel, bank). */
void
decode(const std::vector<Channel> &channels, Addr line_addr,
       unsigned &channel, unsigned &bank)
{
    // Row-granular (4 KiB) channel interleaving with line-granular bank
    // interleaving inside a channel. Coarse channel interleaving is
    // what commodity controllers do, and it reproduces the paper's
    // observation that "it is hard to allocate the memory accesses to
    // each channel equally" (§5.2.3): a path's buckets do not spread
    // perfectly, so channel scaling saturates beyond two channels.
    constexpr Addr kLinesPerRow = 64; // 4 KiB rows
    channel = static_cast<unsigned>((line_addr / kLinesPerRow) %
                                    channels.size());
    bank = static_cast<unsigned>(line_addr % channels[channel].numBanks());
}

} // namespace

Cycle
NvmTiming::access(Addr addr, std::size_t len, bool is_write,
                  Cycle earliest)
{
    const Addr first_line = addr / kBlockDataBytes;
    const Addr last_line = (addr + len - 1) / kBlockDataBytes;
    Cycle done = earliest;
    for (Addr line = first_line; line <= last_line; ++line) {
        unsigned channel, bank;
        decode(channels_, line, channel, bank);
        done = std::max(done,
                        channels_[channel].access(bank, earliest,
                                                  is_write));
    }
    return done;
}

Cycle
NvmTiming::accessOne(Addr addr, bool is_write, Cycle earliest)
{
    unsigned channel, bank;
    decode(channels_, addr / kBlockDataBytes, channel, bank);
    return channels_[channel].access(bank, earliest, is_write);
}

std::uint64_t
NvmTiming::totalReads() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel.readCount();
    return total;
}

std::uint64_t
NvmTiming::totalWrites() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel.writeCount();
    return total;
}

void
NvmTiming::resetStats()
{
    for (auto &channel : channels_)
        channel.resetStats();
}

} // namespace psoram
