#include "nvm/device.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"
#include "nvm/fault_injector.hh"

namespace psoram {

NvmDevice::NvmDevice(const NvmTimingParams &params, unsigned num_channels,
                     unsigned banks_per_channel,
                     std::uint64_t capacity_bytes)
    : MemoryBackend(NvmTiming(params, num_channels, banks_per_channel),
                    capacity_bytes)
{
    pages_.resize((capacity_bytes + kPageBytes - 1) / kPageBytes);
}

void
NvmDevice::checkRange(Addr addr, std::size_t len, const char *op) const
{
    // Overflow-safe bounds check: `addr + len > capacity()` can wrap for
    // addresses near the top of the 64-bit space.
    if (addr > capacity() || len > capacity() - addr)
        PSORAM_PANIC("NVM ", op, " past capacity: addr=", addr,
                     " len=", len);
}

void
NvmDevice::readBytes(Addr addr, std::uint8_t *out, std::size_t len) const
{
    checkRange(addr, len, "read");
    std::size_t off = 0;
    while (off < len) {
        const Addr cur = addr + off;
        const std::size_t in_page =
            static_cast<std::size_t>(cur % kPageBytes);
        const std::size_t chunk =
            std::min(len - off, kPageBytes - in_page);
        const NvmPage *page = pages_[cur / kPageBytes].get();
        if (page == nullptr)
            std::memset(out + off, 0, chunk);
        else
            std::memcpy(out + off, page->bytes.data() + in_page, chunk);
        off += chunk;
    }
}

void
NvmDevice::readv(const ReadSpan *spans, std::size_t n) const
{
    // Two passes: first prefetch every line of every span, then copy,
    // so the path's cache misses in a large tree overlap instead of
    // queueing behind one another. The first pass bounds-checks each
    // span before it indexes the page table.
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = spans[i].addr;
        const std::size_t len = spans[i].len;
        checkRange(addr, len, "read");
        for (Addr line = addr - addr % kBlockDataBytes; line < addr + len;
             line += kBlockDataBytes) {
            const NvmPage *page = pages_[line / kPageBytes].get();
            if (page != nullptr)
                __builtin_prefetch(page->bytes.data() + line % kPageBytes);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        readBytes(spans[i].addr, spans[i].data, spans[i].len);
}

void
NvmDevice::writev(const WriteSpan *spans, std::size_t n,
                  Durability durability)
{
    for (std::size_t i = 0; i < n; ++i) {
        // Persist boundary: the durable image is about to change. A
        // fault raised here aborts *before* the span applies; for
        // writes inside a committed WPQ drain the entry stays queued
        // and the ADR flush still delivers it, preserving the
        // committed-round guarantee.
        if (durability == Durability::Noisy && fault_injector_)
            fault_injector_->boundary(fault_injector_->inDrain()
                                          ? PersistBoundary::DrainWrite
                                          : PersistBoundary::DirectWrite);
        applySpan(spans[i].addr, spans[i].data, spans[i].len);
    }
}

void
NvmDevice::applySpan(Addr addr, const std::uint8_t *in, std::size_t len)
{
    checkRange(addr, len, "write");
    std::size_t off = 0;
    while (off < len) {
        const Addr cur = addr + off;
        const std::size_t in_page =
            static_cast<std::size_t>(cur % kPageBytes);
        const std::size_t chunk =
            std::min(len - off, kPageBytes - in_page);
        auto &slot = pages_[cur / kPageBytes];
        if (!slot)
            slot = std::make_unique<NvmPage>();
        std::memcpy(slot->bytes.data() + in_page, in + off, chunk);

        const std::size_t first_line = in_page / kBlockDataBytes;
        const std::size_t last_line =
            (in_page + chunk - 1) / kBlockDataBytes;
        for (std::size_t l = first_line; l <= last_line; ++l) {
            const std::uint32_t writes = ++slot->wear[l];
            if (writes == 1)
                ++distinct_lines_written_;
            ++total_line_writes_;
            if (writes > max_line_writes_)
                max_line_writes_ = writes;
        }
        off += chunk;
    }
}

double
NvmDevice::meanLineWrites() const
{
    if (distinct_lines_written_ == 0)
        return 0.0;
    return static_cast<double>(total_line_writes_) /
           static_cast<double>(distinct_lines_written_);
}

void
NvmDevice::resetStats()
{
    MemoryBackend::resetStats();
    for (auto &slot : pages_)
        if (slot)
            slot->wear.fill(0);
    distinct_lines_written_ = 0;
    total_line_writes_ = 0;
    max_line_writes_ = 0;
}

MemoryImage
NvmDevice::image() const
{
    // Materialize the sparse line map the snapshot interface promises.
    // All-zero lines are elided: restoring them is indistinguishable
    // from never having written them (unwritten lines read as zero).
    static const NvmLine kZeroLine{};
    MemoryImage img;
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        const NvmPage *page = pages_[p].get();
        if (page == nullptr)
            continue;
        for (std::size_t l = 0; l < kLinesPerPage; ++l) {
            const std::uint8_t *src =
                page->bytes.data() + l * kBlockDataBytes;
            if (std::memcmp(src, kZeroLine.data(), kBlockDataBytes) == 0)
                continue;
            NvmLine line;
            std::memcpy(line.data(), src, kBlockDataBytes);
            img.emplace(static_cast<Addr>(p) * kLinesPerPage + l, line);
        }
    }
    return img;
}

void
NvmDevice::restoreImage(const MemoryImage &img)
{
    // Data is restored; wear survives a snapshot/restore cycle (the
    // cells were physically written regardless of what a crash rolls
    // back), matching the previous line-map behaviour.
    for (auto &slot : pages_)
        if (slot)
            slot->bytes.fill(0);
    for (const auto &[line, data] : img) {
        if (line >= pages_.size() * kLinesPerPage)
            PSORAM_FATAL("image line ", line, " beyond device capacity ",
                         capacity());
        auto &slot = pages_[line / kLinesPerPage];
        if (!slot)
            slot = std::make_unique<NvmPage>();
        std::memcpy(slot->bytes.data() +
                        (line % kLinesPerPage) * kBlockDataBytes,
                    data.data(), kBlockDataBytes);
    }
}

} // namespace psoram
