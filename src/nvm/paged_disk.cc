#include "nvm/paged_disk.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/log.hh"
#include "nvm/fault_injector.hh"
#include "obs/trace.hh"

namespace psoram {

namespace {

constexpr std::uint64_t kHeaderMagic = 0x3130534b49445350ULL; // "PSDISK01"
constexpr std::uint64_t kPageMagic = 0x0000314750445350ULL;   // "PSDPG1"

struct DiskHeader
{
    std::uint64_t magic;
    std::uint64_t capacity;
    std::uint64_t page_bytes;
    std::uint64_t record_bytes;
};

struct PageTrailer
{
    std::uint64_t magic;
    std::uint64_t page_index;
    std::uint32_t crc;
    std::uint32_t reserved;
};

void
packU64(std::uint8_t *out, std::uint64_t v)
{
    std::memcpy(out, &v, sizeof(v));
}

void
packU32(std::uint8_t *out, std::uint32_t v)
{
    std::memcpy(out, &v, sizeof(v));
}

std::uint64_t
unpackU64(const std::uint8_t *in)
{
    std::uint64_t v;
    std::memcpy(&v, in, sizeof(v));
    return v;
}

std::uint32_t
unpackU32(const std::uint8_t *in)
{
    std::uint32_t v;
    std::memcpy(&v, in, sizeof(v));
    return v;
}

} // namespace

std::uint32_t
PagedDiskBackend::crc32(const std::uint8_t *data, std::size_t len)
{
    return psoram::crc32(data, len);
}

PagedDiskBackend::PagedDiskBackend(const NvmTimingParams &params,
                                   unsigned num_channels,
                                   unsigned banks_per_channel,
                                   std::uint64_t capacity_bytes,
                                   PagedDiskConfig config)
    : params_(params), capacity_(capacity_bytes),
      num_pages_((capacity_bytes + kPageBytes - 1) / kPageBytes),
      config_(std::move(config))
{
    PSORAM_TRACE_SCOPE("recovery", "disk_open", 0);
    if (num_channels == 0)
        PSORAM_FATAL("paged disk backend needs at least one channel");
    if (config_.path.empty())
        PSORAM_FATAL("paged disk backend needs a backing file path");
    if (config_.cache_pages == 0)
        config_.cache_pages = 1;
    channels_.reserve(num_channels);
    for (unsigned i = 0; i < num_channels; ++i)
        channels_.emplace_back(params, banks_per_channel);

    fd_ = ::open(config_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        PSORAM_FATAL("cannot open disk tree '", config_.path,
                     "': ", std::strerror(errno));

    const off_t size = ::lseek(fd_, 0, SEEK_END);
    std::uint8_t header[kHeaderBytes] = {};
    if (size >= static_cast<off_t>(sizeof(DiskHeader))) {
        bool eof = false;
        preadFully(header, sizeof(DiskHeader), 0, eof);
        if (unpackU64(header) != kHeaderMagic ||
            unpackU64(header + 16) != kPageBytes ||
            unpackU64(header + 24) != kRecordBytes)
            PSORAM_FATAL("'", config_.path,
                         "' is not a paged disk tree (bad header)");
        if (unpackU64(header + 8) != capacity_)
            PSORAM_FATAL("disk tree '", config_.path, "' capacity ",
                         unpackU64(header + 8),
                         " does not match configured ", capacity_);
    } else {
        packU64(header, kHeaderMagic);
        packU64(header + 8, capacity_);
        packU64(header + 16, kPageBytes);
        packU64(header + 24, kRecordBytes);
        pwriteFully(header, kHeaderBytes, 0);
        fsyncFile();
    }
}

PagedDiskBackend::~PagedDiskBackend()
{
    if (fd_ >= 0) {
        // Orderly shutdown persists the write-back cache; a simulated
        // crash goes through dropVolatile() instead and loses it.
        persistBarrier();
        ::close(fd_);
    }
}

void
PagedDiskBackend::preadFully(std::uint8_t *buf, std::size_t len,
                             std::uint64_t offset, bool &hit_eof) const
{
    hit_eof = false;
    std::size_t done = 0;
    while (done < len) {
        const ssize_t got =
            ::pread(fd_, buf + done, len - done,
                    static_cast<off_t>(offset + done));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            PSORAM_FATAL("pread(", config_.path,
                         ") failed: ", std::strerror(errno));
        }
        if (got == 0) {
            // Sparse tail: pages past EOF read as zero.
            std::memset(buf + done, 0, len - done);
            hit_eof = true;
            return;
        }
        done += static_cast<std::size_t>(got);
    }
}

void
PagedDiskBackend::pwriteFully(const std::uint8_t *buf, std::size_t len,
                              std::uint64_t offset) const
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t put =
            ::pwrite(fd_, buf + done, len - done,
                     static_cast<off_t>(offset + done));
        if (put < 0) {
            if (errno == EINTR)
                continue;
            PSORAM_FATAL("pwrite(", config_.path,
                         ") failed: ", std::strerror(errno));
        }
        done += static_cast<std::size_t>(put);
    }
}

void
PagedDiskBackend::fsyncFile() const
{
    if (::fsync(fd_) != 0)
        PSORAM_FATAL("fsync(", config_.path,
                     ") failed: ", std::strerror(errno));
    ++stats_.fsyncs;
}

void
PagedDiskBackend::loadPage(std::uint64_t page, std::uint8_t *out) const
{
    std::uint8_t record[kRecordBytes] = {};
    bool eof = false;
    preadFully(record, kRecordBytes,
               kHeaderBytes + page * kRecordBytes, eof);
    ++stats_.preads;

    const std::uint8_t *trailer = record + kPageBytes;
    PageTrailer t;
    t.magic = unpackU64(trailer);
    t.page_index = unpackU64(trailer + 8);
    t.crc = unpackU32(trailer + 16);

    if (t.magic == 0) {
        // Never-written page (sparse hole / short file): zero-fill. A
        // *torn* first write of a page also lands here (payload bytes
        // without a trailer) — the payload is still delivered so ADR
        // redelivery can heal the lines it covers.
        const bool has_payload = [&] {
            for (std::size_t i = 0; i < kPageBytes; ++i)
                if (record[i] != 0)
                    return true;
            return false;
        }();
        if (has_payload) {
            ++stats_.torn_pages_detected;
            warn("disk tree '", config_.path, "' page ", page,
                 " has payload but no trailer (torn first write)");
            if (config_.strict_torn)
                PSORAM_FATAL("torn page ", page, " in '", config_.path,
                             "' (strict mode)");
        }
        std::memcpy(out, record, kPageBytes);
        return;
    }

    const bool bad = t.magic != kPageMagic || t.page_index != page ||
                     t.crc != crc32(record, kPageBytes);
    if (bad) {
        ++stats_.torn_pages_detected;
        warn("disk tree '", config_.path, "' page ", page,
             " failed trailer verification (torn/misdirected write)");
        if (config_.strict_torn)
            PSORAM_FATAL("torn page ", page, " in '", config_.path,
                         "' (strict mode)");
    }
    std::memcpy(out, record, kPageBytes);
}

void
PagedDiskBackend::storePage(std::uint64_t page, const std::uint8_t *bytes,
                            bool tearable, bool noisy)
{
    std::uint8_t record[kRecordBytes];
    std::memcpy(record, bytes, kPageBytes);
    std::uint8_t *trailer = record + kPageBytes;
    std::memset(trailer, 0, kTrailerBytes);
    packU64(trailer, kPageMagic);
    packU64(trailer + 8, page);
    packU32(trailer + 16, crc32(record, kPageBytes));

    const std::uint64_t offset = kHeaderBytes + page * kRecordBytes;
    FaultInjector *injector = noisy ? fault_injector_ : nullptr;
    if (injector && tearable) {
        // Torn-page crash point: half the payload lands, then the
        // boundary may abort before the rest and the fresh trailer do —
        // leaving on-disk bytes that no longer match the stored CRC.
        constexpr std::size_t kHalf = kPageBytes / 2;
        pwriteFully(record, kHalf, offset);
        ++stats_.pwrites;
        injector->boundary(PersistBoundary::PageWrite);
        pwriteFully(record + kHalf, kRecordBytes - kHalf,
                    offset + kHalf);
        ++stats_.pwrites;
    } else {
        // Atomic-old semantics outside a drain: the boundary aborts
        // before any byte of the page changes.
        if (injector)
            injector->boundary(PersistBoundary::PageWrite);
        pwriteFully(record, kRecordBytes, offset);
        ++stats_.pwrites;
    }
    ++stats_.pages_flushed;
}

PagedDiskBackend::Frame &
PagedDiskBackend::frameFor(std::uint64_t page) const
{
    const auto it = frames_.find(page);
    if (it != frames_.end()) {
        ++stats_.cache_hits;
        Frame &frame = it->second;
        if (!frame.pinned) {
            lru_.splice(lru_.end(), lru_, frame.lru_pos);
            frame.lru_pos = std::prev(lru_.end());
        }
        return frame;
    }

    ++stats_.cache_misses;
    Frame frame;
    frame.bytes.resize(kPageBytes);
    loadPage(page, frame.bytes.data());
    frame.pinned = page < config_.pinned_pages;
    auto [pos, inserted] = frames_.emplace(page, std::move(frame));
    Frame &resident = pos->second;
    if (!resident.pinned) {
        lru_.push_back(page);
        resident.lru_pos = std::prev(lru_.end());
        ++unpinned_resident_;
        enforceCapacity();
    }
    return resident;
}

void
PagedDiskBackend::enforceCapacity() const
{
    while (unpinned_resident_ > config_.cache_pages && !lru_.empty()) {
        const std::uint64_t victim = lru_.front();
        auto it = frames_.find(victim);
        if (it == frames_.end())
            PSORAM_PANIC("page cache LRU desync on page ", victim);
        if (it->second.dirty)
            flushFrameQuiet(victim, it->second);
        lru_.pop_front();
        frames_.erase(it);
        --unpinned_resident_;
        ++stats_.cache_evictions;
    }
}

void
PagedDiskBackend::flushFrameQuiet(std::uint64_t page, Frame &frame) const
{
    // Quiet write-back (eviction / barrier): whole-record pwrite, no
    // persist boundary — this path runs under reader locks, where the
    // injector must never be touched.
    auto *self = const_cast<PagedDiskBackend *>(this);
    self->storePage(page, frame.bytes.data(), /*tearable=*/false,
                    /*noisy=*/false);
    frame.dirty = false;
}

void
PagedDiskBackend::readBytes(Addr addr, std::uint8_t *out,
                            std::size_t len) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.scalar_reads;
    if (addr > capacity_ || len > capacity_ - addr)
        PSORAM_PANIC("disk read past capacity: addr=", addr,
                     " len=", len);
    std::size_t off = 0;
    while (off < len) {
        const Addr cur = addr + off;
        const std::size_t in_page =
            static_cast<std::size_t>(cur % kPageBytes);
        const std::size_t chunk =
            std::min(len - off, kPageBytes - in_page);
        const Frame &frame = frameFor(cur / kPageBytes);
        std::memcpy(out + off, frame.bytes.data() + in_page, chunk);
        off += chunk;
    }
}

void
PagedDiskBackend::readv(const ReadSpan *spans, std::size_t n) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.readv_calls;
    stats_.spans_read += n;
    for (std::size_t i = 0; i < n; ++i) {
        const ReadSpan &span = spans[i];
        if (span.addr > capacity_ || span.len > capacity_ - span.addr)
            PSORAM_PANIC("disk readv past capacity: addr=", span.addr,
                         " len=", span.len);
        std::size_t off = 0;
        while (off < span.len) {
            const Addr cur = span.addr + off;
            const std::size_t in_page =
                static_cast<std::size_t>(cur % kPageBytes);
            const std::size_t chunk =
                std::min(span.len - off, kPageBytes - in_page);
            const Frame &frame = frameFor(cur / kPageBytes);
            std::memcpy(span.data + off, frame.bytes.data() + in_page,
                        chunk);
            off += chunk;
        }
    }
}

void
PagedDiskBackend::applySpan(Addr addr, const std::uint8_t *in,
                            std::size_t len,
                            std::vector<std::uint64_t> &touched)
{
    if (addr > capacity_ || len > capacity_ - addr)
        PSORAM_PANIC("disk write past capacity: addr=", addr,
                     " len=", len);
    std::size_t off = 0;
    while (off < len) {
        const Addr cur = addr + off;
        const std::size_t in_page =
            static_cast<std::size_t>(cur % kPageBytes);
        const std::size_t chunk =
            std::min(len - off, kPageBytes - in_page);
        Frame &frame = frameFor(cur / kPageBytes);
        std::memcpy(frame.bytes.data() + in_page, in + off, chunk);
        frame.dirty = true;
        touched.push_back(cur / kPageBytes);
        off += chunk;
    }
}

void
PagedDiskBackend::writevLocked(const WriteSpan *spans, std::size_t n,
                               bool noisy)
{
    // Stage 1: land every span in the page cache. Noisy spans report
    // their DrainWrite/DirectWrite boundary *before* applying, exactly
    // like NvmDevice — a fault here leaves this span (and the rest of
    // the batch) unapplied, and earlier spans dirty-but-unflushed,
    // which dropVolatile() then discards: nothing of this call is
    // durable. The callers that batch multiple noisy spans are the WPQ
    // drain (ADR redelivers the whole round) and the non-persistent
    // direct eviction (no durability claim), so the all-or-nothing
    // visibility is sound.
    std::vector<std::uint64_t> touched;
    touched.reserve(n);
    const bool in_drain =
        fault_injector_ != nullptr && fault_injector_->inDrain();
    for (std::size_t i = 0; i < n; ++i) {
        if (noisy && fault_injector_)
            fault_injector_->boundary(in_drain
                                          ? PersistBoundary::DrainWrite
                                          : PersistBoundary::DirectWrite);
        applySpan(spans[i].addr, spans[i].data, spans[i].len, touched);
    }
    if (!noisy)
        return;

    // Stage 2 (noisy only — write-through): flush each touched page
    // once, then fsync. Inside a drain the page flush is tearable (the
    // PageWrite boundary fires mid-pwrite); outside, atomic-old.
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    for (const std::uint64_t page : touched) {
        const auto it = frames_.find(page);
        if (it == frames_.end() || !it->second.dirty)
            continue; // evicted meanwhile: the eviction flushed it
        storePage(page, it->second.bytes.data(), /*tearable=*/in_drain,
                  /*noisy=*/true);
        it->second.dirty = false;
    }
    if (config_.fsync_noisy) {
        if (fault_injector_)
            fault_injector_->boundary(PersistBoundary::Sync);
        fsyncFile();
    }
}

void
PagedDiskBackend::writeBytes(Addr addr, const std::uint8_t *in,
                             std::size_t len)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.scalar_writes;
    const WriteSpan span{addr, in, len};
    writevLocked(&span, 1, /*noisy=*/true);
}

void
PagedDiskBackend::writeBytesQuiet(Addr addr, const std::uint8_t *in,
                                  std::size_t len)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.scalar_writes;
    const WriteSpan span{addr, in, len};
    writevLocked(&span, 1, /*noisy=*/false);
}

void
PagedDiskBackend::writev(const WriteSpan *spans, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.writev_calls;
    stats_.spans_written += n;
    writevLocked(spans, n, /*noisy=*/true);
}

void
PagedDiskBackend::writevQuiet(const WriteSpan *spans, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.writev_quiet_calls;
    stats_.spans_written += n;
    writevLocked(spans, n, /*noisy=*/false);
}

void
PagedDiskBackend::persistBarrier()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[page, frame] : frames_)
        if (frame.dirty)
            flushFrameQuiet(page, frame);
    fsyncFile();
}

void
PagedDiskBackend::dropVolatile()
{
    std::lock_guard<std::mutex> lock(mutex_);
    frames_.clear();
    lru_.clear();
    unpinned_resident_ = 0;
}

Cycle
PagedDiskBackend::access(Addr addr, std::size_t len, bool is_write,
                         Cycle earliest)
{
    const Addr first_line = addr / kBlockDataBytes;
    const Addr last_line = (addr + len - 1) / kBlockDataBytes;
    Cycle done = earliest;
    for (Addr line = first_line; line <= last_line; ++line) {
        unsigned channel, bank;
        decode(line, channel, bank);
        done = std::max(done, channels_[channel].access(bank, earliest,
                                                        is_write));
    }
    return done;
}

Cycle
PagedDiskBackend::accessOne(Addr addr, bool is_write, Cycle earliest)
{
    unsigned channel, bank;
    decode(addr / kBlockDataBytes, channel, bank);
    return channels_[channel].access(bank, earliest, is_write);
}

void
PagedDiskBackend::decode(Addr line_addr, unsigned &channel,
                         unsigned &bank) const
{
    constexpr Addr kLinesPerRow = 64; // 4 KiB rows, as NvmDevice
    channel = static_cast<unsigned>((line_addr / kLinesPerRow) %
                                    channels_.size());
    bank = static_cast<unsigned>(line_addr %
                                 channels_[channel].numBanks());
}

std::uint64_t
PagedDiskBackend::totalReads() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel.readCount();
    return total;
}

std::uint64_t
PagedDiskBackend::totalWrites() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel.writeCount();
    return total;
}

void
PagedDiskBackend::resetStats()
{
    for (auto &channel : channels_)
        channel.resetStats();
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = IoStats{};
}

MemoryImage
PagedDiskBackend::image() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    static const NvmLine kZeroLine{};
    MemoryImage img;
    std::vector<std::uint8_t> page_buf(kPageBytes);
    for (std::uint64_t p = 0; p < num_pages_; ++p) {
        const std::uint8_t *bytes;
        const auto it = frames_.find(p);
        if (it != frames_.end()) {
            bytes = it->second.bytes.data();
        } else {
            loadPage(p, page_buf.data());
            bytes = page_buf.data();
        }
        for (std::size_t l = 0; l < kLinesPerPage; ++l) {
            const std::uint8_t *src = bytes + l * kBlockDataBytes;
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
PagedDiskBackend::restoreImage(const MemoryImage &img)
{
    std::lock_guard<std::mutex> lock(mutex_);
    frames_.clear();
    lru_.clear();
    unpinned_resident_ = 0;
    if (::ftruncate(fd_, static_cast<off_t>(kHeaderBytes)) != 0)
        PSORAM_FATAL("ftruncate(", config_.path,
                     ") failed: ", std::strerror(errno));

    // Group the sparse line map into pages, then store each page with
    // a fresh trailer (no boundaries: restore runs under suspension).
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> pages;
    for (const auto &[line, data] : img) {
        const std::uint64_t page = line / kLinesPerPage;
        if (page >= num_pages_)
            PSORAM_FATAL("image line ", line, " beyond disk capacity ",
                         capacity_);
        auto &bytes = pages[page];
        if (bytes.empty())
            bytes.resize(kPageBytes, 0);
        std::memcpy(bytes.data() +
                        (line % kLinesPerPage) * kBlockDataBytes,
                    data.data(), kBlockDataBytes);
    }
    for (const auto &[page, bytes] : pages)
        storePage(page, bytes.data(), /*tearable=*/false,
                  /*noisy=*/false);
    fsyncFile();
}

PagedDiskBackend::IoStats
PagedDiskBackend::ioStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::uint64_t
PagedDiskBackend::tornPagesDetected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.torn_pages_detected;
}

std::size_t
PagedDiskBackend::residentPages() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_.size();
}

} // namespace psoram
