#include "nvm/paged_disk.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/log.hh"
#include "nvm/fault_injector.hh"
#include "nvm/flight_recorder.hh"
#include "obs/trace.hh"

namespace psoram {

namespace {

constexpr std::uint64_t kHeaderMagic = 0x3130534b49445350ULL; // "PSDISK01"
constexpr std::uint64_t kPageMagic = 0x0000314750445350ULL;   // "PSDPG1"
constexpr std::uint64_t kLogMagic = 0x31304c4157445350ULL;    // "PSDWAL01"
constexpr std::uint64_t kRecordMagic = 0x4345524c41575350ULL; // "PSWALREC"
constexpr std::uint32_t kRecordEndMagic = 0x444e4552;         // "REND"
/** Offset of the tree id in the tree file header. */
constexpr std::size_t kTreeIdOffset = 32;
/** Log header fields covered by its CRC. */
constexpr std::size_t kLogHeaderFields = 32;
/** Resident-budget multiple the log holds (see the file comment). */
constexpr std::uint64_t kLogResidentMultiple = 4;

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
    : MemoryBackend(NvmTiming(params, num_channels, banks_per_channel),
                    capacity_bytes),
      num_pages_((capacity_bytes + kPageBytes - 1) / kPageBytes),
      config_(std::move(config)), log_path_(config_.path + ".wal")
{
    PSORAM_TRACE_SCOPE("recovery", "disk_open", 0);
    if (config_.path.empty())
        PSORAM_FATAL("paged disk backend needs a backing file path");
    if (config_.cache_pages == 0)
        config_.cache_pages = 1;
    const std::uint64_t resident =
        std::min<std::uint64_t>(config_.pinned_pages, num_pages_) +
        std::min<std::uint64_t>(config_.cache_pages, num_pages_);
    log_capacity_ = kLogResidentMultiple * resident * kRecordBytes;

    fd_ = ::open(config_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        PSORAM_FATAL("cannot open disk tree '", config_.path,
                     "': ", std::strerror(errno));

    const off_t size = ::lseek(fd_, 0, SEEK_END);
    std::uint8_t header[kHeaderBytes] = {};
    std::lock_guard<std::mutex> lock(mutex_);
    if (size >= static_cast<off_t>(kTreeIdOffset + 8)) {
        bool eof = false;
        preadFully(fd_, header, kTreeIdOffset + 8, 0, eof);
        if (unpackU64(header) != kHeaderMagic ||
            unpackU64(header + 16) != kPageBytes ||
            unpackU64(header + 24) != kRecordBytes)
            PSORAM_FATAL("'", config_.path,
                         "' is not a paged disk tree (bad header)");
        if (unpackU64(header + 8) != capacity())
            PSORAM_FATAL("disk tree '", config_.path, "' capacity ",
                         unpackU64(header + 8),
                         " does not match configured ", capacity());
        tree_id_ = unpackU64(header + kTreeIdOffset);
        // A tree without its log (or with another tree's) opens as
        // its last checkpoint: whatever only the log held is lost.
        if (!openLog()) {
            warn("disk tree '", config_.path,
                 "' has no matching redo log; opening its last "
                 "checkpoint");
            initLog();
        }
    } else {
        // A fresh tree gets a fresh log: any stale sidecar left by an
        // earlier tree at this path must never replay over it.
        std::random_device entropy;
        tree_id_ = (static_cast<std::uint64_t>(entropy()) << 32) ^
                   entropy() ^
                   static_cast<std::uint64_t>(
                       std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count());
        packU64(header, kHeaderMagic);
        packU64(header + 8, capacity());
        packU64(header + 16, kPageBytes);
        packU64(header + 24, kRecordBytes);
        packU64(header + kTreeIdOffset, tree_id_);
        pwriteFully(fd_, header, kHeaderBytes, 0);
        fsyncFile(fd_, false);
        initLog();
    }
}

PagedDiskBackend::~PagedDiskBackend()
{
    if (fd_ >= 0) {
        // Orderly shutdown checkpoints; a simulated crash goes through
        // dropVolatile() instead and loses the volatile state.
        persistBarrier();
        ::close(fd_);
    }
    if (log_fd_ >= 0)
        ::close(log_fd_);
}

void
PagedDiskBackend::preadFully(int fd, std::uint8_t *buf, std::size_t len,
                             std::uint64_t offset, bool &hit_eof) const
{
    hit_eof = false;
    std::size_t done = 0;
    while (done < len) {
        const ssize_t got =
            ::pread(fd, buf + done, len - done,
                    static_cast<off_t>(offset + done));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            PSORAM_FATAL("pread(", config_.path,
                         ") failed: ", std::strerror(errno));
        }
        if (got == 0) {
            // Sparse tail: bytes past EOF read as zero.
            std::memset(buf + done, 0, len - done);
            hit_eof = true;
            return;
        }
        done += static_cast<std::size_t>(got);
    }
}

void
PagedDiskBackend::pwriteFully(int fd, const std::uint8_t *buf,
                              std::size_t len, std::uint64_t offset) const
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t put =
            ::pwrite(fd, buf + done, len - done,
                     static_cast<off_t>(offset + done));
        if (put < 0) {
            if (errno == EINTR)
                continue;
            PSORAM_FATAL("pwrite(", config_.path,
                         ") failed: ", std::strerror(errno));
        }
        done += static_cast<std::size_t>(put);
    }
    ++stats_.pwrites;
}

void
PagedDiskBackend::fsyncFile(int fd, bool data_only) const
{
    // Never retried: after a failed fsync the kernel may already have
    // dropped the dirty pages, so the durable state is unknown.
    if ((data_only ? ::fdatasync(fd) : ::fsync(fd)) != 0)
        PSORAM_FATAL("fsync(", fd == log_fd_ ? log_path_ : config_.path,
                     ") failed: ", std::strerror(errno));
    ++stats_.fsyncs;
}

void
PagedDiskBackend::loadPage(std::uint64_t page, std::uint8_t *out) const
{
    std::uint8_t record[kRecordBytes] = {};
    bool eof = false;
    preadFully(fd_, record, kRecordBytes,
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
        // without a trailer) — the payload is still delivered, and log
        // replay heals the bytes it lost.
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
                            bool tearable) const
{
    std::uint8_t record[kRecordBytes];
    std::memcpy(record, bytes, kPageBytes);
    std::uint8_t *trailer = record + kPageBytes;
    std::memset(trailer, 0, kTrailerBytes);
    packU64(trailer, kPageMagic);
    packU64(trailer + 8, page);
    packU32(trailer + 16, crc32(record, kPageBytes));

    const std::uint64_t offset = kHeaderBytes + page * kRecordBytes;
    if (tearable && fault_injector_) {
        // Torn-page crash point: half the payload lands, then the
        // boundary may abort before the rest and the fresh trailer do —
        // leaving on-disk bytes that no longer match the stored CRC.
        constexpr std::size_t kHalf = kPageBytes / 2;
        pwriteFully(fd_, record, kHalf, offset);
        fault_injector_->boundary(PersistBoundary::PageWrite);
        pwriteFully(fd_, record + kHalf, kRecordBytes - kHalf,
                    offset + kHalf);
    } else {
        pwriteFully(fd_, record, kRecordBytes, offset);
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
            writeBackFrame(victim, it->second);
        lru_.pop_front();
        frames_.erase(it);
        --unpinned_resident_;
        ++stats_.cache_evictions;
    }
}

void
PagedDiskBackend::writeBackFrame(std::uint64_t page, Frame &frame) const
{
    // Write-ahead rule: the record holding the frame's newest change
    // is durable before the frame is. Quiet (boundary-free): eviction
    // runs inside reads too, where the injector must not fire.
    if (frame.lsn > synced_seq_) {
        if (torn_end_ != 0) {
            // The power failed mid-append: a change newer than the
            // log's durable end never reaches the medium.
            frame.dirty = false;
            return;
        }
        if (frame.lsn > appended_seq_)
            appendPendingQuiet();
        syncLog(/*noisy=*/false);
    }
    storePage(page, frame.bytes.data(), /*tearable=*/false);
    frame.dirty = false;
    frame.lsn = 0;
}

void
PagedDiskBackend::readBytes(Addr addr, std::uint8_t *out,
                            std::size_t len) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.scalar_reads;
    if (addr > capacity() || len > capacity() - addr)
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
        if (span.addr > capacity() || span.len > capacity() - span.addr)
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
                            std::size_t len, std::uint64_t lsn) const
{
    if (addr > capacity() || len > capacity() - addr)
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
        frame.lsn = std::max(frame.lsn, lsn);
        off += chunk;
    }
}

namespace {

/** Serialize one span in record format (address, length, bytes). */
void
putSpan(std::vector<std::uint8_t> &out, Addr addr,
        const std::uint8_t *data, std::size_t len)
{
    const std::size_t at = out.size();
    out.resize(at + PagedDiskBackend::kLogSpanHeaderBytes + len);
    packU64(out.data() + at, addr);
    packU64(out.data() + at + 8, len);
    std::memcpy(out.data() + at + PagedDiskBackend::kLogSpanHeaderBytes,
                data, len);
}

} // namespace

std::size_t
PagedDiskBackend::recordBytes(const WriteSpan *spans, std::size_t n) const
{
    std::size_t bytes = kLogRecordHeaderBytes + pending_quiet_.size() +
                        kLogRecordTrailerBytes;
    for (std::size_t i = 0; i < n; ++i)
        bytes += kLogSpanHeaderBytes + spans[i].len;
    return bytes;
}

void
PagedDiskBackend::appendRecord(const WriteSpan *spans, std::size_t n,
                               bool noisy) const
{
    // One record: header, the pending quiet spans (applied earlier, so
    // they replay first), this call's spans, trailer. The CRC covers
    // header and body; the trailer repeats the sequence number, so a
    // record whose tail never landed fails either check.
    const std::uint64_t seq = appended_seq_ + 1;
    record_.assign(kLogRecordHeaderBytes, 0);
    record_.insert(record_.end(), pending_quiet_.begin(),
                   pending_quiet_.end());
    for (std::size_t i = 0; i < n; ++i)
        putSpan(record_, spans[i].addr, spans[i].data, spans[i].len);
    const std::size_t body = record_.size() - kLogRecordHeaderBytes;
    packU64(record_.data(), kRecordMagic);
    packU64(record_.data() + 8, log_epoch_);
    packU64(record_.data() + 16, seq);
    packU32(record_.data() + 24,
            static_cast<std::uint32_t>(pending_quiet_spans_ + n));
    packU32(record_.data() + 28, static_cast<std::uint32_t>(body));
    const std::uint32_t crc = crc32(record_.data(), record_.size());
    record_.resize(record_.size() + kLogRecordTrailerBytes);
    std::uint8_t *trailer = record_.data() + record_.size() -
                            kLogRecordTrailerBytes;
    packU64(trailer, seq);
    packU32(trailer + 8, crc);
    packU32(trailer + 12, kRecordEndMagic);

    // A record larger than the whole log grows it.
    const std::uint64_t end = log_tail_ + record_.size();
    if (end > kLogHeaderBytes + log_capacity_) {
        const std::uint64_t old_end = kLogHeaderBytes + log_capacity_;
        log_capacity_ = end - kLogHeaderBytes;
        preallocateLog(old_end);
    }

    const std::uint64_t at = log_tail_;
    log_tail_ = end; // taken even when the append is cut short
    unsynced_tail_.store(true);
    if (noisy && fault_injector_) {
        // Torn-record crash point: half the record lands, then the
        // boundary may abort before the rest (and the trailer) do.
        const std::size_t half = record_.size() / 2;
        pwriteFully(log_fd_, record_.data(), half, at);
        const bool cut = torn_end_ != 0;
        if (!cut) {
            torn_begin_ = at;
            torn_end_ = at + half;
        }
        fault_injector_->boundary(PersistBoundary::LogAppend);
        if (!cut)
            torn_begin_ = torn_end_ = 0;
        pwriteFully(log_fd_, record_.data() + half,
                    record_.size() - half, at + half);
    } else {
        pwriteFully(log_fd_, record_.data(), record_.size(), at);
    }
    appended_seq_ = seq;
    pending_quiet_.clear();
    pending_quiet_spans_ = 0;
    ++stats_.log_appends;
}

void
PagedDiskBackend::appendPendingQuiet() const
{
    if (pending_quiet_spans_ != 0)
        appendRecord(nullptr, 0, /*noisy=*/false);
}

bool
PagedDiskBackend::syncLog(bool noisy) const
{
    // After a torn append nothing more becomes durable: replay stops
    // at the torn record, so a record past it must not count as
    // synced (the crash model runs recovery-era writes before
    // dropVolatile()).
    if (log_tail_ == synced_tail_ || torn_end_ != 0)
        return false;
    if (noisy && fault_injector_)
        fault_injector_->boundary(PersistBoundary::LogSync);
    fsyncFile(log_fd_, /*data_only=*/true);
    synced_tail_ = log_tail_;
    synced_seq_ = appended_seq_;
    ++stats_.log_syncs;
    unsynced_tail_.store(false);
    return true;
}

void
PagedDiskBackend::writev(const WriteSpan *spans, std::size_t n,
                         Durability durability)
{
    bool checkpointed = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const bool noisy = durability == Durability::Noisy;
        ++(noisy ? stats_.writev_calls : stats_.writev_quiet_calls);
        stats_.spans_written += n;

        if (!noisy) {
            // Quiet: into the cache now, into the log with the next
            // record.
            for (std::size_t i = 0; i < n; ++i) {
                applySpan(spans[i].addr, spans[i].data, spans[i].len,
                          appended_seq_ + 1);
                putSpan(pending_quiet_, spans[i].addr, spans[i].data,
                        spans[i].len);
                ++pending_quiet_spans_;
            }
            return;
        }
        if (n == 0)
            return;

        // Each span reports its DrainWrite/DirectWrite boundary before
        // anything of the call lands, like NvmDevice; a fault there
        // leaves the call unapplied. The callers that batch noisy spans
        // are the WPQ drain (one round, one record) and the
        // non-persistent direct eviction (no durability claim).
        if (fault_injector_) {
            const PersistBoundary kind = fault_injector_->inDrain()
                ? PersistBoundary::DrainWrite
                : PersistBoundary::DirectWrite;
            for (std::size_t i = 0; i < n; ++i)
                fault_injector_->boundary(kind);
        }
        if (log_tail_ + recordBytes(spans, n) >
                kLogHeaderBytes + log_capacity_ &&
            torn_end_ == 0) {
            checkpoint(/*noisy=*/true);
            checkpointed = true;
        }

        // Write-ahead: the record is in the log before any frame
        // changes, so an eviction while applying can sync it first.
        appendRecord(spans, n, /*noisy=*/true);
        for (std::size_t i = 0; i < n; ++i)
            applySpan(spans[i].addr, spans[i].data, spans[i].len,
                      appended_seq_);
    }
    if (checkpointed)
        stampCheckpoint();
}

void
PagedDiskBackend::stampCheckpoint()
{
    // Outside the lock: the recorder holds its own lock while it
    // writes through this backend.
    if (flight_recorder_)
        flight_recorder_->record(*this, FlightEventKind::Checkpoint);
}

bool
PagedDiskBackend::sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return syncLog(/*noisy=*/true);
}

void
PagedDiskBackend::checkpoint(bool noisy)
{
    PSORAM_TRACE_SCOPE("disk", "disk.checkpoint", 0);
    // Every change since the last checkpoint is in the durable log
    // before any page is written in place, so replay heals a page
    // torn below.
    appendPendingQuiet();
    syncLog(noisy);
    for (auto &[page, frame] : frames_) {
        if (!frame.dirty)
            continue;
        storePage(page, frame.bytes.data(), /*tearable=*/noisy);
        frame.dirty = false;
        frame.lsn = 0;
    }
    if (noisy && fault_injector_)
        fault_injector_->boundary(PersistBoundary::Sync);
    fsyncFile(fd_, /*data_only=*/false);
    // The tree now holds every record: retire them with a new epoch.
    // (A crash before the header lands replays the old epoch over the
    // checkpointed tree, which rewrites the same bytes.)
    ++log_epoch_;
    writeLogHeader();
    log_tail_ = synced_tail_ = kLogHeaderBytes;
    ++stats_.checkpoints;
}

void
PagedDiskBackend::writeLogHeader()
{
    std::uint8_t header[kLogHeaderBytes] = {};
    packU64(header, kLogMagic);
    packU64(header + 8, log_epoch_);
    packU64(header + 16, tree_id_);
    packU64(header + 24, log_capacity_);
    packU32(header + kLogHeaderFields, crc32(header, kLogHeaderFields));
    pwriteFully(log_fd_, header, kLogHeaderBytes, 0);
    fsyncFile(log_fd_, /*data_only=*/true);
}

void
PagedDiskBackend::preallocateLog(std::uint64_t from) const
{
    // Written zeros, not a sparse hole: appends then overwrite
    // allocated blocks, so fdatasync need not flush block allocation.
    static const std::vector<std::uint8_t> kZeros(1 << 16, 0);
    const std::uint64_t end = kLogHeaderBytes + log_capacity_;
    for (std::uint64_t at = from; at < end; at += kZeros.size())
        pwriteFully(log_fd_, kZeros.data(),
                    std::min<std::uint64_t>(kZeros.size(), end - at), at);
}

void
PagedDiskBackend::initLog()
{
    if (log_fd_ < 0)
        log_fd_ = ::open(log_path_.c_str(),
                         O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    else if (::ftruncate(log_fd_, 0) != 0)
        PSORAM_FATAL("ftruncate(", log_path_,
                     ") failed: ", std::strerror(errno));
    if (log_fd_ < 0)
        PSORAM_FATAL("cannot open redo log '", log_path_,
                     "': ", std::strerror(errno));
    preallocateLog(kLogHeaderBytes);
    ++log_epoch_;
    writeLogHeader();
    log_tail_ = synced_tail_ = kLogHeaderBytes;
}

bool
PagedDiskBackend::openLog()
{
    log_fd_ = ::open(log_path_.c_str(), O_RDWR | O_CLOEXEC);
    if (log_fd_ < 0)
        return false;
    std::uint8_t header[kLogHeaderFields + 4] = {};
    bool eof = false;
    preadFully(log_fd_, header, sizeof(header), 0, eof);
    if (unpackU64(header) != kLogMagic ||
        unpackU64(header + 16) != tree_id_ ||
        unpackU32(header + kLogHeaderFields) !=
            crc32(header, kLogHeaderFields))
        return false;
    log_epoch_ = unpackU64(header + 8);
    // Replay within the capacity the log was written with; the
    // checkpoint below re-derives it from this geometry.
    const std::uint64_t derived = log_capacity_;
    log_capacity_ = unpackU64(header + 24);
    replayLog();
    const std::uint64_t written = kLogHeaderBytes + log_capacity_;
    log_capacity_ = std::max(log_capacity_, derived);
    preallocateLog(written);
    checkpoint(/*noisy=*/false);
    return true;
}

std::uint64_t
PagedDiskBackend::replayLog()
{
    PSORAM_TRACE_SCOPE("recovery", "disk.log_replay", 0);
    const std::uint64_t end = kLogHeaderBytes + log_capacity_;
    std::uint64_t at = kLogHeaderBytes;
    std::uint64_t replayed = 0;
    std::vector<std::uint8_t> rec;
    for (;;) {
        if (at + kLogRecordHeaderBytes + kLogRecordTrailerBytes > end)
            break;
        rec.resize(kLogRecordHeaderBytes);
        bool eof = false;
        preadFully(log_fd_, rec.data(), kLogRecordHeaderBytes, at, eof);
        const std::uint64_t seq = unpackU64(rec.data() + 16);
        const std::uint32_t body = unpackU32(rec.data() + 28);
        if (unpackU64(rec.data()) != kRecordMagic ||
            unpackU64(rec.data() + 8) != log_epoch_ ||
            (replayed != 0 && seq != appended_seq_ + 1) ||
            at + kLogRecordHeaderBytes + body + kLogRecordTrailerBytes >
                end)
            break; // end of this epoch's records (or a stale one)
        const std::size_t total =
            kLogRecordHeaderBytes + body + kLogRecordTrailerBytes;
        rec.resize(total);
        preadFully(log_fd_, rec.data() + kLogRecordHeaderBytes,
                   total - kLogRecordHeaderBytes,
                   at + kLogRecordHeaderBytes, eof);
        const std::uint8_t *trailer =
            rec.data() + kLogRecordHeaderBytes + body;
        if (unpackU64(trailer) != seq ||
            unpackU32(trailer + 12) != kRecordEndMagic ||
            unpackU32(trailer + 8) !=
                crc32(rec.data(), kLogRecordHeaderBytes + body))
            break; // torn record: the durable prefix ends here

        // Apply every span; the bytes are durable in the log already.
        const std::uint32_t spans = unpackU32(rec.data() + 24);
        const std::size_t body_end = kLogRecordHeaderBytes + body;
        std::size_t off = kLogRecordHeaderBytes;
        for (std::uint32_t i = 0; i < spans; ++i) {
            if (body_end - off < kLogSpanHeaderBytes)
                PSORAM_FATAL("redo log '", log_path_, "' record ", seq,
                             " overruns its body");
            const Addr addr = unpackU64(rec.data() + off);
            const std::uint64_t len = unpackU64(rec.data() + off + 8);
            off += kLogSpanHeaderBytes;
            if (len > body_end - off)
                PSORAM_FATAL("redo log '", log_path_, "' record ", seq,
                             " overruns its body");
            applySpan(addr, rec.data() + off, len, /*lsn=*/0);
            off += len;
        }
        appended_seq_ = synced_seq_ = seq;
        at += total;
        ++replayed;
    }
    PSORAM_TRACE_INSTANT_ARG("recovery", "disk.log_replayed", 0,
                             "records",
                             static_cast<std::int64_t>(replayed));
    return replayed;
}

void
PagedDiskBackend::persistBarrier()
{
    // Black-box the checkpoint first, so the marker is part of what it
    // makes durable (a reopen finds it as the ring's tail).
    stampCheckpoint();
    std::lock_guard<std::mutex> lock(mutex_);
    checkpoint(/*noisy=*/false);
}

void
PagedDiskBackend::dropVolatile()
{
    // Recovery-era work: nothing here is an enumerable persist point.
    const FaultInjector::ScopedSuspend suspend(fault_injector_);
    dropAndReplay();
    stampCheckpoint();
}

void
PagedDiskBackend::dropAndReplay()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The OS page cache dies with the power: appended records that
    // were never synced are gone. The half of a torn record that
    // landed stays on the medium; replay must reject it.
    const auto zero = [this](std::uint64_t from, std::uint64_t to) {
        if (to > from) {
            const std::vector<std::uint8_t> zeros(to - from, 0);
            pwriteFully(log_fd_, zeros.data(), zeros.size(), from);
        }
    };
    if (log_tail_ > synced_tail_) {
        if (torn_end_ > synced_tail_) {
            zero(synced_tail_, torn_begin_);
            zero(torn_end_, log_tail_);
        } else {
            zero(synced_tail_, log_tail_);
        }
        fsyncFile(log_fd_, /*data_only=*/true);
    }
    torn_begin_ = torn_end_ = 0;
    frames_.clear();
    lru_.clear();
    unpinned_resident_ = 0;
    pending_quiet_.clear();
    pending_quiet_spans_ = 0;
    log_tail_ = synced_tail_;
    unsynced_tail_.store(false);

    // Reboot: replay the durable records, then checkpoint them.
    appended_seq_ = synced_seq_ = 0;
    replayLog();
    checkpoint(/*noisy=*/false);
}

void
PagedDiskBackend::resetStats()
{
    MemoryBackend::resetStats();
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
    pending_quiet_.clear();
    pending_quiet_spans_ = 0;
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
                         capacity());
        auto &bytes = pages[page];
        if (bytes.empty())
            bytes.resize(kPageBytes, 0);
        std::memcpy(bytes.data() +
                        (line % kLinesPerPage) * kBlockDataBytes,
                    data.data(), kBlockDataBytes);
    }
    for (const auto &[page, bytes] : pages)
        storePage(page, bytes.data(), /*tearable=*/false);
    fsyncFile(fd_, /*data_only=*/false);
    // The restored image is the new checkpoint: no earlier record may
    // ever replay over it.
    ++log_epoch_;
    writeLogHeader();
    log_tail_ = synced_tail_ = kLogHeaderBytes;
    unsynced_tail_.store(false);
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
