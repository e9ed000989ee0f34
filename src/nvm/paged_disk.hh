/**
 * @file
 * PagedDiskBackend: out-of-core storage backend — the ORAM tree lives
 * in a real file, fronted by a bounded RAM page cache.
 *
 * Where NvmDevice models byte-addressable NVM (the whole store is
 * durable by definition), this backend models the tiered-storage
 * deployment the ROADMAP targets: a tree far larger than RAM, served
 * from disk through pread/pwrite with an explicit fsync durability
 * point. The file layout is page-aligned and level-ordered — the
 * address space is the same level-order slot layout data_layout uses,
 * so low addresses are the top of the tree: pinning the first
 * `pinned_pages` pages of the file keeps the hottest O(log N) levels
 * permanently resident (FEDORA's layout observation), and the buckets
 * of one path occupy at most height+1 distinct pages.
 *
 * Each on-disk page record carries a 64-byte trailer (magic, page
 * index, CRC32 of the payload). The trailer is what makes *torn pages*
 * detectable: a crash between the two halves of a page pwrite leaves
 * payload bytes that no longer match the stored CRC, which recovery
 * observes when the page is next loaded. Torn lines are healed by the
 * ADR redelivery argument — every line a torn in-drain page could have
 * corrupted is still sitting in the committed WPQ round that the
 * power-failure flush rewrites — so detection is counted (and can be
 * made fatal via `strict_torn`) rather than failing the load.
 *
 * Durability model at the seam:
 *   - noisy writes (writeBytes/writev — the protocol's enumerable
 *     persist points) are write-through: each span reports its
 *     DrainWrite/DirectWrite boundary exactly like NvmDevice, the
 *     touched pages flush with a PageWrite boundary each (fired
 *     mid-pwrite inside a WPQ drain — the torn-page crash point), and
 *     the call ends with a Sync boundary + fsync;
 *   - quiet writes (lazily streamed Merkle nodes, flight-recorder
 *     appends) are write-back: they dirty cached pages and reach the
 *     file on eviction, on persistBarrier() or at destruction;
 *   - dropVolatile() discards the whole cache un-flushed — the crash
 *     framework's model of losing RAM — so post-crash reads observe
 *     only what pwrite actually landed.
 *
 * Thread safety: functional ops and the cache are guarded by one
 * internal mutex. The timing model (access/accessOne) keeps NvmDevice's
 * drive-thread-only contract.
 */

#ifndef PSORAM_NVM_PAGED_DISK_HH
#define PSORAM_NVM_PAGED_DISK_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/backend.hh"
#include "nvm/channel.hh"
#include "nvm/timing.hh"

namespace psoram {

struct PagedDiskConfig
{
    /** Backing file path (created if absent). */
    std::string path;
    /** RAM page-cache capacity in *unpinned* 4 KiB pages. */
    std::size_t cache_pages = 1024;
    /** Lowest-addressed pages (top tree levels + metadata head) held
     *  resident for the backend's lifetime, outside the cache budget. */
    std::size_t pinned_pages = 64;
    /** fsync after every noisy write call (the protocol durability
     *  points). persistBarrier() always fsyncs regardless. */
    bool fsync_noisy = true;
    /** Fail hard (PSORAM_FATAL) when a torn/corrupt page is loaded
     *  instead of counting it and trusting ADR redelivery. */
    bool strict_torn = false;
};

class PagedDiskBackend final : public MemoryBackend
{
  public:
    PagedDiskBackend(const NvmTimingParams &params, unsigned num_channels,
                     unsigned banks_per_channel,
                     std::uint64_t capacity_bytes, PagedDiskConfig config);
    ~PagedDiskBackend() override;

    PagedDiskBackend(const PagedDiskBackend &) = delete;
    PagedDiskBackend &operator=(const PagedDiskBackend &) = delete;

    /** @{ Functional access (thread-safe). */
    void readBytes(Addr addr, std::uint8_t *out,
                   std::size_t len) const override;
    void writeBytes(Addr addr, const std::uint8_t *in,
                    std::size_t len) override;
    void writeBytesQuiet(Addr addr, const std::uint8_t *in,
                         std::size_t len) override;
    using MemoryBackend::readv;
    using MemoryBackend::writev;
    using MemoryBackend::writevQuiet;
    void readv(const ReadSpan *spans, std::size_t n) const override;
    void writev(const WriteSpan *spans, std::size_t n) override;
    void writevQuiet(const WriteSpan *spans, std::size_t n) override;
    /** @} */

    /** Flush every dirty page and fsync (no persist boundaries). */
    void persistBarrier() override;

    /** Discard the page cache without flushing (crash model). */
    void dropVolatile() override;

    /** @{ Timing model: identical channel/bank scheduling to NvmDevice
     *  (the simulated cycle cost models the NVM-tier protocol; the
     *  disk tier's cost shows up as host time and IO counters). */
    Cycle access(Addr addr, std::size_t len, bool is_write,
                 Cycle earliest) override;
    Cycle accessOne(Addr addr, bool is_write, Cycle earliest) override;
    /** @} */

    std::uint64_t capacity() const override { return capacity_; }
    std::uint64_t totalReads() const override;
    std::uint64_t totalWrites() const override;

    /** Wear is an NVM-cell lifetime proxy; a disk tier has no
     *  per-line wear model, so these report zero. */
    std::uint64_t distinctLinesWritten() const override { return 0; }
    std::uint64_t maxLineWrites() const override { return 0; }
    double meanLineWrites() const override { return 0.0; }

    void resetStats() override;

    MemoryImage image() const override;
    void restoreImage(const MemoryImage &img) override;

    /** @{ On-disk geometry. */
    static constexpr std::size_t kPageBytes = 4096;
    static constexpr std::size_t kLinesPerPage =
        kPageBytes / kBlockDataBytes;
    static constexpr std::size_t kTrailerBytes = 64;
    static constexpr std::size_t kRecordBytes =
        kPageBytes + kTrailerBytes;
    static constexpr std::size_t kHeaderBytes = 4096;
    /** @} */

    /** @{ IO / cache observability (thread-safe). */
    struct IoStats
    {
        std::uint64_t readv_calls = 0;
        std::uint64_t writev_calls = 0;
        std::uint64_t writev_quiet_calls = 0;
        std::uint64_t scalar_reads = 0;
        std::uint64_t scalar_writes = 0;
        std::uint64_t spans_read = 0;
        std::uint64_t spans_written = 0;
        std::uint64_t preads = 0;
        std::uint64_t pwrites = 0;
        std::uint64_t fsyncs = 0;
        std::uint64_t cache_hits = 0;
        std::uint64_t cache_misses = 0;
        std::uint64_t cache_evictions = 0;
        std::uint64_t pages_flushed = 0;
        std::uint64_t torn_pages_detected = 0;
    };
    IoStats ioStats() const;
    std::uint64_t tornPagesDetected() const;
    /** @} */

    std::uint64_t numPages() const { return num_pages_; }
    std::size_t residentPages() const;
    const PagedDiskConfig &config() const { return config_; }

    /** CRC32 (IEEE 802.3, reflected) — exposed for tests that forge
     *  or validate page trailers out-of-band. */
    static std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

  private:
    struct Frame
    {
        std::vector<std::uint8_t> bytes; // kPageBytes
        bool dirty = false;
        bool pinned = false;
        /** Position in lru_ (unpinned frames only). */
        std::list<std::uint64_t>::iterator lru_pos;
    };

    /** @{ File IO (no locking — callers hold mutex_). */
    void preadFully(std::uint8_t *buf, std::size_t len,
                    std::uint64_t offset, bool &hit_eof) const;
    void pwriteFully(const std::uint8_t *buf, std::size_t len,
                     std::uint64_t offset) const;
    void fsyncFile() const;
    /** @} */

    /** Load a page record from disk into @p out, verifying the
     *  trailer; counts torn pages. */
    void loadPage(std::uint64_t page, std::uint8_t *out) const;

    /** Write one page record (payload + fresh trailer). When
     *  @p tearable, the PageWrite boundary fires between the two
     *  halves of the payload pwrite (the torn-page crash point);
     *  otherwise it fires before any byte lands. Quiet flushes pass a
     *  null injector. */
    void storePage(std::uint64_t page, const std::uint8_t *bytes,
                   bool tearable, bool noisy);

    /** Get (load if absent) the frame for @p page, evicting if needed. */
    Frame &frameFor(std::uint64_t page) const;

    /** Evict LRU unpinned frames until the cache fits its budget. */
    void enforceCapacity() const;

    /** Flush one dirty frame quietly (eviction / barrier path). */
    void flushFrameQuiet(std::uint64_t page, Frame &frame) const;

    void applySpan(Addr addr, const std::uint8_t *in, std::size_t len,
                   std::vector<std::uint64_t> &touched);
    void writevLocked(const WriteSpan *spans, std::size_t n, bool noisy);

    void decode(Addr line_addr, unsigned &channel, unsigned &bank) const;

    NvmTimingParams params_;
    std::uint64_t capacity_;
    std::uint64_t num_pages_;
    PagedDiskConfig config_;
    std::vector<Channel> channels_;

    int fd_ = -1;

    mutable std::mutex mutex_;
    /** Page -> frame; pinned frames never leave, unpinned ones cycle
     *  through lru_ (front = coldest). */
    mutable std::unordered_map<std::uint64_t, Frame> frames_;
    mutable std::list<std::uint64_t> lru_;
    mutable std::size_t unpinned_resident_ = 0;

    mutable IoStats stats_;
};

} // namespace psoram

#endif // PSORAM_NVM_PAGED_DISK_HH
