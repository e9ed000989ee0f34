/**
 * @file
 * PagedDiskBackend: out-of-core storage backend — the ORAM tree lives
 * in a real file, fronted by a bounded RAM page cache.
 *
 * Where NvmDevice models byte-addressable NVM (the whole store is
 * durable by definition), this backend models the tiered-storage
 * deployment the ROADMAP targets: a tree far larger than RAM, served
 * from disk through pread/pwrite with an explicit fsync durability
 * point.
 *
 * File layout: the tree (PagedDiskConfig::tree_levels/bucket_bytes,
 * data_layout's level-order buckets from address 0) is packed by
 * subtrees. One 4 KiB page holds one k-level subtree, k the largest
 * depth whose 2^k - 1 buckets fit a page (k = 3 for Z = 4 at 96-B slots
 * and at 128-B integrity records). Tiers of k levels are anchored at
 * the leaves, so only the top tier can be partial, and the pages are
 * ordered tier by tier, root first: the lowest page numbers are the top
 * of the tree, so pinning the first `pinned_pages` pages keeps the
 * hottest levels permanently resident (FEDORA's layout observation),
 * and the buckets of one path occupy exactly ceil((height+1)/k) pages.
 * Bytes outside the tree map linearly after the last subtree page; a
 * backend with no tree range maps linearly throughout. locate() is the
 * one address -> page function; the header records the layout, and a
 * tree written with another layout is refused at open.
 *
 * Each on-disk page record carries a 64-byte trailer (magic, page
 * index, CRC32 of the payload). The trailer is what makes *torn pages*
 * detectable: a crash between the two halves of a page pwrite leaves
 * payload bytes that no longer match the stored CRC, which recovery
 * observes when the page is next loaded. Torn pages are healed by the
 * redo log (below) — every byte a torn page could have lost changed
 * since the last checkpoint, so it is in a durable log record — and
 * detection is counted and warned rather than failing the load. The
 * CRC is common/crc32's, a PCLMULQDQ fold where the CPU has the
 * instruction and a table loop otherwise, bit-identical either way;
 * on a 4-core Xeon VM a 4 KiB page costs about 0.2 µs folded and
 * 13 µs in the table loop.
 *
 * Durability model: a redo log in a sidecar file (`<path>.wal`), the
 * disk's counterpart of the ADR persistence domain.
 *   - a noisy writev (one WPQ round, or a direct write) is appended to
 *     the log as ONE CRC-sealed record — header (epoch, sequence, span
 *     count, length), the spans, trailer — and then applied to the page
 *     cache. Each span reports its DrainWrite/DirectWrite boundary
 *     before the append, like NvmDevice; the append reports LogAppend
 *     half-way through the record (the torn-record crash point);
 *   - sync() is the durability point: one fdatasync of the log (a
 *     LogSync boundary first) makes every record so far durable.
 *     holdsUnsyncedTail() is true between an append and its sync;
 *   - quiet writes (lazily streamed Merkle nodes, flight-recorder
 *     appends) dirty cached pages and ride in the next record, adding
 *     no boundary of their own;
 *   - in-place page writes are write-back and obey the write-ahead
 *     rule: a frame reaches the tree file only after the record with
 *     its newest change is synced (evicting a newer frame syncs the
 *     log first, quietly);
 *   - a checkpoint — when the next record does not fit the log, at
 *     persistBarrier(), after replay and at destruction — logs pending
 *     quiet spans, syncs, writes every dirty frame back (inside a
 *     noisy write the PageWrite boundary fires mid-page: the torn-page
 *     point), fsyncs the tree (a Sync boundary first) and starts a new
 *     log epoch. Each one stamps a flight-recorder Checkpoint;
 *   - at open, and in dropVolatile() after the page cache and the
 *     log's unsynced tail are discarded (the crash framework's model of
 *     losing RAM and the OS page cache), the log is replayed up to the
 *     first bad CRC, torn trailer or stale epoch, then checkpointed.
 * The log's size is derived from the cache geometry: four times the
 * resident page budget, so a checkpoint's write-back (at most the
 * resident frames) stays small against the log bytes it retires, and
 * replay touches at most a few cache-fulls. A record larger than the
 * whole log grows it.
 *
 * With cache_pages at least the tree's page count nothing is ever
 * evicted: the tree is in core, and the file plus its log are its
 * durable image across process restarts.
 *
 * Thread safety: functional ops and the cache are guarded by one
 * internal mutex. The timing model keeps its drive-thread-only
 * contract.
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
    /** @{ The tree packed by subtrees, bucket 0 at address 0: level
     *  count and bytes per bucket (Z * record bytes). tree_levels == 0
     *  maps every byte linearly. */
    unsigned tree_levels = 0;
    std::size_t bucket_bytes = 0;
    /** @} */
};

class PagedDiskBackend final : public MemoryBackend
{
  public:
    PagedDiskBackend(const NvmTimingParams &params, unsigned num_channels,
                     unsigned banks_per_channel,
                     std::uint64_t capacity_bytes, PagedDiskConfig config);
    ~PagedDiskBackend() override;

    /** @{ Functional access (thread-safe). */
    void readBytes(Addr addr, std::uint8_t *out,
                   std::size_t len) const override;
    using MemoryBackend::readv;
    using MemoryBackend::writev;
    void readv(const ReadSpan *spans, std::size_t n) const override;
    void writev(const WriteSpan *spans, std::size_t n,
                Durability durability) override;
    /** @} */

    /** fdatasync the log if it holds unsynced records; @return whether
     *  it did. */
    bool sync() override;

    /** Checkpoint (no persist boundaries). */
    void persistBarrier() override;

    /** Discard the page cache and the log's unsynced tail without
     *  flushing (crash model), then replay the log and checkpoint. */
    void dropVolatile() override;

    void resetStats() override;

    MemoryImage image() const override;
    void restoreImage(const MemoryImage &img) override;

    /** @{ On-disk geometry. */
    static constexpr std::size_t kPageBytes = 4096;
    static constexpr std::size_t kTrailerBytes = 64;
    static constexpr std::size_t kRecordBytes =
        kPageBytes + kTrailerBytes;
    static constexpr std::size_t kHeaderBytes = 4096;
    /** Redo-log file header; records start right after it. */
    static constexpr std::size_t kLogHeaderBytes = 4096;
    /** Per-record framing: header and trailer around the spans. */
    static constexpr std::size_t kLogRecordHeaderBytes = 32;
    static constexpr std::size_t kLogRecordTrailerBytes = 16;
    /** Per-span framing inside a record (address, length). */
    static constexpr std::size_t kLogSpanHeaderBytes = 16;
    /** @} */

    /** @{ IO / cache observability (thread-safe). */
    struct IoStats
    {
        std::uint64_t readv_calls = 0;
        /** @{ writev calls by Durability (a writeBytes is a one-span
         *  writev). */
        std::uint64_t writev_calls = 0;
        std::uint64_t writev_quiet_calls = 0;
        /** @} */
        std::uint64_t scalar_reads = 0;
        /** Always 0: every write crosses the seam as a writev. */
        std::uint64_t scalar_writes = 0;
        std::uint64_t spans_read = 0;
        std::uint64_t spans_written = 0;
        std::uint64_t preads = 0;
        /** Every pwrite syscall, log appends included. */
        std::uint64_t pwrites = 0;
        /** Every fsync/fdatasync syscall, log syncs included. */
        std::uint64_t fsyncs = 0;
        /** @{ Redo log: records appended, log syncs, and checkpoints
         *  taken. */
        std::uint64_t log_appends = 0;
        std::uint64_t log_syncs = 0;
        std::uint64_t checkpoints = 0;
        /** @} */
        std::uint64_t cache_hits = 0;
        std::uint64_t cache_misses = 0;
        std::uint64_t cache_evictions = 0;
        std::uint64_t pages_flushed = 0;
        std::uint64_t torn_pages_detected = 0;
    };
    IoStats ioStats() const;
    std::uint64_t tornPagesDetected() const;
    /** @} */

    /** Where byte @p addr lives in the file: its page, its offset in
     *  the page, and how many bytes from there on are contiguous in
     *  both the address space and the page. */
    struct Location
    {
        std::uint64_t page;
        std::size_t offset;
        std::size_t contiguous;
    };
    Location locate(Addr addr) const;

    /** Levels per subtree page (0: no tree range, linear map). */
    unsigned subtreeLevels() const { return subtree_levels_; }

    std::uint64_t numPages() const { return num_pages_; }
    /** The redo log's sidecar file. */
    const std::string &logPath() const { return log_path_; }
    std::size_t residentPages() const;
    const PagedDiskConfig &config() const { return config_; }

  private:
    struct Frame
    {
        std::vector<std::uint8_t> bytes; // kPageBytes
        bool dirty = false;
        bool pinned = false;
        /** Sequence number of the log record holding the newest change
         *  (write-ahead rule; 0 = durable in the log already). */
        std::uint64_t lsn = 0;
        /** Position in lru_ (unpinned frames only). */
        std::list<std::uint64_t>::iterator lru_pos;
    };

    /** @{ File IO (no locking — callers hold mutex_). */
    void preadFully(int fd, std::uint8_t *buf, std::size_t len,
                    std::uint64_t offset, bool &hit_eof) const;
    void pwriteFully(int fd, const std::uint8_t *buf, std::size_t len,
                     std::uint64_t offset) const;
    void fsyncFile(int fd, bool data_only) const;
    /** @} */

    /** Load a page record from disk into @p out, verifying the
     *  trailer; counts torn pages. */
    void loadPage(std::uint64_t page, std::uint8_t *out) const;

    /** Write one page record (payload + fresh trailer). When
     *  @p tearable, the PageWrite boundary fires between the two
     *  halves of the payload pwrite (the torn-page crash point). */
    void storePage(std::uint64_t page, const std::uint8_t *bytes,
                   bool tearable) const;

    /** Get (load if absent) the frame for @p page, evicting if needed. */
    Frame &frameFor(std::uint64_t page) const;

    /** Evict LRU unpinned frames until the cache fits its budget. */
    void enforceCapacity() const;

    /** Write one dirty frame back in place, syncing the log first when
     *  the frame is newer than it (write-ahead rule). */
    void writeBackFrame(std::uint64_t page, Frame &frame) const;

    /** Call @p fn(page, offset, chunk, done) for each piece of
     *  [addr, addr + len) that locate() maps contiguously. */
    template <typename Fn>
    void forEachPiece(Addr addr, std::size_t len, Fn &&fn) const;

    /** Copy @p len bytes into the cache, dirtying frames with @p lsn. */
    void applySpan(Addr addr, const std::uint8_t *in, std::size_t len,
                   std::uint64_t lsn) const;

    /** @{ Redo log (callers hold mutex_). */
    /** Create (or reset) the log for a fresh epoch of this tree. */
    void initLog();
    /** Open an existing log and replay it; false when it is missing
     *  or belongs to another tree. */
    bool openLog();
    /** Replay the current epoch's complete records into the cache;
     *  @return records replayed. */
    std::uint64_t replayLog();
    /** Write the log header for the current epoch and sync it. */
    void writeLogHeader();
    /** Zero-fill the log file from @p from up to its capacity. */
    void preallocateLog(std::uint64_t from) const;
    /** Seal record_ (pending quiet spans + @p n noisy spans) and
     *  append it; @p noisy reports the LogAppend boundary mid-record. */
    void appendRecord(const WriteSpan *spans, std::size_t n,
                      bool noisy) const;
    /** Append pending quiet spans as their own record (no boundary). */
    void appendPendingQuiet() const;
    /** fdatasync the log if anything is unsynced. */
    bool syncLog(bool noisy) const;
    /** Log pending quiet spans, sync, write every dirty frame back,
     *  fsync the tree and start a new log epoch. */
    void checkpoint(bool noisy);
    /** Bytes a record of these spans (plus pending quiet) takes. */
    std::size_t recordBytes(const WriteSpan *spans, std::size_t n) const;
    /** dropVolatile()'s work under the lock. */
    void dropAndReplay();
    /** @} */

    /** Record a flight-recorder Checkpoint (callers do not hold
     *  mutex_). */
    void stampCheckpoint();

    PagedDiskConfig config_;
    /** @{ The subtree map (locate()). The tree's bytes are
     *  [0, tree_end_) and its pages come first: tier t's subtrees start
     *  at page tier_first_page_[t]. Linear pages follow. */
    unsigned subtree_levels_ = 0;
    unsigned top_tier_levels_ = 0;
    Addr tree_end_ = 0;
    std::uint64_t subtree_pages_ = 0;
    std::vector<std::uint64_t> tier_first_page_;
    /** @} */
    std::uint64_t num_pages_ = 0;
    std::string log_path_;

    int fd_ = -1;
    int log_fd_ = -1;
    /** Binds the log to its tree (stored in both headers). */
    std::uint64_t tree_id_ = 0;

    mutable std::mutex mutex_;
    /** Page -> frame; pinned frames never leave, unpinned ones cycle
     *  through lru_ (front = coldest). */
    mutable std::unordered_map<std::uint64_t, Frame> frames_;
    mutable std::list<std::uint64_t> lru_;
    mutable std::size_t unpinned_resident_ = 0;

    /** @{ Redo-log state (offsets are log-file offsets). */
    mutable std::uint64_t log_capacity_ = 0;
    std::uint64_t log_epoch_ = 0;
    mutable std::uint64_t log_tail_ = kLogHeaderBytes;
    mutable std::uint64_t synced_tail_ = kLogHeaderBytes;
    /** Sequence numbers of the last appended / last synced record. */
    mutable std::uint64_t appended_seq_ = 0;
    mutable std::uint64_t synced_seq_ = 0;
    /** The landed half of a record whose append a fault cut short
     *  (empty otherwise): the crash model keeps it on the medium. */
    mutable std::uint64_t torn_begin_ = 0;
    mutable std::uint64_t torn_end_ = 0;
    /** Quiet spans applied to the cache but not yet in a record,
     *  serialized in record span format. */
    mutable std::vector<std::uint8_t> pending_quiet_;
    mutable std::uint32_t pending_quiet_spans_ = 0;
    /** Reused record buffer. */
    mutable std::vector<std::uint8_t> record_;
    /** @} */

    mutable IoStats stats_;
};

} // namespace psoram

#endif // PSORAM_NVM_PAGED_DISK_HH
