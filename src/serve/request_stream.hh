/**
 * @file
 * Load generation: deterministic request streams with
 * production-shaped key popularity and arrival processes (perfbench's
 * open and closed loops draw from them).
 *
 * A RequestStream yields Request records — arrival time (open-loop), a
 * key set (1 for point requests, batch_size for recsys-style multi-key
 * lookups) and a read/write flag. Everything is derived from one seed,
 * so the same StreamConfig always produces the identical sequence of
 * arrival times and keys; multi-submitter loads derive per-stream
 * seeds (deriveStreamSeed) and split the offered rate, exploiting that
 * a superposition of independent Poisson processes is Poisson.
 *
 * Key distributions:
 *  - Uniform: every key equally likely.
 *  - Zipfian: rank-k popularity ∝ 1/k^s (YCSB-style rejection-free
 *    inversion over the precomputed generalized harmonic number); keys
 *    are rank-scrambled so popular keys spread over the address space
 *    (and therefore over shards) instead of clustering at address 0.
 *  - HotSet: a fraction of traffic targets a small pinned key set, the
 *    rest is uniform over the remainder.
 */

#ifndef PSORAM_SERVE_REQUEST_STREAM_HH
#define PSORAM_SERVE_REQUEST_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace psoram::serve {

enum class ArrivalMode
{
    /** Poisson arrivals at offered_rate; latency is measured from the
     *  scheduled arrival time, so queueing delay is included and the
     *  measurement is free of coordinated omission. */
    OpenLoop,
    /** Submit-on-completion: each submitter keeps a fixed number of
     *  requests outstanding; arrival times are not generated. */
    ClosedLoop,
};

enum class KeyDist
{
    Uniform,
    Zipfian,
    HotSet,
};

struct StreamConfig
{
    ArrivalMode mode = ArrivalMode::OpenLoop;
    KeyDist dist = KeyDist::Zipfian;

    /** Logical key space [0, num_keys). */
    std::uint64_t num_keys = 1 << 20;

    /** Zipfian skew exponent (s = 0.99 is the YCSB default). */
    double zipf_s = 0.99;

    /** @{ HotSet shape: hot_fraction of requests draw from hot_keys
     *  keys, the rest uniform over the remaining space. */
    double hot_fraction = 0.9;
    std::uint64_t hot_keys = 64;
    /** @} */

    /** Fraction of requests that are reads. */
    double read_fraction = 0.95;

    /** Keys per request: 1 = point lookups, > 1 = multi-key batch
     *  reads (writes stay single-key). */
    unsigned batch_size = 1;

    /** Open-loop offered rate for THIS stream, requests/sec. */
    double offered_rate = 10'000.0;

    std::uint64_t seed = 1;
};

/** One generated request. */
struct Request
{
    /** Scheduled arrival, ns from stream start (open-loop only). */
    std::uint64_t arrival_ns = 0;
    bool is_write = false;
    /** batch_size keys for batch reads, exactly 1 key otherwise. */
    std::vector<BlockAddr> keys;
};

/**
 * Zipfian(n, s) sampler: popularity of rank k (1-based) ∝ 1/k^s.
 * Inversion over the precomputed harmonic table is O(log n) per draw
 * and exact (no approximation error a goodness-of-fit test would
 * trip over). Construction is O(n) — build once per stream.
 */
class ZipfianSampler
{
  public:
    ZipfianSampler(std::uint64_t num_keys, double s);

    /** Rank in [0, n) of the next draw; rank 0 is the most popular. */
    std::uint64_t nextRank(Rng &rng) const;

    /** Expected probability of rank @p k (tests: chi-square fit). */
    double rankProbability(std::uint64_t k) const;

  private:
    /** cdf_[k] = P(rank <= k); strictly increasing, back() == 1. */
    std::vector<double> cdf_;
};

class RequestStream
{
  public:
    explicit RequestStream(StreamConfig config);

    /** Generate the next request (streams are infinite). */
    void next(Request &out);

    const StreamConfig &config() const { return config_; }

    /** Restart from the beginning (identical sequence). */
    void reset();

  private:
    BlockAddr sampleKey();

    StreamConfig config_;
    Rng rng_;
    ZipfianSampler zipf_;
    /** Multiplicative scramble applied to Zipfian ranks so hot keys
     *  interleave across shards (odd constant, mod num_keys). */
    std::uint64_t rank_scramble_;
    double clock_ns_ = 0.0;
};

/** Per-submitter seed for stream @p index of a multi-stream run. */
std::uint64_t deriveStreamSeed(std::uint64_t base_seed, unsigned index);

} // namespace psoram::serve

#endif // PSORAM_SERVE_REQUEST_STREAM_HH
