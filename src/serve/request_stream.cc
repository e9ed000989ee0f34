#include "serve/request_stream.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.hh"

namespace psoram::serve {

ZipfianSampler::ZipfianSampler(std::uint64_t num_keys, double s)
{
    if (num_keys == 0)
        PSORAM_PANIC("ZipfianSampler over an empty key space");
    cdf_.resize(num_keys);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < num_keys; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = sum;
    }
    for (double &c : cdf_)
        c /= sum;
    cdf_.back() = 1.0;
}

std::uint64_t
ZipfianSampler::nextRank(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
}

double
ZipfianSampler::rankProbability(std::uint64_t k) const
{
    if (k >= cdf_.size())
        return 0.0;
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

namespace {

/** Smallest multiplier >= hint that is coprime with n (so the rank ->
 *  key scramble is a bijection of [0, n)). */
std::uint64_t
coprimeScramble(std::uint64_t n, std::uint64_t hint)
{
    if (n <= 2)
        return 1;
    std::uint64_t a = (hint % n) | 1;
    while (std::gcd(a, n) != 1)
        a = (a + 2) % n | 1;
    return a;
}

} // namespace

RequestStream::RequestStream(StreamConfig config)
    : config_(config), rng_(config.seed),
      zipf_(config.dist == KeyDist::Zipfian ? config.num_keys : 1,
            config.zipf_s),
      rank_scramble_(coprimeScramble(config.num_keys,
                                     0x9e3779b97f4a7c15ULL))
{
    if (config_.num_keys == 0)
        PSORAM_PANIC("RequestStream over an empty key space");
    if (config_.batch_size == 0)
        config_.batch_size = 1;
    if (config_.mode == ArrivalMode::OpenLoop &&
        config_.offered_rate <= 0.0)
        PSORAM_PANIC("open-loop stream needs offered_rate > 0");
    config_.hot_keys = std::min(config_.hot_keys, config_.num_keys);
}

void
RequestStream::reset()
{
    rng_ = Rng(config_.seed);
    clock_ns_ = 0.0;
}

BlockAddr
RequestStream::sampleKey()
{
    switch (config_.dist) {
    case KeyDist::Uniform:
        return rng_.nextBelow(config_.num_keys);
    case KeyDist::Zipfian: {
        // Scramble the rank so popular keys spread across the address
        // space (and shards) instead of packing the lowest addresses.
        const std::uint64_t rank = zipf_.nextRank(rng_);
        return (rank * rank_scramble_) % config_.num_keys;
    }
    case KeyDist::HotSet: {
        if (config_.hot_keys > 0 && rng_.nextBool(config_.hot_fraction)) {
            const std::uint64_t rank = rng_.nextBelow(config_.hot_keys);
            return (rank * rank_scramble_) % config_.num_keys;
        }
        return rng_.nextBelow(config_.num_keys);
    }
    }
    return 0;
}

void
RequestStream::next(Request &out)
{
    if (config_.mode == ArrivalMode::OpenLoop) {
        // Exponential interarrival at offered_rate; clock_ns_ is kept
        // in double ns so sub-ns residue at high rates is not lost to
        // truncation.
        const double u = rng_.nextDouble();
        clock_ns_ +=
            -std::log(1.0 - u) * (1e9 / config_.offered_rate);
        out.arrival_ns = static_cast<std::uint64_t>(clock_ns_);
    } else {
        out.arrival_ns = 0;
    }
    out.is_write = !rng_.nextBool(config_.read_fraction);
    const unsigned keys =
        out.is_write ? 1 : config_.batch_size;
    out.keys.clear();
    for (unsigned i = 0; i < keys; ++i)
        out.keys.push_back(sampleKey());
}

std::uint64_t
deriveStreamSeed(std::uint64_t base_seed, unsigned index)
{
    // SplitMix64 finalizer over (seed, index): streams are decorrelated
    // but each is still a pure function of the base seed.
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL *
                                      (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace psoram::serve
