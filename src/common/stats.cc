#include "common/stats.hh"

#include <algorithm>
#include <iomanip>

#include "common/log.hh"

namespace psoram {

Distribution::Distribution(const Distribution &other)
{
    *this = other;
}

Distribution &
Distribution::operator=(const Distribution &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(mutex_, other.mutex_);
    count_ = other.count_;
    sum_ = other.sum_;
    min_ = other.min_;
    max_ = other.max_;
    return *this;
}

void
Distribution::sample(double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

void
Distribution::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

std::uint64_t
Distribution::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
Distribution::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? sum_ / count_ : 0.0;
}

double
Distribution::min() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? min_ : 0.0;
}

double
Distribution::max() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? max_ : 0.0;
}

double
Distribution::sum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
}

Distribution::Snapshot
Distribution::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.count = count_;
    snap.sum = sum_;
    snap.min = count_ ? min_ : 0.0;
    snap.max = count_ ? max_ : 0.0;
    return snap;
}

void
Distribution::merge(const Distribution &other)
{
    std::scoped_lock lock(mutex_, other.mutex_);
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

Histogram::Histogram(std::size_t num_buckets, double bucket_width)
    : buckets_(num_buckets, 0), width_(bucket_width)
{
    if (num_buckets == 0 || bucket_width <= 0.0)
        PSORAM_PANIC("histogram needs positive bucket count and width");
}

Histogram::Histogram(const Histogram &other) : width_(other.width_)
{
    std::lock_guard<std::mutex> lock(other.mutex_);
    buckets_ = other.buckets_;
    overflow_ = other.overflow_;
    total_ = other.total_;
}

Histogram &
Histogram::operator=(const Histogram &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(mutex_, other.mutex_);
    buckets_ = other.buckets_;
    width_ = other.width_;
    overflow_ = other.overflow_;
    total_ = other.total_;
    return *this;
}

void
Histogram::sample(double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++total_;
    if (v < 0.0) {
        ++buckets_[0];
        return;
    }
    const auto idx = static_cast<std::size_t>(v / width_);
    if (idx >= buckets_.size())
        ++overflow_;
    else
        ++buckets_[idx];
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    total_ = 0;
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return buckets_.at(i);
}

std::size_t
Histogram::numBuckets() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return buckets_.size();
}

std::uint64_t
Histogram::overflow() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overflow_;
}

std::uint64_t
Histogram::total() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

double
Histogram::percentile(double fraction) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (total_ == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(fraction * total_);
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        running += buckets_[i];
        if (running >= target)
            return (i + 1) * width_;
    }
    return buckets_.size() * width_;
}

void
StatGroup::addCounter(const std::string &name, const Counter *c,
                      const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] = CounterEntry{c, desc};
}

void
StatGroup::addDistribution(const std::string &name, const Distribution *d,
                           const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    dists_[name] = DistEntry{d, desc};
}

void
StatGroup::dump(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, entry] : counters_) {
        os << std::left << std::setw(44) << (name_ + "." + name)
           << std::right << std::setw(16) << entry.counter->value()
           << "  # " << entry.desc << "\n";
    }
    for (const auto &[name, entry] : dists_) {
        const auto &d = *entry.dist;
        os << std::left << std::setw(44)
           << (name_ + "." + name + ".mean")
           << std::right << std::setw(16) << d.mean()
           << "  # " << entry.desc << "\n";
        os << std::left << std::setw(44)
           << (name_ + "." + name + ".max")
           << std::right << std::setw(16) << d.max()
           << "  # max of " << entry.desc << "\n";
    }
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.counter->value();
}

StatGroup::Snapshot
StatGroup::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.name = name_;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, entry] : counters_)
        snap.counters.push_back(
            {name, entry.counter->value(), entry.desc});
    snap.dists.reserve(dists_.size());
    for (const auto &[name, entry] : dists_)
        snap.dists.push_back({name, entry.dist->snapshot(), entry.desc});
    return snap;
}

void
PhaseLatencyStats::sampleAccess(double remap_v, double load_v,
                                double backup_v, double evict_v,
                                double drain_v, double total_v)
{
    remap.sample(remap_v);
    load.sample(load_v);
    backup.sample(backup_v);
    evict.sample(evict_v);
    drain.sample(drain_v);
    total.sample(total_v);
}

void
PhaseLatencyStats::merge(const PhaseLatencyStats &other)
{
    remap.merge(other.remap);
    load.merge(other.load);
    backup.merge(other.backup);
    evict.merge(other.evict);
    drain.merge(other.drain);
    total.merge(other.total);
    stash_hit.merge(other.stash_hit);
}

void
PhaseLatencyStats::reset()
{
    remap.reset();
    load.reset();
    backup.reset();
    evict.reset();
    drain.reset();
    total.reset();
    stash_hit.reset();
}

void
PhaseLatencyStats::registerWith(StatGroup &group,
                                const std::string &prefix) const
{
    group.addDistribution(prefix + ".remap", &remap,
                          "step 2: PosMap access + label backup");
    group.addDistribution(prefix + ".load", &load,
                          "step 3: path load");
    group.addDistribution(prefix + ".backup", &backup,
                          "step 4: stash update + data backup");
    group.addDistribution(prefix + ".evict", &evict,
                          "step 5: eviction excluding the WPQ drain");
    group.addDistribution(prefix + ".drain", &drain,
                          "WPQ rounds: start/push/commit/drain");
    group.addDistribution(prefix + ".total", &total,
                          "steps 2-5 end to end (full accesses)");
    group.addDistribution(prefix + ".stash_hit", &stash_hit,
                          "step-1 fast path (no phases run)");
}

double
PhaseLatencyStats::phaseSum() const
{
    return remap.sum() + load.sum() + backup.sum() + evict.sum() +
           drain.sum();
}

void
RecoveryStats::sampleRecovery(double wpq_replay_v, double adr_redeliver_v,
                              double image_reload_v,
                              double posmap_rebuild_v,
                              double integrity_verify_v,
                              double node_repair_v, double total_v)
{
    wpq_replay.sample(wpq_replay_v);
    adr_redeliver.sample(adr_redeliver_v);
    image_reload.sample(image_reload_v);
    posmap_rebuild.sample(posmap_rebuild_v);
    integrity_verify.sample(integrity_verify_v);
    node_repair.sample(node_repair_v);
    total.sample(total_v);
    ++recoveries;
}

void
RecoveryStats::merge(const RecoveryStats &other)
{
    wpq_replay.merge(other.wpq_replay);
    adr_redeliver.merge(other.adr_redeliver);
    image_reload.merge(other.image_reload);
    posmap_rebuild.merge(other.posmap_rebuild);
    integrity_verify.merge(other.integrity_verify);
    node_repair.merge(other.node_repair);
    total.merge(other.total);
    recoveries += other.recoveries.value();
    redelivered_entries += other.redelivered_entries.value();
    records_verified += other.records_verified.value();
    records_refused += other.records_refused.value();
    nodes_repaired += other.nodes_repaired.value();
    blackbox_events += other.blackbox_events.value();
    blackbox_torn += other.blackbox_torn.value();
}

void
RecoveryStats::reset()
{
    wpq_replay.reset();
    adr_redeliver.reset();
    image_reload.reset();
    posmap_rebuild.reset();
    integrity_verify.reset();
    node_repair.reset();
    total.reset();
    recoveries.reset();
    redelivered_entries.reset();
    records_verified.reset();
    records_refused.reset();
    nodes_repaired.reset();
    blackbox_events.reset();
    blackbox_torn.reset();
}

void
RecoveryStats::registerWith(StatGroup &group,
                            const std::string &prefix) const
{
    group.addDistribution(prefix + ".wpq_replay_ns", &wpq_replay,
                          "empty window before the ADR redelivery");
    group.addDistribution(prefix + ".adr_redeliver_ns", &adr_redeliver,
                          "ADR crashFlush of the in-flight WPQ rounds");
    group.addDistribution(prefix + ".image_reload_ns", &image_reload,
                          "controller teardown + image rebuild");
    group.addDistribution(prefix + ".posmap_rebuild_ns", &posmap_rebuild,
                          "volatile PosMap/stash/shadow-region rebuild");
    group.addDistribution(prefix + ".integrity_verify_ns",
                          &integrity_verify,
                          "integrity record re-verification scan");
    group.addDistribution(prefix + ".node_repair_ns", &node_repair,
                          "stale Merkle interior-node repair");
    group.addDistribution(prefix + ".total_ns", &total,
                          "whole recovery, end to end");
    group.addCounter(prefix + ".recoveries", &recoveries,
                     "recoveries sampled (successful only)");
    group.addCounter(prefix + ".redelivered_entries", &redelivered_entries,
                     "WPQ entries redelivered by the ADR crash flush");
    group.addCounter(prefix + ".records_verified", &records_verified,
                     "integrity records whose tags verified");
    group.addCounter(prefix + ".records_refused", &records_refused,
                     "recoveries refused with an IntegrityError");
    group.addCounter(prefix + ".nodes_repaired", &nodes_repaired,
                     "stale persisted interior nodes rewritten");
    group.addCounter(prefix + ".blackbox_events", &blackbox_events,
                     "flight-recorder events decoded at recovery");
    group.addCounter(prefix + ".blackbox_torn", &blackbox_torn,
                     "flight-recorder records dropped (torn/bad CRC)");
}

double
RecoveryStats::phaseSum() const
{
    return wpq_replay.sum() + adr_redeliver.sum() + image_reload.sum() +
           posmap_rebuild.sum() + integrity_verify.sum() +
           node_repair.sum();
}

} // namespace psoram
