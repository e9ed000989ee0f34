#include "common/stats.hh"

#include <algorithm>

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

template <typename Self, std::size_t N>
void
WindowLedger<Self, N>::sample(const Windows &w)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < N; ++i) {
        (self().*Self::kLayout.windows[i].member)
            .sample(static_cast<double>(w[i]));
        total += w[i];
    }
    (self().*Self::kLayout.total.member).sample(static_cast<double>(total));
}

template <typename Self, std::size_t N>
void
WindowLedger<Self, N>::merge(const Self &other)
{
    const Layout &layout = Self::kLayout;
    for (const Entry<Distribution> &e : layout.windows)
        (self().*e.member).merge(other.*e.member);
    (self().*layout.total.member).merge(other.*layout.total.member);
    for (const Entry<Distribution> &e : layout.extra_dists)
        (self().*e.member).merge(other.*e.member);
    for (const Entry<Counter> &e : layout.counters)
        (self().*e.member) += (other.*e.member).value();
}

template <typename Self, std::size_t N>
void
WindowLedger<Self, N>::reset()
{
    const Layout &layout = Self::kLayout;
    for (const Entry<Distribution> &e : layout.windows)
        (self().*e.member).reset();
    (self().*layout.total.member).reset();
    for (const Entry<Distribution> &e : layout.extra_dists)
        (self().*e.member).reset();
    for (const Entry<Counter> &e : layout.counters)
        (self().*e.member).reset();
}

template <typename Self, std::size_t N>
void
WindowLedger<Self, N>::registerWith(StatGroup &group,
                                    const std::string &prefix) const
{
    const Layout &layout = Self::kLayout;
    const auto add = [&](const Entry<Distribution> &e) {
        group.addDistribution(prefix + "." + e.name, &(self().*e.member),
                              e.desc);
    };
    for (const Entry<Distribution> &e : layout.windows)
        add(e);
    add(layout.total);
    for (const Entry<Distribution> &e : layout.extra_dists)
        add(e);
    for (const Entry<Counter> &e : layout.counters)
        group.addCounter(prefix + "." + e.name, &(self().*e.member),
                         e.desc);
}

template <typename Self, std::size_t N>
double
WindowLedger<Self, N>::phaseSum() const
{
    double sum = 0.0;
    for (const Entry<Distribution> &e : Self::kLayout.windows)
        sum += (self().*e.member).sum();
    return sum;
}

namespace {

using PhaseDist = PhaseLatencyStats::Entry<Distribution>;
using RecoveryCount = RecoveryStats::Entry<Counter>;

constexpr PhaseDist kStashHit[] = {
    {&PhaseLatencyStats::stash_hit, "stash_hit",
     "step-1 fast path (no phases run)"},
};

constexpr RecoveryCount kRecoveryCounters[] = {
    {&RecoveryStats::recoveries, "recoveries",
     "recoveries sampled (successful only)"},
    {&RecoveryStats::redelivered_entries, "redelivered_entries",
     "WPQ entries redelivered by the ADR crash flush"},
    {&RecoveryStats::records_verified, "records_verified",
     "integrity records whose tags verified"},
    {&RecoveryStats::records_refused, "records_refused",
     "recoveries refused with an IntegrityError"},
    {&RecoveryStats::nodes_repaired, "nodes_repaired",
     "stale persisted interior nodes rewritten"},
    {&RecoveryStats::blackbox_events, "blackbox_events",
     "flight-recorder events decoded at recovery"},
    {&RecoveryStats::blackbox_torn, "blackbox_torn",
     "flight-recorder records dropped (torn/bad CRC)"},
};

} // namespace

const PhaseLatencyStats::Layout PhaseLatencyStats::kLayout = {
    {{
        {&PhaseLatencyStats::remap, "remap",
         "step 2: PosMap access + label backup"},
        {&PhaseLatencyStats::load, "load", "step 3: path load"},
        {&PhaseLatencyStats::backup, "backup",
         "step 4: stash update + data backup"},
        {&PhaseLatencyStats::evict, "evict",
         "step 5: eviction excluding the WPQ drain"},
        {&PhaseLatencyStats::drain, "drain",
         "WPQ rounds: start/push/commit/drain"},
    }},
    {&PhaseLatencyStats::total, "total",
     "steps 2-5 end to end (full accesses)"},
    kStashHit,
    {},
};

const RecoveryStats::Layout RecoveryStats::kLayout = {
    {{
        {&RecoveryStats::wpq_replay, "wpq_replay_ns",
         "device redo-log replay after the ADR flush"},
        {&RecoveryStats::adr_redeliver, "adr_redeliver_ns",
         "ADR crashFlush of the in-flight WPQ rounds"},
        {&RecoveryStats::image_reload, "image_reload_ns",
         "controller teardown + image rebuild"},
        {&RecoveryStats::posmap_rebuild, "posmap_rebuild_ns",
         "volatile PosMap/stash/shadow-region rebuild"},
        {&RecoveryStats::integrity_verify, "integrity_verify_ns",
         "integrity record re-verification scan"},
        {&RecoveryStats::node_repair, "node_repair_ns",
         "stale Merkle interior-node repair"},
    }},
    {&RecoveryStats::total, "total_ns", "whole recovery, end to end"},
    {},
    kRecoveryCounters,
};

template class WindowLedger<PhaseLatencyStats, 5>;
template class WindowLedger<RecoveryStats, 6>;

} // namespace psoram
