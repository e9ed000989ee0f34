#include "obs/metrics.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace psoram::obs {

namespace {

/** Path for the atexit dump (set once per program; last call wins). */
std::string &
atexitPath()
{
    static std::string *path = new std::string();
    return *path;
}

void
atexitDump()
{
    if (!atexitPath().empty())
        MetricsExporter::global().writeTo(atexitPath());
}

std::string
jsonQuote(const std::string &s)
{
    std::string quoted = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            quoted += '\\';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Prometheus metric names allow [a-zA-Z0-9_:] only. */
std::string
promSanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s)
        out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
                   ? c
                   : '_';
    return out;
}

} // namespace

MetricsExporter::~MetricsExporter()
{
    stopPeriodic();
}

MetricsExporter &
MetricsExporter::global()
{
    // Leaked: atexit dumps run during static destruction.
    static MetricsExporter *exporter = new MetricsExporter();
    return *exporter;
}

void
MetricsExporter::addGroup(const StatGroup *group)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::find(groups_.begin(), groups_.end(), group) ==
        groups_.end())
        groups_.push_back(group);
}

std::size_t
MetricsExporter::numGroups() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return groups_.size();
}

std::vector<StatGroup::Snapshot>
MetricsExporter::collect() const
{
    std::vector<const StatGroup *> groups;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        groups = groups_;
    }
    std::vector<StatGroup::Snapshot> snapshots;
    snapshots.reserve(groups.size());
    for (const StatGroup *group : groups)
        snapshots.push_back(group->snapshot());
    return snapshots;
}

void
MetricsExporter::writeJson(std::ostream &os) const
{
    const auto snapshots = collect();
    os << "{\"groups\": [\n";
    for (std::size_t g = 0; g < snapshots.size(); ++g) {
        const StatGroup::Snapshot &snap = snapshots[g];
        os << "  {\"name\": " << jsonQuote(snap.name)
           << ", \"counters\": {";
        for (std::size_t i = 0; i < snap.counters.size(); ++i)
            os << (i ? ", " : "") << jsonQuote(snap.counters[i].name)
               << ": " << snap.counters[i].value;
        os << "}, \"distributions\": {";
        for (std::size_t i = 0; i < snap.dists.size(); ++i) {
            const auto &d = snap.dists[i];
            os << (i ? ", " : "") << jsonQuote(d.name) << ": {"
               << "\"count\": " << d.stats.count
               << ", \"sum\": " << fmtDouble(d.stats.sum)
               << ", \"min\": " << fmtDouble(d.stats.min)
               << ", \"max\": " << fmtDouble(d.stats.max)
               << ", \"mean\": " << fmtDouble(d.stats.mean()) << "}";
        }
        os << "}}" << (g + 1 < snapshots.size() ? "," : "") << "\n";
    }
    os << "]}\n";
}

void
MetricsExporter::writePrometheus(std::ostream &os) const
{
    const auto snapshots = collect();
    if (snapshots.empty()) {
        // A zero-byte exposition file is indistinguishable from a
        // failed write; say explicitly that nothing was registered.
        os << "# psoram metrics: no stat groups registered\n";
        return;
    }
    for (const StatGroup::Snapshot &snap : snapshots) {
        const std::string prefix =
            "psoram_" + promSanitize(snap.name) + "_";
        for (const auto &c : snap.counters) {
            const std::string metric = prefix + promSanitize(c.name);
            os << "# HELP " << metric << " " << c.desc << "\n";
            os << "# TYPE " << metric << " counter\n";
            os << metric << " " << c.value << "\n";
        }
        for (const auto &d : snap.dists) {
            const std::string metric = prefix + promSanitize(d.name);
            os << "# HELP " << metric << " " << d.desc << "\n";
            os << "# TYPE " << metric << " summary\n";
            os << metric << "_count " << d.stats.count << "\n";
            os << metric << "_sum " << fmtDouble(d.stats.sum) << "\n";
            os << metric << "_min " << fmtDouble(d.stats.min) << "\n";
            os << metric << "_max " << fmtDouble(d.stats.max) << "\n";
        }
    }
}

bool
MetricsExporter::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write metrics to " << path
                  << "\n";
        return false;
    }
    const bool prom =
        path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
    const bool txt =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".txt") == 0;
    if (prom || txt)
        writePrometheus(out);
    else
        writeJson(out);
    return out.good();
}

void
MetricsExporter::startPeriodic(const std::string &path,
                               std::chrono::milliseconds every)
{
    stopPeriodic();
    {
        std::lock_guard<std::mutex> lock(periodic_mutex_);
        periodic_stop_ = false;
    }
    periodic_thread_ = std::thread([this, path, every] {
        std::unique_lock<std::mutex> lock(periodic_mutex_);
        for (;;) {
            if (periodic_cv_.wait_for(lock, every,
                                      [&] { return periodic_stop_; }))
                return;
            lock.unlock();
            writeTo(path);
            lock.lock();
        }
    });
}

void
MetricsExporter::stopPeriodic()
{
    {
        std::lock_guard<std::mutex> lock(periodic_mutex_);
        periodic_stop_ = true;
    }
    periodic_cv_.notify_all();
    if (periodic_thread_.joinable())
        periodic_thread_.join();
}

void
MetricsExporter::dumpAtExit(const std::string &path)
{
    static bool registered = false;
    atexitPath() = path;
    if (!registered) {
        registered = true;
        std::atexit(atexitDump);
    }
}

} // namespace psoram::obs
