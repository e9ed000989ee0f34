#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace psoram::obs {

namespace {

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

} // namespace

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

void
MetricsExporter::writeJson(std::ostream &os) const
{
    std::vector<StatGroup::Snapshot> snapshots;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const StatGroup *group : groups_)
            snapshots.push_back(group->snapshot());
    }
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

bool
MetricsExporter::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write metrics to " << path
                  << "\n";
        return false;
    }
    writeJson(out);
    return out.good();
}

} // namespace psoram::obs
