#include "nvm/wpq.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/trace.hh"

namespace psoram {

Wpq::Wpq(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity)
{
    if (capacity_ == 0)
        PSORAM_FATAL("WPQ '", name_, "' needs capacity >= 1");
    entries_.reserve(capacity_);
}

void
Wpq::start()
{
    if (open_)
        PSORAM_PANIC("WPQ '", name_, "': start() while a round is open");
    if (!entries_.empty())
        PSORAM_PANIC("WPQ '", name_, "': start() with undrained entries");
    open_ = true;
    committed_ = false;
    ++rounds_;
}

bool
Wpq::push(const WpqEntry &entry)
{
    if (!open_)
        PSORAM_PANIC("WPQ '", name_, "': push() without start()");
    if (full())
        return false;
    entries_.push_back(entry);
    ++pushed_;
    return true;
}

void
Wpq::end()
{
    if (!open_)
        PSORAM_PANIC("WPQ '", name_, "': end() without start()");
    open_ = false;
    committed_ = true;
}

void
Wpq::appendSpans(std::vector<WriteSpan> &spans) const
{
    // Each entry is its own span (the ADR durability atom), so a fault
    // mid-writev leaves every entry queued and the power-failure flush
    // redelivers the full round — same final bytes, write idempotency
    // intact.
    for (const WpqEntry &entry : entries_)
        spans.push_back({entry.addr, entry.data.data(),
                         entry.data.size()});
}

Cycle
Wpq::retire(NvmTiming &timing, Cycle earliest)
{
    if (open_)
        PSORAM_PANIC("WPQ '", name_, "': drain before end()");
    Cycle done = earliest;
    for (const WpqEntry &entry : entries_) {
        // Each entry is one NVM transaction (a block or a PosMap entry).
        done = std::max(done, timing.accessOne(entry.addr, true, earliest));
        PSORAM_TRACE_INSTANT_ARG("nvm", "wpq.drain_entry", 0, "addr",
                                 static_cast<std::int64_t>(entry.addr));
    }
    drained_ += entries_.size();
    entries_.clear();
    committed_ = false;
    return done;
}

void
Wpq::clear()
{
    entries_.clear();
    open_ = false;
    committed_ = false;
}

std::size_t
Wpq::queuedBytes() const
{
    std::size_t bytes = 0;
    for (const auto &entry : entries_)
        bytes += entry.data.size();
    return bytes;
}

} // namespace psoram
