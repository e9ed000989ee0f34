#include "psoram/temp_posmap.hh"

#include "common/log.hh"

namespace psoram {

TempPosMap::TempPosMap(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        PSORAM_FATAL("temporary PosMap needs capacity >= 1");
}

std::optional<PathId>
TempPosMap::get(BlockAddr addr) const
{
    const auto it = entries_.find(addr);
    if (it == entries_.end())
        return std::nullopt;
    return it->second.path;
}

void
TempPosMap::put(BlockAddr addr, PathId path)
{
    const auto it = entries_.find(addr);
    if (it != entries_.end()) {
        it->second.path = path;
        return;
    }
    if (full())
        ++pressure_;
    order_.push_back(addr);
    entries_[addr] = Entry{path, std::prev(order_.end())};
}

bool
TempPosMap::erase(BlockAddr addr)
{
    const auto it = entries_.find(addr);
    if (it == entries_.end())
        return false;
    order_.erase(it->second.pos);
    entries_.erase(it);
    return true;
}

std::optional<BlockAddr>
TempPosMap::oldest() const
{
    if (order_.empty())
        return std::nullopt;
    return order_.front();
}

void
TempPosMap::clear()
{
    order_.clear();
    entries_.clear();
}

} // namespace psoram
