#include "nvm/fault_injector.hh"

#include "common/log.hh"

namespace psoram {

const char *
persistBoundaryName(PersistBoundary kind)
{
    switch (kind) {
      case PersistBoundary::RoundStart:
        return "round-start";
      case PersistBoundary::RoundCommit:
        return "round-commit";
      case PersistBoundary::DrainWrite:
        return "drain-write";
      case PersistBoundary::DirectWrite:
        return "direct-write";
      case PersistBoundary::PageWrite:
        return "page-write";
      case PersistBoundary::Sync:
        return "sync";
      case PersistBoundary::LogAppend:
        return "log-append";
      case PersistBoundary::LogSync:
        return "log-sync";
    }
    PSORAM_PANIC("unknown persist boundary kind");
}

} // namespace psoram
