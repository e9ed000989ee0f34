/**
 * @file
 * Real kill-and-reopen harness for the disk backend: a fork()ed child
 * serves writes through ShardedOramEngine on a 2-shard disk tree and
 * reports, over a pipe, every (key, version) it submits and every one
 * the engine acknowledges. The parent SIGKILLs it mid-load, reopens the
 * trees in-process (each backend replays its redo log at open),
 * recovers, runs the recovery-invariant checker on every shard (each
 * key's last acknowledged version as its durable floor, its last
 * submitted one as latest), and checks every key: the version read back
 * is at least the last acknowledged one and at most the last submitted
 * one.
 *
 * What SIGKILL can show: the kernel keeps the killed process's written
 * file pages, so a write survives iff its log record reached the file
 * before the kill — the harness proves nothing was acknowledged from
 * process RAM alone (an acknowledgement ahead of the record would fail
 * it). What it cannot show: the ordering against fdatasync, because a
 * killed process loses no page cache. The LogSync crash enumeration
 * (test_disk_crash.cc) covers that window.
 *
 * The negative control deletes the logs before the reopen: every write
 * since the last checkpoint lived only there, so acknowledged versions
 * must go missing and the checker must report the loss.
 *
 * Not in the ThreadSanitizer job: it forks a process that then starts
 * threads.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "disk_trees.hh"
#include "sim/sharded_engine.hh"

namespace psoram {
namespace {

constexpr unsigned kShards = 2;
constexpr BlockAddr kKeys = 64;
constexpr int kMaxInFlight = 16;

/** One pipe message: 'S'ubmitted or 'A'cknowledged (key, version). */
struct Message
{
    char kind;
    std::uint32_t key;
    std::uint32_t version;
};
constexpr std::size_t kMessageBytes = 9;

ShardedSystemConfig
killConfig(const std::string &path)
{
    ShardedSystemConfig config;
    config.base.design = DesignKind::PsOram;
    config.base.tree_height = 7;
    config.base.num_blocks = 2 * kKeys;
    config.base.stash_capacity = 64;
    config.base.seed = 43;
    config.base.backend = BackendKind::Disk;
    config.base.backing_file = path;
    config.base.disk_cache_pages = 16;
    config.base.disk_pinned_pages = 2;
    config.sharding.num_shards = kShards;
    return config;
}

void
sendMessage(int fd, char kind, BlockAddr key, std::uint32_t version)
{
    std::uint8_t buf[kMessageBytes];
    buf[0] = static_cast<std::uint8_t>(kind);
    const auto key32 = static_cast<std::uint32_t>(key);
    std::memcpy(buf + 1, &key32, 4);
    std::memcpy(buf + 5, &version, 4);
    // Smaller than PIPE_BUF: the worker and drain threads' messages
    // never interleave.
    if (::write(fd, buf, sizeof(buf)) != static_cast<ssize_t>(sizeof(buf)))
        ::_exit(3);
}

/** The child: serve writes until killed. Never returns. */
[[noreturn]] void
serveUntilKilled(const ShardedSystemConfig &config, int fd)
{
    ShardedSystem system = buildShardedSystem(config);
    ShardedOramEngine::Config engine_config;
    engine_config.record_completions = false;
    ShardedOramEngine engine(system, engine_config);
    std::atomic<int> in_flight{0};
    std::array<std::uint32_t, kKeys> version{};
    std::uint8_t payload[kBlockDataBytes];
    for (std::uint64_t i = 0;; ++i) {
        const BlockAddr key = (i * 7) % kKeys;
        const std::uint32_t v = ++version[key];
        stampPayload(system.router.route(key).local, v, payload);
        while (in_flight.load() >= kMaxInFlight)
            std::this_thread::yield();
        sendMessage(fd, 'S', key, v);
        ++in_flight;
        engine.submitWrite(key, payload,
                           [fd, key, v, &in_flight](
                               const ShardedOramEngine::Completion &) {
                               sendMessage(fd, 'A', key, v);
                               --in_flight;
                           });
    }
}

struct KillOutcome
{
    std::map<BlockAddr, std::uint32_t> submitted;
    std::map<BlockAddr, std::uint32_t> acked;
    std::size_t acks = 0;
};

/** Fork a serving child, SIGKILL it after @p kill_after acks, and
 *  collect every message it got out before dying. */
KillOutcome
serveAndKill(const ShardedSystemConfig &config, std::size_t kill_after)
{
    KillOutcome out;
    int fds[2];
    if (::pipe(fds) != 0) {
        ADD_FAILURE() << "pipe: " << std::strerror(errno);
        return out;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ADD_FAILURE() << "fork: " << std::strerror(errno);
        return out;
    }
    if (pid == 0) {
        ::close(fds[0]);
        serveUntilKilled(config, fds[1]);
    }
    ::close(fds[1]);

    std::vector<std::uint8_t> pending;
    bool killed = false;
    for (;;) {
        pollfd p{fds[0], POLLIN, 0};
        if (::poll(&p, 1, 60'000) <= 0) {
            ADD_FAILURE() << "child went silent";
            break;
        }
        std::uint8_t buf[4096];
        const ssize_t got = ::read(fds[0], buf, sizeof(buf));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            break; // EOF: the child is gone
        pending.insert(pending.end(), buf, buf + got);
        std::size_t at = 0;
        for (; at + kMessageBytes <= pending.size(); at += kMessageBytes) {
            Message m;
            m.kind = static_cast<char>(pending[at]);
            std::memcpy(&m.key, pending.data() + at + 1, 4);
            std::memcpy(&m.version, pending.data() + at + 5, 4);
            auto &slot = m.kind == 'A' ? out.acked[m.key]
                                       : out.submitted[m.key];
            slot = std::max(slot, m.version);
            out.acks += m.kind == 'A';
        }
        pending.erase(pending.begin(), pending.begin() + at);
        if (!killed && out.acks >= kill_after) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    }
    ::close(fds[0]);
    EXPECT_TRUE(killed) << "child stopped before the kill point";
    if (!killed)
        ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child did not die by SIGKILL (status " << status << ")";
    return out;
}

struct Reopened
{
    /** The version read back per key. */
    std::map<BlockAddr, std::uint32_t> seen;
    /** The recovery-invariant checker's verdict over every shard. */
    std::vector<std::string> violations;
};

/** Reopen the killed trees, recover and check every shard against
 *  @p run, and read every key back. */
Reopened
reopenAndRead(const ShardedSystemConfig &config, const KillOutcome &run)
{
    ShardedSystem system = buildShardedSystem(config);
    std::vector<RecoveryOracle> oracle(system.numShards());
    for (const auto &[key, v] : run.submitted) {
        const ShardSlot slot = system.router.route(key);
        oracle[slot.shard].latest[slot.local] = v;
    }
    for (const auto &[key, v] : run.acked) {
        const ShardSlot slot = system.router.route(key);
        oracle[slot.shard].durable[slot.local] = v;
    }
    Reopened out;
    for (unsigned k = 0; k < system.numShards(); ++k) {
        system.controller(k).recoverFromNvm();
        for (const std::string &v :
             checkRecoveryInvariants(system.shards[k], oracle[k]))
            out.violations.push_back("shard " + std::to_string(k) + ": " +
                                     v);
    }
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr key = 0; key < kKeys; ++key) {
        const ShardSlot slot = system.router.route(key);
        system.controller(slot.shard).read(slot.local, buf);
        const std::uint32_t v = payloadVersion(buf);
        if (v != 0) {
            std::uint8_t expect[kBlockDataBytes];
            stampPayload(slot.local, v, expect);
            EXPECT_EQ(std::memcmp(buf, expect, sizeof(buf)), 0)
                << "key " << key << " torn at version " << v;
        }
        out.seen[key] = v;
    }
    return out;
}

class DiskKill : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DiskKill, AckedWritesSurviveSigkill)
{
    const std::string path = testing::tmpTree(
        "disk_kill_" + std::to_string(GetParam()) + ".tree");
    const ShardedSystemConfig config = killConfig(path);
    const KillOutcome run = serveAndKill(config, GetParam());
    ASSERT_GE(run.acks, GetParam());

    const Reopened reopened = reopenAndRead(config, run);
    for (const std::string &violation : reopened.violations)
        ADD_FAILURE() << violation;
    for (const auto &[key, v] : reopened.seen) {
        const auto acked = run.acked.find(key);
        const auto submitted = run.submitted.find(key);
        const std::uint32_t floor =
            acked == run.acked.end() ? 0 : acked->second;
        const std::uint32_t ceiling =
            submitted == run.submitted.end() ? 0 : submitted->second;
        EXPECT_GE(v, floor) << "key " << key << " lost an acked write";
        EXPECT_LE(v, ceiling) << "key " << key << " read a version never "
                                 "submitted";
    }
    removeDiskTrees(path);
}

INSTANTIATE_TEST_SUITE_P(KillPoints, DiskKill,
                         ::testing::Values(1, 40, 150, 400),
                         [](const auto &info) {
                             return "after" +
                                    std::to_string(info.param) + "acks";
                         });

/** Negative control: lose the logs before the reopen, and acknowledged
 *  writes must go missing — the harness can see a lost write. */
TEST(DiskKillControl, DeletedLogLosesAckedWrites)
{
    const std::string path = testing::tmpTree("disk_kill_nolog.tree");
    const ShardedSystemConfig config = killConfig(path);
    const KillOutcome run = serveAndKill(config, 40);
    for (unsigned shard = 0; shard < kShards; ++shard)
        std::remove((path + ".shard" + std::to_string(shard) + ".wal")
                        .c_str());

    const Reopened reopened = reopenAndRead(config, run);
    EXPECT_TRUE(testing::reportsLoss(reopened.violations));
    std::size_t lost = 0;
    for (const auto &[key, v] : reopened.seen) {
        const auto acked = run.acked.find(key);
        lost += acked != run.acked.end() && v < acked->second;
    }
    EXPECT_GT(lost, 0u) << "a lost log went unnoticed";
    removeDiskTrees(path);
}

} // namespace
} // namespace psoram
