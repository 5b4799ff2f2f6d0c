/**
 * @file
 * The two ways a recovery verifier reads persistent memory.
 *
 * Each workload's recovery walk is written once, as a template over a
 * Memory with `size()` and `load<T>(addr)`. Crash-state exploration
 * walks a detached crash image (ImageMemory); the model checker walks
 * a live pool (PoolMemory), whose reads land in the execution's read
 * set for pruning. Callers bounds-check every address before loading.
 */

#ifndef PMDB_WORKLOADS_RECOVERY_MEMORY_HH
#define PMDB_WORKLOADS_RECOVERY_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "pmdk/pool.hh"

namespace pmdb
{

/** Reads typed values straight out of a crash image. */
struct ImageMemory
{
    const std::vector<std::uint8_t> &image;

    std::size_t size() const { return image.size(); }

    template <typename T>
    T
    load(Addr addr) const
    {
        T value;
        std::memcpy(&value, image.data() + addr, sizeof(value));
        return value;
    }
};

/** Reads through the pool, so the read tracker sees every line. */
struct PoolMemory
{
    const PmemPool &pool;

    std::size_t size() const { return pool.device().size(); }

    template <typename T>
    T
    load(Addr addr) const
    {
        return pool.load<T>(addr);
    }
};

} // namespace pmdb

#endif // PMDB_WORKLOADS_RECOVERY_MEMORY_HH
