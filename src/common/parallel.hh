/**
 * @file
 * The one worker pool of the offline engines: a parallel for-loop.
 */

#ifndef PMDB_COMMON_PARALLEL_HH
#define PMDB_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

namespace pmdb
{

/**
 * Run @p body(i) for every i in [0, count) on min(workers, count) new
 * threads, or on the calling thread when that is at most one. Indices
 * are claimed dynamically: for results independent of the worker
 * count, give each index its own output slot and merge the slots in
 * index order. A body that takes (i, worker) is also told which
 * thread runs it, a number below @p workers, to index per-thread
 * scratch.
 */
template <typename Body>
void
parallelFor(std::size_t count, std::size_t workers, Body &&body)
{
    std::atomic<std::size_t> next{0};
    const auto drain = [&](std::size_t worker) {
        for (std::size_t i; (i = next++) < count;) {
            if constexpr (std::is_invocable_v<Body &, std::size_t,
                                              std::size_t>)
                body(i, worker);
            else
                body(i);
        }
    };
    workers = std::min(workers, count);
    if (workers <= 1)
        return drain(0);
    // Declared after what the threads use: joined first, on every path.
    std::vector<std::jthread> pool;
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(drain, w);
}

} // namespace pmdb

#endif // PMDB_COMMON_PARALLEL_HH
