/**
 * @file
 * Mini-PMDK: a persistent-memory object pool over the simulated device.
 *
 * Substitutes for Intel's libpmemobj (the paper's PMDK workloads run on
 * it). The pool provides:
 *
 *  - a root object at a fixed offset, like pmemobj_root();
 *  - a persistent heap with a free-list allocator whose metadata
 *    updates are themselves instrumented, flushed and fenced (so the
 *    allocator contributes realistic store/CLF/fence patterns to the
 *    trace, as PMDK's allocator does);
 *  - pmemobj-style persist primitives: flush() emits one CLWB event per
 *    covered cache line, fence() emits SFENCE, persist() = flush+fence.
 *
 * Every write goes through the PmRuntime instrumentation layer, so any
 * attached detector observes the full instruction stream.
 */

#ifndef PMDB_PMDK_POOL_HH
#define PMDB_PMDK_POOL_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"
#include "pmem/device.hh"
#include "trace/runtime.hh"

namespace pmdb
{

/**
 * A persistent object pool. Owns the simulated device; the caller owns
 * the runtime (so detectors can be attached before or after pool
 * creation).
 */
class PmemPool
{
  public:
    /**
     * Create a pool of @p size bytes named @p name; the name is used to
     * register the PM region with the debugger (Register_pmem).
     *
     * @param track_persistence attach the device's persistence-domain
     *        model (dirty lines, pending writebacks, crash images) to
     *        the event stream. On for correctness and crash testing;
     *        performance benchmarks turn it off because real PM does
     *        this tracking in hardware at zero software cost, and it
     *        would otherwise inflate the "native" baseline.
     */
    PmemPool(PmRuntime &runtime, std::size_t size,
             const std::string &name = "pool",
             bool track_persistence = true);

    /**
     * Reopen a pool from a crash image: the device starts with
     * @p image as both its volatile and durable content, modelling a
     * real PM file mapped back after a failure. Call root() (with the
     * original root size) and then recoverHeap() before allocating.
     * The device builds its volatile image in @p volatile_storage
     * (PmemDevice's reopen constructor).
     */
    PmemPool(PmRuntime &runtime, std::vector<std::uint8_t> image,
             const std::string &name = "pool",
             bool track_persistence = true,
             std::vector<std::uint8_t> volatile_storage = {});

    ~PmemPool();

    PmemPool(const PmemPool &) = delete;
    PmemPool &operator=(const PmemPool &) = delete;

    PmRuntime &runtime() { return runtime_; }
    PmemDevice &device() { return *device_; }
    const PmemDevice &device() const { return *device_; }

    /** @name Root object. */
    /** @{ */

    /**
     * Return the root object's offset, sizing it to at least @p size on
     * first call (like pmemobj_root).
     */
    Addr root(std::size_t size);

    /** @} */

    /** @name Allocation. */
    /** @{ */

    /**
     * Allocate @p size bytes of zeroed persistent memory. The block
     * header update is persisted (store + CLWB + SFENCE), as PMDK's
     * atomic allocations are. The allocator's events carry @p thread,
     * so a worker thread allocating for itself never emits on another
     * thread's ThreadId.
     */
    Addr alloc(std::size_t size, ThreadId thread = 0);

    /**
     * Allocate for a transaction: the zeroed data is stored but not
     * flushed and no fence is issued — the commit barrier flushes the
     * registered range and guarantees durability (pmemobj_tx_alloc
     * semantics). @p block_out receives the full block size (the
     * size-class rounding), which is what the caller must register.
     */
    Addr allocNoFence(std::size_t size, std::size_t *block_out = nullptr);

    /** Free a block previously returned by alloc(). */
    void freeObj(Addr addr);

    /** Bytes of heap currently handed out. */
    std::size_t heapUsed() const { return heapUsed_; }

    /**
     * Rebuild the volatile allocator state (bump pointer, free lists)
     * from the durable block headers of a reopened pool. Allocation is
     * sequential and every header is persisted before its block is
     * handed out, so only the youngest block can have a torn or absent
     * header — the scan stops at the first invalid one, reclaiming
     * everything behind it. Requires root() to have been called with
     * the original root size (the heap base must match).
     */
    void recoverHeap();

    /** @} */

    /** @name Instrumented data path. */
    /** @{ */

    /** Store @p size bytes (emits a Store event). */
    void writeBytes(Addr addr, const void *data, std::size_t size,
                    ThreadId thread = 0);

    /** Read @p size bytes from the volatile image (not instrumented). */
    void readBytes(Addr addr, void *out, std::size_t size) const;

    template <typename T>
    void
    store(Addr addr, const T &value, ThreadId thread = 0)
    {
        writeBytes(addr, &value, sizeof(T), thread);
    }

    template <typename T>
    T
    load(Addr addr) const
    {
        T value;
        readBytes(addr, &value, sizeof(T));
        return value;
    }

    /** Emit one CLWB event per cache line covering [addr, addr+size). */
    void flush(Addr addr, std::size_t size,
               FlushKind kind = FlushKind::Clwb, ThreadId thread = 0);

    /** Emit an SFENCE event. */
    void fence(ThreadId thread = 0);

    /** pmemobj_persist: flush the range, then fence. */
    void persist(Addr addr, std::size_t size, ThreadId thread = 0);

    /** @} */

    /** Register a named variable with the debugger (order specs). */
    void registerVariable(const std::string &name, Addr addr,
                          std::size_t size, ThreadId thread = 0);

  private:
    friend class Transaction;
    friend class TxRecovery;

    Addr allocInternal(std::size_t size, bool fence_after,
                       bool flush_data, std::size_t *block_out = nullptr,
                       ThreadId thread = 0);

    struct BlockHeader
    {
        std::uint64_t size;
        std::uint32_t state; // 1 = allocated, 0 = free
        std::uint32_t pad;
    };

    static constexpr Addr rootOffset_ = 4096;
    static constexpr std::size_t headerSize_ = sizeof(BlockHeader);
    static constexpr std::size_t allocAlign_ = 64;

    /** Offset of the per-pool transaction undo-log region. */
    Addr logRegion() const { return logRegion_; }
    std::size_t logRegionSize() const { return logRegionSize_; }

    PmRuntime &runtime_;
    std::unique_ptr<PmemDevice> device_;
    std::string name_;
    bool deviceAttached_ = true;
    Addr rootSizeReserved_ = 0;
    Addr heapBase_ = 0;
    Addr bump_ = 0;
    std::size_t heapUsed_ = 0;
    Addr logRegion_ = 0;
    std::size_t logRegionSize_ = 0;
    /** Volatile free lists: size-class bucket -> block offsets. */
    std::vector<std::vector<Addr>> freeLists_;
    /** Serializes allocator metadata for multi-threaded workloads. */
    std::mutex allocMutex_;

    /** @name Transaction state (managed by the Transaction facade). */
    /** @{ */
    int txDepth_ = 0;
    /** Volatile mirror of the log append offset. */
    std::size_t txLogBytes_ = 0;
    /** Ranges to flush at the outermost commit. */
    std::vector<AddrRange> txRanges_;
    ThreadId txThread_ = 0;
    /** @} */
};

} // namespace pmdb

#endif // PMDB_PMDK_POOL_HH
