/**
 * @file
 * Multi-writer shared persistent-memory pool (CXL-era deployment shape).
 *
 * PmemDevice models one process's view of PM: its volatile image is
 * private and its persistence state (dirty lines, pending writebacks,
 * durable image) is derived from that one process's flush/fence
 * history. "Rethinking PM Crash Consistency in the CXL Era" (PAPERS.md)
 * argues the coming deployment shape is different: a pool *mapped by
 * several writer processes at once*, where a crash image must be
 * consistent with every writer's persistence history — state no single
 * process (and no per-session detector) can see alone.
 *
 * SharedPmemPool is that shape. The pool is a file mmap'd MAP_SHARED by
 * every writer, laid out as:
 *
 *   [ header | volatile image ]
 *
 * The **volatile image** is the program-visible bytes: writers see each
 * other's stores immediately, like two processes mapping one
 * CXL-attached region. The pool keeps no persistence state of its own.
 * Which lines are dirty or pending, and which writer made them so, is
 * derived once, from the merged flush/fence stream, by the
 * cross-session rule engine (src/crossproc/rules.hh): a writer's fence
 * completes only that writer's writebacks there.
 *
 * The header also carries the **global fence clock**: every
 * instrumented operation draws a monotone ticket from it *inside the
 * pool spinlock, before the memory mutation is published*, and arms the
 * local PmRuntime so the next dispatched event carries the ticket in
 * Event::global. Ticket order therefore never inverts the order of the
 * shared-memory operations the tickets describe, and the daemon-side
 * engine can merge the per-session streams into one total order by
 * sorting on Event::global alone.
 *
 * Reads come in two flavors, and the distinction matters:
 *
 *  - readBytes()/load<T>() are *instrumented*: they draw a ticket and
 *    emit an EventKind::Load event. Use them for every read whose
 *    value feeds program logic — the cross-session rules need to see
 *    when one writer observes another's data.
 *  - peek<T>() and the coord*() words are *uninstrumented*: no ticket,
 *    no event. peek is for spin-polling a location before the real
 *    instrumented read (polling would otherwise flood the trace with
 *    nondeterministically many Load events and destroy run-to-run
 *    report identity); the coord words live in the header — outside
 *    the persistent region entirely — and exist for test/workload
 *    process handshakes (turn-taking), which are volatile scratch and
 *    deliberately invisible to detection.
 */

#ifndef PMDB_PMEM_SHARED_DEVICE_HH
#define PMDB_PMEM_SHARED_DEVICE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "trace/runtime.hh"

namespace pmdb
{

/**
 * A persistent pool shared by multiple writer processes.
 *
 * Not a TraceSink: the pool *is* the device (it mutates the shared
 * image directly under its spinlock) and emits the instrumented
 * events itself, with explicit global-clock stamps. Attaching a
 * per-process PmemDevice on top would model a private cache each — the
 * opposite of the shared-mapping semantics modelled here.
 */
class SharedPmemPool
{
  public:
    /** Number of uninstrumented coordination words in the header. */
    static constexpr std::size_t coordWords = 16;

    /**
     * Create the pool file at @p path with @p dataSize bytes of
     * zeroed persistent data (rounded up to whole cache lines).
     * Idempotence is deliberate *not* provided: an existing file is
     * truncated, so stale state from a previous run cannot leak in.
     */
    static bool createPoolFile(const std::string &path,
                               std::size_t dataSize,
                               std::string *error = nullptr);

    /**
     * Map an existing pool file as writer @p writerId (1-based; each
     * concurrent writer must use a distinct id). Registers the region
     * with @p runtime as "shared_pool" so per-session detectors track
     * this writer's own flush/fence discipline over it.
     */
    SharedPmemPool(PmRuntime &runtime, const std::string &path,
                   std::uint32_t writerId);

    ~SharedPmemPool();

    SharedPmemPool(const SharedPmemPool &) = delete;
    SharedPmemPool &operator=(const SharedPmemPool &) = delete;

    bool valid() const { return base_ != nullptr; }
    const std::string &error() const { return error_; }

    PmRuntime &runtime() { return runtime_; }
    std::uint32_t writerId() const { return writerId_; }
    const std::string &path() const { return path_; }
    std::size_t size() const { return dataSize_; }

    /** @name Instrumented (ticketed) data path. */
    /** @{ */

    /** Store @p size bytes at @p addr; emits a ticketed Store event. */
    void writeBytes(Addr addr, const void *data, std::size_t size,
                    ThreadId thread = 0);

    /** Read @p size bytes at @p addr; emits a ticketed Load event. */
    void readBytes(Addr addr, void *out, std::size_t size,
                   ThreadId thread = 0);

    template <typename T>
    void
    store(Addr addr, const T &value, ThreadId thread = 0)
    {
        writeBytes(addr, &value, sizeof(T), thread);
    }

    template <typename T>
    T
    load(Addr addr, ThreadId thread = 0)
    {
        T value{};
        readBytes(addr, &value, sizeof(T), thread);
        return value;
    }

    /** CLF over [addr, addr+size): one ticketed Flush per line. */
    void flush(Addr addr, std::size_t size,
               FlushKind kind = FlushKind::Clwb, ThreadId thread = 0);

    /** SFENCE: completes *this writer's* pending writebacks. */
    void fence(ThreadId thread = 0);

    /** flush + fence. */
    void persist(Addr addr, std::size_t size, ThreadId thread = 0);

    /** Ticketed epoch section markers (cross-writer overlap rule). */
    void epochBegin(ThreadId thread = 0);
    void epochEnd(ThreadId thread = 0);

    /** @} */

    /** @name Uninstrumented paths (no ticket, no event). */
    /** @{ */

    /**
     * Raw volatile-image read for spin-polling. Once the polled value
     * is seen, re-read it with load<T>() so the observation enters the
     * event stream exactly once.
     */
    template <typename T>
    T
    peek(Addr addr) const
    {
        T value{};
        peekBytes(addr, &value, sizeof(T));
        return value;
    }

    void peekBytes(Addr addr, void *out, std::size_t size) const;

    /** Volatile scratch word in the header (process handshakes). */
    void coordStore(std::size_t index, std::uint64_t value);
    std::uint64_t coordLoad(std::size_t index) const;
    /** Spin until coordLoad(index) == expect. */
    void coordWait(std::size_t index, std::uint64_t expect) const;

    /** @} */

    /** Current global fence-clock value (tickets drawn so far). */
    SeqNum clockNow() const;

  private:
    struct Header;

    Header *header() const;
    std::uint8_t *volatileImage() const;

    void lock();
    void unlock();
    /** Draw the next global-clock ticket (call with the lock held). */
    SeqNum ticket();
    /** Draw a ticket for an event that touches no pool bytes and arm
     *  the runtime with it. */
    void stampNextEvent();
    void checkBounds(Addr addr, std::size_t size, const char *what) const;

    PmRuntime &runtime_;
    std::string path_;
    std::string error_;
    std::uint32_t writerId_ = 0;
    std::size_t dataSize_ = 0;
    std::size_t mapBytes_ = 0;
    std::uint8_t *base_ = nullptr;
    int fd_ = -1;
};

} // namespace pmdb

#endif // PMDB_PMEM_SHARED_DEVICE_HH
