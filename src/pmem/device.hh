/**
 * @file
 * Simulated persistent-memory device with an x86 persistence-domain
 * model.
 *
 * The paper evaluates on Intel Optane DCPMM (App Direct). This module
 * substitutes a software model that implements the same persistence
 * semantics the debugger reasons about:
 *
 *  - a store makes cache lines *dirty* in the volatile image;
 *  - a CLF (CLWB/CLFLUSH/CLFLUSHOPT) *initiates* writeback: the line's
 *    bytes at flush time are queued as pending;
 *  - an SFENCE *completes* pending writebacks: queued line images
 *    become part of the durable (persisted) image.
 *
 * The persisted image is what a crash would leave behind if no pending
 * writeback landed; crashsim's ImageCursor (src/crashsim) builds the
 * images where some of them do.
 */

#ifndef PMDB_PMEM_DEVICE_HH
#define PMDB_PMEM_DEVICE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "trace/sink.hh"

namespace pmdb
{

/** A snapshot of one cache line queued for writeback. */
struct PendingLine
{
    std::array<std::uint8_t, cacheLineSize> data;
    /** Sequence number of the CLF that (last) queued this snapshot. */
    SeqNum flushSeq = 0;
};

/**
 * Observer of persistence-domain transitions.
 *
 * The crash-state exploration engine (src/crashsim) installs one of
 * these to capture crash points incrementally: it is told about each
 * queued writeback (O(1) per CLF-touched line) and about each ordering
 * boundary, instead of copying the whole pool image per boundary.
 * Because the device is a synchronous sink, observers see transitions
 * in exact program order under every dispatch mode.
 */
class PersistenceObserver
{
  public:
    virtual ~PersistenceObserver() = default;

    /** A CLF queued (or refreshed) line @p line's writeback snapshot;
     *  pendingLines() already holds it. */
    virtual void onLineQueued(std::uint64_t line,
                              const PendingLine &snapshot) = 0;

    /**
     * An ordering boundary (Fence / EpochEnd / JoinStrand) is about to
     * drain the pending-writeback queue. @p epoch_depth is the epoch
     * nesting depth the crash point lies in (for EpochEnd, after the
     * section closed).
     */
    virtual void onBoundary(const Event &event, int epoch_depth) = 0;

    /** The observed device is being destroyed; drop any reference. */
    virtual void onDeviceDestroyed() {}
};

/**
 * Byte-addressable simulated PM device.
 *
 * A tracked device maintains two images: the volatile image (what the
 * running program reads and writes, i.e. memory + caches) and the
 * persisted image (what has provably reached the persistence domain).
 * As a TraceSink it consumes Flush and Fence events to move line
 * snapshots from the pending writeback queue into the persisted image.
 *
 * An untracked device (a pool built with track_persistence = false,
 * where real hardware would keep the durable state) holds only the
 * volatile image, and its pool does not attach it to the event
 * stream. Every persistence-domain entry point (the durable image,
 * dirty and pending queries, Flush and boundary events, the observer)
 * panics on it rather than answer from state no event maintains.
 */
class PmemDevice : public TraceSink
{
  public:
    /**
     * Create a device of @p size bytes, zero-initialized. The durable
     * image is allocated only if @p track_persistence is set.
     */
    explicit PmemDevice(std::size_t size, bool track_persistence = true);

    /**
     * Create a device whose volatile and durable images both start as
     * @p image — reopening a pool from a crash image, the way a real
     * PM file is mapped back after a failure. The device starts clean
     * (no dirty lines, no pending writebacks, epoch depth 0). A
     * tracked device builds its volatile image in @p volatile_storage,
     * whose capacity is reused; an untracked one takes @p image as its
     * volatile image and drops @p volatile_storage.
     */
    explicit PmemDevice(std::vector<std::uint8_t> image,
                        bool track_persistence = true,
                        std::vector<std::uint8_t> volatile_storage = {});

    ~PmemDevice() override;

    std::size_t size() const { return volatileImage_.size(); }

    /** True if the device keeps a durable image. */
    bool tracksPersistence() const { return tracked_; }

    /** @name Program-visible data path. */
    /** @{ */

    /** Write @p size bytes at @p addr (marks covered lines dirty). */
    void write(Addr addr, const void *data, std::size_t size);

    /** Read @p size bytes at @p addr from the volatile image. */
    void read(Addr addr, void *out, std::size_t size) const;

    /** Direct pointer into the volatile image (device retains ownership). */
    std::uint8_t *rawVolatile(Addr addr);
    const std::uint8_t *rawVolatile(Addr addr) const;

    /** @} */

    /** @name Persistence-domain inspection. */
    /** @{ */

    /** Read from the persisted (durable) image. */
    void readPersisted(Addr addr, void *out, std::size_t size) const;

    /** True if any byte of the range is dirty and not yet flushed. */
    bool hasDirty(const AddrRange &range) const;

    /** True if any line overlapping the range has a pending writeback. */
    bool hasPendingFlush(const AddrRange &range) const;

    /**
     * True if the range's volatile content has fully reached the
     * persisted image (no dirty bytes, no pending flushes).
     */
    bool isDurable(const AddrRange &range) const;

    std::size_t dirtyLineCount() const { return dirtyLines_.size(); }
    std::size_t pendingLineCount() const { return pendingLines_.size(); }

    /**
     * The full durable image: what a crash at this instant leaves when
     * no pending writeback lands.
     */
    const std::vector<std::uint8_t> &persistedBytes() const
    {
        requireTracked("persistedBytes()");
        return persistedImage_;
    }

    /** Writebacks initiated but not yet fenced, keyed by line index. */
    const std::unordered_map<std::uint64_t, PendingLine> &
    pendingLines() const
    {
        return pendingLines_;
    }

    /** Epoch (TX_BEGIN/TX_END) nesting depth seen by the device. */
    int epochDepth() const { return epochDepth_; }

    /**
     * Attach (or detach, with nullptr) a persistence observer.
     * Observation never alters device-visible state, so installing one
     * is const; exactly one observer is supported and it must outlive
     * the device or detach first (the device signals its destruction
     * via PersistenceObserver::onDeviceDestroyed).
     */
    void setPersistenceObserver(PersistenceObserver *observer) const
    {
        requireTracked("setPersistenceObserver()");
        observer_ = observer;
    }

    /** @} */

    /** TraceSink: consumes Flush / Fence; ignores other events. */
    void handle(const Event &event) override;

    /**
     * The device is the hardware persistence domain: programs write its
     * volatile image directly (PmemPool::writeBytes) and the
     * dirty/pending tracking must snapshot that image as each
     * flush/fence executes. Deferred (batched) processing would let
     * later writes bleed into earlier writeback snapshots.
     */
    bool requiresSynchronousDelivery() const override { return true; }

    /** Reset all state to a zeroed, clean device. */
    void reset();

    /**
     * Move both images out, durable first, so a caller that reopens
     * many pools can reuse their storage. The device is empty after
     * and must not be used again.
     */
    std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
    releaseImages();

  private:
    /** Panic, naming @p what, unless the device tracks persistence. */
    void requireTracked(const char *what) const;
    void checkBounds(Addr addr, std::size_t size, const char *what) const;
    void markDirty(const AddrRange &range);
    void flushRange(const AddrRange &range, SeqNum seq);
    void drainPending();

    std::vector<std::uint8_t> volatileImage_;
    /** Empty on an untracked device. */
    std::vector<std::uint8_t> persistedImage_;
    bool tracked_;
    /** Lines with volatile content newer than any queued writeback. */
    std::unordered_map<std::uint64_t, bool> dirtyLines_;
    /** Writebacks initiated by a CLF but not yet fenced. */
    std::unordered_map<std::uint64_t, PendingLine> pendingLines_;
    int epochDepth_ = 0;
    mutable PersistenceObserver *observer_ = nullptr;
};

} // namespace pmdb

#endif // PMDB_PMEM_DEVICE_HH
