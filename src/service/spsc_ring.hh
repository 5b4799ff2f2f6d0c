/**
 * @file
 * Shared-memory single-producer/single-consumer event ring — the data
 * plane of the detection service.
 *
 * The ring lives in a client-created file mapped MAP_SHARED by both
 * processes: a RingHeader with monotonic head/tail counters followed
 * by `slots` Event records (Event is trivially copyable, so it is safe
 * to place in shared memory). The producer owns head, the consumer
 * owns tail; indices are counters modulo the slot count, so the full
 * capacity is usable and empty/full are unambiguous.
 *
 * Events cross the ring in **batch frames**: the producer accumulates
 * an EventBatch and publishes the whole contiguous run with a single
 * release store of head (tryPushBatch), and the consumer drains every
 * published event with one acquire load and a single release store of
 * tail (popBatch). A frame is atomic — the consumer can never observe
 * a partially published batch — and the per-event cost of crossing the
 * ring is two memcpy spans plus a pair of atomic operations amortized
 * over the frame.
 *
 * False-sharing layout: head and tail live on separate cache lines
 * (alignas(64)), so the producer's head stores never invalidate the
 * consumer's tail line and vice versa. On top of that, each endpoint
 * caches the last value it observed of the *remote* cursor and only
 * re-reads the shared line when the cached value makes the ring look
 * full (producer) or empty (consumer). A steady-state frame crossing
 * therefore touches the remote line once per wrap, not once per push.
 * Measured on the service_bench ingest sweep (block policy, 1-core
 * host): split + cached cursors with batch frames lifted 1-client
 * ingest from 12.0M events/s (v1 layout, per-event push/pop,
 * thread-per-session daemon) to 14.2M events/s, and fixed the
 * multi-client collapse — 4-client aggregate went from 0.74x of
 * 1-client to 0.86x (the flat-aggregate ceiling on one core), with a
 * tight per-client fairness spread (min 3.18M / max 3.43M events/s).
 *
 * Backpressure is credit-based: the `slots` free entries are the
 * producer's credits. tryPushBatch publishes the largest prefix that
 * fits (whole batch in the common case) and reports how many events
 * it accepted; the producer waits for credits to publish the
 * remainder — the ring itself never blocks.
 *
 * Memory ordering: the producer's release store of head publishes the
 * slot contents; the consumer's acquire load of head observes them
 * (and symmetrically for tail, which publishes slot reuse). Only
 * lock-free std::atomic<u64> counters cross the process boundary.
 */

#ifndef PMDB_SERVICE_SPSC_RING_HH
#define PMDB_SERVICE_SPSC_RING_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "trace/event.hh"

namespace pmdb
{

/** Magic identifying a mapped ring file (v3: publish timestamp; v4:
 *  no drop counter). */
constexpr char ringMagic[8] = {'P', 'M', 'D', 'B', 'R', 'N', 'G', '4'};

/** Shared ring control block, at offset 0 of the mapping. */
struct RingHeader
{
    char magic[8];
    std::uint32_t slots = 0;
    std::uint32_t reserved = 0;
    /**
     * Producer-owned cache line: head is stored by the producer on
     * every published frame; the publish stamp (written with it) and
     * producerDone are producer-side state that can share its line
     * without adding coherence traffic on the consumer's hot path.
     */
    /** Next sequence the producer will write (monotonic). */
    alignas(64) std::atomic<std::uint64_t> head;
    /**
     * CLOCK_MONOTONIC ns of the most recent published frame (same-host
     * clocks are comparable across processes). The consumer subtracts
     * it from its drain time for the ring-residency telemetry stage;
     * frame-granular by design — a per-event stamp would widen Event.
     */
    std::atomic<std::uint64_t> lastPublishNs;
    /** Producer finished: once set, an empty ring is a finished ring. */
    std::atomic<std::uint32_t> producerDone;
    /** Consumer-owned cache line: tail is stored on every drain. */
    alignas(64) std::atomic<std::uint64_t> tail;
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared-memory ring needs lock-free 64-bit atomics");

/**
 * One endpoint's view of a ring mapping. The creator (client) builds
 * the file and initializes the header; the opener (daemon) validates
 * it. Exactly one producer and one consumer may use a ring at a time:
 * the cached remote cursors live in this object, not in the shared
 * header.
 */
class EventRing
{
  public:
    EventRing() = default;
    ~EventRing();

    EventRing(const EventRing &) = delete;
    EventRing &operator=(const EventRing &) = delete;

    /** Create @p path, size it for @p slots events, map and init. */
    bool create(const std::string &path, std::uint32_t slots,
                std::string *error = nullptr);

    /** Map an existing ring file created by a peer. */
    bool open(const std::string &path, std::string *error = nullptr);

    /** Unmap (and, for the creator, unlink) the ring file. */
    void close();

    bool isOpen() const { return header_ != nullptr; }

    /** Consumer: a drain saw the peer's cursors out of range. */
    bool corrupt() const { return corrupt_; }

    /**
     * Producer: publish the largest prefix of @p events that fits as
     * one atomic frame (a single release store of head). Returns the
     * number of events accepted — @p count in the common case, less
     * when credits run out, 0 when the ring is full.
     */
    std::size_t tryPushBatch(const Event *events, std::size_t count);

    /**
     * Consumer: drain up to @p max published events into @p out as one
     * frame (one acquire of head, one release of tail). Returns the
     * number drained. Cursors more than slots() apart cannot come from
     * a well-behaved producer: the ring is then marked corrupt() and
     * nothing is drained, now or later.
     */
    std::size_t popBatch(Event *out, std::size_t max);

    /** Events currently queued (reads both shared cursors). */
    std::size_t size() const;

    std::uint32_t slots() const { return slots_; }

    /** Producer: mark the stream complete. */
    void markProducerDone();

    bool producerDone() const;

    /** Producer: stamp the publish time of the frame just pushed. */
    void stampPublish(std::uint64_t ns);

    /** Consumer: publish stamp of the most recent frame (0 if none). */
    std::uint64_t lastPublishNs() const;

  private:
    RingHeader *header_ = nullptr;
    Event *slotsBase_ = nullptr;
    std::size_t mapBytes_ = 0;
    std::uint32_t slots_ = 0;
    /** Producer-side cache of the consumer's tail. */
    std::uint64_t cachedTail_ = 0;
    /** Consumer-side cache of the producer's head. */
    std::uint64_t cachedHead_ = 0;
    std::string path_;
    bool owner_ = false;
    bool corrupt_ = false;
};

} // namespace pmdb

#endif // PMDB_SERVICE_SPSC_RING_HH
