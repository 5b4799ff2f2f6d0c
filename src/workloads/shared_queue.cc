#include "workloads/shared_queue.hh"

#include "common/logging.hh"
#include "common/types.hh"
#include "pmem/shared_device.hh"

namespace pmdb
{

namespace
{

/** Pool-data offsets: one cache line per field. */
constexpr Addr headAddr = 0;
constexpr Addr tailAddr = cacheLineSize;
constexpr Addr entriesBase = 2 * cacheLineSize;

Addr
entryAddr(std::size_t index)
{
    return entriesBase + static_cast<Addr>(index) * cacheLineSize;
}

std::uint64_t
valueFor(std::uint64_t seed, std::size_t index)
{
    // Deterministic, seed-mixed payload the consumer re-derives.
    return (seed + index) * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
}

enum class Variant
{
    Clean,
    SkipEntryPersist,
    PublishPendingEntry,
    EpochOverlap,
};

Variant
variantOf(const FaultSet &faults)
{
    if (faults.active("sq_skip_entry_persist"))
        return Variant::SkipEntryPersist;
    if (faults.active("sq_publish_pending_entry"))
        return Variant::PublishPendingEntry;
    if (faults.active("sq_epoch_overlap"))
        return Variant::EpochOverlap;
    return Variant::Clean;
}

void
runProducer(SharedPmemPool &pool, Variant variant, std::size_t operations,
            std::uint64_t seed)
{
    if (variant == Variant::EpochOverlap) {
        // Three sub-turns per op: the producer's epoch stays open
        // across the consumer's turn, so the consumer's claim store
        // lands inside it.
        for (std::size_t i = 0; i < operations; ++i) {
            pool.coordWait(0, 3 * i);
            pool.epochBegin();
            pool.store<std::uint64_t>(entryAddr(i), valueFor(seed, i));
            // Durable before epoch end: each writer's *own* epoch
            // discipline is spotless — the bug is purely that the
            // epoch is still open when the other writer stores into
            // its lines.
            pool.persist(entryAddr(i), sizeof(std::uint64_t));
            pool.coordStore(0, 3 * i + 1);

            pool.coordWait(0, 3 * i + 2);
            pool.epochEnd();
            pool.store<std::uint64_t>(tailAddr, i + 1);
            pool.persist(tailAddr, sizeof(std::uint64_t));
            pool.coordStore(0, 3 * i + 3);
        }
        return;
    }

    for (std::size_t i = 0; i < operations; ++i) {
        pool.coordWait(0, 2 * i);
        pool.store<std::uint64_t>(entryAddr(i), valueFor(seed, i));
        switch (variant) {
          case Variant::Clean:
            // Entry durable before the tail publishes it.
            pool.persist(entryAddr(i), sizeof(std::uint64_t));
            pool.store<std::uint64_t>(tailAddr, i + 1);
            pool.persist(tailAddr, sizeof(std::uint64_t));
            break;
          case Variant::SkipEntryPersist:
            // Publish with the entry still dirty; the consumer reads
            // bytes a crash would erase.
            pool.store<std::uint64_t>(tailAddr, i + 1);
            pool.persist(tailAddr, sizeof(std::uint64_t));
            break;
          case Variant::PublishPendingEntry:
            // The tail-persist fence runs *before* the entry's CLF, so
            // the entry is flushed-but-unfenced when the consumer
            // reads it. (Flushing before that fence would complete the
            // entry's writeback too — a fence completes all of this
            // writer's pending lines.)
            pool.store<std::uint64_t>(tailAddr, i + 1);
            pool.persist(tailAddr, sizeof(std::uint64_t));
            pool.flush(entryAddr(i), sizeof(std::uint64_t));
            break;
          case Variant::EpochOverlap:
            break; // handled above
        }
        pool.coordStore(0, 2 * i + 1);
    }

    // End-of-run repair: make this writer's own stream clean. The
    // per-session durability detector sees every store eventually
    // durable; only the merged cross-writer order exposes the bug.
    pool.coordWait(0, 2 * operations);
    if (variant == Variant::SkipEntryPersist) {
        for (std::size_t i = 0; i < operations; ++i)
            pool.flush(entryAddr(i), sizeof(std::uint64_t));
        pool.fence();
    } else if (variant == Variant::PublishPendingEntry) {
        pool.fence();
    }
}

void
runConsumer(SharedPmemPool &pool, Variant variant, std::size_t operations,
            std::uint64_t seed)
{
    if (variant == Variant::EpochOverlap) {
        for (std::size_t i = 0; i < operations; ++i) {
            pool.coordWait(0, 3 * i + 1);
            pool.epochBegin();
            // Claim word shares the entry's cache line — and the
            // producer's epoch over that line is still open.
            pool.store<std::uint64_t>(entryAddr(i) + 8, i + 1);
            pool.persist(entryAddr(i) + 8, sizeof(std::uint64_t));
            pool.epochEnd();
            pool.coordStore(0, 3 * i + 2);
        }
        return;
    }

    for (std::size_t i = 0; i < operations; ++i) {
        pool.coordWait(0, 2 * i + 1);
        const auto tail = pool.load<std::uint64_t>(tailAddr);
        if (tail != i + 1)
            panic("shared_queue: consumer saw tail " +
                  std::to_string(tail) + " at op " + std::to_string(i));
        const auto value = pool.load<std::uint64_t>(entryAddr(i));
        if (value != valueFor(seed, i))
            panic("shared_queue: consumer read corrupt entry " +
                  std::to_string(i));
        pool.store<std::uint64_t>(headAddr, i + 1);
        pool.persist(headAddr, sizeof(std::uint64_t));
        pool.coordStore(0, 2 * i + 2);
    }
}

} // namespace

std::size_t
SharedQueueWorkload::poolBytesFor(std::size_t operations)
{
    return entriesBase + operations * cacheLineSize;
}

void
SharedQueueWorkload::run(PmRuntime &runtime, const WorkloadOptions &options)
{
    if (options.sharedPoolPath.empty())
        panic("shared_queue: options.sharedPoolPath is required");
    if (options.sharedWriter != producerWriter &&
        options.sharedWriter != consumerWriter) {
        panic("shared_queue: sharedWriter must be 1 (producer) or 2 "
              "(consumer), got " + std::to_string(options.sharedWriter));
    }

    SharedPmemPool pool(runtime, options.sharedPoolPath,
                        options.sharedWriter);
    if (!pool.valid())
        fatal("shared_queue: " + pool.error());

    const Variant variant = variantOf(options.faults);
    if (options.sharedWriter == producerWriter)
        runProducer(pool, variant, options.operations, options.seed);
    else
        runConsumer(pool, variant, options.operations, options.seed);
}

const std::vector<CrossprocCase> &
crossprocCases()
{
    static const std::vector<CrossprocCase> cases = {
        {"skip_entry_persist", "sq_skip_entry_persist",
         "unflushed-cross-writer-read"},
        {"publish_pending_entry", "sq_publish_pending_entry",
         "publish-before-persist"},
        {"epoch_overlap", "sq_epoch_overlap",
         "cross-writer-epoch-overlap"},
    };
    return cases;
}

} // namespace pmdb
