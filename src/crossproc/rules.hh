/**
 * @file
 * Cross-writer persistency rules over a merged multi-session stream.
 *
 * A per-session detector sees one process's stores, flushes and fences
 * and can prove that *that process* made its own data durable before
 * depending on it. When two processes map one shared pool
 * (src/pmem/shared_device.hh), a whole class of bugs lives in the
 * seams between their histories and is invisible to both per-session
 * views:
 *
 *  - **unflushed-cross-writer-read**: writer B reads a line writer A
 *    dirtied and never even flushed. B's detector sees a plain load of
 *    bytes it never stored (nothing to check); A's detector sees a
 *    store that A eventually persists (no per-session violation) — yet
 *    at the moment B consumed the value, a crash would have fed B's
 *    downstream effects from data that never existed durably.
 *  - **publish-before-persist**: B reads A's *pending* (flushed but
 *    unfenced) data, then B stores a dependent value (the handoff —
 *    say a consumed-index) and fences it durable while A's source line
 *    is still not durable. Each writer's own flush/fence discipline is
 *    impeccable in isolation; the cross-writer dependency inverts
 *    durability order.
 *  - **cross-writer epoch overlap**: B stores into a line A touched
 *    inside A's still-open epoch section. Epoch atomicity is
 *    per-writer state; neither session's detector knows the other has
 *    an epoch open over that address.
 *
 * CrossRuleEngine replays the *merged* stream — every shared-pool
 * event of every writer, in global fence-clock ticket order — and
 * mirrors the pool's per-writer dirty/pending/durable line lifecycle
 * to evaluate exactly these rules. The replay is a deterministic left
 * fold over the ticket order, so results are bit-identical for any
 * daemon worker count.
 */

#ifndef PMDB_CROSSPROC_RULES_HH
#define PMDB_CROSSPROC_RULES_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "trace/event.hh"

namespace pmdb
{

/** The inter-writer rule a CrossBug violates. */
enum class CrossBugType : std::uint8_t
{
    /** B read a line A dirtied and never flushed. */
    UnflushedCrossWriterRead,
    /** B fenced a dependent store while A's source was not durable. */
    PublishBeforePersist,
    /** B stored into a line inside A's still-open epoch. */
    EpochOverlap,
};

const char *toString(CrossBugType type);

/** One detected inter-writer violation. */
struct CrossBug
{
    CrossBugType type = CrossBugType::UnflushedCrossWriterRead;
    /** Cache line (or range) whose durability was at risk. */
    AddrRange range;
    /** Writer whose non-durable data was involved. */
    std::uint32_t ownerWriter = 0;
    /** Writer that observed / published / intruded. */
    std::uint32_t observerWriter = 0;
    /** Global-clock ticket of the event that completed the violation. */
    SeqNum ticket = 0;

    /**
     * Canonical single-line rendering; the report-identity tests
     * compare these strings byte-for-byte across worker counts.
     */
    std::string toString() const;

    bool operator==(const CrossBug &other) const = default;
};

/**
 * Deterministic merged-stream replayer. Feed every shared-pool event
 * (Event::global != 0) of every writer in ticket order, then call
 * finish(); bugs() is the verdict, in detection order.
 */
class CrossRuleEngine
{
  public:
    /** Replay one merged-stream event issued by @p writer. */
    void feed(std::uint32_t writer, const Event &event);

    /** End of all streams; no rule fires at end-of-group today. */
    void finish();

    const std::vector<CrossBug> &bugs() const { return bugs_; }

    /** Shared-pool events replayed. */
    std::uint64_t eventsReplayed() const { return replayed_; }

  private:
    /** Mirror of one cache line's cross-writer persistence state. */
    struct LineView
    {
        bool dirty = false;
        bool pending = false;
        std::uint32_t dirtyWriter = 0;
        std::uint32_t pendingWriter = 0;
        /** Writer with an open epoch that touched the line, if any. */
        std::uint32_t epochWriter = 0;
        /** Which instance of that writer's epochs touched it. */
        std::uint64_t epochInstance = 0;
    };

    /** A reader's unsatisfied dependency on another writer's data. */
    struct Dependency
    {
        std::uint64_t line = 0;
        std::uint32_t ownerWriter = 0;
        SeqNum loadTicket = 0;
    };

    /** Per-writer replay state. */
    struct WriterView
    {
        /** Ticket of the writer's most recent store; 0 if none. */
        SeqNum lastStoreTicket = 0;
        /** Open epoch nesting depth. */
        int epochDepth = 0;
        /** Instance id of the writer's outermost open epoch. */
        std::uint64_t epochInstance = 0;
        /** Pending-read dependencies on other writers' data. */
        std::vector<Dependency> deps;
    };

    const LineView *findLine(std::uint64_t line) const;
    WriterView &writerAt(std::uint32_t writer);
    void onStore(std::uint32_t writer, const Event &event);
    void onLoad(std::uint32_t writer, const Event &event);
    void onFlush(std::uint32_t writer, const Event &event);
    void onFence(std::uint32_t writer, const Event &event);
    void onEpochBegin(std::uint32_t writer);
    void onEpochEnd(std::uint32_t writer);
    /** A line became durable: dependencies on it are satisfied. */
    void lineDurable(std::uint64_t line);

    /** Per-line state, keyed by cache-line index. */
    std::unordered_map<std::uint64_t, LineView> lines_;
    std::unordered_map<std::uint32_t, WriterView> writers_;
    std::uint64_t epochCounter_ = 0;
    std::uint64_t replayed_ = 0;
    std::vector<CrossBug> bugs_;
};

} // namespace pmdb

#endif // PMDB_CROSSPROC_RULES_HH
