/**
 * @file
 * PMDebugger: the paper's fast, flexible, comprehensive PM bug
 * detector (Section 4).
 *
 * PmDebugger consumes the instrumented event stream and maintains a
 * hierarchical bookkeeping space per strand: a fixed-size
 * memory-location array with CLF-interval metadata for the current
 * fence interval, and an AVL tree for locations whose durability is
 * not guaranteed in the short term. Detection rules observe the
 * processed stream through hooks (Sections 4.5, 5.2).
 *
 * Event processing follows the paper exactly:
 *  - store  (§4.2): append to the array (or the tree on overflow) and
 *    extend the current CLF interval's metadata;
 *  - CLF    (§4.3): collective metadata update where the CLF covers an
 *    interval's bounds; record-level scan and split otherwise; then the
 *    tree; then a new CLF interval begins;
 *  - fence  (§4.4): prune the tree first, then collectively invalidate
 *    all-flushed intervals and re-distribute survivors into the tree,
 *    merging tree nodes lazily past the threshold.
 */

#ifndef PMDB_CORE_DEBUGGER_HH
#define PMDB_CORE_DEBUGGER_HH

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bug.hh"
#include "core/config.hh"
#include "core/mem_array.hh"
#include "core/rules.hh"
#include "core/stats.hh"
#include "telemetry/metrics.hh"
#include "trace/sink.hh"

namespace pmdb
{

/** The PMDebugger detector. */
class PmDebugger : public TraceSink, public DebugContext
{
  public:
    explicit PmDebugger(DebuggerConfig config = {});
    ~PmDebugger();

    PmDebugger(const PmDebugger &) = delete;
    PmDebugger &operator=(const PmDebugger &) = delete;

    /**
     * Sample 1 event in 2^telemetrySampleShift into the eval-latency
     * histograms. 1024 keeps the two clock reads plus histogram
     * update per sample under the telemetry budget (<2% of dispatch,
     * see bench/telemetry_bench) while a busy session still lands
     * thousands of samples per second.
     */
    static constexpr std::uint64_t telemetrySampleShift = 10;

    /**
     * TraceSink: process one instrumented event. 1 event in 1024 is
     * timed into the per-rule-class eval histograms
     * (detector.eval_ns{class=...}) — sampling keeps the clock reads
     * off the common path while the log2 buckets still converge to
     * the true latency distribution.
     */
    void handle(const Event &event) override
    {
        if (sampled(event) && telemetry::enabled())
            handleEventTimed(event);
        else
            handleEvent(event);
    }

    /**
     * TraceSink: batched fast path. Runs of consecutive Store events in
     * the same strand bypass the per-event EventKind switch and go
     * straight into the bookkeeping space with the space lookup, rule
     * list and mode checks hoisted out of the loop. Per-event order and
     * all counters are preserved exactly, so results are bit-identical
     * to per-event dispatch.
     */
    void handleBatch(const Event *events, std::size_t count) override;

    void attached(const NameTable &names) override;

    /**
     * Register a user-supplied detection rule — the flexibility API:
     * rules plug into the same hooks as the built-in nine.
     */
    void addRule(std::unique_ptr<Rule> rule);

    /** Run finalize rules (also triggered by a ProgramEnd event). */
    void finalize();

    const BugCollector &bugs() const { return bugs_; }

    /**
     * Funnel an externally detected bug (e.g. a cross-failure semantic
     * inconsistency found by CrossFailureChecker) into this debugger's
     * report.
     */
    void reportBug(const BugReport &report) { bugs_.report(report); }

    /** Aggregated statistics across all bookkeeping spaces. */
    DebuggerStats stats() const;

    const DebuggerConfig &configuration() const { return config_; }

    /** @name DebugContext (rule query interface). */
    /** @{ */
    BugCollector &bugs() override { return bugs_; }
    const DebuggerConfig &config() const override { return config_; }
    bool liveOverlaps(const AddrRange &range) const override;
    void forEachLiveInEpoch(const LiveVisitor &visit) const override;
    void forEachLiveAll(const LiveVisitor &visit) const override;
    int epochFenceCount() const override { return epochFences_; }
    const OrderTracker &orders() const override { return orderTracker_; }
    const std::vector<int> &newlyDurableVars() const override
    {
        return newlyDurable_;
    }
    bool strandsActive() const override { return strandsActive_; }
    /** @} */

    /** Number of live AVL nodes across all spaces (Fig 11 probing). */
    std::size_t treeNodeCount() const;

  private:
    /** One bookkeeping space: per-strand in the strand model (§5.1). */
    struct Space
    {
        Space(std::size_t array_capacity, std::size_t merge_threshold)
            : array(array_capacity),
              tree(MergePolicy::Lazy, merge_threshold)
        {
        }

        MemoryLocationArray array;
        AvlTree tree;
    };

    Space &spaceFor(StrandId strand);
    const Space &currentSpace() const;
    void indexRule(Rule *rule);

    /**
     * Whether handle() times @p event. The pick is a Fibonacci hash of
     * the sequence number: its top bits spread evenly over consecutive
     * seqs, so the sample cannot alias with a periodic event pattern
     * (say, a fence every 1024th event) the way a plain counter does.
     * It takes the top bucket, not bucket 0: an outer sink that times
     * bucket 0 of the same hash (the repository benchmark's TimedSink
     * does) then never times this class's own clock reads, and the two
     * samples can be cross-checked. Hand-built streams leave seq at 0;
     * they fall back to the counter.
     */
    bool sampled(const Event &event)
    {
        constexpr std::uint64_t mask =
            (std::uint64_t{1} << telemetrySampleShift) - 1;
        if (event.seq == 0)
            return (++telemetryTick_ & mask) == 0;
        return ((event.seq * 0x9e3779b97f4a7c15ull) >>
                (64 - telemetrySampleShift)) == mask;
    }

    /** The event-kind dispatch switch behind handle(). */
    void handleEvent(const Event &event);
    /** handleEvent with sampled per-class eval timing (telemetry). */
    void handleEventTimed(const Event &event);

    void processStore(const Event &event);
    void processStoreRun(const Event *events, std::size_t count);
    void processFlush(const Event &event);
    void processFence(const Event &event);
    void processEpochBegin(const Event &event);
    void processEpochEnd(const Event &event);
    void processRegister(const Event &event);
    void fenceSpace(Space &space);
    void forEachLiveOf(const Space &space, const LiveVisitor &visit) const;

    DebuggerConfig config_;
    std::unique_ptr<Space> mainSpace_;
    std::map<StrandId, std::unique_ptr<Space>> strandSpaces_;
    Space *current_ = nullptr;

    std::vector<std::unique_ptr<Rule>> rules_;
    /** Per-hook dispatch lists built from each rule's hooks() mask. */
    std::vector<Rule *> storeRules_;
    std::vector<Rule *> flushRules_;
    std::vector<Rule *> fenceRules_;
    std::vector<Rule *> epochBeginRules_;
    std::vector<Rule *> epochEndRules_;
    std::vector<Rule *> txLogRules_;
    std::vector<Rule *> finalizeRules_;
    BugCollector bugs_;
    DebuggerStats base_;
    OrderTracker orderTracker_;
    std::vector<int> newlyDurable_;

    const NameTable *names_ = nullptr;
    std::unordered_map<std::string, AddrRange> registered_;

    int epochDepth_ = 0;
    int epochFences_ = 0;
    bool strandsActive_ = false;
    bool finalized_ = false;
    SeqNum lastSeq_ = 0;
    /** Event counter driving the 1-in-1024 eval-timing sample of
     *  store runs and of events without a sequence number. */
    std::uint64_t telemetryTick_ = 0;
};

} // namespace pmdb

#endif // PMDB_CORE_DEBUGGER_HH
