/**
 * @file
 * Behavioural model of PMTest (Liu et al., ASPLOS'19), the
 * annotation-based, performance-optimized PM testing framework.
 *
 * PMTest relies on the programmer to insert assertion-like checkers
 * into the program: code regions are bracketed by PMTest_START/END,
 * and within them the programmer asserts durability (isPersist) and
 * ordering (isOrderedBefore) of specific variables, plus transaction
 * checkers. Only operations inside annotated regions are tracked at
 * all — which is why PMTest is fast (~3.8x) and why its coverage is
 * the lowest of the evaluated tools (Table 6): any bug not covered by
 * a programmer-added checker is missed.
 *
 * Coverage (Table 6): no-durability, multiple overwrites, no order
 * guarantee, redundant flushes, redundant logging — five types, each
 * only where annotated.
 */

#ifndef PMDB_DETECTORS_PMTEST_HH
#define PMDB_DETECTORS_PMTEST_HH

#include <vector>

#include "core/bug.hh"
#include "core/stats.hh"
#include "detectors/detector.hh"

namespace pmdb
{

/**
 * The PMTest baseline detector with its annotation API.
 *
 * PMTest requires synchronous delivery: its annotation checkers
 * (isPersist / isOrderedBefore / txChecker) are called synchronously
 * from the instrumented program between events, so the op log must be
 * current at every program point — deferred dispatch would let a
 * checker run before the ops it asserts about were delivered. The
 * runtime honours requiresSynchronousDelivery() and feeds it per event,
 * outside the batch the other sinks share.
 */
class PmTestDetector : public Detector
{
  public:
    PmTestDetector() = default;

    const char *detectorName() const override { return "pmtest"; }

    bool requiresSynchronousDelivery() const override { return true; }

    void handle(const Event &event) override;

    const BugCollector &bugs() const override { return bugs_; }

    void finalize() override { finalized_ = true; }

    DebuggerStats stats() const override { return base_; }

    /** @name Annotation API (called from instrumented programs). */
    /** @{ */

    /** PMTest_START: begin tracking operations. */
    void pmTestStart();

    /** PMTest_END: stop tracking and discard the op log. */
    void pmTestEnd();

    /**
     * Enable the in-region overwrite checker (PMTest's mult-store
     * assertion mode). Opt-in, because epoch-model code legally
     * overwrites data before the commit barrier.
     */
    void setOverwriteChecks(bool on) { overwriteChecks_ = on; }

    /**
     * Assert that [addr, addr+size) is durable at this program point
     * (its last tracked store has been flushed and fenced). Reports a
     * NoDurability bug on failure. Returns true if the check passed.
     */
    bool isPersist(Addr addr, std::size_t size);

    /**
     * Assert that @p first became durable strictly before @p second.
     * Reports a NoOrderGuarantee bug on failure.
     */
    bool isOrderedBefore(Addr first_addr, std::size_t first_size,
                         Addr second_addr, std::size_t second_size);

    /**
     * Transaction checker: assert the object at @p addr is logged at
     * most once in the current checker scope (reports RedundantLogging)
     * — the scope resets at pmTestStart().
     */
    void txChecker(Addr addr, std::size_t size);

    /** @} */

  private:
    struct Op
    {
        EventKind kind;
        AddrRange range;
        SeqNum seq;
    };

    /**
     * Absolute ordinal (within the region's op log) of the fence that
     * made the last store to @p range durable; -1 if not durable. Only
     * ops with index < @p end_idx are considered.
     */
    long durableFenceIndex(const AddrRange &range,
                           std::size_t end_idx) const;

    bool inRegion_ = false;
    bool overwriteChecks_ = false;
    std::vector<Op> ops_;
    std::vector<AddrRange> loggedObjects_;
    BugCollector bugs_;
    DebuggerStats base_;
    bool finalized_ = false;
    SeqNum lastSeq_ = 0;
};

} // namespace pmdb

#endif // PMDB_DETECTORS_PMTEST_HH
