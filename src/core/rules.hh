/**
 * @file
 * Bug-detection rules (Sections 4.5 and 5.2).
 *
 * PMDebugger's hierarchical design separates bookkeeping (data
 * structures + store/CLF/fence processing) from detection rules: each
 * rule is a plug-in observing the processed event stream through hooks
 * and querying the bookkeeping space through DebugContext. Adding a
 * rule requires no change to the core — the paper's flexibility claim.
 */

#ifndef PMDB_CORE_RULES_HH
#define PMDB_CORE_RULES_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/bug.hh"
#include "core/config.hh"
#include "core/location.hh"
#include "core/mem_array.hh"
#include "trace/event.hh"

namespace pmdb
{

/** Visitor over live bookkeeping records with their effective state. */
using LiveVisitor =
    std::function<void(const LocationRecord &, FlushState)>;

/**
 * Tracks durability of the variables named in the order specification.
 * Shared by the fence-checked "no order guarantee" rule (§4.5) and the
 * CLF-checked cross-strand ordering rule (§5.2).
 */
class OrderTracker
{
  public:
    /** Durability state of one watched variable. */
    struct Var
    {
        std::string name;
        AddrRange range;
        bool resolved = false;
        bool stored = false;
        bool durable = false;
        /** Fence index at which the var became durable. */
        std::uint64_t durableAtFence = 0;
        SeqNum lastStoreSeq = 0;
        /** Flushed sub-ranges since the last store (kept merged). */
        std::vector<AddrRange> flushedParts;
    };

    /** Register the variables mentioned by @p spec's constraints. */
    void configure(const OrderSpec &spec);

    /** Resolve a watched name to its address range (Register_pmem). */
    void onRegister(const std::string &name, const AddrRange &range);

    void onStore(const Event &event);
    void onFlush(const Event &event);

    /**
     * Advance the fence index; marks fully flushed, stored vars
     * durable. Returns indices of vars that became durable at this
     * fence.
     */
    std::vector<int> onFence();

    /**
     * True when any variable is watched. The debugger's batched store
     * path hoists this check so unwatched workloads skip the per-store
     * onStore() call entirely.
     */
    bool watching() const { return !vars_.empty(); }

    std::size_t varCount() const { return vars_.size(); }
    const Var &var(int idx) const { return vars_[idx]; }

    /** Constraint pairs as (firstIdx, secondIdx). */
    const std::vector<std::pair<int, int>> &pairs() const { return pairs_; }

    std::uint64_t fenceIndex() const { return fenceIndex_; }

  private:
    int internVar(const std::string &name);
    static bool covered(const std::vector<AddrRange> &parts,
                        const AddrRange &range);

    std::vector<Var> vars_;
    std::vector<std::pair<int, int>> pairs_;
    std::uint64_t fenceIndex_ = 0;
};

/**
 * Query interface the debugger exposes to rules. "Space" refers to the
 * bookkeeping space the current event belongs to (per-strand spaces in
 * the strand model, Section 5.1).
 */
class DebugContext
{
  public:
    virtual BugCollector &bugs() = 0;
    virtual const DebuggerConfig &config() const = 0;

    /** Any live (not yet durable) record overlapping @p range? */
    virtual bool liveOverlaps(const AddrRange &range) const = 0;

    /**
     * Visit the live records of the current event's space that were
     * written inside the current epoch: array records first, then tree
     * records in key order.
     */
    virtual void forEachLiveInEpoch(const LiveVisitor &visit) const = 0;

    /** Visit live records of every space (program finalize). */
    virtual void forEachLiveAll(const LiveVisitor &visit) const = 0;

    /** Fences seen inside the currently ending epoch section. */
    virtual int epochFenceCount() const = 0;

    virtual const OrderTracker &orders() const = 0;

    /** Watched vars that became durable at the fence being processed. */
    virtual const std::vector<int> &newlyDurableVars() const = 0;

    /** True once any strand section has been observed. */
    virtual bool strandsActive() const = 0;

  protected:
    ~DebugContext() = default;
};

/** Bitmask of the hooks a rule wants to receive. */
enum RuleHooks : unsigned
{
    hookStore = 1u << 0,
    hookFlush = 1u << 1,
    hookFence = 1u << 2,
    hookEpochBegin = 1u << 3,
    hookEpochEnd = 1u << 4,
    hookTxLog = 1u << 5,
    hookFinalize = 1u << 6,
    hookAll = ~0u,
};

/**
 * A bug-detection rule. Hooks are invoked by the debugger after (or,
 * for onStore, before) the corresponding bookkeeping update. hooks()
 * declares which callbacks the rule needs, so store-hot paths skip
 * rules that do not observe stores.
 */
class Rule
{
  public:
    virtual ~Rule() = default;

    virtual const char *name() const = 0;

    /** Which hooks this rule must be called on (default: all). */
    virtual unsigned hooks() const { return hookAll; }

    /** Before the store's record is added to the bookkeeping space. */
    virtual void
    onStore(DebugContext &ctx, const Event &event)
    {
        (void)ctx;
        (void)event;
    }

    /** After a CLF updated the bookkeeping space. */
    virtual void
    onFlush(DebugContext &ctx, const Event &event,
            const FlushOutcome &outcome)
    {
        (void)ctx;
        (void)event;
        (void)outcome;
    }

    /** After fence processing (removal / re-distribution). */
    virtual void
    onFence(DebugContext &ctx, const Event &event)
    {
        (void)ctx;
        (void)event;
    }

    virtual void
    onEpochBegin(DebugContext &ctx, const Event &event)
    {
        (void)ctx;
        (void)event;
    }

    /** At epoch end, after the closing barrier has been processed. */
    virtual void
    onEpochEnd(DebugContext &ctx, const Event &event)
    {
        (void)ctx;
        (void)event;
    }

    virtual void
    onTxLog(DebugContext &ctx, const Event &event)
    {
        (void)ctx;
        (void)event;
    }

    /** At program end, before remaining records are discarded. */
    virtual void
    onFinalize(DebugContext &ctx, SeqNum seq)
    {
        (void)ctx;
        (void)seq;
    }
};

/** @name The nine generalized rules (Sections 4.5, 5.2). */
/** @{ */

/** Location not persisted after its last write (missing CLF or fence). */
class NoDurabilityRule : public Rule
{
  public:
    const char *name() const override { return "no-durability"; }
    unsigned hooks() const override { return hookFinalize; }
    void onFinalize(DebugContext &ctx, SeqNum seq) override;
};

/** Same location overwritten before durability (strict model only). */
class MultipleOverwriteRule : public Rule
{
  public:
    const char *name() const override { return "multiple-overwrite"; }
    unsigned hooks() const override { return hookStore; }
    void onStore(DebugContext &ctx, const Event &event) override;
};

/** Watched persist order violated, checked at fences. */
class NoOrderRule : public Rule
{
  public:
    const char *name() const override { return "no-order-guarantee"; }
    unsigned hooks() const override { return hookFence; }
    void onFence(DebugContext &ctx, const Event &event) override;
};

/** Location flushed again before the nearest fence. */
class RedundantFlushRule : public Rule
{
  public:
    const char *name() const override { return "redundant-flush"; }
    unsigned hooks() const override { return hookFlush; }
    void onFlush(DebugContext &ctx, const Event &event,
                 const FlushOutcome &outcome) override;
};

/** CLF that persists no tracked store. */
class FlushNothingRule : public Rule
{
  public:
    const char *name() const override { return "flush-nothing"; }
    unsigned hooks() const override { return hookFlush; }
    void onFlush(DebugContext &ctx, const Event &event,
                 const FlushOutcome &outcome) override;
};

/** Data object logged more than once within one transaction. */
class RedundantLoggingRule : public Rule
{
  public:
    const char *name() const override { return "redundant-logging"; }
    unsigned hooks() const override { return hookTxLog | hookEpochEnd; }
    void onTxLog(DebugContext &ctx, const Event &event) override;
    void onEpochEnd(DebugContext &ctx, const Event &event) override;

  private:
    std::vector<AddrRange> loggedThisEpoch_;
};

/** Epoch's stores not durable at the epoch's end. */
class LackDurabilityInEpochRule : public Rule
{
  public:
    const char *name() const override { return "lack-durability-in-epoch"; }
    unsigned hooks() const override { return hookEpochEnd; }
    void onEpochEnd(DebugContext &ctx, const Event &event) override;
};

/** More than one fence inside an epoch section. */
class RedundantEpochFenceRule : public Rule
{
  public:
    const char *name() const override { return "redundant-epoch-fence"; }
    unsigned hooks() const override { return hookEpochEnd; }
    void onEpochEnd(DebugContext &ctx, const Event &event) override;
};

/** Cross-strand persist violating a watched order, checked at CLFs. */
class StrandOrderRule : public Rule
{
  public:
    const char *name() const override { return "lack-ordering-in-strands"; }
    unsigned hooks() const override { return hookFlush; }
    void onFlush(DebugContext &ctx, const Event &event,
                 const FlushOutcome &outcome) override;
};

/** @} */

/** Instantiate the rules enabled by @p config. */
std::vector<std::unique_ptr<Rule>> makeStandardRules(
    const DebuggerConfig &config);

} // namespace pmdb

#endif // PMDB_CORE_RULES_HH
