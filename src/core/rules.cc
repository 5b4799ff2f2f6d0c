#include "core/rules.hh"

#include <algorithm>
#include <memory>

namespace pmdb
{

int
OrderTracker::internVar(const std::string &name)
{
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        if (vars_[i].name == name)
            return static_cast<int>(i);
    }
    Var var;
    var.name = name;
    vars_.push_back(std::move(var));
    return static_cast<int>(vars_.size() - 1);
}

void
OrderTracker::configure(const OrderSpec &spec)
{
    for (const OrderConstraint &c : spec.constraints()) {
        const int first = internVar(c.firstVar);
        const int second = internVar(c.secondVar);
        pairs_.emplace_back(first, second);
    }
}

void
OrderTracker::onRegister(const std::string &name, const AddrRange &range)
{
    for (Var &var : vars_) {
        if (var.name == name) {
            // Re-registration re-binds the symbol (e.g. per-operation
            // "pending" variables); durability state starts fresh.
            var.range = range;
            var.resolved = true;
            var.stored = false;
            var.durable = false;
            var.flushedParts.clear();
        }
    }
}

void
OrderTracker::onStore(const Event &event)
{
    const AddrRange range = event.range();
    for (Var &var : vars_) {
        if (var.resolved && var.range.overlaps(range)) {
            var.stored = true;
            var.durable = false;
            var.flushedParts.clear();
            var.lastStoreSeq = event.seq;
        }
    }
}

void
OrderTracker::onFlush(const Event &event)
{
    const AddrRange range = event.range();
    for (Var &var : vars_) {
        if (!var.resolved || var.durable || !var.stored)
            continue;
        const AddrRange part = var.range.intersect(range);
        if (part.empty())
            continue;
        // Merge the new part into the kept-sorted coverage list.
        var.flushedParts.push_back(part);
        std::sort(var.flushedParts.begin(), var.flushedParts.end(),
                  [](const AddrRange &a, const AddrRange &b) {
                      return a.start < b.start;
                  });
        std::vector<AddrRange> merged;
        for (const AddrRange &p : var.flushedParts) {
            if (!merged.empty() &&
                merged.back().adjacentOrOverlapping(p)) {
                merged.back() = merged.back().unionWith(p);
            } else {
                merged.push_back(p);
            }
        }
        var.flushedParts = std::move(merged);
    }
}

bool
OrderTracker::covered(const std::vector<AddrRange> &parts,
                      const AddrRange &range)
{
    // Parts are kept merged and sorted, so full coverage means a single
    // part contains the range.
    for (const AddrRange &p : parts) {
        if (p.contains(range))
            return true;
    }
    return false;
}

std::vector<int>
OrderTracker::onFence()
{
    ++fenceIndex_;
    std::vector<int> newly_durable;
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        Var &var = vars_[i];
        if (var.resolved && var.stored && !var.durable &&
            covered(var.flushedParts, var.range)) {
            var.durable = true;
            var.durableAtFence = fenceIndex_;
            newly_durable.push_back(static_cast<int>(i));
        }
    }
    return newly_durable;
}

void
NoDurabilityRule::onFinalize(DebugContext &ctx, SeqNum seq)
{
    if (!ctx.config().detectNoDurability)
        return;
    ctx.forEachLiveAll([&](const LocationRecord &rec, FlushState state) {
        BugReport report;
        report.type = BugType::NoDurability;
        report.range = rec.range;
        report.seq = seq;
        if (state == FlushState::Flushed) {
            report.cause = DurabilityCause::MissingFence;
            report.detail = "flushed but never fenced";
        } else {
            report.cause = DurabilityCause::MissingFlush;
            report.detail = "never flushed";
        }
        ctx.bugs().report(report);
    });
}

void
MultipleOverwriteRule::onStore(DebugContext &ctx, const Event &event)
{
    // Multiple overwrites are only a bug under strict persistency;
    // relaxed models permit reordering/coalescing within an epoch
    // (Section 4.5).
    if (ctx.config().model != PersistencyModel::Strict ||
        !ctx.config().detectMultipleOverwrite) {
        return;
    }
    if (ctx.liveOverlaps(event.range())) {
        BugReport report;
        report.type = BugType::MultipleOverwrite;
        report.range = event.range();
        report.seq = event.seq;
        report.detail = "written again before durability was guaranteed";
        ctx.bugs().report(report);
    }
}

void
NoOrderRule::onFence(DebugContext &ctx, const Event &event)
{
    if (!ctx.config().detectNoOrderGuarantee)
        return;
    const OrderTracker &orders = ctx.orders();
    for (int second : ctx.newlyDurableVars()) {
        for (const auto &[x, y] : orders.pairs()) {
            if (y != second)
                continue;
            const OrderTracker::Var &first = orders.var(x);
            if (!first.stored)
                continue; // X never written: no order to enforce yet
            const bool x_strictly_earlier =
                first.durable &&
                first.durableAtFence < orders.fenceIndex();
            if (!x_strictly_earlier) {
                BugReport report;
                report.type = BugType::NoOrderGuarantee;
                report.range = orders.var(y).range;
                report.seq = event.seq;
                report.context = first.name + "<" + orders.var(y).name;
                report.detail = "'" + orders.var(y).name +
                                "' became durable before '" + first.name +
                                "'";
                ctx.bugs().report(report);
            }
        }
    }
}

void
RedundantFlushRule::onFlush(DebugContext &ctx, const Event &event,
                            const FlushOutcome &outcome)
{
    if (!ctx.config().detectRedundantFlush)
        return;
    if (outcome.hitAny && !outcome.hitUnflushed) {
        BugReport report;
        report.type = BugType::RedundantFlush;
        report.range = event.range();
        report.seq = event.seq;
        report.detail = "every store covered by this CLF was already "
                        "flushed before the nearest fence";
        ctx.bugs().report(report);
    }
}

void
FlushNothingRule::onFlush(DebugContext &ctx, const Event &event,
                          const FlushOutcome &outcome)
{
    if (!ctx.config().detectFlushNothing)
        return;
    if (!outcome.hitAny) {
        BugReport report;
        report.type = BugType::FlushNothing;
        report.range = event.range();
        report.seq = event.seq;
        report.detail = "CLF persists no prior store";
        ctx.bugs().report(report);
    }
}

void
RedundantLoggingRule::onTxLog(DebugContext &ctx, const Event &event)
{
    if (!ctx.config().detectRedundantLogging)
        return;
    const AddrRange range = event.range();
    for (const AddrRange &logged : loggedThisEpoch_) {
        if (logged.overlaps(range)) {
            BugReport report;
            report.type = BugType::RedundantLogging;
            report.range = range;
            report.seq = event.seq;
            report.detail =
                "data object logged more than once in one transaction";
            ctx.bugs().report(report);
            break;
        }
    }
    loggedThisEpoch_.push_back(range);
}

void
RedundantLoggingRule::onEpochEnd(DebugContext &ctx, const Event &event)
{
    (void)ctx;
    (void)event;
    loggedThisEpoch_.clear();
}

void
LackDurabilityInEpochRule::onEpochEnd(DebugContext &ctx, const Event &event)
{
    if (!ctx.config().detectLackDurabilityInEpoch)
        return;
    // The epoch's closing barrier has already been processed (§5.2):
    // any record still alive and flagged in-epoch lacks durability.
    ctx.forEachLiveInEpoch(
        [&](const LocationRecord &rec, FlushState state) {
            (void)state;
            BugReport report;
            report.type = BugType::LackDurabilityInEpoch;
            report.range = rec.range;
            report.seq = event.seq;
            report.detail =
                "store from the epoch is not durable at epoch end";
            ctx.bugs().report(report);
        });
}

void
RedundantEpochFenceRule::onEpochEnd(DebugContext &ctx, const Event &event)
{
    if (!ctx.config().detectRedundantEpochFence)
        return;
    const int fences = ctx.epochFenceCount();
    if (fences > 1) {
        BugReport report;
        report.type = BugType::RedundantEpochFence;
        report.seq = event.seq;
        report.detail = std::to_string(fences) +
                        " fences inside one epoch section";
        ctx.bugs().report(report);
    }
}

void
StrandOrderRule::onFlush(DebugContext &ctx, const Event &event,
                         const FlushOutcome &outcome)
{
    (void)outcome;
    if (!ctx.config().detectLackOrderingInStrands || !ctx.strandsActive())
        return;
    const OrderTracker &orders = ctx.orders();
    const AddrRange range = event.range();
    for (const auto &[x, y] : orders.pairs()) {
        const OrderTracker::Var &first = orders.var(x);
        const OrderTracker::Var &second = orders.var(y);
        if (!second.resolved || !second.range.overlaps(range))
            continue;
        if (first.stored && !first.durable) {
            BugReport report;
            report.type = BugType::LackOrderingInStrands;
            report.range = second.range;
            report.seq = event.seq;
            report.context = first.name + "<" + second.name;
            report.detail = "strand " + std::to_string(event.strand) +
                            " persists '" + second.name + "' before '" +
                            first.name + "' is durable";
            ctx.bugs().report(report);
        }
    }
}

std::vector<std::unique_ptr<Rule>>
makeStandardRules(const DebuggerConfig &config)
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<NoDurabilityRule>());
    if (config.model == PersistencyModel::Strict)
        rules.push_back(std::make_unique<MultipleOverwriteRule>());
    rules.push_back(std::make_unique<NoOrderRule>());
    rules.push_back(std::make_unique<RedundantFlushRule>());
    rules.push_back(std::make_unique<FlushNothingRule>());
    rules.push_back(std::make_unique<RedundantLoggingRule>());
    rules.push_back(std::make_unique<LackDurabilityInEpochRule>());
    rules.push_back(std::make_unique<RedundantEpochFenceRule>());
    if (config.model == PersistencyModel::Strand)
        rules.push_back(std::make_unique<StrandOrderRule>());
    return rules;
}

} // namespace pmdb
