#include "core/debugger.hh"

#include "common/logging.hh"

namespace pmdb
{

const char *
toString(PersistencyModel model)
{
    switch (model) {
      case PersistencyModel::Strict: return "strict";
      case PersistencyModel::Epoch:  return "epoch";
      case PersistencyModel::Strand: return "strand";
    }
    return "unknown";
}

PmDebugger::PmDebugger(DebuggerConfig config)
    : config_(std::move(config)),
      mainSpace_(std::make_unique<Space>(config_.arrayCapacity,
                                         config_.mergeThreshold))
{
    current_ = mainSpace_.get();
    rules_ = makeStandardRules(config_);
    for (auto &rule : rules_)
        indexRule(rule.get());
    orderTracker_.configure(config_.orderSpec);
}

void
PmDebugger::indexRule(Rule *rule)
{
    const unsigned mask = rule->hooks();
    if (mask & hookStore)
        storeRules_.push_back(rule);
    if (mask & hookFlush)
        flushRules_.push_back(rule);
    if (mask & hookFence)
        fenceRules_.push_back(rule);
    if (mask & hookEpochBegin)
        epochBeginRules_.push_back(rule);
    if (mask & hookEpochEnd)
        epochEndRules_.push_back(rule);
    if (mask & hookTxLog)
        txLogRules_.push_back(rule);
    if (mask & hookFinalize)
        finalizeRules_.push_back(rule);
}

PmDebugger::~PmDebugger() = default;

void
PmDebugger::attached(const NameTable &names)
{
    names_ = &names;
}

void
PmDebugger::addRule(std::unique_ptr<Rule> rule)
{
    if (!rule)
        panic("PmDebugger::addRule: null rule");
    indexRule(rule.get());
    rules_.push_back(std::move(rule));
}

PmDebugger::Space &
PmDebugger::spaceFor(StrandId strand)
{
    if (strand == noStrand || config_.model != PersistencyModel::Strand)
        return *mainSpace_;
    auto it = strandSpaces_.find(strand);
    if (it == strandSpaces_.end()) {
        it = strandSpaces_
                 .emplace(strand,
                          std::make_unique<Space>(config_.arrayCapacity,
                                                  config_.mergeThreshold))
                 .first;
    }
    return *it->second;
}

const PmDebugger::Space &
PmDebugger::currentSpace() const
{
    return *current_;
}

namespace
{

/** Per-rule-class eval-latency histograms, resolved once. The class
 *  labels group event kinds by which rule hook list they drive. */
struct DetectorMetrics
{
    telemetry::Histogram &store = telemetry::Registry::global()
        .histogram("detector.eval_ns{class=\"store\"}");
    telemetry::Histogram &flush = telemetry::Registry::global()
        .histogram("detector.eval_ns{class=\"flush\"}");
    telemetry::Histogram &fence = telemetry::Registry::global()
        .histogram("detector.eval_ns{class=\"fence\"}");
    telemetry::Histogram &epoch = telemetry::Registry::global()
        .histogram("detector.eval_ns{class=\"epoch\"}");
    telemetry::Histogram &other = telemetry::Registry::global()
        .histogram("detector.eval_ns{class=\"other\"}");
    telemetry::Histogram &storeRun = telemetry::Registry::global()
        .histogram("detector.store_run_ns");

    telemetry::Histogram &
    byKind(EventKind kind)
    {
        switch (kind) {
          case EventKind::Store:      return store;
          case EventKind::Flush:      return flush;
          case EventKind::Fence:
          case EventKind::JoinStrand: return fence;
          case EventKind::EpochBegin:
          case EventKind::EpochEnd:   return epoch;
          default:                    return other;
        }
    }

    static DetectorMetrics &
    get()
    {
        static DetectorMetrics instance;
        return instance;
    }
};

} // namespace

void
PmDebugger::handleEventTimed(const Event &event)
{
    const std::uint64_t start = telemetry::nowNs();
    handleEvent(event);
    DetectorMetrics::get().byKind(event.kind).record(
        telemetry::nowNs() - start);
}

void
PmDebugger::handleEvent(const Event &event)
{
    lastSeq_ = event.seq;
    switch (event.kind) {
      case EventKind::Store:
        processStore(event);
        break;
      case EventKind::Load:
        // Loads carry no persistence obligation; only the cross-session
        // engine (src/crossproc/) interprets them.
        break;
      case EventKind::Flush:
        processFlush(event);
        break;
      case EventKind::Fence:
        processFence(event);
        break;
      case EventKind::EpochBegin:
        processEpochBegin(event);
        break;
      case EventKind::EpochEnd:
        processEpochEnd(event);
        break;
      case EventKind::StrandBegin:
        strandsActive_ = true;
        current_ = &spaceFor(event.strand);
        break;
      case EventKind::StrandEnd:
        current_ = mainSpace_.get();
        break;
      case EventKind::JoinStrand: {
        // An explicit cross-strand ordering point: a durability barrier
        // for every strand's bookkeeping space.
        ++base_.fences;
        newlyDurable_ = orderTracker_.onFence();
        fenceSpace(*mainSpace_);
        for (auto &[id, space] : strandSpaces_)
            fenceSpace(*space);
        for (Rule *rule : fenceRules_)
            rule->onFence(*this, event);
        break;
      }
      case EventKind::TxLog:
        current_ = &spaceFor(event.strand);
        for (Rule *rule : txLogRules_)
            rule->onTxLog(*this, event);
        break;
      case EventKind::RegisterPmem:
        processRegister(event);
        break;
      case EventKind::ProgramEnd:
        finalize();
        break;
    }
}

void
PmDebugger::handleBatch(const Event *events, std::size_t count)
{
    std::size_t i = 0;
    while (i < count) {
        const Event &head = events[i];
        if (head.kind != EventKind::Store) {
            handle(head);
            ++i;
            continue;
        }
        // Homogeneous run: consecutive stores of the same strand all
        // target the same bookkeeping space.
        std::size_t j = i + 1;
        while (j < count && events[j].kind == EventKind::Store &&
               events[j].strand == head.strand)
            ++j;
        // The run bypasses handle(); advance the sample tick by the
        // run length and time the whole run when a sample point falls
        // inside it (same 1-in-1024 event rate as the per-event path).
        const std::uint64_t tickBefore = telemetryTick_;
        telemetryTick_ += j - i;
        if ((tickBefore >> telemetrySampleShift) !=
                (telemetryTick_ >> telemetrySampleShift) &&
            telemetry::enabled()) {
            const std::uint64_t start = telemetry::nowNs();
            processStoreRun(events + i, j - i);
            DetectorMetrics::get().storeRun.record(telemetry::nowNs() -
                                                   start);
        } else {
            processStoreRun(events + i, j - i);
        }
        i = j;
    }
}

void
PmDebugger::processStoreRun(const Event *events, std::size_t count)
{
    // Everything that is loop-invariant across the run is hoisted: the
    // space lookup, the bookkeeping-mode branch, the epoch flag, the
    // store-rule list and the order-tracker watch check. The per-event
    // work that remains is exactly what processStore() does, in the
    // same order, so counters and reports match per-event dispatch
    // bit for bit.
    base_.stores += count;
    Space &space = spaceFor(events[0].strand);
    current_ = &space;

    MemoryLocationArray &array = space.array;
    AvlTree &tree = space.tree;
    const bool in_epoch = epochDepth_ > 0;
    const bool tree_only = config_.bookkeeping == BookkeepingMode::TreeOnly;
    const bool track_order = orderTracker_.watching();
    Rule *const *rules = storeRules_.data();
    const std::size_t rule_count = storeRules_.size();

    if (!tree_only && rule_count == 0 && !track_order) {
        // No per-event hook observes intermediate state, so the whole
        // run can go through the array's bulk append; the overflow tail
        // (if any) falls through to the general loop below.
        const std::uint32_t done = array.appendRun(
            events, static_cast<std::uint32_t>(count), in_epoch);
        if (done == count) {
            lastSeq_ = events[count - 1].seq;
            return;
        }
        for (std::size_t i = done; i < count; ++i) {
            const Event &event = events[i];
            lastSeq_ = event.seq;
            LocationRecord record(event.range(), FlushState::NotFlushed,
                                  in_epoch, event.seq);
            tree.insert(record);
            array.noteOverflow();
        }
        return;
    }

    for (std::size_t i = 0; i < count; ++i) {
        const Event &event = events[i];
        lastSeq_ = event.seq;
        if (track_order)
            orderTracker_.onStore(event);

        // Rules that inspect pre-store state (multiple overwrites) run
        // before the record is added (§4.2).
        for (std::size_t r = 0; r < rule_count; ++r)
            rules[r]->onStore(*this, event);

        LocationRecord record(event.range(), FlushState::NotFlushed,
                              in_epoch, event.seq);
        if (tree_only) {
            tree.insert(record);
        } else if (!array.append(record)) {
            tree.insert(record);
            array.noteOverflow();
        }
    }
}

void
PmDebugger::processStore(const Event &event)
{
    ++base_.stores;
    Space &space = spaceFor(event.strand);
    current_ = &space;
    orderTracker_.onStore(event);

    // Rules that inspect pre-store state (multiple overwrites) run
    // before the record is added (§4.2).
    for (Rule *rule : storeRules_)
        rule->onStore(*this, event);

    LocationRecord record(event.range(), FlushState::NotFlushed,
                          epochDepth_ > 0, event.seq);
    switch (config_.bookkeeping) {
      case BookkeepingMode::TreeOnly:
        space.tree.insert(record);
        break;
      case BookkeepingMode::Hybrid:
      case BookkeepingMode::ArrayOnly:
        if (!space.array.append(record)) {
            space.tree.insert(record);
            space.array.noteOverflow();
        }
        break;
    }
}

void
PmDebugger::processFlush(const Event &event)
{
    ++base_.flushes;
    Space &space = spaceFor(event.strand);
    current_ = &space;
    orderTracker_.onFlush(event);

    const AddrRange range = event.range();
    FlushOutcome outcome;
    if (config_.bookkeeping != BookkeepingMode::TreeOnly)
        outcome = space.array.applyFlush(range, space.tree);
    const AvlTree::FlushOutcome tree_outcome =
        space.tree.applyFlush(range);
    outcome.hitAny |= tree_outcome.hitAny;
    outcome.hitUnflushed |= tree_outcome.hitUnflushed;
    outcome.hitFlushed |= tree_outcome.hitFlushed;

    for (Rule *rule : flushRules_)
        rule->onFlush(*this, event, outcome);
}

void
PmDebugger::fenceSpace(Space &space)
{
    // Tree first, then the array (§4.4): pruning the tree before
    // re-distribution keeps it small while survivors are inserted.
    space.tree.removeFlushed(nullptr);
    switch (config_.bookkeeping) {
      case BookkeepingMode::Hybrid:
        space.array.processFence(space.tree);
        break;
      case BookkeepingMode::ArrayOnly:
        space.array.compactSurvivors();
        break;
      case BookkeepingMode::TreeOnly:
        break;
    }
    space.tree.maybeMerge();
}

void
PmDebugger::processFence(const Event &event)
{
    ++base_.fences;
    Space &space = spaceFor(event.strand);
    current_ = &space;
    newlyDurable_ = orderTracker_.onFence();

    fenceSpace(space);

    base_.treeNodeSampleSum += space.tree.size();
    ++base_.treeNodeSamples;

    if (epochDepth_ > 0)
        ++epochFences_;

    for (Rule *rule : fenceRules_)
        rule->onFence(*this, event);
}

void
PmDebugger::processEpochBegin(const Event &event)
{
    if (epochDepth_ == 0) {
        epochFences_ = 0;
        ++base_.epochs;
    }
    ++epochDepth_;
    for (Rule *rule : epochBeginRules_)
        rule->onEpochBegin(*this, event);
}

void
PmDebugger::processEpochEnd(const Event &event)
{
    current_ = &spaceFor(event.strand);
    for (Rule *rule : epochEndRules_)
        rule->onEpochEnd(*this, event);
    if (epochDepth_ > 0)
        --epochDepth_;
    if (epochDepth_ == 0) {
        // Records surviving the epoch have been reported (if the rule
        // is on); they no longer belong to any epoch.
        current_->array.clearEpochFlags();
        current_->tree.clearEpochFlags();
        epochFences_ = 0;
    }
}

void
PmDebugger::processRegister(const Event &event)
{
    if (!names_ || event.nameId == noName)
        return;
    const std::string &name = names_->name(event.nameId);
    registered_[name] = event.range();
    orderTracker_.onRegister(name, event.range());
}

void
PmDebugger::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    for (Rule *rule : finalizeRules_)
        rule->onFinalize(*this, lastSeq_);
}

bool
PmDebugger::liveOverlaps(const AddrRange &range) const
{
    const Space &space = currentSpace();
    return space.array.overlapsAny(range) || space.tree.overlapsAny(range);
}

void
PmDebugger::forEachLiveOf(const Space &space, const LiveVisitor &visit)
    const
{
    space.array.forEachLive(visit);
    space.tree.forEach([&](const LocationRecord &rec) {
        visit(rec, rec.state);
    });
}

void
PmDebugger::forEachLiveInEpoch(const LiveVisitor &visit) const
{
    // Epoch-end cost is O(array + in-epoch tree records): records from
    // before the epoch sit in the tree unflagged, and the tree's epoch
    // count lets a clean epoch end skip the tree entirely.
    const Space &space = currentSpace();
    space.array.forEachLive([&](const LocationRecord &rec, FlushState state) {
        if (rec.inEpoch)
            visit(rec, state);
    });
    if (space.tree.epochCount() == 0)
        return;
    space.tree.forEach([&](const LocationRecord &rec) {
        if (rec.inEpoch)
            visit(rec, rec.state);
    });
}

void
PmDebugger::forEachLiveAll(const LiveVisitor &visit) const
{
    forEachLiveOf(*mainSpace_, visit);
    for (const auto &[id, space] : strandSpaces_)
        forEachLiveOf(*space, visit);
}

std::size_t
PmDebugger::treeNodeCount() const
{
    std::size_t n = mainSpace_->tree.size();
    for (const auto &[id, space] : strandSpaces_)
        n += space->tree.size();
    return n;
}

DebuggerStats
PmDebugger::stats() const
{
    DebuggerStats stats = base_;
    auto fold = [&](const Space &space) {
        const TreeStats &t = space.tree.stats();
        stats.tree.insertions += t.insertions;
        stats.tree.removals += t.removals;
        stats.tree.reorganizations += t.reorganizations;
        stats.tree.merges += t.merges;
        const ArrayStats &a = space.array.stats();
        stats.array.collectiveInvalidations += a.collectiveInvalidations;
        stats.array.recordsCollectivelyFreed += a.recordsCollectivelyFreed;
        stats.array.recordsMovedToTree += a.recordsMovedToTree;
        stats.array.recordsDroppedIndividually +=
            a.recordsDroppedIndividually;
        stats.array.overflowStores += a.overflowStores;
        stats.array.maxUsage = std::max(stats.array.maxUsage, a.maxUsage);
    };
    fold(*mainSpace_);
    for (const auto &[id, space] : strandSpaces_)
        fold(*space);
    return stats;
}

} // namespace pmdb
