#include "detectors/pmemcheck.hh"

#include "common/rng.hh"

namespace pmdb
{

PmemcheckDetector::PmemcheckDetector(PmemcheckConfig config)
    : config_(config), tree_(MergePolicy::Eager)
{
}

void
PmemcheckDetector::handle(const Event &event)
{
    lastSeq_ = event.seq;
    switch (event.kind) {
      case EventKind::Store:
        processStore(event);
        break;
      case EventKind::Flush:
        processFlush(event);
        break;
      case EventKind::Fence:
      case EventKind::JoinStrand:
        processFence(event);
        break;
      case EventKind::EpochBegin:
        // PMDK emits transaction client requests; pmemcheck suppresses
        // overwrite reports inside them (stores in an epoch may be
        // legally overwritten before the commit barrier).
        ++epochDepth_;
        break;
      case EventKind::EpochEnd:
        if (epochDepth_ > 0)
            --epochDepth_;
        break;
      case EventKind::ProgramEnd:
        finalize();
        break;
      default:
        break;
    }
}

void
PmemcheckDetector::handleBatch(const Event *events, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (events[i].kind != EventKind::Store) {
            handle(events[i]);
            continue;
        }
        lastSeq_ = events[i].seq;
        processStore(events[i]);
    }
}

void
PmemcheckDetector::simulateExecontext(const Event &event)
{
    // Pmemcheck records every store with its execution context:
    // Valgrind captures the guest call stack, hashes it, and interns
    // it in the execontext table. That per-store work is a large part
    // of why bookkeeping dominates pmemcheck's overhead (~82%,
    // Section 1). We model it as hashing a stack-sized buffer and an
    // interning-table probe.
    std::uint64_t frames[8];
    for (int i = 0; i < 8; ++i)
        frames[i] = event.addr * 0x9e3779b97f4a7c15ULL + i * event.size;
    ++execontexts_[fnv1a(frames, sizeof(frames)) & 0x3ff];
}

void
PmemcheckDetector::processStore(const Event &event)
{
    ++base_.stores;
    simulateExecontext(event);
    const AddrRange range = event.range();

    if (config_.detectMultipleOverwrite && epochDepth_ == 0 &&
        tree_.overlapsAny(range)) {
        BugReport report;
        report.type = BugType::MultipleOverwrite;
        report.range = range;
        report.seq = event.seq;
        report.detail = "store overwrites data not yet persisted";
        bugs_.report(report);
    }

    // Every store goes straight into the tree; the eager merge policy
    // coalesces it with adjacent tracked regions (constant
    // re-organization, the Section 7.5 overhead).
    tree_.insert(LocationRecord(range, FlushState::NotFlushed, false,
                                event.seq));
}

void
PmemcheckDetector::processFlush(const Event &event)
{
    ++base_.flushes;
    const AvlTree::FlushOutcome outcome = tree_.applyFlush(event.range());

    if (config_.detectFlushNothing && !outcome.hitAny) {
        BugReport report;
        report.type = BugType::FlushNothing;
        report.range = event.range();
        report.seq = event.seq;
        report.detail = "CLF persists no prior store";
        bugs_.report(report);
    }
    if (config_.detectRedundantFlush && outcome.hitAny &&
        !outcome.hitUnflushed) {
        BugReport report;
        report.type = BugType::RedundantFlush;
        report.range = event.range();
        report.seq = event.seq;
        report.detail = "region already flushed before the nearest fence";
        bugs_.report(report);
    }
}

void
PmemcheckDetector::processFence(const Event &event)
{
    (void)event;
    ++base_.fences;
    tree_.removeFlushed(nullptr);
    base_.treeNodeSampleSum += tree_.size();
    ++base_.treeNodeSamples;
}

void
PmemcheckDetector::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    if (!config_.detectNoDurability)
        return;
    tree_.forEach([&](const LocationRecord &rec) {
        BugReport report;
        report.type = BugType::NoDurability;
        report.range = rec.range;
        report.seq = lastSeq_;
        report.cause = rec.state == FlushState::Flushed
                           ? DurabilityCause::MissingFence
                           : DurabilityCause::MissingFlush;
        report.detail = rec.state == FlushState::Flushed
                            ? "flushed but never fenced"
                            : "never flushed";
        bugs_.report(report);
    });
}

DebuggerStats
PmemcheckDetector::stats() const
{
    DebuggerStats stats = base_;
    stats.tree = tree_.stats();
    return stats;
}

} // namespace pmdb
