#include "repair/patch.hh"

#include <algorithm>
#include <cstdio>
#include <map>

namespace pmdb
{

bool
isCorrectnessRule(BugType type)
{
    switch (type) {
      case BugType::NoDurability:
      case BugType::MultipleOverwrite:
      case BugType::NoOrderGuarantee:
      case BugType::LackDurabilityInEpoch:
      case BugType::LackOrderingInStrands:
        return true;
      default:
        return false;
    }
}

namespace
{

std::string
hexAddr(Addr addr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

/** Index of the event whose original seq is @p seq, or npos. */
std::size_t
indexOfSeq(const std::vector<Event> &events, SeqNum seq)
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].seq == seq)
            return i;
    }
    return static_cast<std::size_t>(-1);
}

/** Index of the last Store overlapping @p range before @p limit. */
std::size_t
lastStoreBefore(const std::vector<Event> &events, const AddrRange &range,
                std::size_t limit)
{
    std::size_t found = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < std::min(limit, events.size()); ++i) {
        if (events[i].kind == EventKind::Store &&
            events[i].range().overlaps(range)) {
            found = i;
        }
    }
    return found;
}

/** Index of the last Flush overlapping @p range before @p limit. */
std::size_t
lastFlushBefore(const std::vector<Event> &events, const AddrRange &range,
                std::size_t limit)
{
    std::size_t found = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < std::min(limit, events.size()); ++i) {
        if (events[i].kind == EventKind::Flush &&
            events[i].range().overlaps(range)) {
            found = i;
        }
    }
    return found;
}

/**
 * The range a named order variable was bound to at position
 * @p limitIdx: its most recent registration before that point
 * (re-registration re-binds the symbol, matching OrderTracker's
 * semantics — workloads re-register per-operation "pending"
 * variables). Position-based so it stays correct on working lists
 * whose inserted events carry out-of-order temp seqs.
 */
AddrRange
rangeOfVar(const std::vector<Event> &events, const NameTable &names,
           const std::string &var, std::size_t limitIdx)
{
    AddrRange range;
    for (std::size_t i = 0; i < limitIdx && i < events.size(); ++i) {
        const Event &event = events[i];
        if (event.kind == EventKind::RegisterPmem &&
            event.nameId != noName && names.name(event.nameId) == var) {
            range = event.range();
        }
    }
    return range;
}

/** Describe the insertion point for an advisory line. */
std::string
anchorText(const std::vector<Event> &events, std::size_t index)
{
    if (index == 0)
        return "at trace start";
    const Event &prev = events[index - 1];
    std::string text = "after event #" + std::to_string(prev.seq) + " (" +
                       toString(prev.kind) + ")";
    if (index < events.size()) {
        const Event &next = events[index];
        text += ", before " + std::string(toString(next.kind)) +
                " seq " + std::to_string(next.seq);
    }
    return text;
}

/** One CLWB insert per cache line covering @p range, before @p index. */
void
addFlushEdits(TracePatch &patch, const std::vector<Event> &events,
              std::size_t index, const AddrRange &range,
              const Event &like)
{
    for (Addr base = cacheLineBase(range.start); base < range.end;
         base += cacheLineSize) {
        TraceEdit edit;
        edit.op = TraceEdit::Op::Insert;
        edit.index = index;
        edit.event.kind = EventKind::Flush;
        edit.event.flushKind = FlushKind::Clwb;
        edit.event.thread = like.thread;
        edit.event.strand = like.strand;
        // The inserted flush belongs to the anchor's program site, so a
        // later cascade deleting it still attributes correctly.
        edit.event.nameId = like.nameId;
        edit.event.addr = base;
        edit.event.size = cacheLineSize;
        edit.siteId = like.nameId;
        edit.anchorSeq = like.seq;
        edit.note = "insert CLWB(" + hexAddr(base) + "," +
                    std::to_string(cacheLineSize) + "B) " +
                    anchorText(events, index);
        patch.edits.push_back(std::move(edit));
    }
}

/** One SFENCE insert before @p index. */
void
addFenceEdit(TracePatch &patch, const std::vector<Event> &events,
             std::size_t index, const Event &like)
{
    TraceEdit edit;
    edit.op = TraceEdit::Op::Insert;
    edit.index = index;
    edit.event.kind = EventKind::Fence;
    edit.event.thread = like.thread;
    edit.event.strand = like.strand;
    edit.event.nameId = like.nameId;
    edit.siteId = like.nameId;
    edit.anchorSeq = like.seq;
    edit.note = "insert SFENCE " + anchorText(events, index);
    patch.edits.push_back(std::move(edit));
}

/**
 * Insertion candidates for one correctness bug, cheapest first. The
 * verifier rejects any candidate that does not actually restore
 * durability (e.g. a flush with no later fence to drain it), so the
 * generator can afford to propose optimistic variants.
 */
std::vector<TracePatch>
insertionCandidates(const std::vector<Event> &events,
                    const NameTable &names, const BugReport &bug)
{
    std::vector<TracePatch> candidates;
    const AddrRange range(bug.range);
    const std::size_t bugIdx = indexOfSeq(events, bug.seq);

    switch (bug.type) {
      case BugType::NoDurability: {
        const std::size_t store =
            lastStoreBefore(events, range, events.size());
        if (bug.cause == DurabilityCause::MissingFence) {
            // Flushed but never fenced: a fence after the last flush.
            const std::size_t flush =
                lastFlushBefore(events, range, events.size());
            if (flush != static_cast<std::size_t>(-1)) {
                TracePatch p;
                p.strategy = "insert fence after last flush of " +
                             range.toString();
                addFenceEdit(p, events, flush + 1, events[flush]);
                candidates.push_back(std::move(p));
            }
        } else if (store != static_cast<std::size_t>(-1)) {
            // Never flushed: flush after the last store, relying on an
            // existing later fence...
            TracePatch flushOnly;
            flushOnly.strategy = "insert flush after last store to " +
                                 range.toString();
            addFlushEdits(flushOnly, events, store + 1, range,
                          events[store]);
            candidates.push_back(std::move(flushOnly));
            // ...or paired with its own fence.
            TracePatch flushFence;
            flushFence.strategy =
                "insert flush+fence after last store to " +
                range.toString();
            addFlushEdits(flushFence, events, store + 1, range,
                          events[store]);
            addFenceEdit(flushFence, events, store + 1, events[store]);
            candidates.push_back(std::move(flushFence));
        }
        break;
      }
      case BugType::LackDurabilityInEpoch: {
        // bug.seq is the EpochEnd. The epoch's closing barrier is the
        // last fence *before* that marker (tx.commit emits flushes,
        // one fence, then EpochEnd), so the missing flush must be
        // inserted before that governing fence to ride it; between the
        // fence and the EpochEnd it would stay pending.
        if (bugIdx == static_cast<std::size_t>(-1))
            break;
        std::size_t governing = static_cast<std::size_t>(-1);
        for (std::size_t i = bugIdx; i-- > 0;) {
            if (events[i].kind == EventKind::Fence &&
                events[i].thread == events[bugIdx].thread) {
                governing = i;
                break;
            }
        }
        if (governing != static_cast<std::size_t>(-1)) {
            TracePatch p;
            p.strategy = "insert flush of " + range.toString() +
                         " before the epoch's closing fence";
            addFlushEdits(p, events, governing, range,
                          events[governing]);
            candidates.push_back(std::move(p));
        }
        TracePatch pf;
        pf.strategy = "insert flush+fence of " + range.toString() +
                      " before epoch end";
        addFlushEdits(pf, events, bugIdx, range, events[bugIdx]);
        addFenceEdit(pf, events, bugIdx, events[bugIdx]);
        candidates.push_back(std::move(pf));
        break;
      }
      case BugType::MultipleOverwrite: {
        // bug.seq is the overwriting store: persist the first write
        // before it happens.
        if (bugIdx == static_cast<std::size_t>(-1))
            break;
        TracePatch p;
        p.strategy = "insert flush+fence before overwriting store";
        addFlushEdits(p, events, bugIdx, range, events[bugIdx]);
        addFenceEdit(p, events, bugIdx, events[bugIdx]);
        candidates.push_back(std::move(p));
        break;
      }
      case BugType::NoOrderGuarantee:
      case BugType::LackOrderingInStrands: {
        // context is "first<second": make `first` durable right after
        // its last store preceding the violation point.
        const auto lt = bug.context.find('<');
        if (lt == std::string::npos ||
            bugIdx == static_cast<std::size_t>(-1)) {
            break;
        }
        const std::string first = bug.context.substr(0, lt);
        const AddrRange firstRange =
            rangeOfVar(events, names, first, bugIdx);
        if (firstRange.empty())
            break;
        const std::size_t store =
            lastStoreBefore(events, firstRange, bugIdx);
        if (store == static_cast<std::size_t>(-1))
            break;
        // Fence-only: `first` may already be flushed, just not drained
        // early enough.
        TracePatch fenceOnly;
        fenceOnly.strategy = "insert fence after last store to '" +
                             first + "'";
        addFenceEdit(fenceOnly, events, store + 1, events[store]);
        candidates.push_back(std::move(fenceOnly));
        TracePatch p;
        p.strategy = "insert flush+fence after last store to '" +
                     first + "'";
        addFlushEdits(p, events, store + 1, firstRange, events[store]);
        addFenceEdit(p, events, store + 1, events[store]);
        candidates.push_back(std::move(p));
        break;
      }
      default:
        break;
    }

    for (TracePatch &candidate : candidates) {
        for (TraceEdit &edit : candidate.edits)
            edit.rule = bug.type;
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const TracePatch &a, const TracePatch &b) {
                         return a.edits.size() < b.edits.size();
                     });
    return candidates;
}

/**
 * For a perf-rule bug at @p seq, the original index of the event to
 * delete. Most perf rules report the redundant operation itself; the
 * redundant-epoch-fence rule reports the EpochEnd, so the deletion
 * target is the first interior fence of that epoch.
 */
std::size_t
deletionTarget(const std::vector<Event> &events, const BugReport &bug)
{
    const std::size_t at = indexOfSeq(events, bug.seq);
    if (at == static_cast<std::size_t>(-1))
        return at;
    if (bug.type != BugType::RedundantEpochFence)
        return at;
    // Walk back to the matching EpochBegin on the same thread, then
    // pick the first fence strictly inside the section.
    std::size_t begin = static_cast<std::size_t>(-1);
    int depth = 0;
    for (std::size_t i = at; i-- > 0;) {
        if (events[i].thread != events[at].thread)
            continue;
        if (events[i].kind == EventKind::EpochEnd) {
            ++depth;
        } else if (events[i].kind == EventKind::EpochBegin) {
            if (depth == 0) {
                begin = i;
                break;
            }
            --depth;
        }
    }
    if (begin == static_cast<std::size_t>(-1))
        return static_cast<std::size_t>(-1);
    for (std::size_t i = begin + 1; i < at; ++i) {
        if (events[i].kind == EventKind::Fence &&
            events[i].thread == events[at].thread) {
            return i;
        }
    }
    return static_cast<std::size_t>(-1);
}

/**
 * Structural durability scan: simulate cache-line states over the
 * patched sequence and require that no line overlapping @p range is
 * still dirty (stored, unflushed) or pending (flushed, unfenced) when
 * the trace ends. This is the crashsim cleanliness contract a patched
 * correctness bug must meet — at the final crash point the repaired
 * range has no reachable stale image.
 */
bool
durableAtEnd(const std::vector<Event> &events, const AddrRange &range)
{
    if (range.empty())
        return true;
    // Only stores that touch the target range matter: a neighboring
    // store re-dirtying the same cache line does not disturb target
    // bytes already written back (and the detector's sub-line records
    // agree). Flushes and drains are still line-granular, as in
    // hardware.
    enum class LineState : std::uint8_t { Dirty, Pending };
    std::map<std::uint64_t, LineState> lines;
    for (const Event &event : events) {
        switch (event.kind) {
          case EventKind::Store: {
            const AddrRange r = event.range().intersect(range);
            if (r.empty())
                break;
            for (Addr base = cacheLineBase(r.start); base < r.end;
                 base += cacheLineSize) {
                lines[cacheLineIndex(base)] = LineState::Dirty;
            }
            break;
          }
          case EventKind::Flush: {
            const AddrRange r = event.range();
            for (Addr base = cacheLineBase(r.start); base < r.end;
                 base += cacheLineSize) {
                auto it = lines.find(cacheLineIndex(base));
                if (it != lines.end())
                    it->second = LineState::Pending;
            }
            break;
          }
          case EventKind::Fence:
          case EventKind::EpochEnd:
          case EventKind::JoinStrand: {
            for (auto it = lines.begin(); it != lines.end();) {
                if (it->second == LineState::Pending)
                    it = lines.erase(it);
                else
                    ++it;
            }
            break;
          }
          default:
            break;
        }
    }
    return lines.empty();
}

/** A new-in-patched bug the cascade may delete its way out of. */
bool
isCascadeDeletable(BugType type)
{
    switch (type) {
      case BugType::RedundantFlush:
      case BugType::FlushNothing:
      case BugType::RedundantLogging:
        return true;
      default:
        return false;
    }
}

/**
 * Deletion cascade: repeatedly replay @p work and delete the event the
 * detector points at, until the target bug is gone and no bug absent
 * from the original run remains. This both drives the perf-rule
 * repairs (a fingerprint can stand for several redundant occurrences)
 * and cleans up after insertions — e.g. making an ordering variable
 * durable early turns its original flush redundant, and that flush
 * must go too. Returns true when the cascade converged; the final
 * replay report is left in @p last.
 */
bool
cascadeDeletes(std::vector<Event> &work, const ReplayOracle &oracle,
               const BugFingerprint &target, const ReplayReport &original,
               const RepairOptions &options, TracePatch &patch,
               ReplayReport &last)
{
    for (std::size_t iter = 0; iter < options.maxDeleteIterations;
         ++iter) {
        last = oracle.replay(work);
        const BugReport *victim = last.find(target);
        if (victim && isCorrectnessRule(target.type)) {
            // The insertions did not fix the target. Deleting its
            // witness event would only silence the rule, not repair
            // the bug — reject the candidate instead.
            return false;
        }
        if (!victim) {
            // Target gone; hunt for bugs the edits introduced.
            for (const BugFingerprint &fp : last.fingerprints) {
                if (original.has(fp))
                    continue;
                if (!isCascadeDeletable(fp.type))
                    return false;
                victim = last.find(fp);
                break;
            }
            if (!victim)
                return true; // converged
        }
        const std::size_t at = deletionTarget(work, *victim);
        if (at == static_cast<std::size_t>(-1))
            return false;
        TraceEdit edit;
        edit.op = TraceEdit::Op::Delete;
        edit.index = at;
        edit.event = work[at];
        edit.rule = victim->type;
        edit.siteId = work[at].nameId;
        edit.anchorSeq = work[at].seq;
        edit.note =
            "delete " + std::string(toString(work[at].kind)) + " (" +
            (work[at].size
                 ? hexAddr(work[at].addr) + "," +
                       std::to_string(work[at].size) + "B, "
                 : std::string()) +
            "event #" + std::to_string(work[at].seq) + ")";
        patch.edits.push_back(std::move(edit));
        work.erase(work.begin() + static_cast<std::ptrdiff_t>(at));
    }
    return false;
}

} // namespace

bool
ruleClassHasVocabulary(BugType type)
{
    switch (type) {
      case BugType::NoDurability:
      case BugType::MultipleOverwrite:
      case BugType::NoOrderGuarantee:
      case BugType::LackDurabilityInEpoch:
      case BugType::LackOrderingInStrands:
      case BugType::RedundantFlush:
      case BugType::FlushNothing:
      case BugType::RedundantLogging:
      case BugType::RedundantEpochFence:
        return true;
      default:
        // CrossFailureSemantic needs live cross-failure verifiers; a
        // trace replay cannot even reproduce it, let alone verify a fix.
        return false;
    }
}

RepairResult
repairTrace(const LoadedTrace &trace, const BugFingerprint &target,
            const DebuggerConfig &config, const RepairOptions &options)
{
    RepairResult result;
    const ReplayOracle oracle(config, trace.names);
    const ReplayReport original = oracle.replay(trace.events);
    const BugReport *bug = original.find(target);
    if (!bug) {
        result.replays = oracle.replays();
        return result;
    }
    result.targetPresent = true;

    if (!ruleClassHasVocabulary(target.type)) {
        result.replays = oracle.replays();
        return result;
    }

    // Inserted events get temporary seqs past the trace's maximum so
    // the cascade can map reported seqs back to working-list positions
    // unambiguously; the final output is renumbered 1..n.
    SeqNum maxSeq = 0;
    for (const Event &event : trace.events)
        maxSeq = std::max(maxSeq, event.seq);

    if (isCorrectnessRule(target.type)) {
        // One fingerprint can stand for many violation sites: the
        // collector dedups by fingerprint, so fixing the reported
        // occurrence just exposes the next one at a later seq. Each
        // strategy variant (cheapest alternative first) therefore
        // iterates: replay, locate the current occurrence, insert its
        // edits, repeat until the target stops reproducing.
        for (std::size_t variant = 0;
             variant < 2 && !result.verified &&
             result.candidatesTried < options.maxCandidates;
             ++variant) {
            ++result.candidatesTried;
            std::vector<Event> work = trace.events;
            TracePatch applied;
            SeqNum tempSeq = maxSeq;
            bool ok = true;
            SeqNum prevSeq = 0;
            ReplayReport last;
            for (std::size_t round = 0;; ++round) {
                if (round >= options.maxInsertRounds) {
                    ok = false;
                    break;
                }
                last = oracle.replay(work);
                const BugReport *occ = last.find(target);
                if (!occ)
                    break;
                if (occ->seq == prevSeq) {
                    // Same occurrence still firing: this variant's
                    // edits do not fix it.
                    ok = false;
                    break;
                }
                prevSeq = occ->seq;
                std::vector<TracePatch> cands =
                    insertionCandidates(work, trace.names, *occ);
                if (cands.empty()) {
                    ok = false;
                    break;
                }
                const TracePatch &chosen =
                    cands[std::min(variant, cands.size() - 1)];
                if (applied.strategy.empty())
                    applied.strategy = chosen.strategy;
                // Apply the occurrence's inserts (back to front, so
                // indices stay valid), stamping temp seqs.
                std::vector<TraceEdit> inserts = chosen.edits;
                std::stable_sort(inserts.begin(), inserts.end(),
                                 [](const TraceEdit &a,
                                    const TraceEdit &b) {
                                     return a.index < b.index;
                                 });
                for (TraceEdit &edit : inserts)
                    edit.event.seq = ++tempSeq;
                for (auto it = inserts.rbegin(); it != inserts.rend();
                     ++it) {
                    work.insert(
                        work.begin() +
                            static_cast<std::ptrdiff_t>(it->index),
                        it->event);
                }
                for (TraceEdit &edit : inserts)
                    applied.edits.push_back(std::move(edit));
            }
            if (!ok || applied.edits.empty())
                continue;
            if (!cascadeDeletes(work, oracle, target, original, options,
                                applied, last)) {
                continue;
            }
            if (!durableAtEnd(work, AddrRange(target.start, target.end)))
                continue;
            SeqNum seq = 0;
            for (Event &event : work)
                event.seq = ++seq;
            result.verified = true;
            result.patch = std::move(applied);
            result.patchedEvents = std::move(work);
        }
    } else {
        // Perf rules need no insertions: the cascade's deletions *are*
        // the repair.
        ++result.candidatesTried;
        std::vector<Event> work = trace.events;
        TracePatch applied;
        applied.strategy =
            "delete redundant " +
            std::string(target.type == BugType::RedundantEpochFence
                            ? "fence"
                            : "operation");
        ReplayReport last;
        if (cascadeDeletes(work, oracle, target, original, options,
                           applied, last)) {
            SeqNum seq = 0;
            for (Event &event : work)
                event.seq = ++seq;
            result.verified = true;
            result.patch = std::move(applied);
            result.patchedEvents = std::move(work);
        }
    }

    if (result.verified) {
        result.advisory.push_back(result.patch.strategy + " [" +
                                  target.toString() + "]");
        for (const TraceEdit &edit : result.patch.edits)
            result.advisory.push_back(edit.note);
    }
    result.replays = oracle.replays();
    return result;
}

} // namespace pmdb
