#include "modelcheck/engine.hh"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stopwatch.hh"
#include "crashsim/explore.hh"
#include "modelcheck/pruner.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

namespace
{

/** Absolute image identity: XOR of every line's content hash. */
std::uint64_t
imageContentHash(const std::vector<std::uint8_t> &image)
{
    std::uint64_t hash = 0;
    const std::uint64_t lines = image.size() / cacheLineSize;
    for (std::uint64_t line = 0; line < lines; ++line)
        hash ^= lineContentHash(line,
                                image.data() + line * cacheLineSize);
    return hash;
}

} // namespace

ModelChecker::ModelChecker(ModelWorkload &workload,
                           ModelCheckOptions options)
    : workload_(workload), options_(std::move(options))
{
}

void
ModelChecker::processGroup(const Group &group,
                           const std::unordered_set<std::uint64_t> &frozen,
                           ImageBuffers &buffers, GroupOutcome &out)
{
    const CrashPointLog &log = *group.log;
    ImageCursor cursor(log, root_, group.baseDelta, buffers.take());
    // Shared across this execution's points: the forward-rolling
    // cursor makes adjacent points' images cheap to compare, and most
    // duplicates are exactly there (point k+1's drop-everything image
    // is point k's land-all image).
    std::unordered_set<std::uint64_t> seen_here;

    for (std::size_t p = 0; p < log.points.size(); ++p) {
        const CrashPoint &point = log.points[p];
        bool truncated = false;
        const std::vector<std::vector<std::size_t>> candidates =
            enumerateCrashCandidates(log, point, options_.run.sim,
                                     &truncated);
        if (truncated)
            ++out.truncatedPoints;
        out.enumerated += candidates.size();

        cursor.advanceTo(p);
        ReadSetPruner pruner(log, point, options_.prune);

        for (const std::vector<std::size_t> &candidate : candidates) {
            // Anchor the cursor's baseline-relative delta hash to this
            // log's absolute baseline identity (Group::logBaseHash).
            const std::uint64_t hash =
                group.logBaseHash ^
                (candidate.empty() ? cursor.baseHash()
                                   : cursor.candidateHash(candidate));
            if (!seen_here.insert(hash).second) {
                ++out.localDuplicates;
                continue;
            }

            CandidateOutcome outcome;
            outcome.hash = hash;
            outcome.pointIdx = p;
            if (frozen.contains(hash)) {
                // Visited in a previous round; the recovery edge out
                // of this state has already been explored.
                outcome.visitedSkip = true;
                out.candidates.push_back(std::move(outcome));
                continue;
            }
            if (!pruner.shouldRun(candidate)) {
                // Covered by a representative: same recovery
                // execution, but still a distinct persistent state —
                // the merge counts its identity into the visited set
                // without re-executing.
                out.candidates.push_back(std::move(outcome));
                continue;
            }

            std::vector<std::uint8_t> image = buffers.take();
            cursor.apply(candidate);
            image.assign(cursor.image().begin(), cursor.image().end());
            cursor.revert();

            ModelExecution exec = workload_.runRecovery(
                std::move(image), options_.run, buffers);
            pruner.observeReads(exec.reads);
            ++out.executions;
            out.crashPoints += exec.log.points.size();

            outcome.inconsistency = std::move(exec.inconsistency);
            // Inconsistent states are reported, not expanded: their
            // recovery already failed, so operating past it explores
            // the consequences of a bug rather than new program
            // behavior. At the depth bound nothing expands, so no log
            // is kept. A kept log's baseline is the candidate it ran
            // on (model.hh), kept as the lines it changed from the
            // root; either way its buffer is reused.
            if (outcome.inconsistency.empty() &&
                group.depth < options_.maxDepth) {
                outcome.childDelta = imageDelta(root_, exec.log.baseline);
                buffers.give(std::move(exec.log.baseline));
                outcome.childLog =
                    std::make_shared<const CrashPointLog>(
                        std::move(exec.log));
            } else {
                buffers.give(std::move(exec.log.baseline));
            }
            out.candidates.push_back(std::move(outcome));
        }

        out.pruned += pruner.pruned();
        out.refinements += pruner.refinements();
    }
    buffers.give(cursor.releaseImage());
}

ModelCheckResult
ModelChecker::run()
{
    Stopwatch watch;
    ModelCheckResult result;
    ModelCheckStats &stats = result.stats;

    std::unordered_set<std::uint64_t> visited;

    ModelExecution initial = workload_.runInitial(options_.run);
    ++stats.executions;
    stats.crashPoints += initial.log.points.size();
    if (!initial.inconsistency.empty()) {
        // The workload broke without any crash; depth-0 finding.
        ModelCheckFinding finding;
        finding.detail = initial.inconsistency;
        result.findings.push_back(std::move(finding));
    }

    std::vector<Group> frontier;
    const auto expand = [&](std::shared_ptr<const CrashPointLog> log,
                            ImageDelta base_delta, std::uint64_t base_hash,
                            std::size_t depth, std::vector<SeqNum> chain,
                            std::vector<Group> &into) {
        if (depth > options_.maxDepth || log->points.empty())
            return;
        Group group;
        group.logBaseHash = base_hash;
        group.log = std::move(log);
        group.baseDelta = std::move(base_delta);
        group.depth = depth;
        group.chainPrefix = std::move(chain);
        into.push_back(std::move(group));
    };
    // The initial baseline is the root every group's baseline is a
    // delta from (its own delta is empty), and the only full-image
    // hash of the search: every recovery's baseline is the candidate
    // it ran on, whose identity the worker already computed (the
    // runRecovery contract, model.hh).
    root_ = std::move(initial.log.baseline);
    const std::uint64_t initial_hash = imageContentHash(root_);
    expand(std::make_shared<const CrashPointLog>(std::move(initial.log)),
           {}, initial_hash, 1, {}, frontier);

    // Each worker's spare images, reused across groups and rounds.
    std::vector<ImageBuffers> buffers(
        std::max<std::size_t>(1, options_.workers));
    while (!frontier.empty() && !stats.budgetExhausted) {
        ++stats.rounds;
        const bool telemetryOn = telemetry::enabled();
        const std::uint64_t roundStart =
            telemetryOn ? telemetry::nowNs() : 0;
        std::vector<GroupOutcome> outcomes(frontier.size());

        // Parallel phase: the visited set is frozen (read-only), so
        // each group's outcome is independent of scheduling.
        parallelFor(frontier.size(), buffers.size(),
                    [&](std::size_t i, std::size_t worker) {
                        processGroup(frontier[i], visited,
                                     buffers[worker], outcomes[i]);
                    });

        // Sequential merge in (group, candidate) order: the only place
        // visited, findings, frontier and frontierHash mutate.
        std::vector<Group> next_frontier;
        for (std::size_t i = 0;
             i < frontier.size() && !stats.budgetExhausted; ++i) {
            const Group &group = frontier[i];
            GroupOutcome &outcome = outcomes[i];
            stats.candidates += outcome.enumerated;
            stats.prunedCandidates += outcome.pruned;
            stats.refinements += outcome.refinements;
            stats.executions += outcome.executions;
            stats.crashPoints += outcome.crashPoints;
            stats.dedupedStates += outcome.localDuplicates;
            stats.truncatedPoints += outcome.truncatedPoints;

            for (CandidateOutcome &cand : outcome.candidates) {
                if (cand.visitedSkip) {
                    ++stats.dedupedStates;
                    continue;
                }
                if (!visited.insert(cand.hash).second) {
                    // Another group reached the same state this round.
                    ++stats.dedupedStates;
                    continue;
                }
                ++stats.distinctStates;
                result.frontierHash =
                    mix64(result.frontierHash ^ mix64(cand.hash));

                std::vector<SeqNum> chain = group.chainPrefix;
                chain.push_back(group.log->points[cand.pointIdx].seq);
                if (!cand.inconsistency.empty() &&
                    result.findings.size() < options_.maxFindings) {
                    ModelCheckFinding finding;
                    finding.depth = group.depth;
                    finding.crashSeqs = chain;
                    finding.stateHash = cand.hash;
                    finding.detail = cand.inconsistency;
                    result.findings.push_back(std::move(finding));
                }
                if (cand.childLog)
                    expand(std::move(cand.childLog),
                           std::move(cand.childDelta), cand.hash,
                           group.depth + 1, std::move(chain),
                           next_frontier);
                if (stats.distinctStates >= options_.maxStates) {
                    stats.budgetExhausted = true;
                    break;
                }
            }
        }
        if (telemetryOn) {
            telemetry::Registry::global()
                .histogram("modelcheck.round_ns")
                .record(telemetry::nowNs() - roundStart);
        }
        frontier = std::move(next_frontier);
    }

    result.seconds = watch.elapsedSeconds();
    return result;
}

} // namespace pmdb
