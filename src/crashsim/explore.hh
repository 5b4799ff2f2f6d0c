/**
 * @file
 * Crash-state exploration: bounded enumeration of reachable post-crash
 * images over a CrashPointLog, parallel recovery verification, and
 * greedy witness minimization.
 *
 * Pipeline per crash point:
 *
 *  1. *Enumerate* candidate pending-line subsets under the bounds of
 *     CrashsimOptions (cap K lines by flush recency, cap images per
 *     point, epoch-atomic coalescing inside transactions).
 *  2. *Dedup* candidate images by incremental identity hash — a
 *     sequential pre-pass, so the kept set is independent of worker
 *     count.
 *  3. *Verify*: run the recovery verifier over each kept image on a
 *     pool of workers, each owning a rolling ImageCursor (apply/revert
 *     per candidate, O(subset) not O(pool)).
 *  4. *Minimize* failures greedily to a minimal landed-line witness
 *     and report through the bug collector with crash-point SeqNum
 *     provenance.
 *
 * The whole schedule is deterministic under a fixed seed: findings are
 * merged in (point, candidate) order, so any worker count produces
 * bit-identical reports.
 */

#ifndef PMDB_CRASHSIM_EXPLORE_HH
#define PMDB_CRASHSIM_EXPLORE_HH

#include <string>
#include <vector>

#include "crashsim/crash_points.hh"

namespace pmdb
{

class PmDebugger;

/** One verified inconsistency, with its crash-point provenance. */
struct CrashsimFinding
{
    /** Index into CrashPointLog::points. */
    std::size_t pointIndex = 0;
    /** Sequence number of the crash point's boundary event. */
    SeqNum seq = 0;
    EventKind boundary = EventKind::Fence;
    /** Enumeration order of the failing candidate within its point. */
    std::size_t candidateIndex = 0;
    /**
     * Minimized witness: the smallest landed pending-line subset
     * (cache-line indices, sorted) that still fails verification.
     * Empty when the drop-everything image itself is inconsistent.
     */
    std::vector<std::uint64_t> witnessLines;
    /** The verifier's description of the inconsistency. */
    std::string detail;

    bool operator==(const CrashsimFinding &) const = default;
};

/** Deterministic exploration counters (identical across workers). */
struct CrashsimStats
{
    std::uint64_t points = 0;
    std::uint64_t pendingLines = 0;
    std::uint64_t epochCoalescedPoints = 0;
    std::uint64_t imagesEnumerated = 0;
    std::uint64_t imagesDeduped = 0;
    std::uint64_t imagesVerified = 0;
    std::uint64_t minimizeVerifies = 0;
    /**
     * Crash points whose enumeration the bounds cut short: more pending
     * lines than maxPendingLines, or more subsets than
     * maxImagesPerPoint. Zero means the explored set is the complete
     * reachable crash-state space of the capture.
     */
    std::uint64_t truncatedPoints = 0;

    bool operator==(const CrashsimStats &) const = default;
};

struct CrashsimResult
{
    std::vector<CrashsimFinding> findings;
    CrashsimStats stats;
    /** Wall-clock of the explore pass (not part of identicalTo). */
    double exploreSeconds = 0.0;

    /** Bit-identical findings and counters (timing excluded). */
    bool identicalTo(const CrashsimResult &other) const
    {
        return findings == other.findings && stats == other.stats;
    }
};

/**
 * Explore every crash point of @p log: enumerate, dedup, verify with
 * @p verify (a null verifier skips steps 3-4 and returns structural
 * stats only), minimize witnesses, and — when @p debugger is given —
 * report each finding as a CrossFailureSemantic bug whose seq is the
 * crash point's boundary event.
 */
CrashsimResult
exploreCrashPoints(const CrashPointLog &log,
                   const RecoveryVerifier &verify,
                   const CrashsimOptions &options = {},
                   PmDebugger *debugger = nullptr);

/**
 * Candidate landed-line subsets for one crash point of @p log, in
 * deterministic enumeration order (the pre-pass of exploreCrashPoints,
 * exposed for engines that materialize candidate images themselves —
 * the model checker). Each candidate is a list of indices into
 * CrashPointLog::lines; the empty candidate is the drop-everything
 * image. When @p truncated is non-null it is set to whether the bounds
 * of @p options cut the enumeration short of the full 2^pending space.
 */
std::vector<std::vector<std::size_t>>
enumerateCrashCandidates(const CrashPointLog &log, const CrashPoint &point,
                         const CrashsimOptions &options,
                         bool *truncated = nullptr);

} // namespace pmdb

#endif // PMDB_CRASHSIM_EXPLORE_HH
