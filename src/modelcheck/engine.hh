/**
 * @file
 * Systematic crash-state model checker.
 *
 * Where crashsim explores the crash states of *one* execution, the
 * model checker closes the loop: every candidate crash image is fed
 * back into the workload's recovery path as a fresh instrumented
 * execution, whose own crash points seed the next round. The search is
 * a breadth-first frontier over (execution, crash point, landed-subset)
 * triples, bounded by crash depth and by a distinct-state budget:
 *
 *   round 0:  initial execution from an empty pool
 *   round d:  for every crash point of every round-(d-1) execution,
 *             enumerate candidate images (crashsim's bounded
 *             enumerator), skip states already visited, prune
 *             candidates a recovery read-set representative covers
 *             (pruner.hh), execute recovery on the survivors, record
 *             inconsistencies as findings, and push the consistent
 *             recoveries' crash points into round d+1.
 *
 * This is what lets it find *multi-crash* bugs — persistence mistakes
 * in recovery code itself, whose trigger state only exists after a
 * first crash — that single-crash exploration is structurally unable
 * to reach (see modelcheckOnlyCases()).
 *
 * State identity: a state is a durable pool image, named by the 64-bit
 * XOR of its position-salted line-content hashes (crash_points.hh:
 * lineContentHash). The search's visited set holds these identities,
 * so two different images colliding on 64 bits would alias and the
 * second would be skipped — the standard stateless-model-checking
 * compromise (Jaaru and CHESS hash states the same way). A collision
 * can only suppress a state, never invent a finding. The visited set
 * lives for one run; every search starts from an empty pool.
 *
 * Determinism: results are bit-identical for any worker count. Within
 * a round, groups (one per explored execution) are processed in
 * parallel against a *frozen* visited set; each group's work is a
 * pure function of (group, frozen set, config), so the set of
 * executions a group performs does not depend on how groups are
 * distributed over threads. All mutation — visited-set inserts,
 * finding order, frontier construction, the rolling frontierHash —
 * happens in a sequential merge that walks outcomes in (group,
 * candidate) order. The price is that two groups reaching the same
 * new state in one round both execute it (the merge then dedups);
 * rounds are the synchronization grain.
 */

#ifndef PMDB_MODELCHECK_ENGINE_HH
#define PMDB_MODELCHECK_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "modelcheck/model.hh"

namespace pmdb
{

struct ModelCheckOptions
{
    /** Per-execution workload configuration (ops, seed, sim bounds). */
    ModelRunConfig run;

    /**
     * Maximum crashes along one trajectory. Depth 1 is crashsim-with-
     * real-recovery; the modelcheck-only bugs need >= 2.
     */
    std::size_t maxDepth = 2;

    /**
     * Distinct-state budget: the search stops expanding once this many
     * distinct states have been visited (stats.budgetExhausted
     * tells whether the bound bit).
     */
    std::size_t maxStates = 4096;

    /** Worker threads per round (results identical for any value). */
    std::size_t workers = 1;

    /** Read-set pruning (off = execute every non-duplicate candidate). */
    bool prune = true;

    /** Cap on recorded findings. */
    std::size_t maxFindings = 64;
};

/** One inconsistency the search found. */
struct ModelCheckFinding
{
    /** Crashes taken to reach the bad state. */
    std::size_t depth = 0;

    /**
     * Boundary event seqs of the crash chain, outermost execution
     * first. Each seq is local to its execution's event stream.
     */
    std::vector<SeqNum> crashSeqs;

    /** Identity hash of the inconsistent image. */
    std::uint64_t stateHash = 0;

    /** The recovery verdict. */
    std::string detail;

    bool operator==(const ModelCheckFinding &) const = default;
};

struct ModelCheckStats
{
    /** Instrumented executions (initial + recoveries). */
    std::uint64_t executions = 0;
    /** Crash points captured across all executions. */
    std::uint64_t crashPoints = 0;
    /** Candidate images enumerated (before any dedup). */
    std::uint64_t candidates = 0;
    /** Candidates a read-set representative covered (not executed). */
    std::uint64_t prunedCandidates = 0;
    /** Candidates whose state identity was already visited. */
    std::uint64_t dedupedStates = 0;
    /** Distinct states visited. */
    std::uint64_t distinctStates = 0;
    /** Crash points whose enumeration the sim bounds cut short. */
    std::uint64_t truncatedPoints = 0;
    /** Read-set refinements (pruner equivalence rebuilds). */
    std::uint64_t refinements = 0;
    /** Frontier rounds processed. */
    std::uint64_t rounds = 0;
    /** The maxStates budget stopped the search before the frontier. */
    bool budgetExhausted = false;

    bool operator==(const ModelCheckStats &) const = default;
};

struct ModelCheckResult
{
    std::vector<ModelCheckFinding> findings;
    ModelCheckStats stats;

    /**
     * Order-sensitive rolling hash over the newly visited states in
     * merge order — the determinism witness: any two runs with the
     * same config must agree on it exactly.
     */
    std::uint64_t frontierHash = 0;

    /** Wall clock (not part of identicalTo). */
    double seconds = 0.0;

    /** Bit-identical search outcome (timing excluded). */
    bool identicalTo(const ModelCheckResult &other) const
    {
        return findings == other.findings && stats == other.stats &&
               frontierHash == other.frontierHash;
    }
};

/** Frontier search driver. One instance runs one search. */
class ModelChecker
{
  public:
    ModelChecker(ModelWorkload &workload, ModelCheckOptions options);

    ModelCheckResult run();

  private:
    /**
     * One frontier entry: an explored execution, all of whose crash
     * points this round expands. Grouping by execution (not by point)
     * lets one ImageCursor roll forward over the whole log and one
     * local dedup set absorb the heavy cross-point duplicates — the
     * drop-everything image at point k+1 *is* point k's land-all
     * image — before any recovery runs.
     */
    struct Group
    {
        /** The execution's capture, its baseline moved out. */
        std::shared_ptr<const CrashPointLog> log;
        /**
         * The log's baseline, as the lines where it differs from the
         * search's root image (root_): only the changed lines, not a
         * pool-sized copy per kept execution. The worker rebuilds the
         * image into a reused buffer when it expands the group.
         */
        ImageDelta baseDelta;
        /** Crashes taken when this execution crashes (again). */
        std::size_t depth = 0;
        /** Boundary seqs of the crashes that led to this execution. */
        std::vector<SeqNum> chainPrefix;
        /**
         * Absolute identity of the log's baseline image. ImageCursor
         * hashes are XOR deltas *relative to their log's baseline*;
         * anchoring them here turns them into absolute image
         * identities comparable across executions — without it, a
         * child state would alias whatever parent state shares its
         * delta shape. A recovery's baseline is the candidate image
         * it ran on, so a child group inherits that candidate's hash;
         * only the initial execution's baseline is hashed in full.
         */
        std::uint64_t logBaseHash = 0;
    };

    /** Worker-side result for one candidate, merged sequentially. */
    struct CandidateOutcome
    {
        std::uint64_t hash = 0;
        /** Crash point (index into the group's log) it came from. */
        std::size_t pointIdx = 0;
        /** Frozen visited-set hit: skipped before pruning or execution. */
        bool visitedSkip = false;
        std::string inconsistency;
        /**
         * Next-round capture: null when not executed, inconsistent,
         * or already at the depth bound.
         */
        std::shared_ptr<const CrashPointLog> childLog;
        /** childLog's baseline (Group::baseDelta). */
        ImageDelta childDelta;
    };

    struct GroupOutcome
    {
        std::vector<CandidateOutcome> candidates;
        std::uint64_t enumerated = 0;
        /** Image hashes repeated within this execution's points. */
        std::uint64_t localDuplicates = 0;
        std::uint64_t pruned = 0;
        std::uint64_t refinements = 0;
        std::uint64_t executions = 0;
        std::uint64_t crashPoints = 0;
        std::uint64_t truncatedPoints = 0;
    };

    /**
     * Pure worker step: no shared mutation, @p frozen is read-only.
     * @p buffers is the calling worker's own.
     */
    void processGroup(const Group &group,
                      const std::unordered_set<std::uint64_t> &frozen,
                      ImageBuffers &buffers, GroupOutcome &out);

    ModelWorkload &workload_;
    ModelCheckOptions options_;
    /**
     * The initial execution's baseline, kept once: every group's
     * baseline is a delta from it.
     */
    std::vector<std::uint8_t> root_;
};

} // namespace pmdb

#endif // PMDB_MODELCHECK_ENGINE_HH
