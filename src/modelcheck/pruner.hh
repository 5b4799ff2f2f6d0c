/**
 * @file
 * Jaaru-style lazy-crash-simulation pruning for one crash point.
 *
 * At a crash point with pending lines P, the 2^|P| candidate images
 * differ *only* on which subset of P landed. A recovery execution is a
 * deterministic function of the bytes it reads — so two candidates
 * that agree on every line recovery actually reads must drive
 * byte-identical recovery executions, and only one of them (the
 * *representative*) needs to run.
 *
 * The pruner learns "what recovery reads" lazily, the way Jaaru's
 * constraint refinement does: it starts with an empty read set, and
 * after each representative executes, the lines that execution read
 * (restricted to P) refine the equivalence. Candidates are classified
 * by a projection key — the content identity of their landed lines
 * restricted to the read set. Equal key ⇒ the already-executed
 * representative read exactly the same bytes ⇒ same execution.
 *
 * Soundness (the induction is spelled out in DESIGN.md §11): when a
 * candidate c is classified, every previously executed representative
 * r has already contributed reads(r) to the read set R. If c's
 * projection onto R equals r's, then c agrees with r on a superset of
 * reads(r); recovery's first read then returns the same bytes, hence
 * the same next read, and inductively the whole execution — including
 * its read set and final image — is identical. Refinement only grows
 * R, so earlier classifications remain covered.
 *
 * The projection key is an XOR of position-salted line-content hashes
 * (the state-identity hash of crash_points.hh), so distinct
 * projections could in principle collide on 64 bits; as with the
 * engine's visited set this can only merge states, never invent a
 * finding, and the engine counts every pruned candidate's state
 * identity in the visited set regardless.
 *
 * Call protocol (enforced by the engine, single-threaded per point):
 * shouldRun(c) classifies c against the current read set and, when it
 * returns true, registers c as a representative; the caller must then
 * execute c's recovery and pass its read set to observeReads() before
 * classifying the next candidate.
 */

#ifndef PMDB_MODELCHECK_PRUNER_HH
#define PMDB_MODELCHECK_PRUNER_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "crashsim/crash_points.hh"
#include "trace/read_set.hh"

namespace pmdb
{

/** Per-crash-point equivalence pruner over recovery read sets. */
class ReadSetPruner
{
  public:
    /**
     * @p enabled false turns the pruner into a pass-through (every
     * candidate runs) for A/B measurement.
     */
    ReadSetPruner(const CrashPointLog &log, const CrashPoint &point,
                  bool enabled);

    /**
     * True if @p candidate (indices into CrashPointLog::lines) needs
     * its own recovery execution; false if an executed representative
     * already covers it.
     */
    bool shouldRun(const std::vector<std::size_t> &candidate);

    /** Feed the just-executed representative's read set. */
    void observeReads(const ReadSet &reads);

    /** Candidates collapsed into a representative's class. */
    std::uint64_t pruned() const { return pruned_; }

    /** Times the read set grew and the classes were rebuilt. */
    std::uint64_t refinements() const { return refinements_; }

  private:
    std::uint64_t
    projectionKey(const std::vector<std::size_t> &candidate) const;

    const CrashPointLog &log_;
    bool enabled_;
    /** Cache-line indices pending at this point. */
    std::unordered_set<std::uint64_t> pointLines_;
    /** Lines of pointLines_ some representative's recovery has read. */
    std::unordered_set<std::uint64_t> readLines_;
    /** Executed representatives (to re-key after refinement). */
    std::vector<std::vector<std::size_t>> representatives_;
    /** Projection keys of representatives_ under readLines_. */
    std::unordered_set<std::uint64_t> repKeys_;
    std::uint64_t pruned_ = 0;
    std::uint64_t refinements_ = 0;
};

} // namespace pmdb

#endif // PMDB_MODELCHECK_PRUNER_HH
