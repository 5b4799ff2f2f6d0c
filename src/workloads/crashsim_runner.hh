/**
 * @file
 * Harness gluing the crash-state exploration engine to the bug suite
 * and the evaluation workloads.
 *
 * Two entry points:
 *  - runCrashsimCase(): run one bug-suite case (buggy and correct
 *    variants) with a CrashsimSession adopted at armCrossFailure time,
 *    reporting both what the single-image end-state checker sees and
 *    what full crash-point exploration finds.
 *  - runCrashsimWorkload(): run an evaluation workload (b_tree,
 *    hashmap_atomic) with its self-contained recovery verifier adopted
 *    and explore every captured crash point.
 *
 * crashsimOnlyCases() adds seeded bugs the single-image checker is
 * structurally unable to find: inconsistencies that exist only at an
 * intermediate crash point or only under a partial pending-line
 * landing, while the final durable state is consistent.
 */

#ifndef PMDB_WORKLOADS_CRASHSIM_RUNNER_HH
#define PMDB_WORKLOADS_CRASHSIM_RUNNER_HH

#include <string>
#include <vector>

#include "crashsim/capture.hh"
#include "trace/batch.hh"
#include "workloads/bug_suite.hh"
#include "workloads/workload.hh"

namespace pmdb
{

/** Result of running one bug case under crash-state exploration. */
struct CrashsimCaseOutcome
{
    /**
     * The existing single-image checker (CrossFailureChecker at the
     * scenario's own check points) reported the bug on the buggy
     * variant.
     */
    bool singleImageFound = false;
    /** The exploration engine found it on the buggy variant. */
    bool engineFound = false;
    /** Full exploration result of the buggy variant. */
    CrashsimResult buggy;
    /** Full exploration result of the correct variant (should be 0). */
    CrashsimResult clean;
};

/**
 * Run @p bug_case twice (buggy, correct) with a CrashsimSession using
 * @p options adopted when the scenario arms its verifier, dispatching
 * in batches of @p batch_capacity events.
 */
CrashsimCaseOutcome
runCrashsimCase(const BugCase &bug_case, const CrashsimOptions &options,
                std::size_t batch_capacity = defaultBatchCapacity);

/**
 * Seeded crash-consistency bugs only reachable through crash-state
 * enumeration (kept out of bugSuite(), whose 78 cases mirror Table 6):
 *
 *  - "cs_partial_pair": two invariant-linked fields flushed under one
 *    fence; only a partial landing (dependent line without its
 *    prerequisite) violates the invariant. The end state is consistent,
 *    so single-image checking at any policy misses it.
 *  - "cs_intermediate_window": a two-step update whose intermediate
 *    durable state is inconsistent but whose final state is repaired —
 *    visible only by crashing at the interior fence.
 *  - "cs_log_truncation_window": a *correct* transactional program.
 *    With epochAtomic exploration (the default) it yields zero
 *    findings; disabling epochAtomic surfaces the substrate's
 *    single-drain commit window (log truncation and data sharing one
 *    fence), demonstrating why the coalescing exists. Its buggy and
 *    correct variants run the same program.
 */
const std::vector<BugCase> &crashsimOnlyCases();

/**
 * Run workload @p name with a crashsim session adopted (the workload
 * must support WorkloadOptions::crashsim) and explore the capture.
 * The pool tracks persistence whatever @p wl_options says. Findings
 * are reported through @p debugger when given.
 */
CrashsimResult
runCrashsimWorkload(const std::string &name, WorkloadOptions wl_options,
                    const CrashsimOptions &options,
                    PmDebugger *debugger = nullptr);

} // namespace pmdb

#endif // PMDB_WORKLOADS_CRASHSIM_RUNNER_HH
