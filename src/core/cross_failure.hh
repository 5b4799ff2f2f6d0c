/**
 * @file
 * Cross-failure semantic bug checking (Section 7.3).
 *
 * A cross-failure semantic bug means the program reads semantically
 * inconsistent data during post-failure execution. Valgrind-style
 * instrumentation cannot pause/resume the program at failure points,
 * so — exactly as the paper does — the recovery program is invoked
 * explicitly: CrossFailureChecker materializes the crash image the
 * device would leave behind and runs a workload-supplied recovery
 * verifier over it. Any reported inconsistency is funnelled into the
 * debugger's bug collector as a CrossFailureSemantic bug.
 */

#ifndef PMDB_CORE_CROSS_FAILURE_HH
#define PMDB_CORE_CROSS_FAILURE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/debugger.hh"
#include "pmem/device.hh"

namespace pmdb
{

/**
 * An explicit crash point: where in the trace the failure is injected
 * (seq, for bug-report provenance) and which flushed-but-unfenced
 * lines reach durability at that instant.
 *
 * When @ref landedLines is set, exactly those pending cache lines land
 * (CrashSimulator::partialImage); otherwise the whole pending set is
 * resolved by @ref policy — DropPending, CommitPending, or the seeded
 * RandomPending coin-flip.
 */
struct CrashPointSpec
{
    /** Sequence number of the injected failure, for provenance. */
    SeqNum seq = 0;
    /** Pending-set resolution when landedLines is not given. */
    CrashPolicy policy = CrashPolicy::DropPending;
    /** Exact pending-line subset (cache-line indices) that lands. */
    std::optional<std::vector<std::uint64_t>> landedLines{};
    /** Seed for CrashPolicy::RandomPending. */
    std::uint64_t seed = 1;
};

/** Runs recovery verifiers against simulated crash images. */
class CrossFailureChecker
{
  public:
    /**
     * A recovery verifier inspects a crash image (a full copy of the
     * device's address space as a crash would leave it) and returns an
     * empty string if the recovered state is consistent, or a
     * description of the semantic inconsistency otherwise.
     */
    using Verifier =
        std::function<std::string(const std::vector<std::uint8_t> &image)>;

    /** Receives the CrossFailureSemantic report when one is found. */
    using ReportSink = std::function<void(const BugReport &)>;

    /**
     * Materialize @p device's crash image at crash point @p at and run
     * @p verify over it. On inconsistency, report a
     * CrossFailureSemantic bug through @p debugger, stamped with the
     * crash point's seq. Returns true if a bug was found.
     */
    static bool check(PmDebugger &debugger, const PmemDevice &device,
                      const Verifier &verify,
                      const CrashPointSpec &at = {});

    /**
     * Same check, but the report goes to an arbitrary @p sink — how
     * detection-service clients funnel cross-failure findings to the
     * daemon when no PmDebugger runs in-process.
     */
    static bool check(const ReportSink &sink, const PmemDevice &device,
                      const Verifier &verify,
                      const CrashPointSpec &at = {});
};

} // namespace pmdb

#endif // PMDB_CORE_CROSS_FAILURE_HH
