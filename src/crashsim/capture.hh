/**
 * @file
 * Live crash-point capture: a PersistenceObserver that builds a
 * CrashPointLog while a workload runs.
 *
 * The session snapshots the device's durable image once at adoption
 * (the baseline). At each crash point the device's onBoundary() (and,
 * with captureAtFlush, onLineQueued()) callback fires before the
 * pending-writeback set changes further, and the session copies that
 * set, sorted by line index, into the log — O(pending lines), never
 * O(pool size). The session keeps no copy of the set between points.
 * Because the device is a synchronous sink, the captured log is
 * bit-identical at every batch capacity.
 *
 * The log is self-contained: exploration (explore.hh) runs after the
 * pool, device and runtime are destroyed. Verifiers registered here
 * must therefore capture everything they need by value (addresses,
 * log-region offsets), never pointers into the pool.
 */

#ifndef PMDB_CRASHSIM_CAPTURE_HH
#define PMDB_CRASHSIM_CAPTURE_HH

#include <utility>

#include "crashsim/crash_points.hh"
#include "crashsim/explore.hh"
#include "pmem/device.hh"

namespace pmdb
{

/**
 * One capture-and-explore session over one device.
 *
 * Usage:
 * @code
 *   CrashsimSession session(options);
 *   session.adopt(pool.device(), verifier);  // before the writes
 *   ... run the workload ...
 *   CrashsimResult result = session.explore(&debugger);
 * @endcode
 *
 * The session must outlive the device (the device signals its
 * destruction, after which the log stays usable).
 */
class CrashsimSession : public PersistenceObserver
{
  public:
    /**
     * @p baseline_storage: a buffer whose capacity the baseline
     * snapshot reuses (for callers that run many sessions).
     */
    explicit CrashsimSession(CrashsimOptions options = {},
                             std::vector<std::uint8_t> baseline_storage = {})
        : options_(options)
    {
        log_.baseline = std::move(baseline_storage);
    }

    ~CrashsimSession() override { release(); }

    CrashsimSession(const CrashsimSession &) = delete;
    CrashsimSession &operator=(const CrashsimSession &) = delete;

    /**
     * Begin capturing crash points from @p device: snapshot the
     * durable baseline and install this session as the device's
     * persistence observer. Lines already flushed but not yet fenced
     * appear in the first point's pending set.
     */
    void adopt(const PmemDevice &device);

    /** adopt() and register the recovery verifier in one call. */
    void adopt(const PmemDevice &device, RecoveryVerifier verify);

    /** Stop observing the device (idempotent). */
    void release();

    void setVerifier(RecoveryVerifier verify)
    {
        verify_ = std::move(verify);
    }

    bool hasVerifier() const { return static_cast<bool>(verify_); }

    const RecoveryVerifier &verifier() const
    {
        return verify_;
    }

    const CrashsimOptions &options() const { return options_; }
    CrashsimOptions &options() { return options_; }

    const CrashPointLog &log() const { return log_; }

    /** Hand the captured log over without copying it (leaves it empty). */
    CrashPointLog takeLog() { return std::exchange(log_, {}); }

    /**
     * Explore the captured crash points with the registered verifier
     * (exploreCrashPoints). Findings are reported through @p debugger
     * when given.
     */
    CrashsimResult explore(PmDebugger *debugger = nullptr) const;

    /** @name PersistenceObserver */
    /** @{ */
    void onLineQueued(std::uint64_t line,
                      const PendingLine &snapshot) override;
    void onBoundary(const Event &event, int epoch_depth) override;
    void onDeviceDestroyed() override { device_ = nullptr; }
    /** @} */

  private:
    void recordPoint(const Event &event, bool epoch_open, bool drains);

    CrashsimOptions options_;
    const PmemDevice *device_ = nullptr;
    RecoveryVerifier verify_;
    CrashPointLog log_;
};

} // namespace pmdb

#endif // PMDB_CRASHSIM_CAPTURE_HH
