/**
 * @file
 * ModelWorkload implementations: the workloads the crash-state model
 * checker (src/modelcheck/) can drive through crash-recover cycles.
 *
 * Three evaluation workloads wrap the existing persistent structures
 * with *real recovery re-entry*: a candidate crash image is reopened
 * as a pool (PmemPool image constructor), undo-log recovery runs
 * through the instrumented path (TxRecovery::recoverPool), the
 * structure is verified by walking it through pool reads (so the
 * execution's read set is complete for pruning), the volatile heap is
 * rebuilt (recoverHeap), and continuation operations run. Every step
 * emits the full store/CLF/fence stream, so recovery and continuation
 * are executions the checker can crash *again*.
 *
 * Two mc_* workloads carry the seeded multi-crash bugs of
 * modelcheckOnlyCases(): their normal operation is crash-consistent
 * (depth-1 exploration finds nothing), but their *recovery code*
 * violates the persistence discipline in a way only a second crash —
 * placed at one of recovery's own ordering boundaries — can expose.
 *
 *  - mc_undo_flush: a pair update protected by a one-slot undo backup
 *    (backup + valid flag persisted, then both fields flushed under
 *    one fence, then valid cleared). The buggy recovery restores field
 *    `a` from the backup with a plain store — no CLF — before
 *    persisting `b` and clearing `valid`. Crash after the durable
 *    valid-clear but before anything ever flushes `a`'s line leaves a
 *    torn pair with the backup already disarmed.
 *
 *  - mc_dirty_flag: two counters kept equal under a dirty flag
 *    (dirty=1 persisted, c1 then c2 persisted, dirty=0 persisted).
 *    The buggy recovery clears the dirty flag durably *before*
 *    repairing c2 — the classic flag-before-repair ordering bug; a
 *    crash between the two leaves disagreeing counters that the next
 *    recovery must accept as "clean".
 */

#ifndef PMDB_WORKLOADS_MODELCHECK_WORKLOADS_HH
#define PMDB_WORKLOADS_MODELCHECK_WORKLOADS_HH

#include "modelcheck/model.hh"

namespace pmdb
{

/** hashmap_atomic under model checking (tag-verified chains). */
class HashmapAtomicModel : public ModelWorkload
{
  public:
    const char *name() const override { return "hashmap_atomic"; }
    ModelExecution runInitial(const ModelRunConfig &cfg) override;
    ModelExecution runRecovery(std::vector<std::uint8_t> image,
                               const ModelRunConfig &cfg,
                               ImageBuffers &buffers) override;
};

/** b_tree under model checking (undo-log recovery + structural walk). */
class BTreeModel : public ModelWorkload
{
  public:
    const char *name() const override { return "b_tree"; }
    ModelExecution runInitial(const ModelRunConfig &cfg) override;
    ModelExecution runRecovery(std::vector<std::uint8_t> image,
                               const ModelRunConfig &cfg,
                               ImageBuffers &buffers) override;
};

/** hashmap_tx under model checking (count must match reachability). */
class HashmapTxModel : public ModelWorkload
{
  public:
    const char *name() const override { return "hashmap_tx"; }
    ModelExecution runInitial(const ModelRunConfig &cfg) override;
    ModelExecution runRecovery(std::vector<std::uint8_t> image,
                               const ModelRunConfig &cfg,
                               ImageBuffers &buffers) override;
};

/** Seeded recovery bug: unflushed undo restore (see file header). */
class McUndoFlushModel : public ModelWorkload
{
  public:
    explicit McUndoFlushModel(bool buggy) : buggy_(buggy) {}
    const char *name() const override { return "mc_undo_flush"; }
    ModelExecution runInitial(const ModelRunConfig &cfg) override;
    ModelExecution runRecovery(std::vector<std::uint8_t> image,
                               const ModelRunConfig &cfg,
                               ImageBuffers &buffers) override;

  private:
    bool buggy_;
};

/** Seeded recovery bug: dirty flag cleared before the repair. */
class McDirtyFlagModel : public ModelWorkload
{
  public:
    explicit McDirtyFlagModel(bool buggy) : buggy_(buggy) {}
    const char *name() const override { return "mc_dirty_flag"; }
    ModelExecution runInitial(const ModelRunConfig &cfg) override;
    ModelExecution runRecovery(std::vector<std::uint8_t> image,
                               const ModelRunConfig &cfg,
                               ImageBuffers &buffers) override;

  private:
    bool buggy_;
};

} // namespace pmdb

#endif // PMDB_WORKLOADS_MODELCHECK_WORKLOADS_HH
