/**
 * @file
 * Workload interface for the crash-state model checker.
 *
 * The checker (engine.hh) explores a state space whose nodes are
 * durable pool images and whose edges are *executions*: the initial
 * run from an empty pool, and — for every candidate crash image — a
 * recovery run that reopens the image, repairs it, and continues
 * operating. A ModelWorkload supplies both edge types as fully
 * instrumented executions, each captured by a CrashsimSession so the
 * engine can enumerate where the *next* crash may cut it.
 *
 * Contract for implementations:
 *  - Executions are deterministic functions of (config, input image):
 *    same image in, same event stream out. The pruning soundness
 *    argument (DESIGN.md §11) and the visited-set dedup both stand
 *    on this.
 *  - runRecovery adopts the image before its first write, so the
 *    execution's log baseline is the input image. The engine anchors
 *    a child state's identity on the candidate's hash instead of
 *    re-hashing the baseline; a model that wrote before adopting
 *    would silently alias states (tests/test_modelcheck.cc pins it).
 *    The models in modelcheck_workloads.cc reopen their pool through
 *    Capture::reopen, which adopts it at once.
 *  - runRecovery() must *detect* inconsistent images (return a
 *    non-empty ModelExecution::inconsistency) rather than crash on
 *    them, and must read the image through the pool's instrumented
 *    read path so the execution's read set is complete.
 *  - Recovery repairs and continuation operations must follow the
 *    workload's real persistence discipline — recovery code has crash
 *    windows of its own, and finding the multi-crash bugs in them is
 *    the point of the exercise.
 */

#ifndef PMDB_MODELCHECK_MODEL_HH
#define PMDB_MODELCHECK_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crashsim/crash_points.hh"
#include "trace/read_set.hh"
#include "workloads/workload.hh"

namespace pmdb
{

/** Per-execution configuration for a model-checked workload. */
struct ModelRunConfig
{
    /** Operations the initial execution performs. */
    std::size_t operations = 8;

    /**
     * Operations each recovery execution performs after repairing the
     * image — the continuation that exposes crash points *past* the
     * first failure. Zero checks recovery itself but never deepens
     * the heap.
     */
    std::size_t recoveryOperations = 1;

    /** Key/value stream seed (recoveries derive their own stream). */
    std::uint64_t seed = 42;

    /** Pool size in bytes (0 = workload default). */
    std::size_t poolBytes = 0;

    /** Active fault injections (empty = correct program). */
    FaultSet faults;

    /** Crash-point capture and enumeration bounds. */
    CrashsimOptions sim;
};

/** One instrumented execution observed by the model checker. */
struct ModelExecution
{
    /** Crash points captured while the execution ran. */
    CrashPointLog log;

    /**
     * Non-empty when the execution's recovery logic found the input
     * image inconsistent — the model checker's bug signal.
     */
    std::string inconsistency;

    /** Cache lines the execution read (recovery dependence set). */
    ReadSet reads;
};

/**
 * Spare pool-sized buffers that consecutive recoveries pass along. A
 * recovery holds three pool images at once: its device's durable image
 * (the input image) and volatile image, and its log's baseline. It
 * takes storage for the last two from here and gives the device's two
 * back when it ends; the caller gives the baseline back once done
 * with it. A caller that runs thousands of recoveries then reuses a
 * few buffers instead of allocating images per execution — for pools
 * at glibc's 128 KiB mmap threshold, freed images go back to the
 * kernel and fault in again on the next execution.
 */
class ImageBuffers
{
  public:
    /** A spare buffer (contents unspecified), or an empty one. */
    std::vector<std::uint8_t> take()
    {
        if (spare_.empty())
            return {};
        std::vector<std::uint8_t> buffer = std::move(spare_.back());
        spare_.pop_back();
        return buffer;
    }

    void give(std::vector<std::uint8_t> buffer)
    {
        if (buffer.capacity() != 0)
            spare_.push_back(std::move(buffer));
    }

  private:
    std::vector<std::vector<std::uint8_t>> spare_;
};

/** A workload the model checker can drive through crash-recover cycles. */
class ModelWorkload
{
  public:
    virtual ~ModelWorkload() = default;

    virtual const char *name() const = 0;

    /** Run the initial execution from a fresh pool. */
    virtual ModelExecution runInitial(const ModelRunConfig &cfg) = 0;

    /**
     * Reopen @p image as a crashed pool, run recovery (verdict +
     * repair) and, if the image was consistent, the continuation
     * operations. The pool's images and the log's baseline use
     * storage from @p buffers, and the pool's go back there.
     */
    virtual ModelExecution runRecovery(std::vector<std::uint8_t> image,
                                       const ModelRunConfig &cfg,
                                       ImageBuffers &buffers) = 0;
};

/** Names of all model-checkable workloads. */
std::vector<std::string> modelWorkloadNames();

/**
 * Build a model workload by name; nullptr for unknown names.
 * @p buggy selects the seeded-bug variant of the modelcheck-only
 * workloads (mc_*); the evaluation workloads take faults via
 * ModelRunConfig instead and ignore it.
 */
std::unique_ptr<ModelWorkload>
makeModelWorkload(const std::string &name, bool buggy = false);

/** A seeded multi-crash recovery bug (reachable only ≥2 crashes deep). */
struct ModelCheckCase
{
    std::string name;
    /** What the bug is and why depth-1 checking cannot see it. */
    std::string description;
    /** Search depth at which the buggy variant must be caught. */
    std::size_t depth = 2;
};

/**
 * The modelcheck-only seeded bugs: recovery-path persistence bugs
 * whose trigger state exists only after a first crash, so single-crash
 * exploration (crashsim) is structurally unable to reach them.
 */
const std::vector<ModelCheckCase> &modelcheckOnlyCases();

} // namespace pmdb

#endif // PMDB_MODELCHECK_MODEL_HH
