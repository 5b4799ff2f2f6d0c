/**
 * @file
 * Workload interface and registry.
 *
 * The evaluation workloads of Table 4, reimplemented on the mini-PMDK /
 * instrumentation substrate: six PMDK example programs (b_tree, c_tree,
 * r_tree, rb_tree, hashmap_tx, hashmap_atomic), the synthetic strand
 * benchmark, and two real-workload models (memcached, redis). Each
 * workload issues every persistent-memory operation through the
 * PmRuntime instrumentation layer, so attached detectors observe the
 * complete store/CLF/fence stream.
 */

#ifndef PMDB_WORKLOADS_WORKLOAD_HH
#define PMDB_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/config.hh"
#include "detectors/pmtest.hh"
#include "trace/runtime.hh"

namespace pmdb
{

class CrashsimSession;

/**
 * Named fault-injection switches. Workloads expose injection points
 * (e.g. "skip_value_flush"); the bug suite enables them to reproduce
 * specific bug cases. An empty set runs the correct program.
 */
class FaultSet
{
  public:
    FaultSet() = default;

    FaultSet(std::initializer_list<std::string> faults)
        : faults_(faults)
    {
    }

    void enable(const std::string &fault) { faults_.insert(fault); }

    bool active(const std::string &fault) const
    {
        return faults_.count(fault) != 0;
    }

    bool empty() const { return faults_.empty(); }

  private:
    std::set<std::string> faults_;
};

/** Options shared by all workloads. */
struct WorkloadOptions
{
    /** Number of operations (insertions / requests) to perform. */
    std::size_t operations = 1000;

    /** Deterministic seed for keys/values. */
    std::uint64_t seed = 42;

    /** Active fault injections (empty = correct program). */
    FaultSet faults;

    /**
     * PMTest annotation hooks: when non-null, workloads bracket their
     * operations with PMTest_START/END and issue the checkers the
     * PMTest developers added to these benchmarks (Section 7.3).
     */
    PmTestDetector *pmtest = nullptr;

    /** Pool size in bytes (0 = workload picks a default). */
    std::size_t poolBytes = 0;

    /** memcached: number of driver threads (Figure 10). */
    int threads = 1;

    /** memcached: fraction of set operations (memslap default 5%). */
    double setRatio = 0.05;

    /** memcached/redis: item capacity before eviction (0 = default). */
    std::size_t cacheCapacity = 0;

    /**
     * Give the pool's device a durable image and attach its
     * persistence-domain tracking. Detection runs and performance
     * benchmarks disable it (real PM hardware does this for free, and
     * the device then holds one pool-sized image instead of two);
     * correctness and crash tests keep it on. Crash capture
     * (runCrashsimWorkload) always turns it on.
     */
    bool trackPersistence = true;

    /**
     * When non-null, the workload adopts this crash-state exploration
     * session onto its pool's device (with a workload-specific recovery
     * verifier) before issuing operations. Supported by the workloads
     * that ship a self-contained recovery verifier (b_tree,
     * hashmap_atomic); others ignore it.
     */
    CrashsimSession *crashsim = nullptr;

    /**
     * Multi-writer shared pool file (crossproc workload family). When
     * set, the workload maps this SharedPmemPool instead of creating a
     * private PmemPool, and runs the role selected by sharedWriter.
     * Only shared-pool workloads (shared_queue) honor these.
     */
    std::string sharedPoolPath;
    /** Role in the shared pool: 1 = producer, 2 = consumer. */
    std::uint32_t sharedWriter = 0;
};

/** A runnable evaluation workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** The persistency model the workload follows (Table 4). */
    virtual PersistencyModel model() const = 0;

    /** Run the workload against @p runtime. */
    virtual void run(PmRuntime &runtime,
                     const WorkloadOptions &options) = 0;

    /**
     * Order-spec text this workload ships for its watched variables
     * (empty if none). Passed to detectors that take ordering config.
     */
    virtual std::string orderSpecText() const { return {}; }
};

/** Names of all registered workloads. */
std::vector<std::string> workloadNames();

/** Build a workload by name; nullptr for unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** The seven micro-benchmarks of Table 4 (Fig 8 a-g order). */
std::vector<std::string> microBenchmarkNames();

} // namespace pmdb

#endif // PMDB_WORKLOADS_WORKLOAD_HH
