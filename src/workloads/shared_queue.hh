/**
 * @file
 * shared_queue: two-writer producer/consumer over a SharedPmemPool.
 *
 * The crossproc workload family. One pool file is mapped by two writer
 * processes (or two runtimes in-process for the identity tests):
 * writer 1 *produces* fixed-size entries and publishes them through a
 * persistent tail cursor; writer 2 *consumes* them and advances a
 * persistent head cursor. Layout (offsets into the pool's data
 * region, one cache line each):
 *
 *   head    @ 0     consumer's persistent cursor
 *   tail    @ 64    producer's publication cursor
 *   entry i @ 128 + i*64
 *
 * The two roles run in lock-step via the pool's uninstrumented
 * coordination word 0 (a turn counter), so the interleaving of the
 * two event streams — and therefore every report derived from the
 * merged stream — is identical from run to run and across daemon
 * worker counts.
 *
 * Fault-injection points (each seeds exactly one cross-session rule,
 * and each is deliberately *invisible* to a per-session detector: the
 * producer repairs its own flush/fence discipline before its stream
 * ends, so only the merged two-writer view exposes the bug):
 *
 *  - "sq_skip_entry_persist":   the producer publishes the tail
 *    without having flushed the entry; the consumer reads the dirty
 *    entry (unflushed-cross-writer-read). The producer persists the
 *    entries at end-of-run, so its own session sees every store
 *    eventually durable.
 *  - "sq_publish_pending_entry": the producer flushes the entry only
 *    *after* the fence that persisted the tail, so the consumer reads
 *    a pending (flushed, unfenced) entry and then persists its head —
 *    durability order inverts (publish-before-persist). A single
 *    end-of-run fence makes the producer's own stream clean.
 *  - "sq_epoch_overlap":        the consumer stores a claim word into
 *    the entry line while the producer's epoch covering that line is
 *    still open (cross-writer-epoch-overlap). Both epochs are
 *    balanced and all stores persist, so each session alone is quiet.
 */

#ifndef PMDB_WORKLOADS_SHARED_QUEUE_HH
#define PMDB_WORKLOADS_SHARED_QUEUE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace pmdb
{

/** The shared_queue crossproc workload. */
class SharedQueueWorkload : public Workload
{
  public:
    /** Writer ids of the two roles. */
    static constexpr std::uint32_t producerWriter = 1;
    static constexpr std::uint32_t consumerWriter = 2;

    /** Pool data bytes needed for @p operations entries. */
    static std::size_t poolBytesFor(std::size_t operations);

    const char *name() const override { return "shared_queue"; }

    PersistencyModel model() const override
    {
        return PersistencyModel::Epoch;
    }

    /**
     * Runs the role selected by options.sharedWriter (1 = producer,
     * 2 = consumer) against the pool at options.sharedPoolPath, which
     * must already exist (the driver creates it). Both roles must run
     * concurrently — each blocks on the shared turn counter.
     */
    void run(PmRuntime &runtime, const WorkloadOptions &options) override;
};

/**
 * A seeded two-writer bug case: enabling @p faults on *both* writers
 * of a shared_queue run makes the cross-session engine report
 * bugs whose CrossBug rule name is @p rule — while the same two
 * event streams, checked as independent per-session runs, stay
 * silent.
 */
struct CrossprocCase
{
    std::string name;
    /** Fault to enable (on both writers). */
    std::string fault;
    /** Expected CrossBugType name (toString(CrossBugType)). */
    std::string rule;
};

/** The seeded shared_queue bug variants. */
const std::vector<CrossprocCase> &crossprocCases();

} // namespace pmdb

#endif // PMDB_WORKLOADS_SHARED_QUEUE_HH
