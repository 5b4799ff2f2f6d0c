#include "workloads/modelcheck_workloads.hh"

#include <optional>

#include "common/rng.hh"
#include "crashsim/capture.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "workloads/btree.hh"
#include "workloads/hashmap_atomic.hh"
#include "workloads/hashmap_tx.hh"

namespace pmdb
{

namespace
{

/** Continuation key streams must differ from the initial stream. */
constexpr std::uint64_t recoverySeedSalt = 0x7265636f76657279ULL;

/**
 * Per-execution capture scaffold: one runtime, one crash-point
 * session, the execution's read set and, for a recovery, its
 * reopened pool.
 */
struct Capture
{
    PmRuntime runtime;
    CrashsimSession session;
    ReadSet reads;
    /** Storage for a recovery's images (ModelWorkload::runRecovery). */
    ImageBuffers *buffers = nullptr;
    /** A recovery's pool; declared last, so destroyed first. */
    std::optional<PmemPool> pool;

    explicit Capture(const ModelRunConfig &cfg) : session(cfg.sim)
    {
        runtime.setReadTracker(&reads);
    }

    Capture(const ModelRunConfig &cfg, ImageBuffers &spare)
        : session(cfg.sim, spare.take()), buffers(&spare)
    {
        runtime.setReadTracker(&reads);
    }

    /**
     * Reopen @p image as the recovery's pool and adopt it before
     * anything writes to it, so the log's baseline is the input image
     * (the runRecovery contract, model.hh).
     */
    PmemPool &
    reopen(std::vector<std::uint8_t> image, const std::string &name)
    {
        pool.emplace(runtime, std::move(image), name, true,
                     buffers->take());
        session.adopt(pool->device());
        return *pool;
    }

    /** Close the execution and package everything the engine needs. */
    ModelExecution
    finish(std::string verdict)
    {
        runtime.programEnd();
        runtime.drain();

        ModelExecution exec;
        exec.inconsistency = std::move(verdict);
        exec.log = session.takeLog();
        exec.reads = std::move(reads);
        runtime.setReadTracker(nullptr);
        if (pool) {
            auto [durable, volatile_image] = pool->device().releaseImages();
            buffers->give(std::move(durable));
            buffers->give(std::move(volatile_image));
        }
        return exec;
    }
};

std::size_t
poolBytesOr(const ModelRunConfig &cfg, std::size_t fallback)
{
    return cfg.poolBytes != 0 ? cfg.poolBytes : fallback;
}

/** Small tables keep recovery walks (and the state space) tractable. */
constexpr std::uint64_t mcBuckets = 16;
constexpr std::size_t mcPoolBytes = std::size_t(1) << 17;

/* --------------------------------------------------------------- */
/* hashmap_atomic                                                  */
/* --------------------------------------------------------------- */

/**
 * One audit cache line after the hashmap meta. Every operation stamps
 * it (store + CLF; the insert's own fences drain it), and recovery
 * never reads it — so crash states that differ only in the stamp are
 * exactly the classes read-set pruning collapses (DESIGN.md §11).
 * It lives on its own line because a line is the read-set grain: were
 * the stamp to share the meta's line, the meta read would pin it.
 */
constexpr std::size_t
hashmapAuditOffset()
{
    return (sizeof(PersistentHashmapAtomic::Meta) +
            cacheLineSize - 1) &
           ~(cacheLineSize - 1);
}

Addr
hashmapAtomicRoot(PmemPool &pool)
{
    return pool.root(hashmapAuditOffset() + cacheLineSize);
}

void
stampAudit(PmemPool &pool, Addr root, std::uint64_t stamp)
{
    pool.store<std::uint64_t>(root + hashmapAuditOffset(), stamp);
    pool.flush(root + hashmapAuditOffset(), 8);
}

} // namespace

ModelExecution
HashmapAtomicModel::runInitial(const ModelRunConfig &cfg)
{
    Capture cap(cfg);
    PmemPool pool(cap.runtime, poolBytesOr(cfg, mcPoolBytes),
                  "hashmap_atomic.pool");
    const Addr root = hashmapAtomicRoot(pool);
    PersistentHashmapAtomic map(pool, cfg.faults, nullptr, mcBuckets);
    // Creation is durable before adoption (as in the crashsim
    // workload); the explored space starts at the first insert.
    cap.session.adopt(pool.device());

    Rng rng(cfg.seed);
    for (std::size_t i = 0; i < cfg.operations; ++i) {
        cap.runtime.appOp();
        stampAudit(pool, root, i + 1);
        const std::uint64_t key = rng.nextBounded(1024);
        map.insert(key, hashmapAtomicTaggedValue(key));
    }
    return cap.finish("");
}

ModelExecution
HashmapAtomicModel::runRecovery(std::vector<std::uint8_t> image,
                                const ModelRunConfig &cfg,
                                ImageBuffers &buffers)
{
    Capture cap(cfg, buffers);
    PmemPool &pool = cap.reopen(std::move(image), "hashmap_atomic.pool");

    const Addr root = hashmapAtomicRoot(pool);
    // The creation transaction committed before capture began, so the
    // log is normally empty — but rolling it back through the
    // instrumented path is what a real reopen does, and it reads the
    // log header into the read set.
    TxRecovery::recoverPool(pool);
    // The map's meta sits at the root.
    std::string verdict = hashmapAtomicRecoveryVerdict(pool, root);
    if (verdict.empty() && cfg.recoveryOperations > 0) {
        pool.recoverHeap();
        PersistentHashmapAtomic map(pool, cfg.faults, nullptr, mcBuckets);
        Rng rng(mix64(cfg.seed ^ recoverySeedSalt));
        for (std::size_t i = 0; i < cfg.recoveryOperations; ++i) {
            cap.runtime.appOp();
            stampAudit(pool, root, 1000000 + i);
            const std::uint64_t key = rng.nextBounded(1024);
            map.insert(key, hashmapAtomicTaggedValue(key));
        }
    }
    return cap.finish(std::move(verdict));
}

/* --------------------------------------------------------------- */
/* b_tree                                                          */
/* --------------------------------------------------------------- */

ModelExecution
BTreeModel::runInitial(const ModelRunConfig &cfg)
{
    Capture cap(cfg);
    PmemPool pool(cap.runtime, poolBytesOr(cfg, std::size_t(1) << 18),
                  "b_tree.pool");
    PersistentBTree tree(pool, cfg.faults);
    cap.session.adopt(pool.device());

    Rng rng(cfg.seed);
    for (std::size_t i = 0; i < cfg.operations; ++i) {
        cap.runtime.appOp();
        tree.insert(rng.next(), i);
    }
    return cap.finish("");
}

ModelExecution
BTreeModel::runRecovery(std::vector<std::uint8_t> image,
                        const ModelRunConfig &cfg,
                        ImageBuffers &buffers)
{
    Capture cap(cfg, buffers);
    PmemPool &pool = cap.reopen(std::move(image), "b_tree.pool");

    const Addr meta = pool.root(sizeof(PersistentBTree::Meta));
    TxRecovery::recoverPool(pool);
    std::string verdict = btreeRecoveryVerdict(pool, meta);
    if (verdict.empty() && cfg.recoveryOperations > 0) {
        pool.recoverHeap();
        PersistentBTree tree(pool, cfg.faults);
        Rng rng(mix64(cfg.seed ^ recoverySeedSalt));
        for (std::size_t i = 0; i < cfg.recoveryOperations; ++i) {
            cap.runtime.appOp();
            tree.insert(rng.next(), 1000000 + i);
        }
    }
    return cap.finish(std::move(verdict));
}

/* --------------------------------------------------------------- */
/* hashmap_tx                                                      */
/* --------------------------------------------------------------- */

namespace
{

/**
 * The transactional map keeps count and publish in one transaction,
 * so after undo-log recovery reachability must match the durable
 * count exactly. (With epochAtomic coalescing there are no partial
 * landings inside the transactions, so this workload exercises the
 * dedup and frontier machinery rather than read-set pruning; the
 * pruning showcase is hashmap_atomic's audit line.)
 */
std::string
verifyHashmapTx(PmemPool &pool)
{
    using Meta = PersistentHashmapTx::Meta;
    using Entry = PersistentHashmapTx::Entry;
    const Addr meta_addr = pool.root(sizeof(Meta));
    const Meta meta = pool.load<Meta>(meta_addr);
    const std::size_t size = pool.device().size();
    if (meta.buckets == 0 || meta.nBuckets == 0 ||
        meta.buckets + meta.nBuckets * sizeof(Addr) > size)
        return "hashmap_tx recovery: bucket table corrupt";

    std::uint64_t reachable = 0;
    std::uint64_t steps = 0;
    for (std::uint64_t b = 0; b < meta.nBuckets; ++b) {
        Addr cursor = pool.load<Addr>(meta.buckets + b * sizeof(Addr));
        while (cursor != 0) {
            if (cursor % 8 != 0 || cursor + sizeof(Entry) > size)
                return "hashmap_tx recovery: bucket chain dangles out "
                       "of bounds";
            if (++steps > (1u << 20))
                return "hashmap_tx recovery: chain walk diverges "
                       "(cycle?)";
            const Entry entry = pool.load<Entry>(cursor);
            ++reachable;
            cursor = entry.next;
        }
    }
    if (reachable != meta.count) {
        return "hashmap_tx recovery: reachable entries (" +
               std::to_string(reachable) +
               ") disagree with durable count (" +
               std::to_string(meta.count) + ")";
    }
    return "";
}

} // namespace

ModelExecution
HashmapTxModel::runInitial(const ModelRunConfig &cfg)
{
    Capture cap(cfg);
    PmemPool pool(cap.runtime, poolBytesOr(cfg, mcPoolBytes),
                  "hashmap_tx.pool");
    PersistentHashmapTx map(pool, cfg.faults, nullptr, mcBuckets);
    cap.session.adopt(pool.device());

    Rng rng(cfg.seed);
    for (std::size_t i = 0; i < cfg.operations; ++i) {
        cap.runtime.appOp();
        map.insert(rng.nextBounded(1024), i);
    }
    return cap.finish("");
}

ModelExecution
HashmapTxModel::runRecovery(std::vector<std::uint8_t> image,
                            const ModelRunConfig &cfg,
                            ImageBuffers &buffers)
{
    Capture cap(cfg, buffers);
    PmemPool &pool = cap.reopen(std::move(image), "hashmap_tx.pool");

    pool.root(sizeof(PersistentHashmapTx::Meta));
    TxRecovery::recoverPool(pool);
    std::string verdict = verifyHashmapTx(pool);
    if (verdict.empty() && cfg.recoveryOperations > 0) {
        pool.recoverHeap();
        PersistentHashmapTx map(pool, cfg.faults, nullptr, mcBuckets);
        Rng rng(mix64(cfg.seed ^ recoverySeedSalt));
        for (std::size_t i = 0; i < cfg.recoveryOperations; ++i) {
            cap.runtime.appOp();
            map.insert(rng.nextBounded(1024), 1000000 + i);
        }
    }
    return cap.finish(std::move(verdict));
}

/* --------------------------------------------------------------- */
/* mc_undo_flush                                                   */
/* --------------------------------------------------------------- */

namespace
{

/**
 * mc_undo_flush root object (3 cache lines of a 192-byte root):
 *   +0    u64 a        (line 0)
 *   +64   u64 b        (line 1)
 *   +128  u64 backup   (line 2)
 *   +136  u64 valid    (line 2 — lands atomically with backup)
 */
constexpr Addr mcA = 0;
constexpr Addr mcB = 64;
constexpr Addr mcBackup = 128;
constexpr Addr mcValid = 136;
constexpr std::size_t mcRootSize = 192;

Addr
mcUndoRoot(PmemPool &pool)
{
    return pool.root(mcRootSize);
}

/**
 * The (correct) pair update: arm the one-slot undo backup, write both
 * fields under one fence, disarm. a == b is the durable invariant
 * whenever valid == 0.
 */
void
mcUndoPairOp(PmemPool &pool, Addr root, std::uint64_t value)
{
    const std::uint64_t a = pool.load<std::uint64_t>(root + mcA);
    pool.store<std::uint64_t>(root + mcBackup, a);
    pool.store<std::uint64_t>(root + mcValid, 1);
    pool.persist(root + mcBackup, 16);

    pool.store<std::uint64_t>(root + mcA, value);
    pool.flush(root + mcA, 8);
    pool.store<std::uint64_t>(root + mcB, value);
    pool.flush(root + mcB, 8);
    pool.fence(); // both lines pend here: {a}, {b} partial landings

    pool.store<std::uint64_t>(root + mcValid, 0);
    pool.persist(root + mcValid, 8);
}

} // namespace

ModelExecution
McUndoFlushModel::runInitial(const ModelRunConfig &cfg)
{
    Capture cap(cfg);
    PmemPool pool(cap.runtime, poolBytesOr(cfg, mcPoolBytes),
                  "mc_undo_flush.pool");
    const Addr root = mcUndoRoot(pool);
    pool.registerVariable("mc_undo_flush.pair", root + mcA, 128);
    pool.registerVariable("mc_undo_flush.backup", root + mcBackup, 16);
    cap.session.adopt(pool.device());

    Rng rng(cfg.seed);
    for (std::size_t i = 0; i < cfg.operations; ++i) {
        cap.runtime.appOp();
        mcUndoPairOp(pool, root, rng.next() | 1);
    }
    return cap.finish("");
}

ModelExecution
McUndoFlushModel::runRecovery(std::vector<std::uint8_t> image,
                              const ModelRunConfig &cfg,
                              ImageBuffers &buffers)
{
    Capture cap(cfg, buffers);
    PmemPool &pool = cap.reopen(std::move(image), "mc_undo_flush.pool");
    const Addr root = mcUndoRoot(pool);

    const std::uint64_t a = pool.load<std::uint64_t>(root + mcA);
    const std::uint64_t b = pool.load<std::uint64_t>(root + mcB);
    const std::uint64_t valid = pool.load<std::uint64_t>(root + mcValid);

    std::string verdict;
    if (valid == 0) {
        if (a != b)
            verdict = "mc_undo_flush recovery: torn pair with the "
                      "undo backup disarmed";
    } else {
        const std::uint64_t backup =
            pool.load<std::uint64_t>(root + mcBackup);
        if (buggy_) {
            // THE SEEDED BUG: `a` is restored with a plain store and
            // never flushed, yet the backup is durably disarmed. A
            // second crash after the valid-clear fence — before any
            // later operation happens to flush a's line — strands the
            // torn pair with no undo left to fix it.
            pool.store<std::uint64_t>(root + mcA, backup);
            pool.store<std::uint64_t>(root + mcB, backup);
            pool.persist(root + mcB, 8);
            pool.store<std::uint64_t>(root + mcValid, 0);
            pool.persist(root + mcValid, 8);
        } else {
            pool.store<std::uint64_t>(root + mcA, backup);
            pool.store<std::uint64_t>(root + mcB, backup);
            pool.flush(root + mcA, 8);
            pool.flush(root + mcB, 8);
            pool.fence();
            pool.store<std::uint64_t>(root + mcValid, 0);
            pool.persist(root + mcValid, 8);
        }
    }

    if (verdict.empty()) {
        Rng rng(mix64(cfg.seed ^ recoverySeedSalt));
        for (std::size_t i = 0; i < cfg.recoveryOperations; ++i) {
            cap.runtime.appOp();
            mcUndoPairOp(pool, root, rng.next() | 1);
        }
    }
    return cap.finish(std::move(verdict));
}

/* --------------------------------------------------------------- */
/* mc_dirty_flag                                                   */
/* --------------------------------------------------------------- */

namespace
{

/**
 * mc_dirty_flag root object:
 *   +0    u64 c1      (line 0)
 *   +64   u64 c2      (line 1)
 *   +128  u64 dirty   (line 2)
 */
constexpr Addr mcC1 = 0;
constexpr Addr mcC2 = 64;
constexpr Addr mcDirty = 128;

/** Correct twin-counter update: c1 == c2 whenever dirty == 0. */
void
mcDirtyOp(PmemPool &pool, Addr root, std::uint64_t value)
{
    pool.store<std::uint64_t>(root + mcDirty, 1);
    pool.persist(root + mcDirty, 8);
    pool.store<std::uint64_t>(root + mcC1, value);
    pool.persist(root + mcC1, 8);
    pool.store<std::uint64_t>(root + mcC2, value);
    pool.persist(root + mcC2, 8);
    pool.store<std::uint64_t>(root + mcDirty, 0);
    pool.persist(root + mcDirty, 8);
}

} // namespace

ModelExecution
McDirtyFlagModel::runInitial(const ModelRunConfig &cfg)
{
    Capture cap(cfg);
    PmemPool pool(cap.runtime, poolBytesOr(cfg, mcPoolBytes),
                  "mc_dirty_flag.pool");
    const Addr root = pool.root(mcRootSize);
    pool.registerVariable("mc_dirty_flag.counters", root + mcC1, 128);
    pool.registerVariable("mc_dirty_flag.dirty", root + mcDirty, 8);
    cap.session.adopt(pool.device());

    Rng rng(cfg.seed);
    for (std::size_t i = 0; i < cfg.operations; ++i) {
        cap.runtime.appOp();
        mcDirtyOp(pool, root, rng.next() | 1);
    }
    return cap.finish("");
}

ModelExecution
McDirtyFlagModel::runRecovery(std::vector<std::uint8_t> image,
                              const ModelRunConfig &cfg,
                              ImageBuffers &buffers)
{
    Capture cap(cfg, buffers);
    PmemPool &pool = cap.reopen(std::move(image), "mc_dirty_flag.pool");
    const Addr root = pool.root(mcRootSize);

    const std::uint64_t c1 = pool.load<std::uint64_t>(root + mcC1);
    const std::uint64_t c2 = pool.load<std::uint64_t>(root + mcC2);
    const std::uint64_t dirty = pool.load<std::uint64_t>(root + mcDirty);

    std::string verdict;
    if (dirty == 0) {
        if (c1 != c2)
            verdict = "mc_dirty_flag recovery: counters disagree "
                      "under a clear dirty flag";
    } else if (buggy_) {
        // THE SEEDED BUG: the dirty flag is durably cleared *before*
        // the repair persists — a crash between the two fences leaves
        // disagreeing counters that the next recovery must trust.
        pool.store<std::uint64_t>(root + mcDirty, 0);
        pool.persist(root + mcDirty, 8);
        pool.store<std::uint64_t>(root + mcC2, c1);
        pool.persist(root + mcC2, 8);
    } else {
        pool.store<std::uint64_t>(root + mcC2, c1);
        pool.persist(root + mcC2, 8);
        pool.store<std::uint64_t>(root + mcDirty, 0);
        pool.persist(root + mcDirty, 8);
    }

    if (verdict.empty()) {
        Rng rng(mix64(cfg.seed ^ recoverySeedSalt));
        for (std::size_t i = 0; i < cfg.recoveryOperations; ++i) {
            cap.runtime.appOp();
            mcDirtyOp(pool, root, rng.next() | 1);
        }
    }
    return cap.finish(std::move(verdict));
}

/* --------------------------------------------------------------- */
/* registry                                                        */
/* --------------------------------------------------------------- */

std::vector<std::string>
modelWorkloadNames()
{
    return {"b_tree", "hashmap_atomic", "hashmap_tx", "mc_undo_flush",
            "mc_dirty_flag"};
}

std::unique_ptr<ModelWorkload>
makeModelWorkload(const std::string &name, bool buggy)
{
    if (name == "b_tree")
        return std::make_unique<BTreeModel>();
    if (name == "hashmap_atomic")
        return std::make_unique<HashmapAtomicModel>();
    if (name == "hashmap_tx")
        return std::make_unique<HashmapTxModel>();
    if (name == "mc_undo_flush")
        return std::make_unique<McUndoFlushModel>(buggy);
    if (name == "mc_dirty_flag")
        return std::make_unique<McDirtyFlagModel>(buggy);
    return nullptr;
}

const std::vector<ModelCheckCase> &
modelcheckOnlyCases()
{
    static const std::vector<ModelCheckCase> cases = {
        {"mc_undo_flush",
         "recovery restores a field from the undo backup without a CLF "
         "but durably disarms the backup; only crash -> buggy recovery "
         "-> crash strands the torn pair",
         2},
        {"mc_dirty_flag",
         "recovery durably clears the dirty flag before persisting the "
         "counter repair; the bad ordering is only observable by "
         "crashing recovery between its two fences",
         2},
    };
    return cases;
}

} // namespace pmdb
