#include "workloads/hashmap_atomic.hh"

#include "common/rng.hh"
#include "crashsim/capture.hh"
#include "workloads/recovery_memory.hh"

namespace pmdb
{

std::uint64_t
hashmapAtomicTaggedValue(std::uint64_t key)
{
    // |1 keeps the tag nonzero even in the (astronomically unlikely)
    // case mix64 returns 0 — a zeroed, never-persisted entry must
    // always fail the tag check.
    return mix64(key ^ 0x686d61746f6d6963ULL) | 1;
}

namespace
{

template <typename Memory>
std::string
verifyHashmapAtomic(const Memory &memory, Addr meta_addr)
{
    using Meta = PersistentHashmapAtomic::Meta;
    using Entry = PersistentHashmapAtomic::Entry;
    const std::size_t size = memory.size();
    if (meta_addr + sizeof(Meta) > size)
        return "hashmap_atomic recovery: metadata out of bounds";
    const Meta meta = memory.template load<Meta>(meta_addr);
    if (meta.buckets == 0 || meta.nBuckets == 0 ||
        meta.buckets + meta.nBuckets * sizeof(Addr) > size)
        return "hashmap_atomic recovery: bucket table corrupt";

    std::uint64_t steps = 0;
    for (std::uint64_t b = 0; b < meta.nBuckets; ++b) {
        Addr cursor =
            memory.template load<Addr>(meta.buckets + b * sizeof(Addr));
        while (cursor != 0) {
            if (cursor % 8 != 0 || cursor + sizeof(Entry) > size)
                return "hashmap_atomic recovery: bucket head dangles "
                       "out of bounds";
            if (++steps > (1u << 22))
                return "hashmap_atomic recovery: chain walk diverges "
                       "(cycle?)";
            const Entry entry = memory.template load<Entry>(cursor);
            if (entry.value != hashmapAtomicTaggedValue(entry.key)) {
                return "hashmap_atomic recovery: reachable entry for "
                       "key " +
                       std::to_string(entry.key) +
                       " is torn or never persisted";
            }
            cursor = entry.next;
        }
    }
    return "";
}

} // namespace

RecoveryVerifier
hashmapAtomicRecoveryVerifier(Addr meta_addr)
{
    return [meta_addr](const std::vector<std::uint8_t> &image) {
        return verifyHashmapAtomic(ImageMemory{image}, meta_addr);
    };
}

std::string
hashmapAtomicRecoveryVerdict(const PmemPool &pool, Addr meta_addr)
{
    return verifyHashmapAtomic(PoolMemory{pool}, meta_addr);
}

PersistentHashmapAtomic::PersistentHashmapAtomic(PmemPool &pool,
                                                 const FaultSet &faults,
                                                 PmTestDetector *pmtest,
                                                 std::uint64_t n_buckets)
    : pool_(pool), faults_(faults), pmtest_(pmtest), nBuckets_(n_buckets)
{
    meta_ = pool_.root(sizeof(Meta));
    pool_.registerVariable("hashmap_atomic.meta", meta_, sizeof(Meta));

    Meta meta = pool_.load<Meta>(meta_);
    if (meta.buckets == 0) {
        SiteScope site(pool_.runtime(), "hashmap_atomic.cc:create");
        const Addr buckets = pool_.alloc(nBuckets_ * sizeof(Addr));

        // The data_store.c pattern: creation runs inside a transaction.
        Transaction tx(pool_);
        tx.begin();
        tx.addRange(meta_, sizeof(Meta));
        meta.buckets = buckets;
        meta.nBuckets = nBuckets_;
        meta.count = 0;
        pool_.store(meta_, meta);
        if (faults_.active("pmdk_create_bug")) {
            // Figure 9b: create_hashmap calls pmemobj_persist inside
            // the epoch — the redundant fence confirmed by Intel.
            pool_.persist(meta_, sizeof(Meta));
        }
        tx.commit();
    } else {
        nBuckets_ = meta.nBuckets;
    }
}

void
PersistentHashmapAtomic::insert(std::uint64_t key, std::uint64_t value)
{
    if (pmtest_)
        pmtest_->pmTestStart();

    const Meta meta = pool_.load<Meta>(meta_);
    const std::uint64_t bucket = mix64(key) % nBuckets_;
    const Addr slot = meta.buckets + bucket * sizeof(Addr);

    // Update in place if the key exists (strict store + persist).
    Addr cursor = pool_.load<Addr>(slot);
    while (cursor) {
        Entry entry = pool_.load<Entry>(cursor);
        if (entry.key == key) {
            SiteScope site(pool_.runtime(),
                           "hashmap_atomic.cc:insert.update_value");
            const Addr value_addr = cursor + offsetof(Entry, value);
            pool_.store<std::uint64_t>(value_addr, value);
            pool_.persist(value_addr, sizeof(std::uint64_t));
            if (pmtest_) {
                pmtest_->isPersist(value_addr, sizeof(std::uint64_t));
                pmtest_->pmTestEnd();
            }
            return;
        }
        cursor = entry.next;
    }

    // Allocate and fill the new entry. All three field stores land in
    // the entry's single cache line, so one CLWB writes them back
    // collectively.
    const Addr fresh = pool_.alloc(sizeof(Entry));
    pool_.registerVariable("hashmap_atomic.pending_entry", fresh,
                           sizeof(Entry));
    pool_.registerVariable("hashmap_atomic.pending_bucket", slot,
                           sizeof(Addr));

    PmRuntime &runtime = pool_.runtime();
    {
        SiteScope site(runtime, "hashmap_atomic.cc:insert.fill_entry");
        pool_.store<std::uint64_t>(fresh + offsetof(Entry, key), key);
        pool_.store<std::uint64_t>(fresh + offsetof(Entry, value),
                                   value);
        pool_.store<Addr>(fresh + offsetof(Entry, next),
                          pool_.load<Addr>(slot));
    }

    if (faults_.active("hmatomic_bucket_before_entry")) {
        // Order bug: publish the bucket head first, then persist the
        // entry — a crash between the two leaves a dangling head.
        SiteScope site(runtime,
                       "hashmap_atomic.cc:insert.publish_entry");
        pool_.store<Addr>(slot, fresh);
        pool_.persist(slot, sizeof(Addr));
        pool_.persist(fresh, sizeof(Entry));
    } else if (faults_.active("hmatomic_skip_entry_flush")) {
        // Durability bug: the entry itself is never flushed.
        SiteScope site(runtime,
                       "hashmap_atomic.cc:insert.publish_entry");
        pool_.fence();
        pool_.store<Addr>(slot, fresh);
        pool_.persist(slot, sizeof(Addr));
    } else if (faults_.active("hmatomic_double_flush")) {
        // Performance bug: the entry line is flushed twice before its
        // fence (redundant flush).
        {
            SiteScope persist_site(
                runtime, "hashmap_atomic.cc:insert.persist_entry");
            pool_.flush(fresh, sizeof(Entry));
            pool_.flush(fresh, sizeof(Entry));
            pool_.fence();
        }
        SiteScope site(runtime,
                       "hashmap_atomic.cc:insert.publish_entry");
        pool_.store<Addr>(slot, fresh);
        pool_.persist(slot, sizeof(Addr));
    } else {
        {
            SiteScope persist_site(
                runtime, "hashmap_atomic.cc:insert.persist_entry");
            pool_.persist(fresh, sizeof(Entry));
        }
        SiteScope site(runtime,
                       "hashmap_atomic.cc:insert.publish_entry");
        pool_.store<Addr>(slot, fresh);
        pool_.persist(slot, sizeof(Addr));
    }

    if (faults_.active("hmatomic_flush_empty")) {
        // Performance bug: a CLF on a line no store ever touched
        // (scratch[5] sits in the root object's second cache line,
        // which holds nothing else).
        SiteScope site(runtime,
                       "hashmap_atomic.cc:insert.audit_scratch");
        pool_.flush(meta_ + offsetof(Meta, scratch) +
                        5 * sizeof(std::uint64_t),
                    sizeof(std::uint64_t));
        pool_.fence();
    }

    // Persist the element count (strict update).
    SiteScope count_site(runtime, "hashmap_atomic.cc:insert.bump_count");
    const Addr count_addr = meta_ + offsetof(Meta, count);
    pool_.store<std::uint64_t>(count_addr,
                               pool_.load<std::uint64_t>(count_addr) + 1);
    pool_.persist(count_addr, sizeof(std::uint64_t));

    if (pmtest_) {
        pmtest_->isPersist(fresh, sizeof(Entry));
        pmtest_->isOrderedBefore(fresh, sizeof(Entry), slot, sizeof(Addr));
        pmtest_->pmTestEnd();
    }
}

bool
PersistentHashmapAtomic::remove(std::uint64_t key)
{
    const Meta meta = pool_.load<Meta>(meta_);
    const std::uint64_t bucket = mix64(key) % nBuckets_;
    const Addr slot = meta.buckets + bucket * sizeof(Addr);

    Addr prev = 0;
    Addr cursor = pool_.load<Addr>(slot);
    while (cursor) {
        const Entry entry = pool_.load<Entry>(cursor);
        if (entry.key == key) {
            // Atomically redirect the predecessor pointer, persist it,
            // then retire the entry and the count — each step durable
            // before the next (strict persistency).
            if (prev) {
                const Addr link = prev + offsetof(Entry, next);
                pool_.store<Addr>(link, entry.next);
                pool_.persist(link, sizeof(Addr));
            } else {
                pool_.store<Addr>(slot, entry.next);
                pool_.persist(slot, sizeof(Addr));
            }
            pool_.freeObj(cursor);
            const Addr count_addr = meta_ + offsetof(Meta, count);
            pool_.store<std::uint64_t>(
                count_addr, pool_.load<std::uint64_t>(count_addr) - 1);
            pool_.persist(count_addr, sizeof(std::uint64_t));
            return true;
        }
        prev = cursor;
        cursor = entry.next;
    }
    return false;
}

std::optional<std::uint64_t>
PersistentHashmapAtomic::lookup(std::uint64_t key) const
{
    const Meta meta = pool_.load<Meta>(meta_);
    const std::uint64_t bucket = mix64(key) % nBuckets_;
    Addr cursor = pool_.load<Addr>(meta.buckets + bucket * sizeof(Addr));
    while (cursor) {
        const Entry entry = pool_.load<Entry>(cursor);
        if (entry.key == key)
            return entry.value;
        cursor = entry.next;
    }
    return std::nullopt;
}

std::uint64_t
PersistentHashmapAtomic::count() const
{
    return pool_.load<Meta>(meta_).count;
}

void
HashmapAtomicWorkload::run(PmRuntime &runtime,
                           const WorkloadOptions &options)
{
    std::size_t pool_bytes = options.poolBytes;
    if (pool_bytes == 0)
        pool_bytes = std::max<std::size_t>(16 << 20,
                                           options.operations * 256);
    PmemPool pool(runtime, pool_bytes, "hashmap_atomic.pool",
                  options.trackPersistence);
    PersistentHashmapAtomic map(pool, options.faults, options.pmtest);

    if (options.crashsim) {
        options.crashsim->adopt(
            pool.device(), hashmapAtomicRecoveryVerifier(map.metaAddr()));
    }

    Rng rng(options.seed);
    for (std::size_t i = 0; i < options.operations; ++i) {
        runtime.appOp();
        const std::uint64_t key = rng.next();
        // Crashsim-verified runs store the key's tag so the recovery
        // verifier can prove each reachable entry fully persisted.
        map.insert(key, options.crashsim ? hashmapAtomicTaggedValue(key)
                                         : i);
    }

    runtime.programEnd();
}

} // namespace pmdb
