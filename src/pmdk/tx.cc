#include "pmdk/tx.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace pmdb
{

namespace
{

std::uint64_t
entryChecksum(const TxLogEntryHeader &header, const void *old_data)
{
    std::uint64_t h = fnv1a(&header.objAddr, sizeof(header.objAddr));
    h = fnv1a(&header.size, sizeof(header.size), h);
    return fnv1a(old_data, header.size, h);
}

constexpr std::size_t logHeaderBytes = sizeof(std::uint64_t);

std::size_t
alignUp8(std::size_t v)
{
    return (v + 7) & ~std::size_t(7);
}

} // namespace

Transaction::Transaction(PmemPool &pool, ThreadId thread)
    : pool_(pool), thread_(thread)
{
}

Transaction::~Transaction()
{
    if (open_)
        abort();
}

void
Transaction::begin()
{
    if (open_)
        panic("Transaction::begin: already open");
    open_ = true;
    outermost_ = pool_.txDepth_ == 0;
    ++pool_.txDepth_;
    if (outermost_) {
        pool_.txLogBytes_ = 0;
        pool_.txRanges_.clear();
        pool_.txThread_ = thread_;
        pool_.runtime().epochBegin(thread_);
    }
}

bool
Transaction::addRange(Addr addr, std::size_t size)
{
    if (!open_)
        panic("Transaction::addRange: transaction not open");
    if (size == 0)
        return false;

    // pmemobj_tx_add_range skips ranges already snapshotted in this
    // transaction; we dedup exact re-additions (the common pattern of
    // helper functions re-adding the node they modify).
    const AddrRange range_key = AddrRange::fromSize(addr, size);
    for (const AddrRange &prior : pool_.txRanges_) {
        if (prior == range_key)
            return false;
    }

    // Snapshot the object's current bytes into the undo log. The log
    // append is flushed but not fenced (libpmemobj's single-drain
    // design); torn entries are caught at recovery by the checksum.
    std::vector<std::uint8_t> old_data(size);
    pool_.readBytes(addr, old_data.data(), size);

    TxLogEntryHeader header;
    header.objAddr = addr;
    header.size = size;
    header.checksum = entryChecksum(header, old_data.data());

    const Addr entry_addr =
        pool_.logRegion() + logHeaderBytes + pool_.txLogBytes_;
    const std::size_t entry_bytes =
        alignUp8(sizeof(header) + size);
    if (logHeaderBytes + pool_.txLogBytes_ + entry_bytes >
        pool_.logRegionSize()) {
        fatal("Transaction: undo log region overflow");
    }

    pool_.writeBytes(entry_addr, &header, sizeof(header), thread_);
    pool_.writeBytes(entry_addr + sizeof(header), old_data.data(), size,
                     thread_);
    pool_.flush(entry_addr, sizeof(header) + size, FlushKind::Clwb,
                thread_);

    pool_.txLogBytes_ += entry_bytes;
    const std::uint64_t log_bytes = pool_.txLogBytes_;
    pool_.writeBytes(pool_.logRegion(), &log_bytes, sizeof(log_bytes),
                     thread_);
    pool_.flush(pool_.logRegion(), sizeof(log_bytes), FlushKind::Clwb,
                thread_);

    // The redundant-logging rule consumes this event: it carries the
    // logged data object's address (Section 5.2).
    pool_.runtime().txLog(addr, static_cast<std::uint32_t>(size), thread_);

    const AddrRange range = AddrRange::fromSize(addr, size);
    pool_.txRanges_.push_back(range);
    myRanges_.push_back(range);
    return true;
}

void
Transaction::addRangeNoSnapshot(Addr addr, std::size_t size)
{
    if (!open_)
        panic("Transaction::addRangeNoSnapshot: transaction not open");
    if (size == 0)
        return;
    const AddrRange range = AddrRange::fromSize(addr, size);
    pool_.txRanges_.push_back(range);
    myRanges_.push_back(range);
}

Addr
Transaction::alloc(std::size_t size)
{
    if (!open_)
        panic("Transaction::alloc: transaction not open");
    std::size_t block = size;
    const Addr addr = pool_.allocNoFence(size, &block);
    // Register the whole zero-initialized block (not just the requested
    // size): the commit barrier must flush every line the allocation
    // dirtied.
    addRangeNoSnapshot(addr, block);
    return addr;
}

void
Transaction::commit()
{
    if (!open_)
        panic("Transaction::commit: transaction not open");
    open_ = false;
    --pool_.txDepth_;
    if (!outermost_)
        return; // inner commit: durability rides the outermost barrier

    // Flush every modified range at cache-line granularity, emitting
    // each line at most once (libpmemobj dedups snapshotted ranges the
    // same way, which is why a correct transaction contains no
    // redundant flushes).
    std::vector<Addr> lines;
    for (const AddrRange &range : pool_.txRanges_) {
        const Addr first = cacheLineBase(range.start);
        const Addr last = cacheLineBase(range.end - 1);
        for (Addr line = first; line <= last; line += cacheLineSize)
            lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (Addr line : lines)
        pool_.runtime().flush(line, cacheLineSize, FlushKind::Clwb,
                              thread_);

    // Truncate the undo log, then issue the epoch's single barrier.
    const std::uint64_t zero = 0;
    pool_.writeBytes(pool_.logRegion(), &zero, sizeof(zero), thread_);
    pool_.flush(pool_.logRegion(), sizeof(zero), FlushKind::Clwb, thread_);
    pool_.fence(thread_);
    pool_.runtime().epochEnd(thread_);

    pool_.txRanges_.clear();
    pool_.txLogBytes_ = 0;
}

void
Transaction::abort()
{
    if (!open_)
        panic("Transaction::abort: transaction not open");
    open_ = false;
    --pool_.txDepth_;
    if (!outermost_) {
        // PMDK aborts the whole outer transaction when an inner one
        // aborts; we model the common case where the caller unwinds to
        // the outermost level, which performs the rollback.
        return;
    }

    // Walk the undo log (newest first) restoring old bytes.
    std::vector<std::pair<Addr, std::vector<std::uint8_t>>> entries;
    std::size_t off = 0;
    while (off < pool_.txLogBytes_) {
        const Addr entry_addr = pool_.logRegion() + logHeaderBytes + off;
        TxLogEntryHeader header;
        pool_.readBytes(entry_addr, &header, sizeof(header));
        std::vector<std::uint8_t> old_data(header.size);
        pool_.readBytes(entry_addr + sizeof(header), old_data.data(),
                        header.size);
        entries.emplace_back(header.objAddr, std::move(old_data));
        off += alignUp8(sizeof(header) + header.size);
    }
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        pool_.writeBytes(it->first, it->second.data(), it->second.size(),
                         thread_);
        pool_.flush(it->first, it->second.size(), FlushKind::Clwb,
                    thread_);
    }

    const std::uint64_t zero = 0;
    pool_.writeBytes(pool_.logRegion(), &zero, sizeof(zero), thread_);
    pool_.flush(pool_.logRegion(), sizeof(zero), FlushKind::Clwb, thread_);
    pool_.fence(thread_);
    pool_.runtime().epochEnd(thread_);

    pool_.txRanges_.clear();
    pool_.txLogBytes_ = 0;
}

std::vector<TxRecovery::RecoveredEntry>
TxRecovery::rollback(const PmemPool &pool, std::vector<std::uint8_t> &image)
{
    return rollbackImage(pool.logRegion_, pool.logRegionSize_, image);
}

TxRecovery::TxLogRegion
TxRecovery::logRegionOf(const PmemPool &pool)
{
    return {pool.logRegion_, pool.logRegionSize_};
}

std::vector<TxRecovery::RecoveredEntry>
TxRecovery::recoverPool(PmemPool &pool)
{
    std::vector<RecoveredEntry> recovered;
    const Addr log_base = pool.logRegion_;
    const std::size_t region_size = pool.logRegionSize_;

    std::uint64_t log_bytes = pool.load<std::uint64_t>(log_base);
    if (log_bytes > region_size - logHeaderBytes)
        log_bytes = 0; // corrupt length word: nothing to roll back
    if (log_bytes == 0)
        return recovered;

    // Restore intact entries in log order (rollbackImage semantics),
    // flushing each restored range; one fence drains them together.
    std::size_t off = 0;
    bool restored_any = false;
    while (off + sizeof(TxLogEntryHeader) <= log_bytes) {
        const Addr entry_addr = log_base + logHeaderBytes + off;
        const auto header = pool.load<TxLogEntryHeader>(entry_addr);
        if (header.size == 0 ||
            entry_addr + sizeof(header) + header.size >
                log_base + region_size) {
            break;
        }
        std::vector<std::uint8_t> old_data(header.size);
        pool.readBytes(entry_addr + sizeof(header), old_data.data(),
                       header.size);
        const bool ok =
            entryChecksum(header, old_data.data()) == header.checksum;
        if (ok) {
            pool.writeBytes(header.objAddr, old_data.data(), header.size);
            pool.flush(header.objAddr, header.size);
            restored_any = true;
        }
        recovered.push_back({header.objAddr, header.size, ok});
        off += alignUp8(sizeof(header) + header.size);
    }
    if (restored_any)
        pool.fence();

    // Truncate the log only after the restores are durable, so a crash
    // anywhere inside recovery leaves either a valid log or a fully
    // rolled-back image.
    const std::uint64_t zero = 0;
    pool.writeBytes(log_base, &zero, sizeof(zero));
    pool.persist(log_base, sizeof(zero));
    return recovered;
}

std::vector<TxRecovery::RecoveredEntry>
TxRecovery::rollbackImage(Addr log_base, std::size_t log_region_size,
                          std::vector<std::uint8_t> &image)
{
    std::vector<RecoveredEntry> recovered;
    if (log_base + logHeaderBytes > image.size())
        return recovered;

    std::uint64_t log_bytes = 0;
    std::memcpy(&log_bytes, image.data() + log_base, sizeof(log_bytes));
    if (log_bytes > log_region_size - logHeaderBytes)
        return recovered; // corrupt length word: nothing to roll back

    std::size_t off = 0;
    while (off + sizeof(TxLogEntryHeader) <= log_bytes) {
        const Addr entry_addr = log_base + logHeaderBytes + off;
        TxLogEntryHeader header;
        std::memcpy(&header, image.data() + entry_addr, sizeof(header));
        if (header.size == 0 ||
            entry_addr + sizeof(header) + header.size > image.size()) {
            break;
        }
        const std::uint8_t *old_data =
            image.data() + entry_addr + sizeof(header);
        const bool ok = entryChecksum(header, old_data) == header.checksum;
        if (ok) {
            std::memcpy(image.data() + header.objAddr, old_data,
                        header.size);
        }
        recovered.push_back({header.objAddr, header.size, ok});
        off += alignUp8(sizeof(header) + header.size);
    }
    return recovered;
}

} // namespace pmdb
