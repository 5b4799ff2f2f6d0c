#include "pmdk/pool.hh"

#include <cstring>

#include "common/logging.hh"

namespace pmdb
{

namespace
{

/** Size-class bucket for the volatile free lists (power-of-two classes). */
std::size_t
sizeClass(std::size_t size)
{
    std::size_t cls = 0;
    std::size_t cap = 64;
    while (cap < size && cls < 24) {
        cap <<= 1;
        ++cls;
    }
    return cls;
}

std::size_t
sizeClassBytes(std::size_t cls)
{
    return std::size_t(64) << cls;
}

} // namespace

PmemPool::PmemPool(PmRuntime &runtime, std::size_t size,
                   const std::string &name, bool track_persistence)
    : runtime_(runtime), device_(std::make_unique<PmemDevice>(size)),
      name_(name), deviceAttached_(track_persistence), freeLists_(25)
{
    if (size < rootOffset_ + 64 * 1024)
        fatal("PmemPool: pool size too small (min 64KiB past the root)");
    if (deviceAttached_)
        runtime_.attach(device_.get());
    runtime_.registerPmem(name_, 0, static_cast<std::uint32_t>(size));

    // Reserve a transaction undo-log region at the tail of the pool.
    logRegionSize_ = std::min<std::size_t>(size / 8, 1 << 20);
    logRegion_ = size - logRegionSize_;
}

PmemPool::PmemPool(PmRuntime &runtime, std::vector<std::uint8_t> image,
                   const std::string &name, bool track_persistence,
                   std::vector<std::uint8_t> volatile_storage)
    : runtime_(runtime),
      device_(std::make_unique<PmemDevice>(std::move(image),
                                           std::move(volatile_storage))),
      name_(name), deviceAttached_(track_persistence), freeLists_(25)
{
    const std::size_t size = device_->size();
    if (size < rootOffset_ + 64 * 1024)
        fatal("PmemPool: reopened image too small");
    if (deviceAttached_)
        runtime_.attach(device_.get());
    runtime_.registerPmem(name_, 0, static_cast<std::uint32_t>(size));

    // The log region's location is a function of the pool size, so a
    // reopen lands on the same undo log the crashed run was appending.
    logRegionSize_ = std::min<std::size_t>(size / 8, 1 << 20);
    logRegion_ = size - logRegionSize_;
}

PmemPool::~PmemPool()
{
    if (deviceAttached_)
        runtime_.detach(device_.get());
}

void
PmemPool::recoverHeap()
{
    std::lock_guard<std::mutex> guard(allocMutex_);
    if (heapBase_ == 0) {
        // No root requested yet; mirror allocInternal's default.
        heapBase_ = rootOffset_ + allocAlign_;
    }
    for (auto &list : freeLists_)
        list.clear();
    heapUsed_ = 0;

    // Walk the block sequence from the heap base. A header is valid if
    // its size is an exact size class that keeps the block inside the
    // heap and its state is a known value; the first invalid header
    // marks the frontier of durably completed allocations.
    Addr slot = heapBase_;
    while (slot + allocAlign_ + headerSize_ < logRegion_) {
        const Addr data = slot + allocAlign_;
        const BlockHeader header = load<BlockHeader>(data - headerSize_);
        const bool size_valid =
            header.size >= allocAlign_ &&
            (header.size & (header.size - 1)) == 0 &&
            data + header.size <= logRegion_;
        if (!size_valid || (header.state != 0 && header.state != 1))
            break;
        if (header.state == 0) {
            freeLists_[sizeClass(header.size)].push_back(data);
        } else {
            heapUsed_ += header.size;
        }
        slot = (data + header.size + allocAlign_ - 1) &
               ~Addr(allocAlign_ - 1);
    }
    bump_ = slot;
}

Addr
PmemPool::root(std::size_t size)
{
    if (rootSizeReserved_ == 0) {
        rootSizeReserved_ =
            (size + allocAlign_ - 1) & ~(allocAlign_ - 1);
        heapBase_ = rootOffset_ + rootSizeReserved_;
        bump_ = heapBase_;
    } else if (size > rootSizeReserved_) {
        fatal("PmemPool::root: root object cannot grow");
    }
    return rootOffset_;
}

Addr
PmemPool::alloc(std::size_t size, ThreadId thread)
{
    return allocInternal(size, true, true, nullptr, thread);
}

Addr
PmemPool::allocNoFence(std::size_t size, std::size_t *block_out)
{
    // Transactional allocation: the data's flushes and the fence both
    // ride the commit barrier (which flushes the registered range), so
    // neither is issued here — issuing them would make the commit's
    // flush of untouched lines redundant.
    return allocInternal(size, false, false, block_out);
}

Addr
PmemPool::allocInternal(std::size_t size, bool fence_after,
                        bool flush_data, std::size_t *block_out,
                        ThreadId thread)
{
    std::lock_guard<std::mutex> guard(allocMutex_);
    if (heapBase_ == 0) {
        // No root requested; heap starts right after the root slot.
        heapBase_ = rootOffset_ + allocAlign_;
        bump_ = heapBase_;
    }
    if (size == 0)
        size = 1;

    const std::size_t cls = sizeClass(size);
    const std::size_t block = sizeClassBytes(cls);

    // Block layout: one full cache line of slack holding the header in
    // its tail, then the cache-line-aligned user data. Keeping the
    // header line disjoint from the data lines means header flushes
    // and data flushes never alias.
    Addr data = 0;
    if (!freeLists_[cls].empty()) {
        data = freeLists_[cls].back();
        freeLists_[cls].pop_back();
    } else {
        const Addr slot = bump_; // always cache-line aligned
        data = slot + allocAlign_;
        const Addr next =
            (data + block + allocAlign_ - 1) & ~(allocAlign_ - 1);
        if (next >= logRegion_)
            fatal("PmemPool::alloc: out of pool space");
        bump_ = next;
    }

    // Persist the block header, as PMDK's atomic allocator does: the
    // allocation must survive a crash, so the metadata store is flushed
    // and fenced.
    BlockHeader header{block, 1, 0};
    const Addr hdr_addr = data - headerSize_;
    writeBytes(hdr_addr, &header, sizeof(header), thread);
    flush(hdr_addr, sizeof(header), FlushKind::Clwb, thread);

    // Zero the user data so the freshly allocated object has a defined
    // durable state. Like pmem_memset_persist, the zeroing loop flushes
    // each line as soon as it is written (one short CLF interval per
    // line) rather than dirtying the whole block and flushing at the
    // end — which on large blocks would also be pathological for any
    // interval-based tracker.
    std::vector<std::uint8_t> zeros(std::min<std::size_t>(block,
                                                          cacheLineSize),
                                    0);
    std::size_t lines_since_drain = 0;
    for (std::size_t off = 0; off < block; off += cacheLineSize) {
        const std::size_t chunk =
            std::min<std::size_t>(cacheLineSize, block - off);
        writeBytes(data + off, zeros.data(), chunk, thread);
        if (flush_data) {
            flush(data + off, chunk, FlushKind::Clwb, thread);
            // Large ranges drain periodically (pmem_memset_persist
            // does the same) so no single fence interval accumulates
            // an unbounded number of CLF intervals.
            if (++lines_since_drain >= 64) {
                fence(thread);
                lines_since_drain = 0;
            }
        }
    }

    // Atomic allocations fence immediately; transactional allocations
    // ride the commit barrier instead (pmemobj_tx_alloc semantics).
    if (fence_after)
        fence(thread);

    heapUsed_ += block;
    if (block_out)
        *block_out = block;
    return data;
}

void
PmemPool::freeObj(Addr addr)
{
    std::lock_guard<std::mutex> guard(allocMutex_);
    const Addr hdr_addr = addr - headerSize_;
    BlockHeader header = load<BlockHeader>(hdr_addr);
    if (header.state != 1)
        panic("PmemPool::freeObj: double free or bad pointer");
    header.state = 0;
    writeBytes(hdr_addr, &header, sizeof(header));
    persist(hdr_addr, sizeof(header));
    heapUsed_ -= header.size;
    freeLists_[sizeClass(header.size)].push_back(addr);
}

void
PmemPool::writeBytes(Addr addr, const void *data, std::size_t size,
                     ThreadId thread)
{
    device_->write(addr, data, size);
    // A compiled program issues machine stores of at most vector width;
    // binary instrumentation sees each of them. Emit one store event
    // per 16-byte chunk so large struct writes produce the same
    // instruction mix Valgrind would observe (Figure 2c).
    constexpr std::size_t maxStoreBytes = 16;
    while (size > maxStoreBytes) {
        runtime_.store(addr, maxStoreBytes, thread);
        addr += maxStoreBytes;
        size -= maxStoreBytes;
    }
    runtime_.store(addr, static_cast<std::uint32_t>(size), thread);
}

void
PmemPool::readBytes(Addr addr, void *out, std::size_t size) const
{
    // Reads are not instrumented as events, but the runtime's read
    // tracker (when installed by the model checker) records the lines
    // a recovery execution depends on.
    runtime_.noteRead(addr, size);
    device_->read(addr, out, size);
}

void
PmemPool::flush(Addr addr, std::size_t size, FlushKind kind,
                ThreadId thread)
{
    if (size == 0)
        return;
    const Addr first = cacheLineBase(addr);
    const Addr last = cacheLineBase(addr + size - 1);
    for (Addr line = first; line <= last; line += cacheLineSize)
        runtime_.flush(line, cacheLineSize, kind, thread);
}

void
PmemPool::fence(ThreadId thread)
{
    runtime_.fence(thread);
}

void
PmemPool::persist(Addr addr, std::size_t size, ThreadId thread)
{
    flush(addr, size, FlushKind::Clwb, thread);
    fence(thread);
}

void
PmemPool::registerVariable(const std::string &name, Addr addr,
                           std::size_t size, ThreadId thread)
{
    runtime_.registerPmem(name, addr, static_cast<std::uint32_t>(size),
                          thread);
}

} // namespace pmdb
