#include "pmem/shared_device.hh"

#include <atomic>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace pmdb
{

namespace
{

constexpr char poolMagic[8] = {'P', 'M', 'D', 'B', 'S', 'H', 'P', '1'};

/** Header page size; the volatile image starts at the next page. */
constexpr std::size_t headerBytes = 4096;

std::size_t
roundUpLines(std::size_t bytes)
{
    const std::size_t rem = bytes % cacheLineSize;
    return rem ? bytes + (cacheLineSize - rem) : bytes;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

/**
 * On-file header. All mutable fields are plain integers accessed
 * through std::atomic_ref — the file is mapped MAP_SHARED by several
 * processes and the spinlock / clock / coordination words synchronize
 * across them.
 */
struct SharedPmemPool::Header
{
    char magic[8];
    std::uint64_t dataSize;
    /** Global fence clock: tickets drawn so far. */
    std::uint64_t clock;
    /** Pool spinlock (0 free / 1 held). */
    std::uint32_t lockWord;
    std::uint32_t pad;
    /** Uninstrumented volatile scratch for process handshakes. */
    std::uint64_t coord[coordWords];
};

bool
SharedPmemPool::createPoolFile(const std::string &path,
                               std::size_t dataSize, std::string *error)
{
    static_assert(sizeof(Header) <= headerBytes,
                  "shared-pool header must fit its reserved page");
    const std::size_t data = roundUpLines(dataSize ? dataSize
                                                   : cacheLineSize);
    const std::size_t total = headerBytes + data;

    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd < 0)
        return fail(error, "shared pool: cannot create " + path + ": " +
                               std::strerror(errno));
    if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
        const int err = errno;
        ::close(fd);
        return fail(error, "shared pool: ftruncate failed: " +
                               std::string(std::strerror(err)));
    }
    Header header = {};
    std::memcpy(header.magic, poolMagic, sizeof(poolMagic));
    header.dataSize = data;
    const bool ok = ::pwrite(fd, &header, sizeof(header), 0) ==
                    static_cast<ssize_t>(sizeof(header));
    ::close(fd);
    if (!ok)
        return fail(error, "shared pool: header write failed");
    return true;
}

SharedPmemPool::SharedPmemPool(PmRuntime &runtime,
                               const std::string &path,
                               std::uint32_t writerId)
    : runtime_(runtime), path_(path), writerId_(writerId)
{
    if (writerId == 0) {
        error_ = "shared pool: writer id must be >= 1";
        return;
    }
    fd_ = ::open(path.c_str(), O_RDWR);
    if (fd_ < 0) {
        error_ = "shared pool: cannot open " + path + ": " +
                 std::strerror(errno);
        return;
    }
    const auto reject = [&](const std::string &message) {
        error_ = message;
        ::close(fd_);
        fd_ = -1;
    };
    Header probe = {};
    if (::pread(fd_, &probe, sizeof(probe), 0) !=
            static_cast<ssize_t>(sizeof(probe)) ||
        std::memcmp(probe.magic, poolMagic, sizeof(poolMagic)) != 0) {
        reject(path + " is not a PMDB shared pool (bad magic)");
        return;
    }
    // Validate the header against the file before mapping it: pages
    // the file does not back fault (SIGBUS) on first touch.
    struct stat st;
    std::size_t total = 0;
    const std::uint64_t data = probe.dataSize;
    if (::fstat(fd_, &st) != 0 || data == 0 ||
        data % cacheLineSize != 0 ||
        __builtin_add_overflow(data, headerBytes, &total) ||
        total != static_cast<std::uint64_t>(st.st_size)) {
        reject(path + ": shared-pool header does not match the file "
                      "size");
        return;
    }
    dataSize_ = data;
    mapBytes_ = total;
    void *map = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd_, 0);
    if (map == MAP_FAILED) {
        reject("shared pool: mmap failed: " +
               std::string(std::strerror(errno)));
        return;
    }
    base_ = static_cast<std::uint8_t *>(map);
    runtime_.registerPmem("shared_pool", 0,
                          static_cast<std::uint32_t>(dataSize_));
}

SharedPmemPool::~SharedPmemPool()
{
    if (base_)
        ::munmap(base_, mapBytes_);
    if (fd_ >= 0)
        ::close(fd_);
}

SharedPmemPool::Header *
SharedPmemPool::header() const
{
    return reinterpret_cast<Header *>(base_);
}

std::uint8_t *
SharedPmemPool::volatileImage() const
{
    return base_ + headerBytes;
}

void
SharedPmemPool::lock()
{
    std::atomic_ref<std::uint32_t> word(header()->lockWord);
    while (word.exchange(1, std::memory_order_acquire) != 0)
        ::sched_yield();
}

void
SharedPmemPool::unlock()
{
    std::atomic_ref<std::uint32_t> word(header()->lockWord);
    word.store(0, std::memory_order_release);
}

SeqNum
SharedPmemPool::ticket()
{
    // Lock already held: ticket order is exactly mutation order, so
    // merging per-session streams by ticket can never reorder the
    // operations relative to how shared memory actually changed.
    std::atomic_ref<std::uint64_t> clock(header()->clock);
    return clock.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
SharedPmemPool::stampNextEvent()
{
    lock();
    const SeqNum stamp = ticket();
    unlock();
    runtime_.setNextGlobal(stamp);
}

void
SharedPmemPool::checkBounds(Addr addr, std::size_t size,
                            const char *what) const
{
    if (!base_)
        panic(std::string("shared pool ") + what + ": pool not mapped (" +
              error_ + ")");
    if (addr + size > dataSize_ || addr + size < addr)
        panic(std::string("shared pool ") + what +
              " out of bounds: addr=" + std::to_string(addr) +
              " size=" + std::to_string(size));
}

void
SharedPmemPool::writeBytes(Addr addr, const void *data, std::size_t size,
                           ThreadId thread)
{
    checkBounds(addr, size, "store");
    lock();
    const SeqNum stamp = ticket();
    std::memcpy(volatileImage() + addr, data, size);
    unlock();
    runtime_.setNextGlobal(stamp);
    runtime_.store(addr, static_cast<std::uint32_t>(size), thread);
}

void
SharedPmemPool::readBytes(Addr addr, void *out, std::size_t size,
                          ThreadId thread)
{
    checkBounds(addr, size, "load");
    lock();
    const SeqNum stamp = ticket();
    std::memcpy(out, volatileImage() + addr, size);
    unlock();
    runtime_.setNextGlobal(stamp);
    runtime_.load(addr, static_cast<std::uint32_t>(size), thread);
}

void
SharedPmemPool::peekBytes(Addr addr, void *out, std::size_t size) const
{
    checkBounds(addr, size, "peek");
    std::memcpy(out, volatileImage() + addr, size);
}

void
SharedPmemPool::flush(Addr addr, std::size_t size, FlushKind kind,
                      ThreadId thread)
{
    checkBounds(addr, size, "flush");
    const AddrRange range = AddrRange::fromSize(addr, size);
    // One CLF event per covered cache line, like PmemPool::flush; each
    // draws its own ticket so the merged stream orders them exactly.
    for (Addr line = cacheLineBase(range.start); line < range.end;
         line += cacheLineSize) {
        stampNextEvent();
        runtime_.flush(line, cacheLineSize, kind, thread);
    }
}

void
SharedPmemPool::fence(ThreadId thread)
{
    stampNextEvent();
    runtime_.fence(thread);
}

void
SharedPmemPool::persist(Addr addr, std::size_t size, ThreadId thread)
{
    flush(addr, size, FlushKind::Clwb, thread);
    fence(thread);
}

void
SharedPmemPool::epochBegin(ThreadId thread)
{
    stampNextEvent();
    runtime_.epochBegin(thread);
}

void
SharedPmemPool::epochEnd(ThreadId thread)
{
    stampNextEvent();
    runtime_.epochEnd(thread);
}

void
SharedPmemPool::coordStore(std::size_t index, std::uint64_t value)
{
    if (index >= coordWords)
        panic("shared pool: coord index out of range");
    std::atomic_ref<std::uint64_t> word(header()->coord[index]);
    word.store(value, std::memory_order_release);
}

std::uint64_t
SharedPmemPool::coordLoad(std::size_t index) const
{
    if (index >= coordWords)
        panic("shared pool: coord index out of range");
    std::atomic_ref<std::uint64_t> word(header()->coord[index]);
    return word.load(std::memory_order_acquire);
}

void
SharedPmemPool::coordWait(std::size_t index, std::uint64_t expect) const
{
    while (coordLoad(index) != expect)
        ::sched_yield();
}

SeqNum
SharedPmemPool::clockNow() const
{
    std::atomic_ref<std::uint64_t> clock(header()->clock);
    return clock.load(std::memory_order_relaxed);
}

} // namespace pmdb
