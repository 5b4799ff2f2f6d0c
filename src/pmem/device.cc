#include "pmem/device.hh"

#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pmdb
{

PmemDevice::PmemDevice(std::size_t size)
    : volatileImage_(size, 0), persistedImage_(size, 0)
{
}

PmemDevice::PmemDevice(std::vector<std::uint8_t> image,
                       std::vector<std::uint8_t> volatile_storage)
    : volatileImage_(std::move(volatile_storage)),
      persistedImage_(std::move(image))
{
    volatileImage_.assign(persistedImage_.begin(), persistedImage_.end());
}

PmemDevice::~PmemDevice()
{
    if (observer_)
        observer_->onDeviceDestroyed();
}

void
PmemDevice::checkBounds(Addr addr, std::size_t size, const char *what) const
{
    if (addr + size > volatileImage_.size() || addr + size < addr) {
        panic(std::string("PmemDevice: out-of-bounds ") + what + " at " +
              AddrRange::fromSize(addr, size).toString());
    }
}

void
PmemDevice::write(Addr addr, const void *data, std::size_t size)
{
    // Only the byte copy happens here, so concurrent writers touching
    // disjoint ranges are safe; dirty-line tracking is driven by the
    // Store event, which the runtime serializes (handle() below).
    checkBounds(addr, size, "write");
    std::memcpy(volatileImage_.data() + addr, data, size);
}

void
PmemDevice::markDirty(const AddrRange &range)
{
    if (range.empty())
        return;
    const std::uint64_t first = cacheLineIndex(range.start);
    const std::uint64_t last = cacheLineIndex(range.end - 1);
    for (std::uint64_t line = first; line <= last; ++line)
        dirtyLines_[line] = true;
}

void
PmemDevice::read(Addr addr, void *out, std::size_t size) const
{
    checkBounds(addr, size, "read");
    std::memcpy(out, volatileImage_.data() + addr, size);
}

std::uint8_t *
PmemDevice::rawVolatile(Addr addr)
{
    checkBounds(addr, 1, "raw access");
    return volatileImage_.data() + addr;
}

const std::uint8_t *
PmemDevice::rawVolatile(Addr addr) const
{
    checkBounds(addr, 1, "raw access");
    return volatileImage_.data() + addr;
}

void
PmemDevice::readPersisted(Addr addr, void *out, std::size_t size) const
{
    checkBounds(addr, size, "persisted read");
    std::memcpy(out, persistedImage_.data() + addr, size);
}

bool
PmemDevice::hasDirty(const AddrRange &range) const
{
    if (range.empty())
        return false;
    const std::uint64_t first = cacheLineIndex(range.start);
    const std::uint64_t last = cacheLineIndex(range.end - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
        if (dirtyLines_.count(line))
            return true;
    }
    return false;
}

bool
PmemDevice::hasPendingFlush(const AddrRange &range) const
{
    if (range.empty())
        return false;
    const std::uint64_t first = cacheLineIndex(range.start);
    const std::uint64_t last = cacheLineIndex(range.end - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
        if (pendingLines_.count(line))
            return true;
    }
    return false;
}

bool
PmemDevice::isDurable(const AddrRange &range) const
{
    return !hasDirty(range) && !hasPendingFlush(range);
}

void
PmemDevice::flushRange(const AddrRange &range, SeqNum seq)
{
    if (range.empty())
        return;
    const std::uint64_t first = cacheLineIndex(range.start);
    const std::uint64_t last = cacheLineIndex(range.end - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
        // A CLF snapshots the line's current bytes as the writeback
        // payload. The line is no longer dirty; a later store re-dirties
        // it without cancelling the queued writeback.
        auto dirty = dirtyLines_.find(line);
        if (dirty == dirtyLines_.end() && !pendingLines_.count(line))
            continue;
        PendingLine snapshot;
        snapshot.flushSeq = seq;
        const Addr base = line * cacheLineSize;
        std::memcpy(snapshot.data.data(), volatileImage_.data() + base,
                    cacheLineSize);
        pendingLines_[line] = snapshot;
        if (dirty != dirtyLines_.end())
            dirtyLines_.erase(dirty);
        if (observer_)
            observer_->onLineQueued(line, pendingLines_[line]);
    }
}

void
PmemDevice::drainPending()
{
    for (const auto &[line, snapshot] : pendingLines_) {
        const Addr base = line * cacheLineSize;
        std::memcpy(persistedImage_.data() + base, snapshot.data.data(),
                    cacheLineSize);
    }
    pendingLines_.clear();
}

void
PmemDevice::handle(const Event &event)
{
    switch (event.kind) {
      case EventKind::Store:
        markDirty(event.range());
        break;
      case EventKind::Flush:
        flushRange(event.range(), event.seq);
        break;
      case EventKind::EpochBegin:
        ++epochDepth_;
        break;
      case EventKind::EpochEnd:
        if (epochDepth_ > 0)
            --epochDepth_;
        if (observer_)
            observer_->onBoundary(event, epochDepth_);
        drainPending();
        break;
      case EventKind::Fence:
      case EventKind::JoinStrand:
        // All of these act as durability barriers for queued writebacks.
        if (observer_)
            observer_->onBoundary(event, epochDepth_);
        drainPending();
        break;
      default:
        break;
    }
}

void
PmemDevice::reset()
{
    std::fill(volatileImage_.begin(), volatileImage_.end(), 0);
    std::fill(persistedImage_.begin(), persistedImage_.end(), 0);
    dirtyLines_.clear();
    pendingLines_.clear();
    epochDepth_ = 0;
}

std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
PmemDevice::releaseImages()
{
    return {std::exchange(persistedImage_, {}),
            std::exchange(volatileImage_, {})};
}

std::vector<std::uint8_t>
CrashSimulator::crashImage(CrashPolicy policy, std::uint64_t seed) const
{
    std::vector<std::uint8_t> image = device_.persistedImage_;
    if (policy == CrashPolicy::DropPending)
        return image;

    Rng rng(seed);
    for (const auto &[line, snapshot] : device_.pendingLines_) {
        const bool lands =
            policy == CrashPolicy::CommitPending || rng.nextBool(0.5);
        if (lands) {
            const Addr base = line * cacheLineSize;
            std::memcpy(image.data() + base, snapshot.data.data(),
                        cacheLineSize);
        }
    }
    return image;
}

std::vector<std::uint8_t>
CrashSimulator::partialImage(
    const std::vector<std::uint64_t> &landed_lines) const
{
    std::vector<std::uint8_t> image = device_.persistedImage_;
    for (std::uint64_t line : landed_lines) {
        auto it = device_.pendingLines_.find(line);
        if (it == device_.pendingLines_.end())
            continue;
        std::memcpy(image.data() + line * cacheLineSize,
                    it->second.data.data(), cacheLineSize);
    }
    return image;
}

} // namespace pmdb
