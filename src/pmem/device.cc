#include "pmem/device.hh"

#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace pmdb
{

PmemDevice::PmemDevice(std::size_t size, bool track_persistence)
    : volatileImage_(size, 0),
      persistedImage_(track_persistence ? size : 0, 0),
      tracked_(track_persistence)
{
}

PmemDevice::PmemDevice(std::vector<std::uint8_t> image,
                       bool track_persistence,
                       std::vector<std::uint8_t> volatile_storage)
    : tracked_(track_persistence)
{
    if (!tracked_) {
        volatileImage_ = std::move(image);
        return;
    }
    persistedImage_ = std::move(image);
    volatileImage_ = std::move(volatile_storage);
    volatileImage_.assign(persistedImage_.begin(), persistedImage_.end());
}

PmemDevice::~PmemDevice()
{
    if (observer_)
        observer_->onDeviceDestroyed();
}

void
PmemDevice::requireTracked(const char *what) const
{
    if (!tracked_) {
        panic(std::string("PmemDevice: ") + what +
              " on a device whose pool does not track persistence: it "
              "keeps no durable image and sees no flush or fence");
    }
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
    requireTracked("readPersisted()");
    checkBounds(addr, size, "persisted read");
    std::memcpy(out, persistedImage_.data() + addr, size);
}

bool
PmemDevice::hasDirty(const AddrRange &range) const
{
    requireTracked("hasDirty()");
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
    requireTracked("hasPendingFlush()");
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
        requireTracked("a Flush event");
        flushRange(event.range(), event.seq);
        break;
      case EventKind::EpochBegin:
        ++epochDepth_;
        break;
      case EventKind::EpochEnd:
        requireTracked("a boundary event");
        if (epochDepth_ > 0)
            --epochDepth_;
        if (observer_)
            observer_->onBoundary(event, epochDepth_);
        drainPending();
        break;
      case EventKind::Fence:
      case EventKind::JoinStrand:
        // All of these act as durability barriers for queued writebacks.
        requireTracked("a boundary event");
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
    requireTracked("reset()");
    std::fill(volatileImage_.begin(), volatileImage_.end(), 0);
    std::fill(persistedImage_.begin(), persistedImage_.end(), 0);
    dirtyLines_.clear();
    pendingLines_.clear();
    epochDepth_ = 0;
}

std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
PmemDevice::releaseImages()
{
    requireTracked("releaseImages()");
    return {std::exchange(persistedImage_, {}),
            std::exchange(volatileImage_, {})};
}

} // namespace pmdb
