#include "crashsim/crash_points.hh"

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pmdb
{

std::uint64_t
lineContentHash(std::uint64_t line, const std::uint8_t *bytes)
{
    // Salting the FNV stream with the line index makes identical
    // content on different lines hash differently, so the XOR-combined
    // image identity stays collision-resistant under line moves.
    const std::uint64_t content =
        fnv1a(bytes, cacheLineSize, mix64(line + 1));
    return mix64(content);
}

ImageDelta
imageDelta(const std::vector<std::uint8_t> &reference,
           const std::vector<std::uint8_t> &image)
{
    if (image.size() != reference.size() ||
        image.size() % cacheLineSize != 0)
        panic("imageDelta: images differ in size or are not whole lines");
    ImageDelta delta;
    for (std::size_t base = 0; base < image.size(); base += cacheLineSize) {
        if (std::memcmp(image.data() + base, reference.data() + base,
                        cacheLineSize) == 0)
            continue;
        DeltaLine &dl = delta.emplace_back();
        dl.line = base / cacheLineSize;
        std::memcpy(dl.data.data(), image.data() + base, cacheLineSize);
    }
    return delta;
}

ImageCursor::ImageCursor(const CrashPointLog &log)
    : ImageCursor(log, log.baseline, {})
{
}

ImageCursor::ImageCursor(const CrashPointLog &log,
                         const std::vector<std::uint8_t> &root,
                         const ImageDelta &delta,
                         std::vector<std::uint8_t> storage)
    : log_(log), image_(std::move(storage))
{
    if (root.size() != log.poolBytes)
        panic("ImageCursor: base image is not the log's pool size");
    image_.assign(root.begin(), root.end());
    for (const DeltaLine &dl : delta) {
        if (dl.line >= image_.size() / cacheLineSize)
            panic("ImageCursor: delta line past the end of the image");
        std::memcpy(image_.data() + dl.line * cacheLineSize,
                    dl.data.data(), cacheLineSize);
    }
}

void
ImageCursor::advanceTo(std::size_t point_idx)
{
    if (point_idx >= log_.points.size())
        panic("ImageCursor: advanceTo() past the log's last point");
    if (point_idx < at_)
        panic("ImageCursor: advanceTo() is forward-only");
    if (!saved_.empty())
        panic("ImageCursor: advanceTo() with a candidate applied");
    while (nextDelta_ < point_idx) {
        const CrashPoint &point = log_.points[nextDelta_];
        if (point.drains) {
            for (std::size_t i = point.pendingBegin; i < point.pendingEnd;
                 ++i) {
                const CapturedLine &cl = log_.lines[i];
                applyLine(cl.line, cl.data.data());
            }
        }
        ++nextDelta_;
    }
    at_ = point_idx;
}

void
ImageCursor::applyLine(std::uint64_t line, const std::uint8_t *bytes)
{
    const Addr base = line * cacheLineSize;
    hash_ ^= lineContentHash(line, image_.data() + base) ^
             lineContentHash(line, bytes);
    std::memcpy(image_.data() + base, bytes, cacheLineSize);
}

std::uint64_t
ImageCursor::candidateHash(const std::vector<std::size_t> &landed) const
{
    std::uint64_t hash = hash_;
    for (std::size_t idx : landed) {
        const CapturedLine &cl = log_.lines[idx];
        const Addr base = cl.line * cacheLineSize;
        hash ^= lineContentHash(cl.line, image_.data() + base) ^
                lineContentHash(cl.line, cl.data.data());
    }
    return hash;
}

void
ImageCursor::apply(const std::vector<std::size_t> &landed)
{
    saved_.reserve(landed.size());
    for (std::size_t idx : landed) {
        const CapturedLine &cl = log_.lines[idx];
        CapturedLine old;
        old.line = cl.line;
        std::memcpy(old.data.data(),
                    image_.data() + cl.line * cacheLineSize,
                    cacheLineSize);
        saved_.push_back(old);
        applyLine(cl.line, cl.data.data());
    }
}

void
ImageCursor::revert()
{
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it)
        applyLine(it->line, it->data.data());
    saved_.clear();
}

std::uint64_t
candidateCountFor(std::size_t pending_lines, bool epoch_open,
                  const CrashsimOptions &options)
{
    if (epoch_open && options.epochAtomic)
        return pending_lines == 0 ? 1 : 2;
    const std::size_t k =
        std::min(pending_lines, options.maxPendingLines);
    const std::uint64_t subsets =
        k >= 62 ? ~0ULL : (1ULL << k) + (pending_lines > k ? 1 : 0);
    return std::min<std::uint64_t>(
        subsets, std::max<std::size_t>(1, options.maxImagesPerPoint));
}

std::string
CrashScanSummary::toString() const
{
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "events                 %llu\n"
        "crash points           %llu\n"
        "  at SFENCE            %llu\n"
        "  at TX_END            %llu\n"
        "  at strand join       %llu\n"
        "  at CLF               %llu\n"
        "  epoch-coalesced      %llu\n"
        "pending lines total    %llu\n"
        "max pending at point   %zu\n"
        "images enumerable      %llu\n",
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(crashPoints),
        static_cast<unsigned long long>(pointsAtFence),
        static_cast<unsigned long long>(pointsAtEpochEnd),
        static_cast<unsigned long long>(pointsAtJoinStrand),
        static_cast<unsigned long long>(pointsAtFlush),
        static_cast<unsigned long long>(epochCoalescedPoints),
        static_cast<unsigned long long>(pendingLinesTotal),
        maxPendingAtPoint,
        static_cast<unsigned long long>(imagesEnumerable));
    return buf;
}

CrashScanSummary
scanCrashPoints(const std::vector<Event> &events,
                const CrashsimOptions &options)
{
    CrashScanSummary summary;
    std::set<std::uint64_t> dirty;
    std::set<std::uint64_t> pending;
    int epoch_depth = 0;

    auto lines_of = [](const AddrRange &range, auto &&fn) {
        if (range.empty())
            return;
        const std::uint64_t first = cacheLineIndex(range.start);
        const std::uint64_t last = cacheLineIndex(range.end - 1);
        for (std::uint64_t line = first; line <= last; ++line)
            fn(line);
    };

    auto record_point = [&](EventKind boundary, bool epoch_open) {
        ++summary.crashPoints;
        switch (boundary) {
          case EventKind::Fence:
            ++summary.pointsAtFence;
            break;
          case EventKind::EpochEnd:
            ++summary.pointsAtEpochEnd;
            break;
          case EventKind::JoinStrand:
            ++summary.pointsAtJoinStrand;
            break;
          default:
            ++summary.pointsAtFlush;
            break;
        }
        summary.pendingLinesTotal += pending.size();
        summary.maxPendingAtPoint =
            std::max(summary.maxPendingAtPoint, pending.size());
        if (epoch_open && options.epochAtomic)
            ++summary.epochCoalescedPoints;
        summary.imagesEnumerable +=
            candidateCountFor(pending.size(), epoch_open, options);
    };

    for (const Event &event : events) {
        ++summary.events;
        switch (event.kind) {
          case EventKind::Store:
            lines_of(event.range(),
                     [&](std::uint64_t line) { dirty.insert(line); });
            break;
          case EventKind::Flush:
            // As in a live capture, a CLF queues each covered line that
            // is dirty or already pending, and each queued line is its
            // own crash point (a clean line queues nothing).
            lines_of(event.range(), [&](std::uint64_t line) {
                if (!dirty.erase(line) && !pending.count(line))
                    return;
                pending.insert(line);
                if (options.captureAtFlush)
                    record_point(EventKind::Flush, epoch_depth > 0);
            });
            break;
          case EventKind::EpochBegin:
            ++epoch_depth;
            break;
          case EventKind::EpochEnd:
            if (epoch_depth > 0)
                --epoch_depth;
            record_point(EventKind::EpochEnd, true);
            pending.clear();
            break;
          case EventKind::Fence:
          case EventKind::JoinStrand:
            record_point(event.kind, epoch_depth > 0);
            pending.clear();
            break;
          default:
            break;
        }
    }
    return summary;
}

} // namespace pmdb
