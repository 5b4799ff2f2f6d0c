#include "crashsim/capture.hh"

#include <algorithm>

namespace pmdb
{

void
CrashsimSession::adopt(const PmemDevice &device)
{
    release();
    device_ = &device;
    log_.poolBytes = device.size();
    log_.baseline = device.persistedBytes();
    log_.lines.clear();
    log_.points.clear();
    device.setPersistenceObserver(this);
}

void
CrashsimSession::adopt(const PmemDevice &device, RecoveryVerifier verify)
{
    adopt(device);
    setVerifier(std::move(verify));
}

void
CrashsimSession::release()
{
    if (device_) {
        device_->setPersistenceObserver(nullptr);
        device_ = nullptr;
    }
}

void
CrashsimSession::onLineQueued(std::uint64_t /*line*/,
                              const PendingLine &snapshot)
{
    if (options_.captureAtFlush) {
        // A CLF is a crash point too: the states reachable here can
        // differ from the enclosing boundary's when a later store +
        // CLF refreshes a line's snapshot before the fence.
        Event event;
        event.kind = EventKind::Flush;
        event.seq = snapshot.flushSeq;
        recordPoint(event, device_->epochDepth() > 0, /*drains=*/false);
    }
}

void
CrashsimSession::onBoundary(const Event &event, int epoch_depth)
{
    // An EpochEnd's pending set belongs to the epoch it closes.
    const bool epoch_open =
        epoch_depth > 0 || event.kind == EventKind::EpochEnd;
    recordPoint(event, epoch_open, /*drains=*/true);
}

void
CrashsimSession::recordPoint(const Event &event, bool epoch_open,
                             bool drains)
{
    CrashPoint point;
    point.seq = event.seq;
    point.boundary = event.kind;
    point.epochOpen = epoch_open;
    point.drains = drains;
    point.pendingBegin = log_.lines.size();
    // The device's pending set already holds the line just queued and
    // is drained only after onBoundary returns. Store it in line order
    // so the log does not depend on the set's hash order.
    for (const auto &[line, snapshot] : device_->pendingLines()) {
        CapturedLine &cl = log_.lines.emplace_back();
        cl.line = line;
        cl.flushSeq = snapshot.flushSeq;
        cl.data = snapshot.data;
    }
    point.pendingEnd = log_.lines.size();
    std::sort(log_.lines.begin() + point.pendingBegin, log_.lines.end(),
              [](const CapturedLine &a, const CapturedLine &b) {
                  return a.line < b.line;
              });
    log_.points.push_back(point);
}

CrashsimResult
CrashsimSession::explore(PmDebugger *debugger) const
{
    return exploreCrashPoints(log_, verify_, options_, debugger);
}

} // namespace pmdb
