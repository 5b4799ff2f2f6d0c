#include "service/remote_sink.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "service/transport.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Publish-path metrics, resolved once; touched per frame, not per
 *  event. */
struct SinkMetrics
{
    telemetry::Counter &frames =
        telemetry::Registry::global().counter("client.sink.frames");
    telemetry::Counter &events =
        telemetry::Registry::global().counter("client.sink.events");
    telemetry::Counter &spilled =
        telemetry::Registry::global().counter("client.sink.spilled");
    telemetry::Counter &droppedEvents =
        telemetry::Registry::global().counter("client.sink.dropped");
    telemetry::Histogram &publishNs =
        telemetry::Registry::global().histogram("client.sink.publish_ns");
    telemetry::Histogram &blockStallNs = telemetry::Registry::global()
        .histogram("client.sink.block_stall_ns");

    static SinkMetrics &
    get()
    {
        static SinkMetrics instance;
        return instance;
    }
};

} // namespace

RemoteSink::~RemoteSink()
{
    disconnect();
}

bool
RemoteSink::connect(const Options &options, std::string *error)
{
    disconnect();
    options_ = options;
    if (options_.policy == SlowConsumerPolicy::Spill &&
        options_.spillPath.empty()) {
        return fail(error, "spill policy needs a spill path");
    }
    if (!ring_.create(options_.ringPath, options_.ringSlots, error))
        return false;
    if (options_.policy == SlowConsumerPolicy::Spill &&
        !spill_.open(options_.spillPath, error)) {
        ring_.close();
        return false;
    }

    fd_ = connectUnix(options_.socketPath, options_.connectTimeoutMs,
                      error);
    if (fd_ < 0) {
        ring_.close();
        return false;
    }

    HelloBody hello;
    hello.model = options_.model;
    hello.policy = options_.policy;
    hello.orderSpecText = options_.orderSpecText;
    hello.ringPath = options_.ringPath;
    hello.spillPath = options_.spillPath;
    hello.sharedPoolPath = options_.sharedPoolPath;
    hello.sharedWriterId = options_.sharedWriterId;
    MsgType type;
    std::vector<std::uint8_t> payload;
    if (!sendMessage(fd_, MsgType::Hello, hello.serialize()) ||
        !recvMessage(fd_, &type, &payload) ||
        type != MsgType::Welcome) {
        disconnect();
        return fail(error, "service handshake failed");
    }
    WireReader in(payload);
    session_ = in.get<std::uint32_t>();
    namesSent_ = 0;
    pushed_ = spilled_ = dropped_ = 0;
    spilling_ = false;
    dead_ = false;
    batch_.setCapacity(std::min<std::uint32_t>(
        std::max<std::uint32_t>(options_.batchEvents, 1),
        options_.ringSlots));
    return true;
}

bool
RemoteSink::ensureNamesSent(std::uint32_t name_id)
{
    if (!names_ || name_id == noName)
        return true;
    while (namesSent_ <= name_id) {
        WireWriter out;
        out.put(namesSent_);
        out.putString(names_->name(namesSent_));
        MsgType type;
        std::vector<std::uint8_t> payload;
        // Wait for the ack: the daemon has added the name to the
        // session's name table, so the event referencing it may now
        // enter the ring.
        // Events already batched do not reference this name (it was
        // interned after them), so they may legally cross later.
        if (!sendMessage(fd_, MsgType::InternName, out.bytes()) ||
            !recvMessage(fd_, &type, &payload) ||
            type != MsgType::NameAck) {
            return false;
        }
        ++namesSent_;
    }
    return true;
}

/** Append @p count events to the spill trace, preceded by every name
 *  already sent to the daemon that the file lacks: batched events only
 *  reference those, so the spill file loads on its own. */
void
RemoteSink::spill(const Event *events, std::size_t count)
{
    for (std::uint32_t id = spill_.namesWritten(); id < namesSent_; ++id) {
        if (!spill_.appendName(id, names_->name(id)))
            break;
    }
    for (std::size_t i = 0; i < count; ++i) {
        if (spill_.append(events[i]))
            ++spilled_;
    }
}

/** Publish the accumulated batch as ring frames, applying the
 *  slow-consumer policy to whatever does not fit. */
void
RemoteSink::flushBatch()
{
    const Event *events = batch_.data();
    std::size_t remaining = batch_.size();
    if (!remaining)
        return;
    const bool telemetryOn = telemetry::enabled();
    const std::uint64_t publishStart =
        telemetryOn ? telemetry::nowNs() : 0;
    const std::size_t batchTotal = remaining;
    if (spilling_) {
        spill(events, remaining);
        if (telemetryOn)
            SinkMetrics::get().spilled.add(remaining);
        batch_.clear();
        return;
    }

    std::size_t accepted = ring_.tryPushBatch(events, remaining);
    if (accepted && telemetryOn)
        ring_.stampPublish(telemetry::nowNs());
    pushed_ += accepted;
    events += accepted;
    remaining -= accepted;

    if (remaining) {
        switch (options_.policy) {
          case SlowConsumerPolicy::Block: {
            // Out of credits: yield until the consumer frees slots.
            // The sleep matters on a single-CPU box, where pure
            // spinning would starve the very consumer being waited
            // on. A full ring that never drains means the daemon is
            // gone, so probe the control socket every ~10ms and cut
            // the stream rather than hang the instrumented
            // application forever.
            const std::uint64_t stallStart =
                telemetryOn ? telemetry::nowNs() : 0;
            int sleeps = 0;
            while (remaining) {
                accepted = ring_.tryPushBatch(events, remaining);
                if (accepted) {
                    if (telemetryOn)
                        ring_.stampPublish(telemetry::nowNs());
                    pushed_ += accepted;
                    events += accepted;
                    remaining -= accepted;
                    sleeps = 0;
                    continue;
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                if (++sleeps >= 200) {
                    sleeps = 0;
                    if (peerClosed(fd_)) {
                        dead_ = true;
                        warn("client/sink", "daemon vanished while "
                             "blocked on a full ring; stream cut");
                        batch_.clear();
                        return;
                    }
                }
            }
            if (telemetryOn) {
                SinkMetrics::get().blockStallNs.record(
                    telemetry::nowNs() - stallStart);
            }
            break;
          }
          case SlowConsumerPolicy::Drop:
            for (std::size_t i = 0; i < remaining; ++i)
                ring_.countDrop();
            dropped_ += remaining;
            if (telemetryOn)
                SinkMetrics::get().droppedEvents.add(remaining);
            break;
          case SlowConsumerPolicy::Spill:
            spilling_ = true;
            spill_.flush();
            spill(events, remaining);
            if (telemetryOn)
                SinkMetrics::get().spilled.add(batchTotal - accepted);
            break;
        }
    }
    if (telemetryOn) {
        SinkMetrics &metrics = SinkMetrics::get();
        metrics.frames.add(1);
        metrics.events.add(batchTotal);
        metrics.publishNs.record(telemetry::nowNs() - publishStart);
    }
    batch_.clear();
}

void
RemoteSink::append(const Event &event)
{
    batch_.push(event);
    if (batch_.full())
        flushBatch();
}

void
RemoteSink::handle(const Event &event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0)
        return;
    if (!ensureNamesSent(event.nameId)) {
        dead_ = true;
        warn("client/sink", "control plane failed; stream cut");
        return;
    }
    append(event);
}

void
RemoteSink::handleBatch(const Event *events, std::size_t count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0)
        return;
    for (std::size_t i = 0; i < count; ++i) {
        if (!ensureNamesSent(events[i].nameId)) {
            dead_ = true;
            warn("client/sink", "control plane failed; stream cut");
            return;
        }
        append(events[i]);
    }
}

void
RemoteSink::reportBug(const BugReport &report)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0)
        return;
    WireWriter out;
    putBugReport(out, report);
    if (!sendMessage(fd_, MsgType::ReportBug, out.bytes()))
        dead_ = true;
}

bool
RemoteSink::finish(ReportBody *out, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return fail(error, "not connected");
    if (!dead_)
        flushBatch(); // the tail of the stream is still client-side
    if (dead_) {
        disconnect();
        return fail(error, "session died mid-stream");
    }
    if (spill_.isOpen())
        spill_.close(); // make the tail durable before announcing it
    ring_.markProducerDone();

    ByeBody bye;
    bye.ringEvents = pushed_;
    bye.spillEvents = spilled_;
    MsgType type;
    std::vector<std::uint8_t> payload;
    bool ok = sendMessage(fd_, MsgType::Bye, bye.serialize()) &&
              recvMessage(fd_, &type, &payload) &&
              type == MsgType::Report &&
              ReportBody::deserialize(payload, out);
    if (!ok && error)
        *error = "service report exchange failed";
    disconnect();
    return ok;
}

void
RemoteSink::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (spill_.isOpen())
        spill_.close();
    ring_.close();
    // The spill file has served its purpose once the session is over.
    if (!options_.spillPath.empty())
        std::remove(options_.spillPath.c_str());
}

} // namespace pmdb
